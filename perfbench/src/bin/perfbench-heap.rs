//! `perfbench-heap --workload <name> --seed <n>`
//!
//! Runs one untraced episode under the counting allocator and prints
//! the most heap bytes it held above the level it started at. The
//! `perfbench` binary runs this after its timed loop, so that its own
//! repetitions run on the plain system allocator. Exits 2 on bad input
//! and 1 when the episode fails its correctness gates.

use perfbench::cli::{self, Command};
use perfbench::mem::{self, Counting};
use perfbench::trace::Tracer;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(a)) => a,
        Ok(Command::Help) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench-heap: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new();
    let (ep, peak) = mem::count_peak(|| args.workload.episode(args.seed, false, &mut tracer));
    match ep {
        Ok(_) => {
            println!("{peak}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-heap: correctness check failed: {e}");
            ExitCode::from(1)
        }
    }
}
