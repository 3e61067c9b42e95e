//! `perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload, checks its correctness gates, and prints the
//! host metadata, the fingerprint of every simulated statistic, and as
//! its last line one JSON object with the metrics. Exits 2 on bad
//! input and 1 when a correctness gate fails.

use perfbench::cli::{self, Command};
use perfbench::harness::{self, LayerTimes, Run, END_TO_END, PER_LAYER};
use perfbench::trace::LAYERS;
use std::process::ExitCode;

fn meta(args: &cli::Args, run: &Run) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": \"{}\", \"profile\": \"{profile}\", \"git_rev\": \"{}\", \
         \"reps\": {}, \"wall_s\": {:.3}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_GIT_REV"),
        run.reps.len(),
        run.wall.as_secs_f64(),
    )
}

fn report(args: &cli::Args, run: &Run) -> Result<String, String> {
    let e = &run.reps[0].ep;
    let meta = meta(args, run);
    println!("{meta}");
    println!(
        "sim fingerprint={:#018x} ops={} latency_ops={} failed={} incomplete={} sim_cycles={} \
         latency_resolution=\"{}\" slo_limit_cycles={}",
        e.fingerprint(),
        e.attempted,
        e.latency_ops,
        e.failed,
        e.incomplete,
        e.sim_cycles,
        e.latency.resolution(),
        e.slo_limit
    );
    let (cpu, wall, scale) = run.raw_host();
    println!(
        "host raw ops_per_cpu_s={cpu:.1} ops_per_wall_s={wall:.1} median_scale={scale:.4} \
         (the metrics are CPU time at the reference speed)"
    );
    println!(
        "sim p50_cycles={} p99_cycles={} latency_cycles {}",
        e.latency.percentile(0.50),
        e.latency.percentile(0.99),
        e.latency.summary()
    );
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let times = run.layer_times()?;
        let phase = times.phase();
        println!(
            "traced phase {:.6} s by the episodes' stopwatches, self time by layer:",
            phase as f64 / 1e9
        );
        for ((_, name), ns) in LAYERS.iter().zip(times.parts) {
            println!(
                "  {name:<14} {:>12.6} s {:>6.2} %",
                ns as f64 / 1e9,
                100.0 * ns as f64 / phase.max(1) as f64
            );
        }
        let phases = LayerTimes::PHASES
            .iter()
            .zip(times.phases)
            .zip(times.spanned());
        for ((name, sw), spans) in phases {
            println!(
                "  {name} phase: stopwatch {:.6} s, spans {:.6} s",
                sw as f64 / 1e9,
                spans as f64 / 1e9
            );
        }
        let values = run.per_layer(&times);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.csv", args.workload.name()));
        run.tracer
            .write_csv(&path, &meta)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        let timings: Vec<String> = run
            .call_timings()
            .iter()
            .map(|(name, ns)| format!("{name}={ns:.0}"))
            .collect();
        println!("host call timings (wall ns): {}", timings.join(" "));
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    } else {
        let heap = peak_heap(args)?;
        END_TO_END
            .iter()
            .zip(run.end_to_end(heap))
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    harness::result_json(true, run.attempted(), run.failed(), &metrics)
}

/// Peak heap bytes of one episode, counted by the `perfbench-heap`
/// binary beside this one, so that the timed repetitions here run on
/// the plain system allocator.
fn peak_heap(args: &cli::Args) -> Result<usize, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("locating the benchmark binary: {e}"))?
        .with_file_name("perfbench-heap");
    let out = std::process::Command::new(&exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", exe.display(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("{} printed {text:?}, not a byte count", exe.display()))
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(a)) => a,
        Ok(Command::Help) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = harness::measure(args.workload, args.seed, args.seconds, args.trace)
        .and_then(|run| report(&args, &run));
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            if let Ok(line) = harness::result_json(false, 0, 0, &[]) {
                println!("{line}");
            }
            ExitCode::from(1)
        }
    }
}
