//! Command-line parsing. Every malformed input is an error with a
//! message; nothing is ignored or defaulted silently.

use crate::Workload;

pub const USAGE: &str = "usage: perfbench --workload <serve|gray|mill|kcache> --seed <u64> \
[--seconds <1..=60>] [--trace <0|1>]";

/// Length of the measured loop when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, the length the benchmark's bounds
/// were measured at.
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured loop runs, in host seconds.
    pub seconds: u64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    Run(Args),
    Help,
}

fn number(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{flag} wants an unsigned integer, got {v:?}"))
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Command::Help);
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {arg:?}")),
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        let value = match inline {
            Some(v) => v,
            None => it.next().ok_or(format!("{flag} needs a value"))?,
        };
        *slot = Some(value);
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or(format!(
        "unknown workload {name:?} (known: {})",
        Workload::ALL.map(Workload::name).join(", ")
    ))?;
    let seed = number("--seed", &seed.ok_or("--seed is required")?)?;
    let seconds = match seconds {
        Some(v) => number("--seconds", &v)?,
        None => RUN_SECONDS,
    };
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace wants 0 or 1, got {v:?}")),
    };
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Command, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_every_flag() {
        let c = p("--workload mill --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            c,
            Command::Run(Args {
                workload: Workload::Mill,
                seed: 7,
                seconds: 3,
                trace: true
            })
        );
        assert!(matches!(p("--workload=serve --seed=0x10"),
            Ok(Command::Run(a)) if a.seed == 16 && a.seconds == RUN_SECONDS));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload serv --seed 1",
            "--workload serve",
            "--workload serve --seed -1",
            "--workload serve --seed 1x",
            "--workload serve --seed",
            "--workload serve --seed 1 --seed 2",
            "--workload serve --seed 1 --trace 2",
            "--workload serve --seed 1 --seconds 0",
            "--workload serve --seed 1 --seconds 61",
            "--workload serve --seed 1 --verbose",
            "serve",
        ] {
            assert!(p(bad).is_err(), "accepted {bad:?}");
        }
    }
}
