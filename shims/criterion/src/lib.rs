//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of the criterion API its benches use. Measurement is plain
//! `std::time::Instant` sampling: per sample the timed closure runs enough
//! iterations to amortize clock overhead, and the reported figure is the
//! median ns/iteration across samples. No plots, no statistics beyond
//! median/min/max — the benches exist to compare kernel-path costs
//! relative to each other and across commits.
//!
//! Across commits, the baseline flags of the real crate work on the
//! medians:
//!
//! * `--save-baseline <name>` writes each bench id's median ns/iter to
//!   `target/criterion/<name>.tsv` (one `id<TAB>median` line per id;
//!   ids already in the file from other bench binaries are kept);
//! * `--baseline <name>` reads that file before running and prints, per
//!   id, the new/old ratio of the medians.
//!
//! A missing or malformed baseline file ends the run with a message and
//! a non-zero exit. No noise threshold is applied: the ratio is printed,
//! not judged.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for a parameterized benchmark (`group/function/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Build an id from a function name and a displayed parameter.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Throughput annotation; recorded so rates appear in the report line.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Drives the timed closure of one benchmark.
pub struct Bencher {
    iters_hint: u64,
    /// Per-iteration cost of each completed sample, in nanoseconds.
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Time `routine`, running it in a batch sized to amortize timer cost.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let iters = self.iters_hint.max(1);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.record(start.elapsed(), iters);
    }

    /// Time with a caller-controlled loop: `routine` receives the
    /// iteration count and returns the elapsed time for exactly that many.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        let iters = self.iters_hint.max(1);
        let elapsed = routine(iters);
        self.record(elapsed, iters);
    }

    fn record(&mut self, elapsed: Duration, iters: u64) {
        self.samples_ns
            .push(elapsed.as_nanos() as f64 / iters as f64);
    }
}

/// One measured benchmark: runs the body repeatedly and prints a summary.
fn run_benchmark<F: FnMut(&mut Bencher)>(
    group: &str,
    id: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut body: F,
) {
    // Calibrate: one probe iteration decides the batch size so each
    // sample takes roughly a millisecond.
    let mut probe = Bencher {
        iters_hint: 1,
        samples_ns: Vec::new(),
    };
    body(&mut probe);
    let per_iter_ns = probe.samples_ns.last().copied().unwrap_or(1.0).max(1.0);
    let iters_hint = ((1_000_000.0 / per_iter_ns) as u64).clamp(1, 100_000);

    let mut b = Bencher {
        iters_hint,
        samples_ns: Vec::new(),
    };
    for _ in 0..samples.max(2) {
        body(&mut b);
    }
    b.samples_ns.sort_by(|x, y| x.total_cmp(y));
    let median = b.samples_ns[b.samples_ns.len() / 2];
    let min = b.samples_ns.first().copied().unwrap_or(0.0);
    let max = b.samples_ns.last().copied().unwrap_or(0.0);
    let name = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  {:>8.1} MiB/s", n as f64 * 1000.0 / median / 1.048_576)
        }
        Some(Throughput::Elements(n)) => {
            format!("  {:>8.1} Melem/s", n as f64 * 1000.0 / median)
        }
        None => String::new(),
    };
    println!("{name:<44} median {median:>12.1} ns/iter  [{min:.1} .. {max:.1}]{rate}");
    MEDIANS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((name, median));
}

/// Median ns/iter of every benchmark this process has run, in run order.
static MEDIANS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// What the command line asks to do with this run's medians.
#[derive(Debug, PartialEq)]
pub enum Baseline {
    /// Neither flag: just print the medians.
    Off,
    /// `--save-baseline <name>`: record the medians under `name`.
    Save(String),
    /// `--baseline <name>`: compare against the medians saved as
    /// `name`, loaded when the flag was parsed.
    Compare(String, Vec<(String, f64)>),
}

impl Baseline {
    /// Parse the bench binary's arguments and, for `--baseline`, load
    /// the saved file. Exits with a message on a bad flag or a missing
    /// or malformed baseline; other arguments (`--bench`, filters) are
    /// ignored as before.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(Baseline::Compare(name, _)) => {
                let path = baseline_path(&name);
                let loaded = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))
                    .and_then(|text| {
                        parse_baseline(&text)
                            .map_err(|e| format!("malformed baseline {}: {e}", path.display()))
                    });
                match loaded {
                    Ok(entries) => Baseline::Compare(name, entries),
                    Err(e) => fail(&e),
                }
            }
            Ok(mode) => mode,
            Err(e) => fail(&e),
        }
    }

    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut mode = Baseline::Off;
        let mut args = args;
        while let Some(arg) = args.next() {
            let save = match arg.as_str() {
                "--save-baseline" => true,
                "--baseline" => false,
                _ => continue,
            };
            let name = args
                .next()
                .filter(|n| !n.is_empty() && !n.starts_with('-') && !n.contains(['/', '\\']))
                .ok_or_else(|| format!("{arg} needs a baseline name (no path separators)"))?;
            if mode != Baseline::Off {
                return Err("give at most one of --save-baseline and --baseline".into());
            }
            mode = if save {
                Baseline::Save(name)
            } else {
                Baseline::Compare(name, Vec::new())
            };
        }
        Ok(mode)
    }

    /// Act on the medians of the finished run: write them, or print
    /// their ratios against the loaded baseline.
    pub fn finish(self) {
        let medians = std::mem::take(&mut *MEDIANS.lock().unwrap_or_else(|e| e.into_inner()));
        match self {
            Baseline::Off => {}
            Baseline::Save(name) => {
                let path = baseline_path(&name);
                // Keep what other bench binaries saved under this name;
                // an unreadable old file is simply replaced.
                let old = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| parse_baseline(&text).ok())
                    .unwrap_or_default();
                let text = render_baseline(&merge_baseline(old, &medians));
                let written = path
                    .parent()
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|()| std::fs::write(&path, text));
                if let Err(e) = written {
                    fail(&format!("cannot write baseline {}: {e}", path.display()));
                }
                println!("saved {} medians to {}", medians.len(), path.display());
            }
            Baseline::Compare(name, old) => {
                println!("-- against baseline {name} (new/old median ns/iter) --");
                for line in compare_lines(&old, &medians) {
                    println!("{line}");
                }
            }
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("criterion: {msg}");
    std::process::exit(2);
}

/// `target/criterion/<name>.tsv`, the target directory found from the
/// bench executable (`<target>/<profile>/deps/<bench>`).
fn baseline_path(name: &str) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.ancestors().nth(3).map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("criterion").join(format!("{name}.tsv"))
}

/// Parse `id<TAB>median_ns` lines. Every line must parse and the file
/// must hold at least one entry: a baseline that compares nothing is
/// an error, not a pass.
fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut entries = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let parsed = line.split_once('\t').and_then(|(id, ns)| {
            let ns: f64 = ns.trim().parse().ok()?;
            (!id.is_empty() && ns.is_finite() && ns >= 0.0).then(|| (id.to_string(), ns))
        });
        match parsed {
            Some(entry) => entries.push(entry),
            None => return Err(format!("line {}: expected `id<TAB>median_ns`", n + 1)),
        }
    }
    if entries.is_empty() {
        return Err("no entries".into());
    }
    Ok(entries)
}

fn render_baseline(entries: &[(String, f64)]) -> String {
    entries
        .iter()
        .map(|(id, ns)| format!("{id}\t{ns}\n"))
        .collect()
}

/// `old` with every id of `new` updated in place or appended.
fn merge_baseline(mut old: Vec<(String, f64)>, new: &[(String, f64)]) -> Vec<(String, f64)> {
    for (id, ns) in new {
        match old.iter_mut().find(|(o, _)| o == id) {
            Some(entry) => entry.1 = *ns,
            None => old.push((id.clone(), *ns)),
        }
    }
    old
}

/// One line per id of this run: its new/old ratio, or a note that the
/// baseline has no entry for it.
fn compare_lines(old: &[(String, f64)], new: &[(String, f64)]) -> Vec<String> {
    new.iter()
        .map(|(id, ns)| match old.iter().find(|(o, _)| o == id) {
            Some(&(_, base)) if base > 0.0 => {
                format!("{id:<44} {:>8.3}x  ({ns:.1} / {base:.1} ns)", ns / base)
            }
            _ => format!("{id:<44} (not in baseline)"),
        })
        .collect()
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Set the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Annotate following benchmarks with a throughput rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for compatibility; sampling time is derived automatically.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        body: F,
    ) -> &mut Self {
        let id = id.into();
        run_benchmark(&self.name, &id.id, self.sample_size, self.throughput, body);
        self
    }

    /// Run one parameterized benchmark in this group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut body: F,
    ) -> &mut Self {
        let id = id.into();
        run_benchmark(&self.name, &id.id, self.sample_size, self.throughput, |b| {
            body(b, input)
        });
        self
    }

    /// End the group. (Reports are printed as benchmarks complete.)
    pub fn finish(self) {}
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }

    /// Run one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        body: F,
    ) -> &mut Self {
        let id = id.into();
        run_benchmark("", &id.id, 20, None, body);
        self
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups in order, then saving or
/// comparing baselines as the command line asks.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let baseline = $crate::Baseline::from_args();
            $($group();)+
            baseline.finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_iter_records_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut count = 0u64;
        g.bench_function("spin", |b| b.iter(|| count = count.wrapping_add(1)));
        g.bench_function("custom", |b| {
            b.iter_custom(|iters| Duration::from_nanos(iters * 5))
        });
        g.finish();
        assert!(count > 0);
    }

    fn args(a: &[&str]) -> impl Iterator<Item = String> {
        a.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn baseline_flags_parse() {
        assert_eq!(Baseline::parse(args(&["--bench"])), Ok(Baseline::Off));
        assert_eq!(
            Baseline::parse(args(&["--bench", "--save-baseline", "gate"])),
            Ok(Baseline::Save("gate".into()))
        );
        assert_eq!(
            Baseline::parse(args(&["--baseline", "gate", "--bench"])),
            Ok(Baseline::Compare("gate".into(), Vec::new()))
        );
        assert!(Baseline::parse(args(&["--baseline"])).is_err());
        assert!(Baseline::parse(args(&["--save-baseline", "--bench"])).is_err());
        assert!(Baseline::parse(args(&["--baseline", "../x"])).is_err());
        assert!(Baseline::parse(args(&["--baseline", "a", "--save-baseline", "b"])).is_err());
    }

    #[test]
    fn baseline_file_round_trips_merges_and_rejects_garbage() {
        let saved = vec![("g/a".to_string(), 45.5), ("g/b".to_string(), 1200.0)];
        let text = render_baseline(&saved);
        assert_eq!(parse_baseline(&text), Ok(saved.clone()));
        // A second bench binary saving under the same name keeps the
        // first one's ids and updates its own.
        let merged = merge_baseline(saved, &[("g/b".into(), 1000.0), ("h/c".into(), 7.0)]);
        assert_eq!(
            merged,
            vec![
                ("g/a".to_string(), 45.5),
                ("g/b".to_string(), 1000.0),
                ("h/c".to_string(), 7.0)
            ]
        );
        assert!(
            parse_baseline("").is_err(),
            "an empty baseline compares nothing"
        );
        assert!(parse_baseline("g/a 45.5\n").is_err(), "no tab");
        assert!(parse_baseline("g/a\tfast\n").is_err(), "not a number");
        assert!(
            parse_baseline("g/a\t1\n\tNaN\n").is_err(),
            "bad second line"
        );
    }

    #[test]
    fn comparison_prints_ratio_per_id() {
        let old = vec![("g/a".to_string(), 50.0)];
        let lines = compare_lines(&old, &[("g/a".into(), 25.0), ("g/new".into(), 9.0)]);
        assert!(
            lines[0].starts_with("g/a") && lines[0].contains("0.500x"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("not in baseline"), "{}", lines[1]);
    }
}
