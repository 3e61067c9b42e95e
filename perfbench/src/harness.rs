//! The measured loop and the metrics it prints.
//!
//! A run repeats one seeded episode until `--seconds` have passed (at
//! least [`MIN_REPS`] times). Every repetition must give the warm-up's
//! fingerprint. Host metrics are medians over the repetitions; the
//! simulated ones repeat exactly and are read from the first.

use crate::clock::Reference;
use crate::episode::{median, percentile_ns, Episode};
use crate::trace::{Layer, Name, Tracer, CHAN_SIZES, LAYERS};
use crate::Workload;
use std::time::{Duration, Instant};

pub const MIN_REPS: usize = 3;

/// The end-to-end metrics, with their units, printed without tracing.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_host_s", "1/s"),
    ("mcycles_per_host_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("sim_cycles_per_op", "cycles"),
    ("p99_cycles", "cycles"),
    ("slo_ok_ratio", "ratio"),
];

/// The per-layer metrics, with their units, printed by the traced run.
/// A workload that leaves a layer alone reports 0 for its counts. Host
/// times are given only for span kinds every workload has; the host
/// time of single Cache Kernel, signal and channel calls is printed
/// beside them by kind ([`Run::call_timings`]).
pub const PER_LAYER: [(&str, &str); 51] = [
    ("p50_cycles", "cycles"),
    ("exec.call_ns", "ns"),
    ("exec.events", "count"),
    ("exec.events_per_host_s", "1/s"),
    ("exec.faults_forwarded", "count"),
    ("exec.traps_forwarded", "count"),
    ("shard.msgs", "count"),
    ("shard.rings_full", "count"),
    ("shard.inflight_max", "count"),
    ("ck.reload_ratio", "ratio"),
    ("ck.writebacks", "count"),
    ("ck.events_pending_max", "count"),
    ("ck.shootdown_rounds", "count"),
    ("ck.pages_per_round", "count"),
    ("sig.fast_ratio", "ratio"),
    ("chan.copy_cycles.64", "cycles"),
    ("chan.copy_cycles.1024", "cycles"),
    ("chan.copy_cycles.3900", "cycles"),
    ("chan.remap_cycles.64", "cycles"),
    ("chan.remap_cycles.1024", "cycles"),
    ("chan.remap_cycles.3900", "cycles"),
    ("hw.tlb.hit_ratio", "ratio"),
    ("hw.l2.hit_ratio", "ratio"),
    ("hw.rtlb.hit_ratio", "ratio"),
    ("hw.fabric.tx_packets", "count"),
    ("hw.fabric.frames_delayed", "count"),
    ("hw.fabric.pending_max", "count"),
    ("web.front_hit_ratio", "ratio"),
    ("web.forward_ratio", "ratio"),
    ("web.shed", "count"),
    ("web.expired", "count"),
    ("web.outstanding_max", "count"),
    ("web.gen_shortfall", "ratio"),
    ("web.steered", "count"),
    ("retry.attempts_per_arrival", "ratio"),
    ("retry.budget_denied", "count"),
    ("hedge.sent", "count"),
    ("hedge.win_ratio", "ratio"),
    ("srm.suspect_slow", "count"),
    ("srm.false_dead", "count"),
    ("reliable.rpc_retries", "count"),
    ("reliable.frames_reordered", "count"),
    ("fail_ratio", "ratio"),
    ("self.setup_s", "s"),
    ("self.program_s", "s"),
    ("self.probe_s", "s"),
    ("self.verify_s", "s"),
    ("self.bench_s", "s"),
    ("trace.phase_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// One timed repetition of the episode.
pub struct Rep {
    pub ep: Episode,
    /// Whether it recorded spans.
    pub traced: bool,
    /// The reference's nominal time over the faster of its passes run
    /// just before and just after it: multiply a host time by this to
    /// read it at the reference speed. The faster pass is the one a
    /// passing hiccup did not hit.
    pub scale: f64,
}

impl Rep {
    /// Operations per second of scaled host CPU time.
    fn ops_per_s(&self) -> f64 {
        self.ep.attempted as f64 / (self.ep.run.cpu.as_secs_f64() * self.scale)
    }
}

/// Everything a run measured.
pub struct Run {
    pub reps: Vec<Rep>,
    pub tracer: Tracer,
    pub wall: Duration,
}

/// Repetitions that record spans in a traced run. Every span stays in
/// memory, so the count is fixed rather than growing with `--seconds`.
pub const TRACED_REPS: usize = 3;

/// Repeat the seeded episode for `seconds`, after one untimed warm-up
/// repetition, with a reference pass before and after each. With
/// `trace`, the first [`TRACED_REPS`] even-numbered repetitions record
/// spans and the rest do not, so one run gives both the traced and the
/// untraced speed.
pub fn measure(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let mut tracer = Tracer::new();
    let mut reference = Reference::new(w.reference());
    let warm = w.episode(seed, false, &mut tracer)?.fingerprint();
    let min = if trace { 2 * TRACED_REPS } else { MIN_REPS };
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_reps = 0;
    let mut before = reference.time();
    while reps.len() < min || t0.elapsed() < budget {
        let traced = trace && traced_reps < TRACED_REPS && reps.len().is_multiple_of(2);
        traced_reps += usize::from(traced);
        tracer.set_on(traced);
        let rep = tracer.open(Name::Rep);
        let ep = w.episode(seed, false, &mut tracer);
        tracer.close(rep);
        tracer.set_on(false);
        let ep = ep?;
        if ep.fingerprint() != warm {
            return Err(format!(
                "repetition {} gave fingerprint {:#018x}, the warm-up gave {warm:#018x}",
                reps.len(),
                ep.fingerprint(),
            ));
        }
        let after = reference.time();
        let scale = reference.scale(before.min(after));
        before = after;
        reps.push(Rep { ep, traced, scale });
    }
    Ok(Run {
        reps,
        tracer,
        wall: t0.elapsed(),
    })
}

impl Run {
    fn first(&self) -> &Episode {
        &self.reps[0].ep
    }

    fn untraced(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(|r| !r.traced)
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.ep.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.ep.failed).sum()
    }

    /// Median over the untraced repetitions of `f`.
    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.untraced().map(f).collect::<Vec<_>>())
    }

    /// Raw host figures, unscaled: operations per CPU second and per
    /// wall-clock second, and the median scale applied.
    pub fn raw_host(&self) -> (f64, f64, f64) {
        let ops = |e: &Episode, d: Duration| e.attempted as f64 / d.as_secs_f64();
        (
            self.median_of(|r| ops(&r.ep, r.ep.run.cpu)),
            self.median_of(|r| ops(&r.ep, r.ep.run.wall)),
            self.median_of(|r| r.scale),
        )
    }

    /// The end-to-end metrics, in [`END_TO_END`] order, given the peak
    /// heap bytes of one episode. Host figures are medians over the
    /// untraced repetitions. Throughput is read at the reference speed;
    /// set-up time is not scaled, since its page faults and first-touch
    /// allocation do not slow down with the reference.
    pub fn end_to_end(&self, heap: usize) -> Vec<f64> {
        let e = self.first();
        vec![
            self.median_of(Rep::ops_per_s),
            self.median_of(|r| {
                r.ep.sim_cycles as f64 / 1e6 / (r.ep.run.cpu.as_secs_f64() * r.scale)
            }),
            median(
                &self
                    .reps
                    .iter()
                    .map(|r| r.ep.setup.cpu.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            heap as f64 / 1e6,
            e.sim_cycles_per_op(),
            e.latency.percentile(0.99) as f64,
            e.slo_ok_ratio(),
        ]
    }

    /// Host time of the traced repetitions by layer, checked against
    /// the episodes' own stopwatches.
    pub fn layer_times(&self) -> Result<LayerTimes, String> {
        let mut phases = [0u64; 3];
        for r in self.reps.iter().filter(|r| r.traced) {
            let e = &r.ep;
            for (sum, d) in phases.iter_mut().zip([e.setup, e.run, e.verify]) {
                *sum += d.wall.as_nanos() as u64;
            }
        }
        let t = LayerTimes {
            parts: self.tracer.by_layer()?,
            phases,
        };
        t.check()?;
        Ok(t)
    }

    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub fn per_layer(&self, times: &LayerTimes) -> Vec<f64> {
        let tr = &self.tracer;
        let traced: Vec<&Rep> = self.reps.iter().filter(|r| r.traced).collect();
        let e = self.first();
        let sim = |name: &str| {
            e.sim
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        let calls = tr.durations(|n| n.layer().in_program());
        let step_s = tr.durations(|n| n == Name::Step).iter().sum::<u64>() as f64 / 1e9;
        let self_s = |keep: fn(Layer) -> bool| times.sum(keep) as f64 / 1e9;
        // Tracing overhead: each traced repetition against the untraced
        // one right after it, so both ran under the same host conditions.
        let ops = |reps: &mut dyn Iterator<Item = &Rep>| {
            median(&reps.map(Rep::ops_per_s).collect::<Vec<_>>())
        };
        let traced_ops = ops(&mut traced.iter().copied());
        let next_ops = ops(&mut self
            .reps
            .windows(2)
            .filter(|w| w[0].traced && !w[1].traced)
            .map(|w| &w[1]));
        let host = [
            ("p50_cycles", e.latency.percentile(0.50) as f64),
            (
                "exec.call_ns",
                calls.iter().sum::<u64>() as f64 / calls.len().max(1) as f64,
            ),
            (
                "exec.events_per_host_s",
                if step_s > 0.0 {
                    sim("exec.events") * traced.len() as f64 / step_s
                } else {
                    0.0
                },
            ),
            ("fail_ratio", e.fail_ratio()),
            ("self.setup_s", self_s(|l| l == Layer::Setup)),
            ("self.program_s", self_s(Layer::in_program)),
            ("self.probe_s", self_s(|l| l == Layer::Probe)),
            ("self.verify_s", self_s(|l| l == Layer::Verify)),
            ("self.bench_s", self_s(|l| l == Layer::Bench)),
            ("trace.phase_s", times.phase() as f64 / 1e9),
            ("trace.overhead_pct", 100.0 * (1.0 - traced_ops / next_ops)),
            ("trace.spans", tr.spans().len() as f64),
        ];
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                host.iter()
                    .find(|(n, _)| n == name)
                    .map_or_else(|| sim(name), |&(_, v)| v)
            })
            .collect()
    }

    /// Wall-clock host time of single calls into the program by kind,
    /// over the traced repetitions: the median, and the 99th percentile
    /// for mapping loads, in ns. Only the kinds this workload makes are
    /// listed.
    pub fn call_timings(&self) -> Vec<(String, f64)> {
        let mut kinds = vec![
            Name::Step,
            Name::QueryMapping,
            Name::LoadMapping,
            Name::QueryThread,
            Name::LoadThread,
            Name::TakeWritebacks,
            Name::SigRaise,
            Name::SigStorm,
            Name::SigDrain,
        ];
        for i in 0..CHAN_SIZES.len() as u8 {
            kinds.extend([Name::ChanCopy(i), Name::ChanRemap(i)]);
        }
        let mut out = Vec::new();
        for kind in kinds {
            let mut ns = self.tracer.durations(|n| n == kind);
            if ns.is_empty() {
                continue;
            }
            let name = kind.label();
            out.push((format!("{name}.p50"), percentile_ns(&mut ns, 0.50)));
            if kind == Name::LoadMapping {
                out.push((format!("{name}.p99"), percentile_ns(&mut ns, 0.99)));
            }
        }
        out
    }
}

/// Largest share of the whole measured phase by which the spans of one
/// phase may disagree with the episode's stopwatch over it. What the
/// spans leave out is the time between a stopwatch reading and the span
/// next to it, microseconds per repetition; the slack covers a
/// preemption landing there.
pub const ACCOUNT_TOLERANCE: f64 = 0.01;

/// Host time of the traced repetitions: span self time by layer, and
/// the wall time of the same phases as the episodes' stopwatches read
/// it, independently of the spans.
pub struct LayerTimes {
    /// Span self time in ns, in [`LAYERS`] order.
    pub parts: [u64; LAYERS.len()],
    /// Stopwatch wall time in ns of set-up, measured run and verify.
    pub phases: [u64; 3],
}

impl LayerTimes {
    /// Names of [`LayerTimes::phases`].
    pub const PHASES: [&'static str; 3] = ["setup", "run", "verify"];

    /// The measured phase: set-up, run and verify by the stopwatches.
    pub fn phase(&self) -> u64 {
        self.phases.iter().sum()
    }

    /// Self time of the layers `keep` selects.
    pub fn sum(&self, keep: impl Fn(Layer) -> bool) -> u64 {
        LAYERS
            .iter()
            .zip(self.parts)
            .filter(|((l, _), _)| keep(*l))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Self time of the layers charged to each stopwatch phase. The
    /// benchmark's own work (the `rep` span's self time) is charged to
    /// the run: that is where its loop runs.
    pub fn spanned(&self) -> [u64; 3] {
        [
            self.sum(|l| l == Layer::Setup),
            self.sum(|l| !matches!(l, Layer::Setup | Layer::Verify)),
            self.sum(|l| l == Layer::Verify),
        ]
    }

    /// Fail unless the spans of each phase add up to the stopwatch's
    /// reading of it within [`ACCOUNT_TOLERANCE`] of the whole measured
    /// phase.
    pub fn check(&self) -> Result<(), String> {
        let slack = ACCOUNT_TOLERANCE * self.phase() as f64;
        for ((name, sw), spans) in Self::PHASES.iter().zip(self.phases).zip(self.spanned()) {
            if (sw as f64 - spans as f64).abs() > slack {
                return Err(format!(
                    "per-layer self times of the {name} phase add up to {spans} ns, \
                     its stopwatch read {sw} ns"
                ));
            }
        }
        Ok(())
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, unit, v) in metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn layer_times_must_match_the_stopwatches() {
        // setup, exec, ck, sig, chan, probe, verify, bench
        let parts = [100, 700, 0, 0, 0, 50, 100, 50];
        assert!(LayerTimes {
            parts,
            phases: [100, 800, 100]
        }
        .check()
        .is_ok());
        // The run's spans cover 800 ns, its stopwatch read 700.
        assert!(LayerTimes {
            parts,
            phases: [100, 700, 100]
        }
        .check()
        .is_err());
    }

    #[test]
    fn result_line_is_json() {
        let line = result_json(true, 3, 0, &[("setup_s", "s", 0.25)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, &[("x", "s", f64::NAN)]).is_err());
    }
}
