//! Short-horizon runs of every workload: the correctness gates pass,
//! the simulated results repeat exactly, and bad input fails loudly.

use perfbench::harness::{self, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::Workload;
use std::process::Command;

fn smoke(w: Workload, seed: u64, traced: bool) -> perfbench::episode::Episode {
    let mut tr = Tracer::new();
    tr.set_on(traced);
    w.episode(seed, true, &mut tr)
        .unwrap_or_else(|e| panic!("{} failed its gates: {e}", w.name()))
}

#[test]
fn every_workload_passes_its_gates() {
    for w in Workload::ALL {
        let e = smoke(w, 1, false);
        assert!(e.attempted > 0, "{} attempted nothing", w.name());
        assert_eq!(e.failed, 0, "{} failed operations", w.name());
        assert!(e.sim_cycles > 0 && e.slo_ok_ratio() > 0.0);
    }
}

#[test]
fn same_seed_same_simulation() {
    for w in Workload::ALL {
        let a = smoke(w, 7, false);
        // Tracing times the calls from outside; it must not change what
        // the simulator computes.
        let b = smoke(w, 7, true);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        assert_eq!(a.sim, b.sim, "{}", w.name());
        assert_eq!(a.latency, b.latency, "{}", w.name());
        assert_eq!(
            (a.attempted, a.sim_cycles),
            (b.attempted, b.sim_cycles),
            "{}",
            w.name()
        );
        let c = smoke(w, 8, false);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "{}: seed ignored",
            w.name()
        );
    }
}

#[test]
fn traced_layer_times_match_the_stopwatches() {
    // `kcache` puts a span on every interface call: the most spans, and
    // the most time between them, of any workload.
    let run = harness::measure(Workload::Kcache, 3, 1, true).expect("gates pass");
    let times = run.layer_times().expect("spans account for every phase");
    assert!(times.phases.iter().all(|&ns| ns > 0));
    assert!(run.per_layer(&times).iter().all(|v| v.is_finite()));
}

#[test]
fn peak_heap_repeats_for_a_seed() {
    let heap = || {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench-heap"))
            .args(["--workload", "kcache", "--seed", "1"])
            .output()
            .expect("run the heap binary");
        assert!(out.status.success());
        String::from_utf8(out.stdout)
            .unwrap()
            .trim()
            .parse::<usize>()
            .unwrap()
    };
    let a = heap();
    assert!(a > 1 << 20, "an episode holds more than 1 MiB, counted {a}");
    assert_eq!(a, heap());
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    // (name, unit) pairs in file order, read without a JSON library.
    let field = |s: &str, key: &str| -> Option<String> {
        let rest = &s[s.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let section = |key: &str| -> Vec<(String, String)> {
        let body = &text[text.find(&format!("\"{key}\": [")).expect("section")..];
        let body = &body[..body.find(']').expect("closed list")];
        body.split('}')
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), own(&END_TO_END));
    assert_eq!(section("per_layer"), own(&PER_LAYER));
}

#[test]
fn bad_input_exits_non_zero_without_a_result() {
    for args in [
        &["--workload", "serv", "--seed", "1"][..],
        &["--workload", "serve", "--seed", "one"],
        &["--workload", "serve"],
        &["--workload", "serve", "--seed", "1", "--trace", "yes"],
        &["--workload", "serve", "--seed", "1", "--sconds", "3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(!out.stderr.is_empty(), "{args:?} gave no message");
    }
}
