//! Gray-failure properties (ISSUE 10): deterministic slow-fault
//! schedules against the serving cluster on SRM membership.
//!
//! The properties this file pins, all gates in `scripts/check.sh`:
//!
//! * a pure-delay schedule (stragglers, not corpses) mints **zero**
//!   quorum `NodeDown` epochs — the two-level suspicion ladder parks it
//!   at suspect-slow and the epoch stays 1,
//! * a genuinely dead node is still detected within the same tick
//!   budget as before the adaptive thresholds existed,
//! * with every gray knob at its default the new counters are all
//!   zero — the feature is byte-inert until asked for,
//! * the hedge spend ledger balances exactly:
//!   `attempts - arrivals == budget.spent - parked`,
//! * a delayed, jittered, hedged run replays byte-identically per seed.

use vpp::cache_kernel::{Cluster, LockedQuota, MAX_CPUS};
use vpp::hw::FaultPlan;
use vpp::libkern::{Backoff, RetryBudget};
use vpp::srm::Srm;
use vpp::workloads::web_serving::{
    latency_percentile, Arrival, WebFrontKernel, WebServingConfig, WebStats, LAT_BUCKETS,
    WEB_CHANNEL,
};
use vpp::{boot_cluster, BootConfig};

const SEED: u64 = 0x06ea_7f00_0000_0001;
/// The straggler starts limping here (well after membership settles).
const SLOW_AT: u64 = 300_000;
const RUN_UNTIL: u64 = 1_500_000;

/// Everything one run decides, for assertions and replay comparison.
#[derive(Clone, Debug, PartialEq)]
struct GrayOutcome {
    stats: Vec<WebStats>,
    budget_spent: Vec<u64>,
    outstanding: Vec<(usize, usize)>,
    latency: Vec<[u64; LAT_BUCKETS]>,
    /// Summed over nodes: (nodes_down, epoch_changes,
    /// nodes_suspected_slow, hedges_sent, hedges_won, hedges_wasted,
    /// frames_reordered).
    gray_counters: (u64, u64, u64, u64, u64, u64, u64),
    frames_delayed: u64,
}

fn run_gray(
    nodes: usize,
    run_until: u64,
    plan: Option<FaultPlan>,
    mk_cfg: impl Fn(usize) -> WebServingConfig,
) -> GrayOutcome {
    let (mut cluster, srms) = boot_cluster(
        nodes,
        BootConfig {
            clock_interval: 5_000,
            ..BootConfig::default()
        },
    );
    let mut ids = Vec::new();
    for (node, ex) in cluster.nodes.iter_mut().enumerate() {
        let id = ex
            .with_kernel::<Srm, _>(srms[node], |s, env| {
                s.start_kernel(env, "web", 2, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .unwrap()
            .expect("grant available");
        ex.register_kernel(
            id,
            Box::new(WebFrontKernel::new(WebServingConfig {
                node,
                cluster_nodes: nodes,
                ..mk_cfg(node)
            })),
        );
        ex.register_channel(WEB_CHANNEL, id);
        ids.push(id);
    }
    cluster.net_faults = plan;
    step_to(&mut cluster, run_until);

    let mut out = GrayOutcome {
        stats: Vec::new(),
        budget_spent: Vec::new(),
        outstanding: Vec::new(),
        latency: Vec::new(),
        gray_counters: (0, 0, 0, 0, 0, 0, 0),
        frames_delayed: cluster.fabric.frames_delayed(),
    };
    for (node, &id) in cluster.nodes.iter_mut().zip(ids.iter()) {
        if node.mpm.halted {
            continue;
        }
        let s = node.ck.stats;
        out.gray_counters.0 += s.nodes_down;
        out.gray_counters.1 += s.epoch_changes;
        out.gray_counters.2 += s.nodes_suspected_slow;
        out.gray_counters.3 += s.hedges_sent;
        out.gray_counters.4 += s.hedges_won;
        out.gray_counters.5 += s.hedges_wasted;
        out.gray_counters.6 += s.frames_reordered;
        node.with_kernel::<WebFrontKernel, _>(id, |k, _| {
            out.stats.push(k.stats);
            out.budget_spent.push(k.budget.spent);
            out.outstanding.push(k.outstanding());
            out.latency.push(k.latency);
        })
        .unwrap();
        node.ck.check_invariants().unwrap();
    }
    out
}

fn step_to(cluster: &mut Cluster, target: u64) {
    while cluster
        .nodes
        .iter()
        .map(|n| n.mpm.clock.cycles())
        .max()
        .unwrap()
        < target
    {
        cluster.step(5);
    }
}

/// Serving load with deadlines and budget armed — the shape the hedging
/// machinery runs over. Hedging itself is off unless a test turns it on.
fn gray_cfg(node: usize) -> WebServingConfig {
    WebServingConfig {
        clients: 3_000,
        keys: 1_536,
        arrival: Arrival::Open { per_mcycle: 0.3 },
        deadline: 250_000,
        max_inflight: 256,
        retry: Backoff {
            max_attempts: 6,
            cap: 40_000,
            jitter_permille: 300,
        },
        budget: RetryBudget::new(512, 200),
        cache_pages: 64,
        seed: SEED ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ..WebServingConfig::default()
    }
}

fn hedged_cfg(node: usize) -> WebServingConfig {
    WebServingConfig {
        hedge_after: 30_000,
        hedge_ewma_permille: 2_000,
        steer: true,
        ..gray_cfg(node)
    }
}

/// Node 2 limps at 20x (2_500 * 19 = 47_500 extra cycles per frame
/// touching it — ~9.5 ticks, past the slow threshold, short of the
/// 12-tick dead threshold), with bounded jitter so the delay wobbles.
fn straggler_plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .delay_jitter(SLOW_AT, 500)
        .slow_node(SLOW_AT, 2, 20_000)
}

/// The tentpole membership property: a straggler is *slow*, not
/// *dead*. The delay schedule drives gaps past the slow threshold —
/// the advisory fires — but membership never mints a quorum `NodeDown`
/// epoch for a node that is still talking, however haltingly.
#[test]
fn pure_delay_schedule_never_mints_an_epoch() {
    let o = run_gray(3, RUN_UNTIL, Some(straggler_plan()), gray_cfg);
    let (down, epochs, slow, ..) = o.gray_counters;
    assert!(o.frames_delayed > 0, "the schedule actually delayed frames");
    assert!(slow > 0, "the slow advisory never fired: {o:?}");
    assert_eq!(down, 0, "a delay-only schedule declared a node dead");
    assert_eq!(epochs, 0, "a delay-only schedule minted an epoch");
    // The straggler keeps serving: every node completes real traffic.
    for (n, s) in o.stats.iter().enumerate() {
        assert!(s.completed > 300, "node {n} stalled: {s:?}");
    }
}

/// The other side of the ladder: adaptive thresholds must not slow
/// down real death. A node that goes silent is detected and its epoch
/// minted within the legacy budget — `SUSPICION_TICKS` of silence plus
/// slack for the ad cadence, nowhere near the end of the run.
#[test]
fn dead_node_is_still_detected_within_the_legacy_budget() {
    const DIE_AT: u64 = 300_000;
    // The same detection window `prop_partition` grants its whole-node
    // failure (suspicion plus ad cadence plus the quorum round) — the
    // adaptive thresholds must not need a single cycle more.
    const DETECT_BUDGET: u64 = 300_000;
    let plan = FaultPlan::new(SEED).node_down(DIE_AT, 2);
    let o = run_gray(3, DIE_AT + DETECT_BUDGET, Some(plan), gray_cfg);
    let (down, epochs, ..) = o.gray_counters;
    assert!(down > 0, "the dead node was never declared down: {o:?}");
    assert!(epochs > 0, "death minted no epoch: {o:?}");
}

/// Every gray knob at its default: no delays, no hedges, no steering,
/// no slow suspicion, no reordering — all the new counters pinned at
/// zero, and the spend ledger degenerates to `attempts == arrivals`.
#[test]
fn all_knobs_off_leaves_gray_counters_inert() {
    let o = run_gray(3, 800_000, None, |node| WebServingConfig {
        clients: 2_000,
        keys: 1_024,
        arrival: Arrival::Open { per_mcycle: 0.5 },
        seed: SEED ^ node as u64,
        ..WebServingConfig::default()
    });
    assert_eq!(o.frames_delayed, 0);
    let (down, epochs, slow, hsent, hwon, hwaste, reord) = o.gray_counters;
    assert_eq!(
        (down, epochs, slow, hsent, hwon, hwaste, reord),
        (0, 0, 0, 0, 0, 0, 0),
        "gray counters moved with every knob off"
    );
    for (n, s) in o.stats.iter().enumerate() {
        assert_eq!(
            s.hedges_sent + s.hedges_denied + s.steered_away,
            0,
            "node {n}"
        );
        assert_eq!(s.attempts, s.arrivals, "node {n} spent tokens unasked");
        assert_eq!(o.budget_spent[n], 0, "node {n}");
        assert!(s.completed > 200, "node {n} still serves: {s:?}");
    }
}

/// Hedging against a live straggler: duplicates go out, some win, and
/// the token ledger balances to the cycle —
/// `attempts - arrivals == budget.spent - parked` on every node.
#[test]
fn hedges_fire_win_and_balance_the_budget_ledger() {
    let o = run_gray(3, RUN_UNTIL, Some(straggler_plan()), hedged_cfg);
    let (_, epochs, _, hsent, hwon, ..) = o.gray_counters;
    assert_eq!(epochs, 0, "hedging must not cause epoch churn");
    assert!(hsent > 0, "no hedges fired against a 20x straggler: {o:?}");
    assert!(hwon > 0, "no hedge ever beat the straggler: {o:?}");
    for (n, s) in o.stats.iter().enumerate() {
        let (inflight, parked) = o.outstanding[n];
        // The original arrival ledger still balances with hedging on.
        assert_eq!(
            s.arrivals,
            s.completed + s.budget_denied + s.attempts_exhausted + inflight as u64 + parked as u64,
            "node {n} arrival ledger: {s:?}"
        );
        // And the spend ledger: every attempt beyond its arrival was
        // paid for by exactly one budget token (tokens parked for
        // not-yet-readmitted retries are still in escrow).
        assert_eq!(
            s.attempts - s.arrivals,
            o.budget_spent[n] - parked as u64,
            "node {n} spend ledger: {s:?}"
        );
        // Hedge outcomes partition: every hedge resolved so far won or
        // was wasted; unresolved ones are still inflight.
        assert!(
            s.hedges_won + s.hedges_wasted <= s.hedges_sent,
            "node {n} hedge outcomes overflow: {s:?}"
        );
    }
    // Latency sanity on the hedged run.
    for lat in &o.latency {
        let p50 = latency_percentile(lat, 0.50);
        let p99 = latency_percentile(lat, 0.99);
        assert!(p50 >= 1 && p50 <= p99, "p50 {p50} p99 {p99}");
    }
}

/// Determinism under the full gray stack: delays, jitter, hedging and
/// steering all armed — same seed, byte-identical outcome; different
/// seed, different outcome.
#[test]
fn delayed_hedged_run_replays_byte_identically() {
    let a = run_gray(3, RUN_UNTIL, Some(straggler_plan()), hedged_cfg);
    let b = run_gray(3, RUN_UNTIL, Some(straggler_plan()), hedged_cfg);
    assert_eq!(a, b, "same seed must replay byte-identically");

    let c = run_gray(3, RUN_UNTIL, Some(straggler_plan()), |node| {
        WebServingConfig {
            seed: (SEED ^ 0xff) ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..hedged_cfg(node)
        }
    });
    assert_ne!(a.stats, c.stats, "a different seed must diverge");
}
