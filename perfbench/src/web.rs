//! The `serve` and `gray` workloads: the web front of
//! `workloads::web_serving` on a classic fabric-connected cluster.

use crate::clock::Stopwatch;
use crate::episode::{mix, ratio, Episode, Latency};
use crate::layers::counter_figures;
use crate::trace::{Name, Tracer};
use vpp::cache_kernel::{Cluster, LockedQuota, ObjId, MAX_CPUS};
use vpp::hw::FaultPlan;
use vpp::libkern::{Backoff, RetryBudget};
use vpp::srm::Srm;
use vpp::workloads::web_serving::{
    Arrival, WebFrontKernel, WebServingConfig, WebStats, LAT_BUCKETS, WEB_CHANNEL,
};
use vpp::{boot_cluster, BootConfig};

/// One serving setup.
#[derive(Clone, Debug)]
pub struct WebSpec {
    pub nodes: usize,
    /// Simulated clients homed on each node.
    pub clients_per_node: u64,
    /// Open-loop requests per client per million cycles.
    pub per_mcycle: f64,
    pub keys: u32,
    pub deadline: u64,
    pub cache_pages: usize,
    /// Adaptive hedging and steering armed.
    pub hedge: bool,
    /// The last node limps at 8x with jitter from this cycle on.
    pub straggler_at: Option<u64>,
    /// The run ends once every node's clock has passed this cycle.
    pub horizon: u64,
    /// Latency limit for `slo_ok_ratio`, a bucket edge.
    pub slo_limit: u64,
}

impl WebSpec {
    /// The million-client row: 2 nodes, Zipf(0.99) over 4 096 keys, a
    /// 64-page front cache, deadlines and the retry budget armed, open
    /// loop at 0.85 of the ~800 requests/Mcycle a node sustains.
    pub fn serve(horizon: u64) -> Self {
        WebSpec {
            nodes: 2,
            clients_per_node: 500_000,
            per_mcycle: 0.85 * 800.0 / 500_000.0,
            keys: 4_096,
            deadline: 250_000,
            cache_pages: 64,
            hedge: false,
            straggler_at: None,
            horizon,
            slo_limit: 1 << 18,
        }
    }

    /// The `1of10-8x-hedge` row of `report -- gray`: 10 nodes at light
    /// load, one straggler limping at 8x with jitter, adaptive hedging
    /// and steering on.
    pub fn gray(horizon: u64) -> Self {
        WebSpec {
            nodes: 10,
            clients_per_node: 2_000,
            per_mcycle: 0.08,
            keys: 1_024,
            deadline: 1_200_000,
            cache_pages: 64,
            hedge: true,
            straggler_at: Some(300_000),
            horizon,
            slo_limit: 1 << 17,
        }
    }
}

/// Cycles per 1x of straggler multiplier (as `report -- gray`).
const STRAGGLER_BASE: u64 = 25_000;

/// The gray fault plan: the last node's delay ramps one multiplier step
/// every 40k cycles up to 8x, so only the change in delay widens an
/// advert gap and no step looks like silence.
fn straggler_plan(seed: u64, node: usize, at: u64) -> FaultPlan {
    let mut p = FaultPlan::new(seed)
        .with_straggler_base(STRAGGLER_BASE)
        .delay_jitter(at, 50);
    let (mut t, mut m) = (at, 1_000);
    while m + 1_000 < 8_000 {
        m += 1_000;
        p = p.slow_node(t, node, m);
        t += 40_000;
    }
    p.slow_node(t, node, 8_000)
}

fn boot(spec: &WebSpec, seed: u64) -> Result<(Cluster, Vec<ObjId>), String> {
    let n = spec.nodes;
    let (mut cluster, srms) = boot_cluster(
        n,
        BootConfig {
            clock_interval: 5_000,
            ..BootConfig::default()
        },
    );
    let mut rng = seed;
    let mut ids = Vec::with_capacity(n);
    for (node, ex) in cluster.nodes.iter_mut().enumerate() {
        let id = ex
            .with_kernel::<Srm, _>(srms[node], |s, env| {
                s.start_kernel(env, "web", 2, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .ok_or("SRM missing")?
            .map_err(|e| format!("start web kernel on node {node}: {e:?}"))?;
        ex.register_kernel(
            id,
            Box::new(WebFrontKernel::new(WebServingConfig {
                node,
                cluster_nodes: n,
                clients: spec.clients_per_node,
                keys: spec.keys,
                arrival: Arrival::Open {
                    per_mcycle: spec.per_mcycle,
                },
                deadline: spec.deadline,
                max_inflight: 256,
                retry: Backoff {
                    max_attempts: 6,
                    cap: 40_000,
                    jitter_permille: 300,
                },
                budget: RetryBudget::new(512, 200),
                cache_pages: spec.cache_pages,
                gen_window: 25_000,
                hedge_after: if spec.hedge { 30_000 } else { 0 },
                hedge_ewma_permille: if spec.hedge { 2_000 } else { 0 },
                steer: spec.hedge,
                seed: mix(&mut rng),
                ..WebServingConfig::default()
            })),
        );
        ex.register_channel(WEB_CHANNEL, id);
        ids.push(id);
    }
    cluster.net_faults = spec
        .straggler_at
        .map(|at| straggler_plan(mix(&mut rng), n - 1, at));
    Ok((cluster, ids))
}

/// Requests in flight plus parked for retry, summed over the nodes.
fn outstanding(cluster: &mut Cluster, ids: &[ObjId]) -> usize {
    let mut total = 0;
    for (ex, &id) in cluster.nodes.iter_mut().zip(ids) {
        total += ex
            .with_kernel::<WebFrontKernel, _>(id, |k, _| {
                let (inflight, parked) = k.outstanding();
                inflight + parked
            })
            .unwrap_or(0);
    }
    total
}

pub fn episode(spec: &WebSpec, seed: u64, tr: &mut Tracer) -> Result<Episode, String> {
    let t = Stopwatch::start();
    let span = tr.open(Name::Setup);
    let booted = boot(spec, seed);
    tr.close(span);
    let (mut cluster, ids) = booted?;
    let setup = t.stop();
    let start_cycles: u64 = cluster.nodes.iter().map(|n| n.mpm.clock.cycles()).sum();

    let t = Stopwatch::start();
    let (mut outstanding_max, mut pending_max) = (0usize, 0usize);
    while cluster
        .nodes
        .iter()
        .any(|n| n.mpm.clock.cycles() < spec.horizon)
    {
        let span = tr.open(Name::Step);
        cluster.step(5);
        tr.close(span);
        let span = tr.open(Name::Probe);
        outstanding_max = outstanding_max.max(outstanding(&mut cluster, &ids));
        pending_max = pending_max.max(cluster.fabric.total_pending());
        tr.close(span);
    }
    let run = t.stop();

    let t = Stopwatch::start();
    let span = tr.open(Name::Verify);
    let out = verify(
        spec,
        &mut cluster,
        &ids,
        start_cycles,
        outstanding_max,
        pending_max,
    );
    // Tearing the simulator down is program time too.
    drop(cluster);
    tr.close(span);
    let verified = t.stop();
    let mut ep = out?;
    ep.setup = setup;
    ep.run = run;
    ep.verify = verified;
    Ok(ep)
}

/// The correctness gates and the counters, read once the run ended.
fn verify(
    spec: &WebSpec,
    cluster: &mut Cluster,
    ids: &[ObjId],
    start_cycles: u64,
    outstanding_max: usize,
    pending_max: usize,
) -> Result<Episode, String> {
    let mut hist = [0u64; LAT_BUCKETS];
    let mut s = WebStats::default();
    let (mut incomplete, mut offered) = (0u64, 0.0f64);
    let mut canon = String::new();
    for (node, (ex, &id)) in cluster.nodes.iter_mut().zip(ids).enumerate() {
        if ex.mpm.halted {
            return Err(format!("node {node} halted in a fault-free run"));
        }
        ex.ck
            .check_invariants()
            .map_err(|e| format!("node {node} invariants: {e}"))?;
        let cycles = ex.mpm.clock.cycles();
        let (st, spent, lat, inflight, parked) = ex
            .with_kernel::<WebFrontKernel, _>(id, |k, _| {
                let (inflight, parked) = k.outstanding();
                (
                    k.stats,
                    k.budget.spent,
                    k.latency,
                    inflight as u64,
                    parked as u64,
                )
            })
            .ok_or(format!("node {node}: web kernel missing"))?;
        // Every attempt beyond its arrival was paid for by one budget
        // token; tokens of parked retries are still in escrow. That is
        // `attempts - arrivals == spent - parked`, added up to stay
        // clear of unsigned underflow.
        if st.attempts + parked != spent + st.arrivals {
            return Err(format!(
                "node {node}: spend ledger attempts {} - arrivals {} != spent {spent} - parked {parked}",
                st.attempts, st.arrivals
            ));
        }
        let settled = st.completed + st.budget_denied + st.attempts_exhausted + inflight + parked;
        if st.arrivals != settled {
            return Err(format!(
                "node {node}: arrival ledger {} arrivals != {settled} settled",
                st.arrivals
            ));
        }
        for (b, c) in lat.iter().enumerate() {
            hist[b] += c;
        }
        incomplete += inflight + parked;
        offered += spec.clients_per_node as f64 * spec.per_mcycle * cycles as f64 / 1e6;
        canon.push_str(&format!("{st:?}|{spent}|"));
        add(&mut s, &st);
    }
    let c = cluster.counters();
    // No node fails in either workload: `serve` injects no fault and
    // `gray` only delays one node, which membership must ride out as
    // suspect-slow. A node declared dead is a membership defect.
    if c.nodes_down + c.epoch_changes != 0 {
        return Err(format!(
            "membership declared a live node dead ({} down, {} epochs)",
            c.nodes_down, c.epoch_changes
        ));
    }
    let (mut sim, counters) = counter_figures(&c, cluster.nodes.iter().map(|n| &n.mpm));
    canon.push_str(&counters);
    let tx: u64 = (0..spec.nodes)
        .map(|n| cluster.fabric.stats(n).tx_packets)
        .sum();
    sim.extend([
        ("hw.fabric.tx_packets", tx as f64),
        (
            "hw.fabric.frames_delayed",
            cluster.fabric.frames_delayed() as f64,
        ),
        ("hw.fabric.pending_max", pending_max as f64),
        (
            "web.front_hit_ratio",
            ratio(s.local_hits, s.local_hits + s.local_misses),
        ),
        ("web.forward_ratio", ratio(s.forwarded, s.admitted)),
        ("web.shed", s.shed as f64),
        ("web.expired", s.expired as f64),
        ("web.outstanding_max", outstanding_max as f64),
        ("web.gen_shortfall", 1.0 - s.arrivals as f64 / offered),
        ("web.steered", s.steered_away as f64),
        ("retry.attempts_per_arrival", ratio(s.attempts, s.arrivals)),
        ("retry.budget_denied", s.budget_denied as f64),
        ("hedge.sent", s.hedges_sent as f64),
        ("hedge.win_ratio", ratio(s.hedges_won, s.hedges_sent)),
    ]);
    let end_cycles: u64 = cluster.nodes.iter().map(|n| n.mpm.clock.cycles()).sum();
    Ok(Episode {
        setup: Default::default(),
        run: Default::default(),
        verify: Default::default(),
        attempted: s.arrivals,
        failed: s.budget_denied + s.attempts_exhausted,
        incomplete,
        sim_cycles: end_cycles - start_cycles,
        latency: Latency::Log2(Box::new(hist)),
        latency_ops: s.arrivals,
        slo_limit: spec.slo_limit,
        sim,
        canon,
    })
}

/// Sum of the counters `verify` reads, over nodes.
fn add(acc: &mut WebStats, s: &WebStats) {
    acc.arrivals += s.arrivals;
    acc.admitted += s.admitted;
    acc.completed += s.completed;
    acc.shed += s.shed;
    acc.expired += s.expired;
    acc.budget_denied += s.budget_denied;
    acc.attempts_exhausted += s.attempts_exhausted;
    acc.local_hits += s.local_hits;
    acc.local_misses += s.local_misses;
    acc.forwarded += s.forwarded;
    acc.attempts += s.attempts;
    acc.hedges_sent += s.hedges_sent;
    acc.hedges_won += s.hedges_won;
    acc.steered_away += s.steered_away;
}
