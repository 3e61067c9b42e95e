//! The `mill` workload: the job mill of `workloads::throughput` on two
//! lockstep shards, with per-job inputs drawn from the seed.

use crate::clock::Stopwatch;
use crate::episode::{mix, Episode, Latency};
use crate::layers::counter_figures;
use crate::trace::{Name, Tracer};
use std::collections::{BTreeMap, HashMap};
use vpp::cache_kernel::{
    AppKernel, ClusterEvent, Env, FaultDisposition, Machine, ObjId, Priority, TrapDisposition,
    Writeback,
};
use vpp::hw::Fault;
use vpp::workloads::throughput::{build, job_script, window_of, ShardDriver, ThroughputSpec};

const SHARDS: usize = 2;
/// Upper bound (exclusive) on a job's seeded compute cycles.
const MAX_COMPUTE: u64 = 2_000;
/// Latency limit for `slo_ok_ratio`, in cycles: mid-way through the
/// service times, which spread over the seeded compute, so the share
/// moves with any shift of them.
const SLO_LIMIT: u64 = 5_000;

/// Wraps a shard's driver to read the simulated clock at each job's
/// first fault and at its exit: the job's service time, which no
/// public counter holds. Every call is passed on unchanged.
struct JobClock {
    inner: Box<dyn AppKernel>,
    started: HashMap<ObjId, u64>,
    service: Vec<u64>,
}

impl JobClock {
    fn driver(&mut self) -> Option<&mut ShardDriver> {
        self.inner.as_any().downcast_mut::<ShardDriver>()
    }
}

impl AppKernel for JobClock {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn on_start(&mut self, env: &mut Env, id: ObjId) {
        self.inner.on_start(env, id)
    }
    fn on_page_fault(&mut self, env: &mut Env, thread: ObjId, fault: Fault) -> FaultDisposition {
        let now = env.mpm.clock.cycles();
        self.started.entry(thread).or_insert(now);
        self.inner.on_page_fault(env, thread, fault)
    }
    fn on_trap(
        &mut self,
        env: &mut Env,
        thread: ObjId,
        no: u32,
        args: [u32; 4],
    ) -> TrapDisposition {
        self.inner.on_trap(env, thread, no, args)
    }
    fn on_exception(&mut self, env: &mut Env, thread: ObjId, fault: Fault) -> FaultDisposition {
        self.inner.on_exception(env, thread, fault)
    }
    fn on_writeback(&mut self, env: &mut Env, wb: Writeback) {
        self.inner.on_writeback(env, wb)
    }
    fn on_tick(&mut self, env: &mut Env) {
        self.inner.on_tick(env)
    }
    fn on_packet(&mut self, env: &mut Env, src: usize, channel: u32, data: &[u8]) {
        self.inner.on_packet(env, src, channel, data)
    }
    fn on_thread_exit(&mut self, env: &mut Env, thread: ObjId, code: i32) {
        if let Some(t0) = self.started.remove(&thread) {
            self.service.push(env.mpm.clock.cycles() - t0);
        }
        self.inner.on_thread_exit(env, thread, code)
    }
    fn on_cluster_event(&mut self, env: &mut Env, ev: ClusterEvent) {
        self.inner.on_cluster_event(env, ev)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Boot the shards and seed every backlog. Each job's compute time and
/// packet destination come from the seed; its window stays the unique
/// one `window_of` gives it.
fn boot(jobs_per_shard: usize, seed: u64) -> Result<Machine, String> {
    let full = ThroughputSpec {
        shards: SHARDS,
        jobs_per_shard,
        threads: false,
        ..ThroughputSpec::default()
    };
    let mut m = build(&ThroughputSpec {
        jobs_per_shard: 0,
        ..full.clone()
    });
    let mut rng = seed;
    for shard in 0..SHARDS {
        let node = &mut m.nodes[shard];
        let (kernel, _) = node
            .job_target
            .ok_or(format!("shard {shard} has no job target"))?;
        let inner = node
            .unregister_kernel(kernel)
            .ok_or(format!("shard {shard} has no driver"))?;
        node.register_kernel(
            kernel,
            Box::new(JobClock {
                inner,
                started: HashMap::new(),
                service: Vec::with_capacity(jobs_per_shard),
            }),
        );
        for j in 0..jobs_per_shard {
            let r = mix(&mut rng);
            let send_to = (r % SHARDS as u64) as u32;
            let compute = (r >> 32) % MAX_COMPUTE;
            let tag = (shard * jobs_per_shard + j) as u32;
            node.push_job(
                Box::new(job_script(
                    window_of(&full, shard, j),
                    full.pages_per_job,
                    compute,
                    send_to,
                    tag,
                )),
                10 as Priority,
            );
        }
    }
    Ok(m)
}

/// One episode of `jobs_per_shard` jobs on each shard.
pub fn episode(jobs_per_shard: usize, seed: u64, tr: &mut Tracer) -> Result<Episode, String> {
    let t = Stopwatch::start();
    let span = tr.open(Name::Setup);
    let booted = boot(jobs_per_shard, seed);
    tr.close(span);
    let mut m = booted?;
    let setup = t.stop();
    let start_cycles: u64 = m.nodes.iter().map(|n| n.mpm.clock.cycles()).sum();

    let t = Stopwatch::start();
    // One lockstep round per call; 0 means the machine was quiescent.
    let limit = 1_000 * jobs_per_shard + 10_000;
    let (mut rounds, mut inflight_max) = (0, 0);
    loop {
        let span = tr.open(Name::Step);
        let used = m.run_until_idle(1);
        tr.close(span);
        if used == 0 {
            break;
        }
        let span = tr.open(Name::Probe);
        inflight_max = inflight_max.max(m.in_flight());
        tr.close(span);
        rounds += 1;
        if rounds > limit {
            return Err(format!("mill did not quiesce in {limit} rounds"));
        }
    }
    let run = t.stop();

    let t = Stopwatch::start();
    let span = tr.open(Name::Verify);
    let out = verify(jobs_per_shard, &mut m, start_cycles, inflight_max);
    // Tearing the simulator down is program time too.
    drop(m);
    tr.close(span);
    let verified = t.stop();
    let mut ep = out?;
    ep.setup = setup;
    ep.run = run;
    ep.verify = verified;
    Ok(ep)
}

fn verify(
    jobs_per_shard: usize,
    m: &mut Machine,
    start_cycles: u64,
    inflight_max: u64,
) -> Result<Episode, String> {
    let jobs = (SHARDS * jobs_per_shard) as u64;
    let c = m.counters();
    if c.thread_exits != jobs {
        return Err(format!("{} thread exits for {jobs} jobs", c.thread_exits));
    }
    let mut service: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut completed, mut packets) = (0u64, 0u64);
    for (shard, node) in m.nodes.iter_mut().enumerate() {
        node.ck
            .check_invariants()
            .map_err(|e| format!("shard {shard} invariants: {e}"))?;
        let (kernel, _) = node.job_target.ok_or("job target lost")?;
        node.with_kernel::<JobClock, _>(kernel, |k, _| {
            for &s in &k.service {
                *service.entry(s).or_default() += 1;
            }
            if let Some(d) = k.driver() {
                completed += d.completed;
                packets += d.packets_seen;
            }
        })
        .ok_or(format!("shard {shard}: driver missing"))?;
    }
    if completed != jobs || packets != jobs {
        return Err(format!(
            "{completed} jobs completed and {packets} packets seen for {jobs} jobs"
        ));
    }
    if m.in_flight() != 0 {
        return Err(format!("{} shard messages still in flight", m.in_flight()));
    }
    let archive = &m.nodes[0].wb_archive;
    if archive.len() as u64 != jobs || archive.iter().any(|wb| wb.bytes != 0i32.to_le_bytes()) {
        return Err("home shard did not archive one clean exit per job".into());
    }
    let timed: u64 = service.values().sum();
    if timed != jobs {
        return Err(format!(
            "{timed} of {jobs} jobs timed from first fault to exit"
        ));
    }
    let (mut sim, canon) = counter_figures(&c, m.nodes.iter().map(|n| &n.mpm));
    sim.push(("shard.inflight_max", inflight_max as f64));
    let end_cycles: u64 = m.nodes.iter().map(|n| n.mpm.clock.cycles()).sum();
    Ok(Episode {
        setup: Default::default(),
        run: Default::default(),
        verify: Default::default(),
        attempted: jobs,
        failed: 0,
        incomplete: 0,
        sim_cycles: end_cycles - start_cycles,
        latency: Latency::Exact(service),
        latency_ops: jobs,
        slo_limit: SLO_LIMIT,
        sim,
        canon,
    })
}
