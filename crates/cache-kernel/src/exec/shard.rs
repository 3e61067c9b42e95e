//! The sharded machine: N executives, N shards, explicit messages.
//!
//! A [`Machine`] runs several executives. In the **classic** form
//! (built with [`Machine::new`]) the executives are MPM nodes joined by
//! the store-and-forward [`Fabric`] — the multi-MPM cluster of Fig. 4,
//! byte-identical to the pre-sharding `Cluster` (which is now just a
//! type alias). In the **sharded** form (built with
//! [`Machine::sharded`]) each executive owns one shard of a single
//! simulated machine: its object-cache partition, its physmap
//! partition, its per-CPU ready queue and its counter cell. No shard
//! ever touches another's state; every cross-CPU interaction — TLB
//! shootdown rounds, writeback delivery, signal fan-out, idle steal,
//! interconnect packets — is a [`ShardMsg`] on a bounded SPSC ring
//! ([`hw::ring`]) between the two executives.
//!
//! Two run modes sit behind the one `step`/`run_until_idle` seam:
//!
//! * [`RunMode::Lockstep`] — deterministic. Every quantum runs the
//!   shards in index order on the calling thread, then routes messages
//!   in fixed `(dst, src)` order. Trace-pinned tests, property tests
//!   and fault replay use this mode; with the `lockstep` cargo feature
//!   enabled it is forced regardless of configuration.
//! * [`RunMode::Threaded`] — free-running. Each shard runs on its own
//!   OS thread; rings carry the messages; quiescence is detected from
//!   the shared in-flight count (incremented strictly before a message
//!   becomes visible, decremented strictly after it is fully
//!   processed), so the machine can never report idle while a
//!   shootdown round is still in flight.
//!
//! Backpressure, never loss: a send that finds its ring full counts
//! `rings_full` and stays queued on the sender; it is retried until it
//! fits. A shard thread that panics is caught, counted in
//! `threads_panicked`, and its shard halted — the machine stays usable.
//!
//! [`ShardMsg`]: crate::shardmsg::ShardMsg
//! [`Fabric`]: hw::Fabric

use super::Executive;
use crate::ck::{CacheKernel, CkConfig};
use crate::counters::Counters;
use crate::shardmsg::{ShardDst, ShardMsg};
use hw::{
    mpsc, spsc, Fabric, FaultPlan, FrameFate, MachineConfig, Mpm, MpscRx, MpscTx, Paddr, RingRx,
    RingTx,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How a sharded machine executes its shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Barrier-stepped on the calling thread, messages routed in fixed
    /// order at quantum boundaries: deterministic, replayable.
    Lockstep,
    /// One OS thread per shard, rings drained as messages arrive:
    /// fast, order-nondeterministic (totals still converge).
    Threaded,
}

/// Configuration of a sharded machine.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards (= simulated CPUs; each shard's MPM has one).
    pub shards: usize,
    /// Physical frames owned by each shard's physmap partition.
    pub frames_per_shard: usize,
    /// Capacity of each inter-shard SPSC ring.
    pub ring_capacity: usize,
    /// Start in free-running threaded mode (the `lockstep` cargo
    /// feature overrides this to lockstep).
    pub threads: bool,
    /// Idle shards steal backlog jobs from their peers.
    pub steal: bool,
    /// Cache-Kernel configuration template (`shard_fanout` is set to
    /// the shard count automatically).
    pub ck: CkConfig,
    /// Machine configuration template (`node`, `cpus` and
    /// `phys_frames` are overridden per shard).
    pub machine: MachineConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            frames_per_shard: 2048,
            ring_capacity: 256,
            threads: false,
            steal: true,
            ck: CkConfig::default(),
            machine: MachineConfig::default(),
        }
    }
}

/// One shard's end of the mesh: its transmit ring to every other shard,
/// its receive ring from every other shard, and the per-destination
/// egress queues where messages wait (and are retried) when a ring is
/// full.
pub(crate) struct ShardPort {
    tx: Vec<Option<RingTx<ShardMsg>>>,
    rx: Vec<Option<RingRx<ShardMsg>>>,
    egress: Vec<VecDeque<ShardMsg>>,
    /// Producer ends of the other shards' signal fan-out rings.
    sig_tx: Vec<Option<MpscTx<Paddr>>>,
    /// Consumer end of this shard's signal fan-out ring.
    sig_rx: Option<MpscRx<Paddr>>,
    /// Per-destination deferred signals (full fan-out ring).
    sig_egress: Vec<VecDeque<Paddr>>,
    /// Reusable drain buffer for one sweep of the fan-out ring.
    sig_sweep: Vec<Paddr>,
}

impl ShardPort {
    fn egress_empty(&self) -> bool {
        self.egress.iter().all(|q| q.is_empty()) && self.sig_egress.iter().all(|q| q.is_empty())
    }
}

/// The full mesh: N×(N−1) SPSC rings plus the shared in-flight count.
/// A message is "in flight" from the moment it is queued for egress to
/// the moment its receiver has fully processed it, so
/// `in_flight == 0 && all shards idle` really means quiescent.
pub(crate) struct RingMesh {
    ports: Vec<ShardPort>,
    in_flight: Arc<AtomicU64>,
    /// Ring capacity (diagnostics).
    pub(crate) capacity: usize,
}

impl RingMesh {
    fn new(shards: usize, capacity: usize) -> Self {
        let mut ports: Vec<ShardPort> = (0..shards)
            .map(|_| ShardPort {
                tx: (0..shards).map(|_| None).collect(),
                rx: (0..shards).map(|_| None).collect(),
                egress: (0..shards).map(|_| VecDeque::new()).collect(),
                sig_tx: (0..shards).map(|_| None).collect(),
                sig_rx: None,
                sig_egress: (0..shards).map(|_| VecDeque::new()).collect(),
                sig_sweep: Vec::new(),
            })
            .collect();
        for src in 0..shards {
            for dst in 0..shards {
                if src == dst {
                    continue;
                }
                let (tx, rx) = spsc::<ShardMsg>(capacity);
                ports[src].tx[dst] = Some(tx);
                ports[dst].rx[src] = Some(rx);
            }
        }
        // One MPSC fan-out ring per shard for shipped signals: every
        // other shard holds a producer handle, so a broadcast signal is
        // one cheap `Paddr` push per peer instead of a full `ShardMsg`,
        // and the receiver drains the whole ring in one wakeup sweep.
        for dst in 0..shards {
            if shards < 2 {
                break;
            }
            let (tx, rx) = mpsc::<Paddr>(capacity);
            for (src, port) in ports.iter_mut().enumerate() {
                if src != dst {
                    port.sig_tx[dst] = Some(tx.clone());
                }
            }
            ports[dst].sig_rx = Some(rx);
        }
        RingMesh {
            ports,
            in_flight: Arc::new(AtomicU64::new(0)),
            capacity,
        }
    }
}

/// Coordination flags shared with the worker threads of one
/// free-running run. Scoped threads borrow it; nothing escapes the run.
struct RunFlags {
    /// Shard i has nothing to do right now (may wake again).
    idle: Vec<AtomicBool>,
    /// Shard i has exhausted its quantum budget.
    done: Vec<AtomicBool>,
    /// Shard i's worker panicked (shard will be halted after the join).
    panicked: Vec<AtomicBool>,
    /// Coordinator verdict: everyone go home.
    stop: AtomicBool,
}

impl RunFlags {
    fn new(n: usize) -> Self {
        RunFlags {
            idle: (0..n).map(|_| AtomicBool::new(false)).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            panicked: (0..n).map(|_| AtomicBool::new(false)).collect(),
            stop: AtomicBool::new(false),
        }
    }

    fn settled(&self, n: usize) -> bool {
        (0..n).all(|i| self.idle[i].load(Ordering::SeqCst) || self.done[i].load(Ordering::SeqCst))
    }
}

/// A machine of several executives: a classic fabric-connected cluster,
/// or a sharded multiprocessor whose shards exchange explicit messages.
pub struct Machine {
    /// The per-node (per-shard) executives.
    pub nodes: Vec<Executive>,
    /// The interconnect (classic clusters; sharded machines route
    /// packets over the rings instead).
    pub fabric: Fabric,
    /// Cluster-level fault schedule: partitions, heals and whole-node
    /// failures, applied at step boundaries against simulated time.
    /// `None` keeps the fault-free fast path exactly as before.
    pub net_faults: Option<FaultPlan>,
    /// The ring mesh (`Some` iff the machine is sharded).
    pub(crate) mesh: Option<RingMesh>,
    /// Configured run mode (see [`Machine::run_mode`] for the effective
    /// one).
    pub mode: RunMode,
    /// Idle shards steal backlog jobs from their peers.
    pub steal: bool,
}

/// The historical name for the classic multi-MPM configuration: every
/// pre-sharding test and workload built a `Cluster`, and they all still
/// do — the classic [`Machine`] paths are byte-identical.
pub type Cluster = Machine;

impl Machine {
    /// Assemble a classic cluster from executives (their machine
    /// configs should carry distinct node indices).
    pub fn new(nodes: Vec<Executive>) -> Self {
        let fabric = Fabric::new(nodes.len());
        Machine {
            nodes,
            fabric,
            net_faults: None,
            mesh: None,
            mode: RunMode::Lockstep,
            steal: false,
        }
    }

    /// Build a sharded machine: `cfg.shards` single-CPU executives,
    /// each owning `frames_per_shard` physical frames and one shard of
    /// every kernel structure, connected by a full mesh of bounded
    /// SPSC rings.
    pub fn sharded(cfg: ShardConfig) -> Self {
        let n = cfg.shards.max(1);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let mut ckc = cfg.ck.clone();
            ckc.shard_fanout = n;
            let mpm = Mpm::new(MachineConfig {
                node: i,
                cpus: 1,
                phys_frames: cfg.frames_per_shard,
                ..cfg.machine.clone()
            });
            nodes.push(Executive::new(CacheKernel::new(ckc), mpm));
        }
        Machine {
            nodes,
            fabric: Fabric::new(n),
            net_faults: None,
            mesh: Some(RingMesh::new(n, cfg.ring_capacity.max(2))),
            mode: if cfg.threads {
                RunMode::Threaded
            } else {
                RunMode::Lockstep
            },
            steal: cfg.steal,
        }
    }

    /// Number of shards (or cluster nodes).
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// Whether this machine is sharded (vs. a classic cluster).
    pub fn is_sharded(&self) -> bool {
        self.mesh.is_some()
    }

    /// The mode the machine will actually run in: the configured mode,
    /// except that the `lockstep` cargo feature pins everything to
    /// lockstep (so a trace-pinned test suite can force determinism
    /// across the whole tree with one feature flag).
    pub fn run_mode(&self) -> RunMode {
        if cfg!(feature = "lockstep") {
            RunMode::Lockstep
        } else {
            self.mode
        }
    }

    /// Messages currently in flight between shards (queued for egress,
    /// riding a ring, or being processed).
    pub fn in_flight(&self) -> u64 {
        self.mesh
            .as_ref()
            .map(|m| m.in_flight.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Capacity of each inter-shard ring (0 for classic clusters).
    pub fn ring_capacity(&self) -> usize {
        self.mesh.as_ref().map(|m| m.capacity).unwrap_or(0)
    }

    /// The machine's counters: every shard's cell merged into one.
    /// Shards never share a counter cache line; totals exist only at
    /// read time.
    pub fn counters(&self) -> Counters {
        let mut total = Counters::default();
        for node in &self.nodes {
            total.merge_from(&node.ck.stats);
        }
        total
    }

    /// Run every node for `quanta`, then move cross-node traffic. A
    /// failed (halted) node simply stops executing; its traffic is
    /// dropped (fault containment, §3).
    pub fn step(&mut self, quanta: usize) {
        if self.mesh.is_some() {
            match self.run_mode() {
                RunMode::Lockstep => self.lockstep_rounds(quanta),
                RunMode::Threaded => {
                    self.run_threaded(quanta, false);
                }
            }
            return;
        }
        self.classic_step(quanta);
    }

    /// Run until every executive is idle and no message is in flight,
    /// or `max_quanta` elapse. Returns the quanta used (per shard).
    ///
    /// Quiescence is cross-executive: all shards locally idle *and*
    /// the in-flight count zero *and* every outbox/export queue empty.
    /// The in-flight count covers a message from egress-queue to
    /// fully-processed, so the machine cannot report idle while a
    /// shootdown round or steal grant is still travelling.
    pub fn run_until_idle(&mut self, max_quanta: usize) -> usize {
        if self.mesh.is_some() {
            match self.run_mode() {
                RunMode::Lockstep => {
                    for q in 0..max_quanta {
                        if self.sharded_quiescent() {
                            return q;
                        }
                        self.lockstep_rounds(1);
                    }
                    max_quanta
                }
                RunMode::Threaded => self.run_threaded(max_quanta, true),
            }
        } else {
            for q in 0..max_quanta {
                if self.classic_quiescent() {
                    return q;
                }
                self.classic_step(1);
            }
            max_quanta
        }
    }

    /// Halt a node (simulated MPM hardware failure) and stop its
    /// traffic.
    pub fn fail_node(&mut self, node: usize) {
        self.nodes[node].mpm.halt();
        self.fabric.fail_node(node);
    }

    // ------------------------------------------------------------------
    // Classic cluster path (pre-sharding semantics, unchanged)
    // ------------------------------------------------------------------

    fn classic_step(&mut self, quanta: usize) {
        // Fire due fabric schedule entries before the quantum, so every
        // protocol on every node sees the same seeded network cut at the
        // same simulated instant.
        if let Some(plan) = self.net_faults.as_mut() {
            let now = self
                .nodes
                .iter()
                .map(|n| n.mpm.clock.cycles())
                .max()
                .unwrap_or(0);
            for ev in plan.due_fabric_events(now) {
                match ev {
                    hw::FabricEvent::Partition(groups) => self.fabric.set_partition(&groups),
                    hw::FabricEvent::Heal => self.fabric.heal(),
                    hw::FabricEvent::NodeDown(n) => {
                        if n < self.nodes.len() {
                            self.fail_node(n);
                        }
                    }
                    hw::FabricEvent::DelayLink { groups, extra } => {
                        self.fabric.set_link_delay(&groups, extra);
                    }
                    hw::FabricEvent::SlowNode { node, extra } => {
                        self.fabric.set_node_extra(node, extra);
                    }
                    hw::FabricEvent::ClearDelays => self.fabric.clear_delays(),
                    hw::FabricEvent::DelayJitter { permille, seed } => {
                        self.fabric.set_delay_jitter(permille, seed);
                    }
                }
            }
            // Advance the fabric clock so delayed frames whose delivery
            // cycle has arrived mature into the FIFO queues below.
            self.fabric.set_now(now);
        }
        for node in self.nodes.iter_mut() {
            node.run(quanta);
        }
        // Drain outboxes into the fabric, with the sending node's fault
        // plan deciding each frame's fate (loss/duplication injection).
        for node in self.nodes.iter_mut() {
            let halted = node.mpm.halted;
            for pkt in node.outbox.drain(..) {
                if halted {
                    continue;
                }
                let fate = node
                    .faults
                    .as_mut()
                    .map(|p| p.frame_fate())
                    .unwrap_or(FrameFate::Deliver);
                match fate {
                    FrameFate::Deliver => {
                        self.fabric.send(pkt);
                    }
                    FrameFate::Drop => {
                        node.ck.stats.faults_injected += 1;
                    }
                    FrameFate::Duplicate => {
                        node.ck.stats.faults_injected += 1;
                        self.fabric.send(pkt.clone());
                        self.fabric.send(pkt);
                    }
                }
            }
        }
        // Deliver incoming traffic.
        for i in 0..self.nodes.len() {
            if self.fabric.is_failed(i) || self.nodes[i].mpm.halted {
                continue;
            }
            while let Some(pkt) = self.fabric.recv(i) {
                self.nodes[i].deliver_packet(pkt);
            }
        }
    }

    fn classic_quiescent(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.mpm.halted || (n.idle() && n.outbox.is_empty()))
            && self.fabric.total_pending() == 0
    }

    // ------------------------------------------------------------------
    // Sharded lockstep path
    // ------------------------------------------------------------------

    fn sharded_quiescent(&self) -> bool {
        self.in_flight() == 0
            && self.nodes.iter().all(|n| {
                n.mpm.halted || (n.idle() && n.outbox.is_empty() && n.ck.shard_exports.is_empty())
            })
    }

    /// One deterministic round per quantum: run every shard in index
    /// order, collect and flush every shard's exports in index order,
    /// then deliver in fixed `(dst, src)` order. Replies generated
    /// while processing are collected at the end of the round and flow
    /// next round, so the whole schedule is a pure function of the
    /// initial state.
    fn lockstep_rounds(&mut self, quanta: usize) {
        let n = self.nodes.len();
        let steal = self.steal;
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        for _ in 0..quanta {
            for node in self.nodes.iter_mut() {
                node.run(1);
            }
            for (node, port) in self.nodes.iter_mut().zip(mesh.ports.iter_mut()) {
                collect_exports(node, port, &mesh.in_flight, steal, n);
                flush_egress(node, port);
            }
            for dst in 0..n {
                for src in 0..n {
                    if src == dst {
                        continue;
                    }
                    let Some(rx) = mesh.ports[dst].rx[src].as_ref() else {
                        continue;
                    };
                    // Halted shards still drain their rings (a dead CPU
                    // cannot wedge its senders) but drop the messages.
                    let halted = self.nodes[dst].mpm.halted;
                    while let Some(msg) = rx.pop() {
                        if !halted {
                            self.nodes[dst].process_shard_msg(msg);
                        }
                        mesh.in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                // The signal fan-out ring drains after the SPSC rings,
                // delivered as one batched sweep. Producers pushed in
                // index order under the lockstep schedule, so the sweep
                // contents are deterministic.
                let port = &mut mesh.ports[dst];
                if let Some(rx) = port.sig_rx.as_ref() {
                    let mut sweep = core::mem::take(&mut port.sig_sweep);
                    sweep.clear();
                    while let Some(paddr) = rx.pop() {
                        sweep.push(paddr);
                    }
                    if !sweep.is_empty() {
                        if !self.nodes[dst].mpm.halted {
                            self.nodes[dst].deliver_signal_sweep(&sweep);
                        }
                        mesh.in_flight
                            .fetch_sub(sweep.len() as u64, Ordering::SeqCst);
                    }
                    port.sig_sweep = sweep;
                }
            }
            for (node, port) in self.nodes.iter_mut().zip(mesh.ports.iter_mut()) {
                collect_exports(node, port, &mesh.in_flight, steal, n);
                flush_egress(node, port);
            }
        }
    }

    // ------------------------------------------------------------------
    // Sharded free-running path
    // ------------------------------------------------------------------

    /// Run the shards on their own OS threads. With `until_idle` the
    /// workers run until global quiescence (or their quantum budget);
    /// otherwise each runs exactly `quanta` quanta and then keeps
    /// draining its rings until the whole machine settles. Returns the
    /// largest per-shard quantum count.
    fn run_threaded(&mut self, quanta: usize, until_idle: bool) -> usize {
        let n = self.nodes.len();
        if n == 0 {
            return 0;
        }
        let steal = self.steal;
        let flags = RunFlags::new(n);
        let Some(mesh) = self.mesh.as_mut() else {
            return 0;
        };
        let in_flight = Arc::clone(&mesh.in_flight);
        let mut used = 0usize;
        std::thread::scope(|s| {
            let flags = &flags;
            let in_flight = &in_flight;
            let handles: Vec<_> = self
                .nodes
                .iter_mut()
                .zip(mesh.ports.iter_mut())
                .enumerate()
                .map(|(i, (node, port))| {
                    s.spawn(move || {
                        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            shard_worker(
                                i, node, port, flags, in_flight, quanta, until_idle, steal, n,
                            )
                        }));
                        match caught {
                            Ok(q) => q,
                            Err(_) => {
                                // The shard is lost but the machine is
                                // not: flag it so the owner halts it
                                // after the join, and unblock the
                                // coordinator. Until the coordinator
                                // calls the run, keep draining (and
                                // dropping) this shard's receive rings —
                                // a dead CPU must not wedge its senders
                                // or hold the in-flight count above
                                // zero forever.
                                flags.panicked[i].store(true, Ordering::SeqCst);
                                flags.idle[i].store(true, Ordering::SeqCst);
                                flags.done[i].store(true, Ordering::SeqCst);
                                drain_after_panic(port, flags, in_flight);
                                0
                            }
                        }
                    })
                })
                .collect();
            coordinate(flags, in_flight, n);
            for h in handles {
                used = used.max(h.join().unwrap_or(0));
            }
        });
        for i in 0..n {
            if flags.panicked[i].load(Ordering::SeqCst) {
                self.nodes[i].mpm.halt();
                self.nodes[i].ck.stats.threads_panicked += 1;
            }
        }
        used
    }
}

/// Wall-clock seconds the free-running quiescence watchdog allows a run
/// before force-stopping it. Injected delay schedules slow *simulated*
/// delivery, not host time, so they must extend a run within this bound
/// — never trip it.
const WATCHDOG_SECS: u64 = 60;

/// The termination coordinator for one free-running run. It never
/// touches shard state; it only watches the flags and the in-flight
/// count, and raises `stop` once the machine has settled: every shard
/// idle or out of budget, nothing in flight — checked twice across a
/// yield so a shard caught mid-transition cannot slip through (a shard
/// clears its idle flag *before* it processes a popped message, and the
/// in-flight count covers the message until processing completes, so a
/// stable double-read really is quiescence). A generous wall-clock
/// watchdog bounds the run even if a worker misbehaves — the machine
/// degrades, it never hangs.
fn coordinate(flags: &RunFlags, in_flight: &AtomicU64, n: usize) {
    let start = std::time::Instant::now();
    loop {
        if flags.settled(n) && in_flight.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
            if flags.settled(n) && in_flight.load(Ordering::SeqCst) == 0 {
                flags.stop.store(true, Ordering::SeqCst);
                return;
            }
        }
        if start.elapsed().as_secs() >= WATCHDOG_SECS {
            flags.stop.store(true, Ordering::SeqCst);
            return;
        }
        // Sleep-poll: the coordinator must not compete with the shard
        // workers for cycles (the whole machine may share one core).
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
}

/// Quanta a busy worker runs between ring services: amortizes the
/// drain/collect/flush cycle (and, on an oversubscribed host, the
/// context switch) over several quanta. Ring capacity bounds how stale
/// a peer's view can get; 8 quanta of egress fits comfortably.
const RUN_BURST: usize = 8;

/// One shard's worker loop (free-running mode). Invariants that make
/// the coordinator's quiescence check sound:
///
/// * the idle flag is cleared *before* a popped message is processed
///   and before a quantum runs;
/// * a message's in-flight increment happens when it enters the egress
///   queue (before it is ever visible to the receiver) and its
///   decrement strictly after `process_shard_msg` returns;
/// * the idle flag is set only when nothing was processed, the shard
///   has no runnable work, and its egress queues are empty.
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    i: usize,
    node: &mut Executive,
    port: &mut ShardPort,
    flags: &RunFlags,
    in_flight: &AtomicU64,
    max_quanta: usize,
    until_idle: bool,
    steal: bool,
    shards: usize,
) -> usize {
    let mut used = 0usize;
    loop {
        if flags.stop.load(Ordering::SeqCst) {
            break;
        }
        let processed = drain_rings(i, node, port, flags, in_flight);
        let budget_left = used < max_quanta && !node.mpm.halted;
        let should_run = budget_left && (!until_idle || processed > 0 || !node.idle());
        if should_run {
            flags.idle[i].store(false, Ordering::SeqCst);
            // Run a burst: re-checking the rings after every single
            // quantum costs more than the quantum itself. Stop early if
            // the shard drains its own work.
            for _ in 0..RUN_BURST {
                if used >= max_quanta {
                    break;
                }
                node.run(1);
                used += 1;
                if until_idle && node.idle() {
                    break;
                }
            }
        }
        collect_exports(node, port, in_flight, steal, shards);
        let flushed_all = flush_egress(node, port);
        if !budget_left {
            flags.done[i].store(true, Ordering::SeqCst);
        }
        if processed == 0 && !should_run {
            // No progress this pass. Only an empty egress queue counts
            // as idle (queued messages are in-flight work), but either
            // way surrender the CPU: spinning here starves the very
            // peer whose full ring we are waiting on.
            if port.egress_empty() {
                flags.idle[i].store(true, Ordering::SeqCst);
            }
            std::thread::yield_now();
        } else if !flushed_all {
            // Made progress but a peer's ring is full: yield so the
            // consumer gets cycles to drain it before we retry.
            std::thread::yield_now();
        }
    }
    used
}

/// Post-panic containment: the worker's state may be arbitrary, but the
/// port is intact (the panic propagated out of `shard_worker`, ending
/// its borrows). Undo the in-flight charges of anything still queued
/// for egress (it will never be sent), then keep draining and dropping
/// the receive rings until the coordinator stops the run, so peers
/// pushing to this shard never see a permanently full ring and the
/// in-flight count can reach zero.
fn drain_after_panic(port: &mut ShardPort, flags: &RunFlags, in_flight: &AtomicU64) {
    for q in port.egress.iter_mut() {
        while q.pop_front().is_some() {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
    for q in port.sig_egress.iter_mut() {
        while q.pop_front().is_some() {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
    while !flags.stop.load(Ordering::SeqCst) {
        let mut drained = 0usize;
        for src in 0..port.rx.len() {
            let Some(rx) = port.rx[src].as_ref() else {
                continue;
            };
            while rx.pop().is_some() {
                in_flight.fetch_sub(1, Ordering::SeqCst);
                drained += 1;
            }
        }
        if let Some(rx) = port.sig_rx.as_ref() {
            while rx.pop().is_some() {
                in_flight.fetch_sub(1, Ordering::SeqCst);
                drained += 1;
            }
        }
        if drained == 0 {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }
}

/// Pop and process every message currently queued on `node`'s receive
/// rings. Clears the idle flag before processing (see the worker-loop
/// invariants); decrements the in-flight count only after processing.
fn drain_rings(
    i: usize,
    node: &mut Executive,
    port: &mut ShardPort,
    flags: &RunFlags,
    in_flight: &AtomicU64,
) -> usize {
    let mut processed = 0usize;
    let halted = node.mpm.halted;
    for src in 0..port.rx.len() {
        let Some(rx) = port.rx[src].as_ref() else {
            continue;
        };
        while let Some(msg) = rx.pop() {
            flags.idle[i].store(false, Ordering::SeqCst);
            if !halted {
                node.process_shard_msg(msg);
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
            processed += 1;
        }
    }
    // Drain the signal fan-out ring into one sweep and deliver it as a
    // batch: N shipped signals cost one wakeup pass, not N. The
    // in-flight decrement happens only after the sweep is processed, so
    // quiescence still covers every shipped signal end to end.
    if let Some(rx) = port.sig_rx.as_ref() {
        let mut sweep = core::mem::take(&mut port.sig_sweep);
        sweep.clear();
        while let Some(paddr) = rx.pop() {
            sweep.push(paddr);
        }
        if !sweep.is_empty() {
            flags.idle[i].store(false, Ordering::SeqCst);
            if !halted {
                node.deliver_signal_sweep(&sweep);
            }
            in_flight.fetch_sub(sweep.len() as u64, Ordering::SeqCst);
            processed += sweep.len();
        }
        port.sig_sweep = sweep;
    }
    processed
}

/// Move the executive's pending cross-shard traffic into the port's
/// egress queues: Cache-Kernel exports (shootdown broadcasts, steal
/// protocol, anything an application kernel queued through its `Env`)
/// and outbox packets bound for other shards. Also lets an idle shard
/// ask a peer for work. Each queued message counts into the shared
/// in-flight total immediately, so quiescence detection sees it from
/// the instant it exists.
fn collect_exports(
    node: &mut Executive,
    port: &mut ShardPort,
    in_flight: &AtomicU64,
    steal: bool,
    shards: usize,
) {
    let me = node.node();
    if steal && !node.mpm.halted {
        node.maybe_request_steal(shards);
    }
    for export in std::mem::take(&mut node.ck.shard_exports) {
        match export.dst {
            ShardDst::Node(dst) => {
                if dst == me || dst >= shards {
                    // Self- or out-of-range addressed: process locally
                    // rather than dropping (a shard is always allowed
                    // to talk to itself).
                    node.process_shard_msg(export.msg);
                    continue;
                }
                if let ShardMsg::Writeback(_) = &export.msg {
                    node.ck.stats.wb_shipped += 1;
                }
                in_flight.fetch_add(1, Ordering::SeqCst);
                port.egress[dst].push_back(export.msg);
            }
            ShardDst::All => match &export.msg {
                ShardMsg::Shootdown(rs) => {
                    for dst in 0..shards {
                        if dst == me {
                            continue;
                        }
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        port.egress[dst].push_back(ShardMsg::Shootdown(rs.clone()));
                    }
                }
                ShardMsg::Signal { paddr } => {
                    // Broadcast signals ride the per-shard MPSC fan-out
                    // ring: one `Paddr` per peer, drained in one sweep.
                    for dst in 0..shards {
                        if dst == me {
                            continue;
                        }
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        port.sig_egress[dst].push_back(*paddr);
                    }
                }
                // Jobs and writebacks are not broadcastable (they carry
                // unique ownership); a broadcast of one is a caller bug
                // handled by delivering it locally.
                _ => node.process_shard_msg(export.msg),
            },
        }
    }
    let mut kept = Vec::new();
    for pkt in node.outbox.drain(..) {
        if pkt.dst == me {
            kept.push(pkt);
        } else if pkt.dst < shards {
            in_flight.fetch_add(1, Ordering::SeqCst);
            port.egress[pkt.dst].push_back(ShardMsg::Packet(pkt));
        }
        // Packets addressed outside the machine are dropped, as the
        // classic fabric would refuse them.
    }
    node.outbox = kept;
}

/// Try to push every queued egress message onto its ring. A full ring
/// counts `rings_full` once per deferred message per pass and leaves
/// the message queued — backpressure, never loss, never panic.
fn flush_egress(node: &mut Executive, port: &mut ShardPort) -> bool {
    let mut all = true;
    for dst in 0..port.egress.len() {
        let Some(tx) = port.tx[dst].as_ref() else {
            continue;
        };
        while let Some(msg) = port.egress[dst].pop_front() {
            match tx.push(msg) {
                Ok(()) => node.ck.stats.shard_msgs_sent += 1,
                Err(msg) => {
                    node.ck.stats.rings_full += 1;
                    port.egress[dst].push_front(msg);
                    all = false;
                    break;
                }
            }
        }
    }
    for dst in 0..port.sig_egress.len() {
        let Some(tx) = port.sig_tx[dst].as_ref() else {
            continue;
        };
        while let Some(paddr) = port.sig_egress[dst].pop_front() {
            match tx.push(paddr) {
                Ok(()) => node.ck.stats.shard_msgs_sent += 1,
                Err(paddr) => {
                    node.ck.stats.rings_full += 1;
                    port.sig_egress[dst].push_front(paddr);
                    all = false;
                    break;
                }
            }
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appkernel::{AppKernel, Env};
    use crate::fault::{FaultDisposition, TrapDisposition};
    use crate::ids::ObjId;
    use crate::objects::{KernelDesc, MemoryAccessArray, SpaceDesc, ThreadDesc};
    use crate::program::{Script, Step};
    use hw::{Fault, Paddr};

    const SIG_FRAME: Paddr = Paddr(0x20_0000);

    /// Shard 0's kernel: each trap broadcasts `args[0]` signals on the
    /// fan-out ring.
    struct Caster;

    impl AppKernel for Caster {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_page_fault(&mut self, _e: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
            FaultDisposition::Kill
        }
        fn on_trap(&mut self, e: &mut Env, _t: ObjId, _no: u32, args: [u32; 4]) -> TrapDisposition {
            for _ in 0..args[0] {
                e.ck.broadcast_signal(e.mpm, e.cpu, SIG_FRAME);
            }
            TrapDisposition::Return(0)
        }
        fn name(&self) -> &str {
            "caster"
        }
    }

    /// Shard 1's kernel: the first trap panics the shard worker.
    struct Bomb;

    impl AppKernel for Bomb {
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_page_fault(&mut self, _e: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
            FaultDisposition::Kill
        }
        fn on_trap(&mut self, _e: &mut Env, _t: ObjId, _no: u32, _a: [u32; 4]) -> TrapDisposition {
            panic!("induced shard panic");
        }
        fn name(&self) -> &str {
            "bomb"
        }
    }

    fn boot_shard(node: &mut Executive, steps: Vec<Step>, kernel: Box<dyn AppKernel>) {
        let k = node.ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let sp = node
            .ck
            .load_space(k, SpaceDesc::default(), &mut node.mpm)
            .unwrap();
        let pc = node.code.register(Box::new(Script::new(steps)));
        node.ck
            .load_thread(k, ThreadDesc::new(sp, pc, 10), false, &mut node.mpm)
            .unwrap();
        node.register_kernel(k, kernel);
    }

    /// A panicked free-running shard must not wedge the machine: its
    /// post-panic drain keeps consuming both its SPSC mesh rings and its
    /// fan-out ring (dropping the messages) so the in-flight count
    /// reaches zero and the coordinator stops without the wall-clock
    /// watchdog.
    #[test]
    fn panicked_shard_drains_fanout_ring() {
        let mut m = Machine::sharded(ShardConfig {
            shards: 2,
            threads: true,
            ring_capacity: 8,
            steal: false,
            ..ShardConfig::default()
        });
        // Shard 0: publish 64 bursts of 8 broadcast signals — far more
        // fan-out traffic than a capacity-8 ring holds, so the run only
        // quiesces if the dead peer keeps draining.
        let mut steps = Vec::new();
        for _ in 0..64 {
            steps.push(Step::Trap {
                no: 1,
                args: [8, 0, 0, 0],
            });
        }
        steps.push(Step::Exit(0));
        boot_shard(&mut m.nodes[0], steps, Box::new(Caster));
        // Shard 1: dies on its first quantum.
        boot_shard(
            &mut m.nodes[1],
            vec![
                Step::Trap {
                    no: 9,
                    args: [0; 4],
                },
                Step::Exit(0),
            ],
            Box::new(Bomb),
        );

        let start = std::time::Instant::now();
        m.run_until_idle(10_000);
        assert!(
            start.elapsed().as_secs() < 30,
            "panicked shard wedged quiescence until the watchdog"
        );
        assert_eq!(m.in_flight(), 0);
        let c = m.counters();
        assert_eq!(c.threads_panicked, 1);
        // The publisher ran to completion despite the dead peer.
        assert_eq!(c.thread_exits, 1);
        assert!(m.nodes[1].mpm.halted);
    }

    /// A healthy threaded run settles through real quiescence well
    /// inside the watchdog bound — injected delay schedules stretch
    /// *simulated* delivery, never host time, so they extend a run
    /// without tripping the wall clock.
    #[test]
    fn healthy_threaded_run_settles_before_the_watchdog() {
        let mut m = Machine::sharded(ShardConfig {
            shards: 2,
            threads: true,
            ring_capacity: 8,
            steal: false,
            ..ShardConfig::default()
        });
        let mut steps = Vec::new();
        for _ in 0..16 {
            steps.push(Step::Trap {
                no: 1,
                args: [4, 0, 0, 0],
            });
        }
        steps.push(Step::Exit(0));
        boot_shard(&mut m.nodes[0], steps, Box::new(Caster));
        let start = std::time::Instant::now();
        m.run_until_idle(10_000);
        assert!(
            start.elapsed().as_secs() < WATCHDOG_SECS,
            "healthy run quiesced via settling, not the watchdog"
        );
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.counters().thread_exits, 1);
    }
}
