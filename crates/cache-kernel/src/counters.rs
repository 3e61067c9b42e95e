//! The unified counter registry.
//!
//! Every observable the Cache Kernel exposes to the evaluation harness
//! lives here in one `Counters` struct. The per-event counters are
//! ticked at a single choke point — [`CacheKernel::emit`] — as kernel
//! events enter the pipeline; only the object-cache traffic counters
//! (`loads`/`unloads`/`writebacks`) are ticked at their operation sites
//! because their semantics are finer than event granularity (the
//! `writebacks` array counts *reclamation-driven* displacement only,
//! not every writeback queued, which is the replacement-interference
//! figure of §5.2).
//!
//! [`CacheKernel::emit`]: crate::ck::CacheKernel::emit

use crate::events::KernelEvent;
use crate::ids::ObjKind;

/// Operation counters, read by the evaluation harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Object loads by kind: kernels, spaces, threads, mappings.
    pub loads: [u64; 4],
    /// Explicit unloads by kind.
    pub unloads: [u64; 4],
    /// Reclamation-driven writebacks by kind (replacement interference).
    pub writebacks: [u64; 4],
    /// Signals delivered via the reverse-TLB fast path.
    pub signals_fast: u64,
    /// Signals delivered via the two-stage lookup.
    pub signals_slow: u64,
    /// Batched delivery rounds flushed (2+ raises each; a batch of one
    /// takes the eager path and ticks the fast/slow counters instead).
    pub signal_batches: u64,
    /// Raises delivered through batched rounds (those that reached at
    /// least one receiver). `signals_batched / signal_batches` is the
    /// coalescing ratio `report` prints.
    pub signals_batched: u64,
    /// Unique pages resolved across batched rounds: the two-stage
    /// lookups actually charged, versus `signals_batched` had each raise
    /// paid its own.
    pub signal_batch_pages: u64,
    /// Signals dropped at a thread's configured queue bound
    /// (`signal_queue_bound`; 0 and the counter never moves).
    pub signals_dropped: u64,
    /// Faults forwarded to application kernels.
    pub faults_forwarded: u64,
    /// Traps forwarded to application kernels.
    pub traps_forwarded: u64,
    /// Mappings flushed for multi-mapping consistency.
    pub consistency_flushes: u64,
    /// Message pages remapped between spaces by `transfer_mapping` (the
    /// zero-copy channel handoff).
    pub mapping_transfers: u64,
    /// Transfer teardowns resolved with a local TLB flush instead of an
    /// IPI round (single-mapped message page, handoff synchronized by
    /// the send trap and the delivery signal).
    pub transfer_local_flushes: u64,
    /// Cross-CPU TLB/reverse-TLB shootdown rounds issued (eager and
    /// batched).
    pub shootdown_rounds: u64,
    /// Batched rounds among them: one per compound operation (range
    /// unload, space/thread/kernel teardown, consistency flush).
    pub shootdown_batches: u64,
    /// Page flushes folded into batched rounds. `shootdown_batched_pages
    /// / shootdown_batches` is the batching ratio `report` prints.
    pub shootdown_batched_pages: u64,
    /// Total events entered into the pipeline.
    pub events_emitted: u64,
    /// Total events delivered by an executive's pump.
    pub events_delivered: u64,
    /// Writebacks queued toward application kernels (all causes).
    pub writebacks_queued: u64,
    /// Device interrupts (clock ticks, Ethernet receive completions).
    pub device_interrupts: u64,
    /// Fabric packets entered for local delivery.
    pub packets: u64,
    /// Accounting periods closed (§4.3).
    pub accounting_periods: u64,
    /// Thread terminations processed through the pipeline.
    pub thread_exits: u64,
    /// Failures injected by an active fault plan (frame loss/duplication,
    /// device errors, kernel kills).
    pub faults_injected: u64,
    /// Application kernels declared dead.
    pub kernels_failed: u64,
    /// Dead kernels whose objects were fully reclaimed.
    pub kernels_recovered: u64,
    /// Orphaned objects (threads + spaces + mappings) swept during
    /// dead-kernel recovery.
    pub orphans_reclaimed: u64,
    /// Reliable-RPC retransmissions sent after a timeout.
    pub rpc_retries: u64,
    /// Duplicate reliable-RPC frames suppressed at the receiver.
    pub rpc_duplicates_dropped: u64,
    /// Loads shed with `Again` by overload protection (reservation
    /// defence, share watermark, or writeback backpressure).
    pub loads_shed: u64,
    /// Low-value events (accounting ticks) dropped because the event
    /// queue hit its configured bound.
    pub events_dropped: u64,
    /// Writebacks redirected to the first kernel because the addressed
    /// kernel's writeback queue hit its bound.
    pub wb_overflow_redirects: u64,
    /// `ThrashDetected` events raised: a (kernel, class) pair's
    /// displacement→reload reuse distance collapsed below threshold.
    pub thrash_detected: u64,
    /// Malformed or misaddressed network frames (DSM, SRM RPC) dropped
    /// at decode instead of panicking the executive.
    pub frames_rejected: u64,
    /// Peer-table entries expired after `peer_expiry_ticks` silent ticks.
    pub peers_expired: u64,
    /// Cluster peers declared dead by the membership protocol.
    pub nodes_down: u64,
    /// Cluster peers that rejoined after a partition healed or a restart.
    pub nodes_rejoined: u64,
    /// Membership epoch advances (local bumps and adoptions).
    pub epoch_changes: u64,
    /// Stale-epoch DSM replies fenced off (late LINE/NACK from a
    /// pre-partition owner rejected and the fetch re-driven).
    pub stale_rejected: u64,
    /// DSM lines re-homed from a dead or partitioned owner to the lowest
    /// live node by the reclamation sweep.
    pub lines_rehomed: u64,
    /// Cross-shard messages sent onto the SPSC rings.
    pub shard_msgs_sent: u64,
    /// Cross-shard messages delivered off the rings and processed.
    pub shard_msgs_delivered: u64,
    /// Sends deferred because the destination ring was full (the message
    /// is retried next quantum — backpressure, never loss, never panic).
    pub rings_full: u64,
    /// Shootdown rounds received from another shard and applied to this
    /// shard's TLB/reverse-TLB.
    pub remote_shootdowns: u64,
    /// Jobs migrated to another shard through idle steal.
    pub shard_steals: u64,
    /// Displaced descriptors shipped to their home shard.
    pub wb_shipped: u64,
    /// Jobs admitted from the backlog into the thread cache.
    pub jobs_admitted: u64,
    /// Executive threads that panicked in free-running mode (the shard
    /// is declared failed and the machine keeps going).
    pub threads_panicked: u64,
    /// Operations denied by capability enforcement (`caps_enforce`):
    /// out-of-grant maps, forged writeback targets, bystander signal
    /// registrations, grant-escalation attempts. Balanced one-to-one
    /// against raised `CapViolation` events. Never moves with the knob
    /// off.
    pub cap_denied: u64,
    /// Serving workload: requests admitted by a front kernel (folded
    /// from `web_serving` stats; never moves without the workload).
    pub requests_admitted: u64,
    /// Serving workload: requests completed (hit + miss + remote).
    pub requests_completed: u64,
    /// Serving workload: requests shed at the admission bound.
    pub requests_shed: u64,
    /// Serving workload: per-request deadlines that expired in flight.
    pub deadlines_expired: u64,
    /// Serving workload: retries denied by a drained per-kernel
    /// `RetryBudget` — each is a counted drop, never a re-drive.
    pub retry_budget_denied: u64,
    /// Peers that crossed the *suspect-slow* membership line (answering,
    /// but late). Entry edges only; no epoch is minted for these. Never
    /// moves without a delay schedule.
    pub nodes_suspected_slow: u64,
    /// Serving workload: hedged duplicate fetches sent after the hedge
    /// delay lapsed (each one spent a retry-budget token).
    pub hedges_sent: u64,
    /// Serving workload: hedges whose duplicate answered first.
    pub hedges_won: u64,
    /// Serving workload: hedges that lost the race (or whose request
    /// expired) — the duplicate's work was wasted.
    pub hedges_wasted: u64,
    /// Reliable-link data frames that arrived out of order (fresh, but
    /// behind a higher sequence already seen) — possible only once a
    /// delay schedule reorders the fabric. Delivered normally.
    pub frames_reordered: u64,
}

/// Index of the mapping "kind" in the stats arrays.
pub const STAT_MAPPING: usize = 3;

impl Counters {
    pub(crate) fn idx(kind: ObjKind) -> usize {
        match kind {
            ObjKind::Kernel => 0,
            ObjKind::AddrSpace => 1,
            ObjKind::Thread => 2,
        }
    }

    /// Stats-array index of an object kind (mappings use
    /// [`STAT_MAPPING`]).
    pub fn idx_pub(kind: ObjKind) -> usize {
        Self::idx(kind)
    }

    /// Tick the counters for one event entering the pipeline. This is
    /// called from exactly one place, [`CacheKernel::emit`].
    ///
    /// [`CacheKernel::emit`]: crate::ck::CacheKernel::emit
    #[inline]
    pub(crate) fn tick(&mut self, ev: &KernelEvent) {
        self.events_emitted += 1;
        match ev {
            KernelEvent::FaultForward { .. } => self.faults_forwarded += 1,
            KernelEvent::TrapForward { .. } => self.traps_forwarded += 1,
            KernelEvent::Signal { fast, .. } => {
                if *fast {
                    self.signals_fast += 1;
                } else {
                    self.signals_slow += 1;
                }
            }
            KernelEvent::Writeback(_) => self.writebacks_queued += 1,
            KernelEvent::Shootdown { pages, .. } => self.note_shootdown_round(*pages as u64),
            KernelEvent::DeviceInterrupt { .. } => self.device_interrupts += 1,
            KernelEvent::PacketArrived { .. } => self.packets += 1,
            KernelEvent::AccountingPeriodEnd { .. } => self.accounting_periods += 1,
            KernelEvent::ThreadExit { .. } => self.thread_exits += 1,
            KernelEvent::KernelFailed { .. } => self.kernels_failed += 1,
            KernelEvent::KernelRecovered { orphans, .. } => {
                self.kernels_recovered += 1;
                self.orphans_reclaimed += u64::from(*orphans);
            }
            KernelEvent::ThrashDetected { .. } => self.thrash_detected += 1,
            KernelEvent::Cluster(ev) => match ev {
                crate::events::ClusterEvent::NodeDown { .. } => self.nodes_down += 1,
                crate::events::ClusterEvent::NodeRejoined { .. } => self.nodes_rejoined += 1,
                crate::events::ClusterEvent::EpochChanged { .. } => self.epoch_changes += 1,
                crate::events::ClusterEvent::NodeSlow { slow, .. } => {
                    if *slow {
                        self.nodes_suspected_slow += 1;
                    }
                }
            },
            KernelEvent::CapViolation { .. } => self.cap_denied += 1,
        }
    }

    /// Account one batched shootdown round covering `pages` page flushes.
    /// Called from `tick` when the round's event enters the pipeline, or
    /// directly when `shootdown_events` is off (tracepoint-style gate).
    #[inline]
    pub(crate) fn note_shootdown_round(&mut self, pages: u64) {
        self.shootdown_rounds += 1;
        self.shootdown_batches += 1;
        self.shootdown_batched_pages += pages;
    }

    /// Add `other`'s counts into `self`. The sharded machine keeps one
    /// `Counters` cell per CPU shard and merges them on read, so the hot
    /// path never shares a counter cache line across threads.
    ///
    /// Every field of `Counters` is a `u64` or an array of `u64` (the
    /// `_ALL_U64` assertion below pins the layout), so the merge is an
    /// element-wise sum over the struct's `u64` lanes — new counters are
    /// picked up automatically and can never be forgotten here.
    pub fn merge_from(&mut self, other: &Counters) {
        const LANES: usize = std::mem::size_of::<Counters>() / 8;
        // SAFETY: `Counters` is `Copy` with every field `u64`-typed (or
        // `[u64; 4]`), so it is exactly `LANES` aligned u64s with no
        // padding; both references are valid for that many lanes and
        // cannot overlap (`&mut` vs `&`).
        let dst =
            unsafe { std::slice::from_raw_parts_mut(self as *mut Counters as *mut u64, LANES) };
        let src =
            unsafe { std::slice::from_raw_parts(other as *const Counters as *const u64, LANES) };
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }
}

/// Layout guard for [`Counters::merge_from`]: the struct must stay an
/// integral number of u64 lanes with u64 alignment. Adding a non-u64
/// field breaks this assertion at compile time.
const _ALL_U64: () = {
    assert!(std::mem::size_of::<Counters>().is_multiple_of(8));
    assert!(std::mem::align_of::<Counters>() == 8);
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::KernelEvent;
    use hw::Paddr;

    #[test]
    fn tick_routes_each_event_kind() {
        let mut c = Counters::default();
        c.tick(&KernelEvent::Signal {
            paddr: Paddr(0x1000),
            receivers: 1,
            fast: true,
        });
        c.tick(&KernelEvent::Signal {
            paddr: Paddr(0x1000),
            receivers: 3,
            fast: false,
        });
        c.tick(&KernelEvent::DeviceInterrupt {
            source: crate::events::DeviceSource::Clock,
            paddr: Paddr(0x2000),
        });
        c.tick(&KernelEvent::AccountingPeriodEnd { period: 100 });
        assert_eq!(c.signals_fast, 1);
        assert_eq!(c.signals_slow, 1);
        assert_eq!(c.device_interrupts, 1);
        assert_eq!(c.accounting_periods, 1);
        assert_eq!(c.events_emitted, 4);
    }

    #[test]
    fn merge_sums_every_lane() {
        let mut a = Counters {
            loads: [1, 2, 3, 4],
            signals_fast: 7,
            rings_full: 1,
            ..Counters::default()
        };
        let b = Counters {
            loads: [10, 20, 30, 40],
            signals_fast: 3,
            threads_panicked: 2,
            ..Counters::default()
        };
        a.merge_from(&b);
        assert_eq!(a.loads, [11, 22, 33, 44]);
        assert_eq!(a.signals_fast, 10);
        assert_eq!(a.rings_full, 1);
        assert_eq!(a.threads_panicked, 2);
        // Merging a default is the identity on every lane.
        let before = a;
        a.merge_from(&Counters::default());
        assert_eq!(format!("{before:?}"), format!("{a:?}"));
    }

    #[test]
    fn kind_indices_are_stable() {
        assert_eq!(Counters::idx_pub(ObjKind::Kernel), 0);
        assert_eq!(Counters::idx_pub(ObjKind::AddrSpace), 1);
        assert_eq!(Counters::idx_pub(ObjKind::Thread), 2);
        assert_eq!(STAT_MAPPING, 3);
    }
}
