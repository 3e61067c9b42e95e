//! The Cache Kernel proper: the load/unload/writeback interface (§2).
//!
//! The Cache Kernel caches three types of objects — kernels, address
//! spaces and threads — plus per-page memory mappings, executing only the
//! performance-critical actions on them. Application kernels implement
//! everything else: they load objects to activate them, receive writebacks
//! when objects are displaced, and serve as the backing store for object
//! state.

use crate::account::KernelAccount;
use crate::cache::ObjCache;
use crate::error::{CkError, CkResult};
use crate::ids::{ObjId, ObjKind};
use crate::objects::*;
use crate::physmap::PhysMap;
use crate::sched::Scheduler;
use hw::{Asid, Mpm, Rights, Vpn};
use std::collections::{BTreeMap, VecDeque};

// These types began life in this module; most of the tree (and external
// crates) still name them through `ck::`.
pub use crate::counters::{Counters, STAT_MAPPING};
pub use crate::events::{KernelEvent, MappingState, Writeback};

/// Accounting period, in cycles (§4.3 quota enforcement granularity).
pub const ACCOUNTING_PERIOD: u64 = 100_000;

/// Event queue bound. At the bound, accounting ticks are dropped with a
/// counter; load-bearing events always enter.
pub const EVENT_QUEUE_BOUND: usize = 65_536;

/// Boot-time configuration of a Cache Kernel instance. Defaults match the
/// prototype of Table 1: 16 kernels, 64 address spaces, 256 threads and
/// 65 536 memory-mapping descriptors.
#[derive(Clone, Debug)]
pub struct CkConfig {
    /// Kernel-object cache slots.
    pub kernel_slots: usize,
    /// Address-space cache slots.
    pub space_slots: usize,
    /// Thread cache slots.
    pub thread_slots: usize,
    /// Memory-mapping descriptor capacity.
    pub mapping_capacity: usize,
    /// Scheduler time slice, in executor steps.
    pub slice: u32,
    /// Per-application-kernel writeback queue bound (0 = unbounded).
    /// At the bound, further writebacks addressed to the kernel spill to
    /// the first kernel and the slow kernel's own loads are shed with
    /// [`CkError::Again`](crate::error::CkError).
    pub wb_queue_bound: usize,
    /// Thrash-detector window, in per-class loads (0 = detector off): a
    /// displacement→reload interval at or below this counts as a fast
    /// reload.
    pub thrash_window: u64,
    /// Consecutive fast reloads before `ThrashDetected` fires.
    pub thrash_threshold: u32,
    /// Penalty duration after the detector fires, in per-class loads:
    /// the offender's objects get no second chance from the clock hand.
    pub thrash_penalty: u64,
    /// Base suggested backoff carried in `Again`, in cycles.
    pub shed_backoff: u32,
    /// Per-thread signal queue bound (0 = unbounded, the default).
    /// "Additional signals are queued within the Cache Kernel" (§2.2)
    /// with no stated limit, but an unresponsive receiver can then pin
    /// unbounded kernel memory. At the bound further signals to that
    /// thread are dropped and counted in
    /// [`Counters::signals_dropped`](crate::Counters); wakeups are
    /// unaffected (a waiting thread always has an empty queue, so the
    /// waking signal is never the one dropped).
    pub signal_queue_bound: usize,
    /// Number of CPU shards in the machine this Cache Kernel is one
    /// shard of (0 or 1 = not sharded). When ≥ 2, compound shootdown
    /// rounds are also exported as [`ShardMsg::Shootdown`] broadcasts so
    /// the other shards' TLBs see the same consistency action — the
    /// cross-CPU round as an explicit message instead of shared
    /// mutation.
    ///
    /// [`ShardMsg::Shootdown`]: crate::shardmsg::ShardMsg
    pub shard_fanout: usize,
    /// Capability enforcement at the application-kernel boundary
    /// (default off, and provably inert then: every rights failure keeps
    /// its legacy error shape and no new counter or event moves). When
    /// on, out-of-grant maps, forged writeback targets, bystander signal
    /// registrations and grant-escalation attempts are denied with
    /// [`CkError::CapDenied`](crate::error::CkError), counted in
    /// `cap_denied` and traced as `CapViolation` events; a grant
    /// *reduction* additionally tears down the kernel's now-out-of-grant
    /// mappings in one batched shootdown round. The first kernel is
    /// exempt throughout.
    pub caps_enforce: bool,
}

impl Default for CkConfig {
    fn default() -> Self {
        CkConfig {
            kernel_slots: 16,
            space_slots: 64,
            thread_slots: 256,
            mapping_capacity: 65_536,
            slice: 50,
            wb_queue_bound: 0,
            thrash_window: 0,
            thrash_threshold: 4,
            thrash_penalty: 64,
            shed_backoff: 500,
            signal_queue_bound: 0,
            shard_fanout: 0,
            caps_enforce: false,
        }
    }
}

/// One Cache Kernel instance (one per MPM).
pub struct CacheKernel {
    pub(crate) kernels: ObjCache<KernelObj>,
    pub(crate) spaces: ObjCache<SpaceObj>,
    pub(crate) threads: ObjCache<ThreadObj>,
    /// The physical memory map of dependency records.
    pub physmap: PhysMap,
    /// Ready queues.
    pub sched: Scheduler,
    pub(crate) accounts: BTreeMap<u16, KernelAccount>,
    /// FIFO-with-second-chance reclaim order for mappings.
    pub(crate) mapping_fifo: VecDeque<(u16, u32, Vpn)>,
    /// The ordered event pipeline drained by the executive.
    pub(crate) events: VecDeque<KernelEvent>,
    pub(crate) first_kernel: Option<ObjId>,
    /// Set by [`CacheKernel::load_mapping_and_resume`]: the pending fault
    /// return has already been paid for by the combined call.
    pub(crate) resume_armed: bool,
    /// Whether signal deliveries enter the event pipeline (default on).
    /// Signal wakeups are synchronous in the messaging layer; the queued
    /// event carries the fact into the ordered pipeline for tracing and
    /// delivery accounting. A harness that attaches no executive (so
    /// nothing ever pumps the queue) can turn this off, tracepoint-style,
    /// to measure bare delivery cost; counters tick either way.
    pub signal_events: bool,
    /// Whether batched shootdown rounds enter the event pipeline (default
    /// on). Same tracepoint-style gate as `signal_events`: each batch
    /// flush becomes one traced event carrying its page count; counters
    /// tick either way.
    pub shootdown_events: bool,
    /// Reusable shootdown batch for compound teardown operations.
    pub(crate) batch_scratch: crate::shootdown::ShootdownBatch,
    /// Reusable signal batch for coalesced per-round delivery.
    pub(crate) sigbatch_scratch: crate::sigbatch::SignalBatch,
    /// Reusable receiver buffer for slow-path signal delivery
    /// (`(thread_slot, asid, vaddr)`; keeps the hot path allocation-free).
    pub(crate) signal_scratch: Vec<(u32, u32, hw::Vaddr)>,
    /// Reusable sibling buffer for the multi-mapping consistency flush.
    pub(crate) p2v_scratch: Vec<crate::physmap::P2v>,
    /// Reusable VPN buffer for range unloads.
    pub(crate) vpn_scratch: Vec<Vpn>,
    /// Kernels declared dead (slot → the id that died there). While a
    /// slot is in this map its writebacks are redirected to the first
    /// kernel and its objects await [`recover_kernel`].
    ///
    /// [`recover_kernel`]: CacheKernel::recover_kernel
    pub(crate) dead_kernels: BTreeMap<u16, ObjId>,
    /// Last cycle each registered kernel was seen alive on the writeback
    /// channel (clock-tick delivery), keyed by slot.
    pub(crate) heartbeats: BTreeMap<u16, u64>,
    /// Restart notices queued by the SRM for the executive: the named
    /// kernel was reloaded under a fresh identifier and needs its
    /// application-kernel instance re-registered.
    pub(crate) restart_notices: VecDeque<(String, ObjId)>,
    /// Per-kernel overload bookkeeping: resident counts, pending
    /// writebacks, thrash-detector state (side table so victim-selection
    /// closures borrow it disjointly from the caches).
    pub(crate) overload: crate::overload::OverloadState,
    /// Messages bound for other shards of a sharded machine, queued by
    /// the kernel's lower layers (shootdown broadcast) and by
    /// application kernels through [`Env::ck`](crate::appkernel::Env).
    /// The machine layer drains this after every quantum and routes the
    /// messages onto the inter-executive rings; outside a sharded
    /// machine (`shard_fanout` < 2 and no driver pushing) it stays
    /// empty and costs nothing.
    pub shard_exports: Vec<crate::shardmsg::ShardExport>,
    /// Configuration.
    pub config: CkConfig,
    /// Operation counters.
    pub stats: Counters,
}

impl CacheKernel {
    /// A Cache Kernel with the given cache geometry.
    pub fn new(config: CkConfig) -> Self {
        CacheKernel {
            kernels: ObjCache::new(ObjKind::Kernel, config.kernel_slots),
            spaces: ObjCache::new(ObjKind::AddrSpace, config.space_slots),
            threads: ObjCache::new(ObjKind::Thread, config.thread_slots),
            physmap: PhysMap::new(config.mapping_capacity),
            sched: Scheduler::new(config.slice),
            accounts: BTreeMap::new(),
            mapping_fifo: VecDeque::new(),
            events: VecDeque::with_capacity(64),
            first_kernel: None,
            resume_armed: false,
            signal_events: true,
            shootdown_events: true,
            batch_scratch: crate::shootdown::ShootdownBatch::default(),
            sigbatch_scratch: crate::sigbatch::SignalBatch::default(),
            signal_scratch: Vec::new(),
            p2v_scratch: Vec::new(),
            vpn_scratch: Vec::new(),
            dead_kernels: BTreeMap::new(),
            heartbeats: BTreeMap::new(),
            restart_notices: VecDeque::new(),
            overload: crate::overload::OverloadState::default(),
            shard_exports: Vec::new(),
            config,
            stats: Counters::default(),
        }
    }

    // ------------------------------------------------------------------
    // Boot and the first kernel
    // ------------------------------------------------------------------

    /// Load the first kernel (the SRM) at boot: it owns itself, is locked,
    /// and by convention is granted whatever `desc.memory_access` says
    /// (normally everything).
    pub fn boot(&mut self, desc: KernelDesc) -> ObjId {
        assert!(self.first_kernel.is_none(), "already booted");
        let id = self
            .kernels
            .insert(KernelObj {
                desc,
                owner: ObjId::new(ObjKind::Kernel, 0, 0), // patched below
                locked: true,
                referenced: true,
                demoted: false,
                locked_spaces: 0,
                locked_threads: 0,
                locked_mappings: 0,
            })
            .expect("empty kernel cache at boot");
        self.kernels.get_mut(id).unwrap().owner = id;
        self.first_kernel = Some(id);
        self.accounts.insert(id.slot, KernelAccount::default());
        self.stats.loads[Counters::idx(ObjKind::Kernel)] += 1;
        self.note_loaded(id, Counters::idx(ObjKind::Kernel));
        id
    }

    /// The first kernel's identifier.
    pub fn first_kernel(&self) -> ObjId {
        self.first_kernel.expect("not booted")
    }

    pub(crate) fn require_first(&self, caller: ObjId) -> CkResult<()> {
        if Some(caller) != self.first_kernel {
            return Err(CkError::FirstKernelOnly);
        }
        Ok(())
    }

    /// Read-only view of a loaded kernel object (fails on a stale id).
    pub fn kernel(&self, id: ObjId) -> CkResult<&KernelObj> {
        self.kernels.get(id).ok_or(CkError::StaleId(id))
    }

    pub(crate) fn kernel_mut(&mut self, id: ObjId) -> CkResult<&mut KernelObj> {
        self.kernels.get_mut(id).ok_or(CkError::StaleId(id))
    }

    /// Charge simulated time for a Cache Kernel call: the trap into
    /// supervisor mode plus `work` cycles of internal processing. The
    /// Table 2 costs emerge from these charges plus the structural work
    /// (descriptor copies, lookups, shootdowns) each path adds.
    pub(crate) fn charge_op(&self, mpm: &mut Mpm, work: u64) {
        let c = mpm.config.cost.trap + work;
        mpm.clock.charge(c);
    }

    /// Cycles to copy `bytes` of descriptor state line by line.
    pub(crate) fn copy_cost(mpm: &Mpm, bytes: usize) -> u64 {
        mpm.config.cost.copy_line * (bytes as u64).div_ceil(hw::CACHE_LINE_SIZE as u64)
    }

    /// Cycles for a TLB/rTLB shootdown across the MPM's processors.
    pub(crate) fn shootdown_cost(mpm: &Mpm) -> u64 {
        mpm.config.cost.ipi * (mpm.cpus.len() as u64).saturating_sub(1)
    }

    /// Read-only view of a loaded space object (fails on a stale id).
    pub fn space(&self, id: ObjId) -> CkResult<&SpaceObj> {
        self.spaces.get(id).ok_or(CkError::StaleId(id))
    }

    pub(crate) fn space_mut(&mut self, id: ObjId) -> CkResult<&mut SpaceObj> {
        self.spaces.get_mut(id).ok_or(CkError::StaleId(id))
    }

    /// Read-only view of a loaded thread object (fails on a stale id).
    pub fn thread(&self, id: ObjId) -> CkResult<&ThreadObj> {
        self.threads.get(id).ok_or(CkError::StaleId(id))
    }

    pub(crate) fn thread_mut(&mut self, id: ObjId) -> CkResult<&mut ThreadObj> {
        self.threads.get_mut(id).ok_or(CkError::StaleId(id))
    }

    /// The address-space tag used in TLBs and the physical memory map for
    /// a loaded space: its cache slot.
    pub fn asid_of(id: ObjId) -> Asid {
        debug_assert_eq!(id.kind, ObjKind::AddrSpace);
        id.slot
    }

    // ------------------------------------------------------------------
    // Kernel objects (§2.4)
    // ------------------------------------------------------------------

    /// Load a new application kernel object. Restricted to the first
    /// kernel, which owns and manages all kernel objects.
    pub fn load_kernel(
        &mut self,
        caller: ObjId,
        desc: KernelDesc,
        mpm: &mut Mpm,
    ) -> CkResult<ObjId> {
        self.require_first(caller)?;
        self.charge_op(
            mpm,
            Self::copy_cost(mpm, core::mem::size_of::<KernelDesc>()),
        );
        if self.kernels.is_full() {
            let victim = self.kernel_victim().ok_or(CkError::CacheFull)?;
            self.writeback_kernel(victim, mpm)?;
        }
        let id = self
            .kernels
            .insert(KernelObj {
                desc,
                owner: caller,
                locked: false,
                referenced: true,
                demoted: false,
                locked_spaces: 0,
                locked_threads: 0,
                locked_mappings: 0,
            })
            .ok_or(CkError::CacheFull)?;
        self.accounts.insert(id.slot, KernelAccount::default());
        self.stats.loads[Counters::idx(ObjKind::Kernel)] += 1;
        self.note_loaded(caller, Counters::idx(ObjKind::Kernel));
        Ok(id)
    }

    /// Explicitly unload a kernel object, unloading all of its address
    /// spaces, threads and mappings first ("an expensive operation", §2.4).
    /// Dependent objects are written back to the unloaded kernel over the
    /// writeback channel; the kernel descriptor itself is returned.
    pub fn unload_kernel(
        &mut self,
        caller: ObjId,
        id: ObjId,
        mpm: &mut Mpm,
    ) -> CkResult<Box<KernelDesc>> {
        self.require_first(caller)?;
        if Some(id) == self.first_kernel {
            return Err(CkError::Invalid);
        }
        self.kernel(id)?;
        self.charge_op(mpm, 0);
        let desc = self.do_unload_kernel(id, mpm)?;
        self.stats.unloads[Counters::idx(ObjKind::Kernel)] += 1;
        Ok(desc)
    }

    /// The three special query/modify operations on kernel objects (§2.4,
    /// §7): added "as optimizations of this basic mechanism" of unloading,
    /// modifying and reloading.
    ///
    /// 1. Change the page-group rights of a kernel (SRM only; with
    ///    capability enforcement on, a non-first caller's attempt is
    ///    traced and denied as a grant-escalation violation rather than
    ///    the bare [`CkError::FirstKernelOnly`]). Under `caps_enforce`,
    ///    a rights *reduction* also tears down the kernel's mappings
    ///    that the narrowed grant no longer covers, in one batched
    ///    shootdown round — a down-scoped kernel cannot keep touching
    ///    pages through stale PTEs.
    pub fn modify_kernel_grant(
        &mut self,
        caller: ObjId,
        kernel: ObjId,
        group_first: u32,
        group_count: u32,
        rights: Rights,
        mpm: &mut Mpm,
    ) -> CkResult<()> {
        if Some(caller) != self.first_kernel {
            let anchor = hw::Paddr(group_first.saturating_mul(hw::PAGE_GROUP_SIZE));
            return Err(self.cap_escalation_denied(caller, anchor));
        }
        let k = self.kernel_mut(kernel)?;
        let mut narrowed = false;
        for g in group_first..group_first.saturating_add(group_count) {
            if g >= hw::PAGE_GROUPS_TOTAL {
                return Err(CkError::Invalid);
            }
            let old = k.desc.memory_access.get(g);
            k.desc.memory_access.set(g, rights);
            if (old.allows(hw::Access::Read) && !rights.allows(hw::Access::Read))
                || (old.allows(hw::Access::Write) && !rights.allows(hw::Access::Write))
            {
                narrowed = true;
            }
        }
        if narrowed && self.config.caps_enforce && Some(kernel) != self.first_kernel {
            self.revoke_out_of_grant_mappings(kernel, group_first, group_count, mpm);
        }
        Ok(())
    }

    /// 2. Change a kernel's processor quota (SRM only).
    pub fn set_kernel_cpu_quota(
        &mut self,
        caller: ObjId,
        kernel: ObjId,
        quota_pct: [u8; MAX_CPUS],
    ) -> CkResult<()> {
        self.require_first(caller)?;
        self.kernel_mut(kernel)?.desc.cpu_quota_pct = quota_pct;
        Ok(())
    }

    /// 3. Change the maximum priority a kernel may use (SRM only).
    pub fn set_kernel_max_priority(
        &mut self,
        caller: ObjId,
        kernel: ObjId,
        max_priority: Priority,
    ) -> CkResult<()> {
        self.require_first(caller)?;
        if max_priority > MAX_PRIORITY {
            return Err(CkError::Invalid);
        }
        self.kernel_mut(kernel)?.desc.max_priority = max_priority;
        Ok(())
    }

    /// 4. Change a kernel's reserved descriptor slots (SRM only).
    ///
    /// Below these counts the kernel's loaded objects cannot be displaced
    /// by *other* kernels' loads (the greedy load is shed with
    /// [`CkError::Again`](crate::error::CkError) instead). The sum of all
    /// kernels' reservations must fit each cache — otherwise every
    /// overloaded load could be shed forever.
    pub fn set_kernel_reservation(
        &mut self,
        caller: ObjId,
        kernel: ObjId,
        reserved: ReservedSlots,
    ) -> CkResult<()> {
        self.require_first(caller)?;
        self.kernel(kernel)?;
        let (mut spaces, mut threads, mut mappings) = (0usize, 0usize, 0usize);
        for (id, _) in self.kernels.iter() {
            let r = if id == kernel {
                reserved
            } else {
                self.overload.reserved(id.slot)
            };
            spaces += usize::from(r.spaces);
            threads += usize::from(r.threads);
            mappings += usize::from(r.mappings);
        }
        if spaces > self.spaces.capacity()
            || threads > self.threads.capacity()
            || mappings > self.physmap.capacity()
        {
            return Err(CkError::Invalid);
        }
        self.overload.set_reserved(kernel.slot, reserved);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Address-space objects (§2.1)
    // ------------------------------------------------------------------

    /// Load an address space for the calling kernel, with minimal state
    /// (currently just the lock bit). Returns the new identifier.
    pub fn load_space(&mut self, caller: ObjId, desc: SpaceDesc, mpm: &mut Mpm) -> CkResult<ObjId> {
        let k = self.kernel(caller)?;
        if desc.locked && k.locked_spaces >= k.desc.locked_quota.spaces {
            return Err(CkError::LockQuota);
        }
        let class = Counters::idx(ObjKind::AddrSpace);
        self.admit_load(caller)?;
        // Root page table (512 B) plus the root object.
        self.charge_op(
            mpm,
            Self::copy_cost(mpm, hw::pagetable::UPPER_TABLE_BYTES + 64),
        );
        if self.spaces.is_full() {
            let victim = self.space_victim(caller)?;
            self.writeback_space(victim, mpm)?;
        }
        let id = self
            .spaces
            .insert(SpaceObj {
                owner: caller,
                locked: desc.locked,
                referenced: true,
                pt: hw::PageTable::new(),
            })
            .ok_or(CkError::CacheFull)?;
        if desc.locked {
            self.kernel_mut(caller)?.locked_spaces += 1;
        }
        self.stats.loads[class] += 1;
        self.note_loaded(caller, class);
        Ok(id)
    }

    /// Explicitly unload an address space. Its threads and mappings are
    /// written back first (over the channel); the space itself just
    /// disappears — it carried no other state.
    pub fn unload_space(&mut self, caller: ObjId, id: ObjId, mpm: &mut Mpm) -> CkResult<()> {
        let s = self.space(id)?;
        if s.owner != caller {
            return Err(CkError::NotOwner(id));
        }
        // The ASID flush rides the teardown's single batched shootdown
        // round, charged at the batch flush.
        self.charge_op(mpm, 0);
        self.do_unload_space(id, mpm, false)?;
        self.stats.unloads[Counters::idx(ObjKind::AddrSpace)] += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Thread objects (§2.3)
    // ------------------------------------------------------------------

    /// Load a thread. Its address space must be currently loaded; if the
    /// space identifier is stale (e.g. the space was written back
    /// concurrently), the load fails with [`CkError::StaleId`] and the
    /// application kernel retries after reloading the space.
    pub fn load_thread(
        &mut self,
        caller: ObjId,
        desc: ThreadDesc,
        locked: bool,
        mpm: &mut Mpm,
    ) -> CkResult<ObjId> {
        let k = self.kernel(caller)?;
        if desc.priority > k.desc.max_priority {
            return Err(CkError::PriorityTooHigh(desc.priority));
        }
        if locked && k.locked_threads >= k.desc.locked_quota.threads {
            return Err(CkError::LockQuota);
        }
        let space = self.space(desc.space)?;
        if space.owner != caller {
            return Err(CkError::NotOwner(desc.space));
        }
        let class = Counters::idx(ObjKind::Thread);
        self.admit_load(caller)?;
        // Copy the register context in and queue the thread.
        self.charge_op(
            mpm,
            Self::copy_cost(mpm, core::mem::size_of::<ThreadDesc>())
                + 2 * mpm.config.cost.hash_probe,
        );
        if self.threads.is_full() {
            let victim = self.thread_victim(caller)?;
            self.writeback_thread(victim, mpm)?;
        }
        let state = desc.state;
        let priority = desc.priority;
        let id = self
            .threads
            .insert(ThreadObj {
                desc,
                owner: caller,
                locked,
                referenced: true,
                signal_queue: VecDeque::new(),
                in_signal: false,
            })
            .ok_or(CkError::CacheFull)?;
        if locked {
            self.kernel_mut(caller)?.locked_threads += 1;
        }
        let _ = priority;
        if state == ThreadState::Ready {
            self.enqueue_thread(id.slot);
        }
        self.stats.loads[class] += 1;
        self.note_loaded(caller, class);
        Ok(id)
    }

    /// Explicitly unload a thread, returning its current state (this is
    /// how an application kernel deschedules, examines or migrates one).
    pub fn unload_thread(
        &mut self,
        caller: ObjId,
        id: ObjId,
        mpm: &mut Mpm,
    ) -> CkResult<Box<ThreadDesc>> {
        let t = self.thread(id)?;
        if t.owner != caller {
            return Err(CkError::NotOwner(id));
        }
        self.charge_op(mpm, 0);
        let desc = self.do_unload_thread(id, mpm)?;
        self.stats.unloads[Counters::idx(ObjKind::Thread)] += 1;
        Ok(desc)
    }

    /// The priority-modification optimization call (§2.3): adjust a loaded
    /// thread's priority without unloading and reloading it.
    pub fn set_priority(&mut self, caller: ObjId, id: ObjId, priority: Priority) -> CkResult<()> {
        let max = self.kernel(caller)?.desc.max_priority;
        if priority > max {
            return Err(CkError::PriorityTooHigh(priority));
        }
        let t = self.thread_mut(id)?;
        if t.owner != caller {
            return Err(CkError::NotOwner(id));
        }
        t.desc.priority = priority;
        self.sched.requeue(id.slot, priority);
        Ok(())
    }

    /// Force a loaded thread to block (descheduling without unload).
    pub fn suspend_thread(&mut self, caller: ObjId, id: ObjId) -> CkResult<()> {
        let t = self.thread_mut(id)?;
        if t.owner != caller {
            return Err(CkError::NotOwner(id));
        }
        t.desc.state = ThreadState::Suspended;
        self.sched.remove(id.slot);
        Ok(())
    }

    /// Resume a suspended or signal-waiting thread.
    pub fn resume_thread(&mut self, caller: ObjId, id: ObjId) -> CkResult<()> {
        let t = self.thread_mut(id)?;
        if t.owner != caller {
            return Err(CkError::NotOwner(id));
        }
        if matches!(
            t.desc.state,
            ThreadState::Suspended | ThreadState::WaitSignal
        ) {
            t.desc.state = ThreadState::Ready;
            self.enqueue_thread(id.slot);
        }
        Ok(())
    }

    // Page mappings (§2.1/§2.2) live in `mapping.rs`; locking in
    // `lock.rs`; quota accounting (§4.3) in `account.rs`.

    // ------------------------------------------------------------------
    // Introspection for the harness
    // ------------------------------------------------------------------

    /// (loaded, capacity) per object kind plus mappings.
    pub fn occupancy(&self) -> [(usize, usize); 4] {
        [
            (self.kernels.len(), self.kernels.capacity()),
            (self.spaces.len(), self.spaces.capacity()),
            (self.threads.len(), self.threads.capacity()),
            (self.physmap.len(), self.physmap.capacity()),
        ]
    }

    /// Owner kernel of a thread slot (executive dispatch).
    pub fn thread_owner(&self, slot: u16) -> Option<ObjId> {
        self.threads.get_slot(slot).map(|t| t.owner)
    }

    /// Current id of a thread slot.
    pub fn thread_id(&self, slot: u16) -> Option<ObjId> {
        self.threads.id_of_slot(slot)
    }

    /// Current id of a space slot.
    pub fn space_id(&self, slot: u16) -> Option<ObjId> {
        self.spaces.id_of_slot(slot)
    }

    /// The hardware page tables of a loaded space. The MMU walks these on
    /// a TLB miss; the executive (and tests standing in for it) pass them
    /// to [`hw::Mpm::translate`].
    pub fn page_table_mut(&mut self, space: ObjId) -> Option<&mut hw::PageTable> {
        self.spaces.get_mut(space).map(|s| &mut s.pt)
    }

    /// Read-only view of a loaded space's page tables.
    pub fn page_table(&self, space: ObjId) -> Option<&hw::PageTable> {
        self.spaces.get(space).map(|s| &s.pt)
    }
}

#[cfg(test)]
#[path = "ck_tests.rs"]
mod tests;
