//! Object replacement: dependency-ordered unload and writeback (§4.2).
//!
//! The caches hold objects with relationships among themselves, with the
//! hardware and internally (Fig. 6):
//!
//! ```text
//!   signal mapping ─▶ thread ─▶ address space ─▶ kernel
//!   p2v mapping ────────────────▲
//! ```
//!
//! "When an object is unloaded … the object first unloads the objects that
//! directly depend on it." Unloading an address space therefore unloads
//! its threads and page mappings first; unloading a thread unloads the
//! signal mappings registered on it; unloading a mapping removes its TLB
//! entries and dependency records and — if it carried a signal — flushes
//! all writable mappings of the frame for multi-mapping consistency.
//!
//! Locking protects an object from *reclamation* only while the objects it
//! depends on are locked as well; explicit unloads always proceed.

use crate::ck::{CacheKernel, Counters, MappingState, Writeback, STAT_MAPPING};
use crate::error::{CkError, CkResult};
use crate::ids::{ObjId, ObjKind};
use crate::objects::{KernelDesc, ThreadDesc, ThreadState};
use crate::shootdown::ShootdownBatch;
use hw::{Mpm, Pte, Vpn};

impl CacheKernel {
    // ------------------------------------------------------------------
    // Mapping unload
    // ------------------------------------------------------------------

    /// Unload the mapping at `vpn` in `space`, flushing TLBs and removing
    /// dependency records. If `queue_wb` the state is queued on the
    /// writeback channel; either way it is returned. Eager single-page
    /// form: one shootdown round, the Table 2 unload shape.
    pub(crate) fn do_unload_mapping(
        &mut self,
        space: ObjId,
        vpn: Vpn,
        mpm: &mut Mpm,
        queue_wb: bool,
    ) -> Option<MappingState> {
        self.unload_mapping_impl(space, vpn, mpm, queue_wb, None)
    }

    /// Unload one mapping, either eagerly (`batch` = `None`: charge and
    /// broadcast its own shootdown round) or as part of a compound
    /// operation (`batch` = `Some`: record the invalidations, the caller
    /// issues one round for the whole batch).
    ///
    /// Multi-mapping consistency (§4.2): if the mapping carried a signal
    /// registration, every *writable* mapping of the same frame is flushed
    /// too, so a sender can never signal on an address whose receivers
    /// have silently lost their mappings. The siblings join the enclosing
    /// batch; an eager unload opens a local batch so the cascade costs one
    /// extra round, not one per sibling.
    pub(crate) fn unload_mapping_impl(
        &mut self,
        space: ObjId,
        vpn: Vpn,
        mpm: &mut Mpm,
        queue_wb: bool,
        mut batch: Option<&mut ShootdownBatch>,
    ) -> Option<MappingState> {
        let (owner, locked_bit, pte) = {
            let s = self.spaces.get_mut(space)?;
            let pte = s.pt.remove(vpn)?;
            (s.owner, pte.has(Pte::LOCKED), pte)
        };
        if locked_bit {
            if let Some(k) = self.kernels.get_mut(owner) {
                k.locked_mappings = k.locked_mappings.saturating_sub(1);
            }
        }
        self.overload.note_unload(owner.slot, STAT_MAPPING);
        let asid = CacheKernel::asid_of(space);
        let vaddr = vpn.base();
        let paddr = pte.pfn().base();

        // Hardware coherence: drop the translation and any reverse-TLB
        // entry for the frame on every CPU — the shootdown dominates the
        // cost of a mapping unload (Table 2's unload > load). A batched
        // unload pays only the lookup probes here and shares the round
        // issued at the batch flush.
        match batch.as_deref_mut() {
            Some(b) => {
                mpm.clock.charge(2 * mpm.config.cost.hash_probe);
                b.add_page(asid, vpn, pte.pfn());
            }
            None => {
                mpm.clock
                    .charge(CacheKernel::shootdown_cost(mpm) + 2 * mpm.config.cost.hash_probe);
                mpm.flush_page_all_cpus(asid, vaddr);
                mpm.rtlb_invalidate_all_cpus(pte.pfn());
                self.stats.shootdown_rounds += 1;
            }
        }

        // Remove the dependency records; note whether a signal was
        // registered before they go.
        let had_signal = self
            .physmap
            .find_p2v_exact(paddr, asid as u32, vaddr)
            .map(|h| {
                let sig = self.physmap.signal_of(h).is_some();
                self.physmap.remove_p2v(h);
                sig
            })
            .unwrap_or(false);

        let state = MappingState {
            vaddr,
            paddr,
            flags: pte.flags(),
        };
        if queue_wb {
            self.queue_writeback(Writeback::Mapping {
                owner,
                space,
                vaddr,
                paddr,
                flags: pte.flags(),
            });
        }

        if had_signal {
            // Flush all writable mappings of this frame, in any space.
            let mut others = core::mem::take(&mut self.p2v_scratch);
            others.clear();
            self.physmap.visit_p2v(paddr, |m| others.push(m));
            let mut local: Option<ShootdownBatch> = match batch {
                Some(_) => None,
                None => Some(self.take_shootdown_batch()),
            };
            for m in &others {
                let sp = match self.spaces.id_of_slot(m.asid as u16) {
                    Some(id) => id,
                    None => continue,
                };
                let opte = self.spaces.get(sp).map(|s| s.pt.lookup(m.vaddr.vpn()));
                if let Some(opte) = opte {
                    if opte.is_valid() && opte.has(Pte::WRITABLE) {
                        self.stats.consistency_flushes += 1;
                        let b = batch.as_deref_mut().or(local.as_mut());
                        self.unload_mapping_impl(sp, m.vaddr.vpn(), mpm, true, b);
                    }
                }
            }
            others.clear();
            self.p2v_scratch = others;
            if let Some(lb) = local {
                self.finish_shootdown(lb, mpm);
            }
        }
        Some(state)
    }

    /// Reclaim one mapping descriptor to make room for a load by
    /// `for_kernel`, honoring lock rules and giving referenced mappings a
    /// second chance — with two overload twists: a bystander kernel at or
    /// below its mapping reservation is not displaceable by another
    /// kernel's load (the load is shed with [`CkError::Again`]), and a
    /// kernel under thrash penalty forfeits the second chance for its own
    /// mappings. Fails with [`CkError::CacheFull`] only when everything
    /// is pinned by locks.
    pub(crate) fn reclaim_one_mapping(&mut self, for_kernel: ObjId, mpm: &mut Mpm) -> CkResult<()> {
        let now = self.stats.loads[STAT_MAPPING];
        let mut protected = false;
        let budget = self.mapping_fifo.len();
        for _ in 0..=budget {
            let (slot, gen, vpn) = match self.mapping_fifo.pop_front() {
                Some(e) => e,
                None => break,
            };
            // Entry may be stale: space reloaded or mapping replaced.
            let space = ObjId::new(ObjKind::AddrSpace, slot, gen);
            let (owner, pte) = match self.spaces.get(space) {
                Some(s) => (s.owner, s.pt.lookup(vpn)),
                None => continue,
            };
            if !pte.is_valid() {
                continue;
            }
            if self.mapping_pinned(space, vpn, pte) {
                self.mapping_fifo.push_back((slot, gen, vpn));
                continue;
            }
            if owner != for_kernel {
                let reserved = u32::from(self.overload.reserved(owner.slot).mappings);
                if reserved != 0 && self.overload.resident(owner.slot, STAT_MAPPING) <= reserved {
                    protected = true;
                    self.mapping_fifo.push_back((slot, gen, vpn));
                    continue;
                }
            }
            if pte.has(Pte::REFERENCED) && !self.overload.penalized(owner.slot, STAT_MAPPING, now) {
                // Second chance: clear and requeue.
                if let Some(s) = self.spaces.get_mut(space) {
                    s.pt.update(vpn, |p| p.without(Pte::REFERENCED));
                }
                self.mapping_fifo.push_back((slot, gen, vpn));
                continue;
            }
            if self.do_unload_mapping(space, vpn, mpm, true).is_some() {
                self.stats.writebacks[STAT_MAPPING] += 1;
                self.overload
                    .note_displacement(owner.slot, STAT_MAPPING, now);
                return Ok(());
            }
        }
        if protected {
            let backoff = self.config.shed_backoff;
            Err(self.shed_load(for_kernel, backoff))
        } else {
            Err(CkError::CacheFull)
        }
    }

    /// Whether a mapping is protected from reclamation: it is locked *and*
    /// its address space, owning kernel and signal thread (if any) are all
    /// locked (§4.2: "a locked mapping can be reclaimed unless its address
    /// space, its kernel object and its signal thread … are locked").
    fn mapping_pinned(&self, space: ObjId, vpn: Vpn, pte: Pte) -> bool {
        if !pte.has(Pte::LOCKED) {
            return false;
        }
        let s = match self.spaces.get(space) {
            Some(s) => s,
            None => return false,
        };
        if !s.locked {
            return false;
        }
        let k = match self.kernels.get(s.owner) {
            Some(k) => k,
            None => return false,
        };
        if !k.locked {
            return false;
        }
        let asid = CacheKernel::asid_of(space) as u32;
        if let Some(h) = self
            .physmap
            .find_p2v_exact(pte.pfn().base(), asid, vpn.base())
        {
            if let Some(tslot) = self.physmap.signal_of(h) {
                match self.threads.get_slot(tslot as u16) {
                    Some(t) if t.locked => {}
                    _ => return false,
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Thread unload
    // ------------------------------------------------------------------

    /// Unload a thread: first the signal mappings that depend on it, then
    /// the thread itself (descheduled, reverse-TLB entries invalidated).
    /// Fails with [`CkError::StaleId`] if the identifier no longer names a
    /// live thread — checked up front, *before* side effects, so a stale
    /// id can never strip signal mappings off an unrelated thread that
    /// reused the slot. Eager form: the whole teardown rides one
    /// shootdown round.
    pub(crate) fn do_unload_thread(
        &mut self,
        id: ObjId,
        mpm: &mut Mpm,
    ) -> CkResult<Box<ThreadDesc>> {
        let mut batch = self.take_shootdown_batch();
        let res = self.unload_thread_batched(id, mpm, &mut batch);
        self.finish_shootdown(batch, mpm);
        res
    }

    /// Thread unload body with the invalidations deferred to `batch`. The
    /// caller issues (and pays for) the cross-CPU round.
    pub(crate) fn unload_thread_batched(
        &mut self,
        id: ObjId,
        mpm: &mut Mpm,
        batch: &mut ShootdownBatch,
    ) -> CkResult<Box<ThreadDesc>> {
        if self.threads.get(id).is_none() {
            return Err(CkError::StaleId(id));
        }
        // Copy the context out; the reverse-TLB invalidations join the
        // enclosing batch's single round.
        mpm.clock.charge(CacheKernel::copy_cost(
            mpm,
            core::mem::size_of::<ThreadDesc>(),
        ));
        // Signal mappings depending on this thread go first (Fig. 6).
        for (paddr, vaddr, asid) in self.physmap.signal_mappings_of_thread(id.slot as u32) {
            let _ = paddr;
            if let Some(sp) = self.spaces.id_of_slot(asid as u16) {
                self.unload_mapping_impl(sp, vaddr.vpn(), mpm, true, Some(batch));
            }
        }
        // Defensive: drop any orphan signal records.
        self.physmap.remove_signals_of_thread(id.slot as u32);

        self.sched.remove(id.slot);
        // Scheduling state clears immediately; only the reverse-TLB sweep
        // is deferred to the batch round.
        for cpu in mpm.cpus.iter_mut() {
            if cpu.current == Some(id.slot as u32) {
                cpu.current = None;
            }
        }
        batch.add_thread(id.slot as u32);
        let t = self.threads.remove(id).ok_or(CkError::StaleId(id))?;
        self.overload
            .note_unload(t.owner.slot, Counters::idx_pub(ObjKind::Thread));
        if t.locked {
            if let Some(k) = self.kernels.get_mut(t.owner) {
                k.locked_threads = k.locked_threads.saturating_sub(1);
            }
        }
        Ok(Box::new(t.desc))
    }

    /// Reclamation writeback of a thread: unload and queue its state to
    /// its owner.
    pub(crate) fn writeback_thread(&mut self, id: ObjId, mpm: &mut Mpm) -> CkResult<()> {
        let owner = self
            .threads
            .get(id)
            .map(|t| t.owner)
            .ok_or(CkError::StaleId(id))?;
        // Writeback channel message: copy the descriptor out and signal.
        mpm.clock.charge(
            CacheKernel::copy_cost(mpm, core::mem::size_of::<ThreadDesc>())
                + mpm.config.cost.signal_fast,
        );
        let desc = self.do_unload_thread(id, mpm)?;
        let class = Counters::idx_pub(ObjKind::Thread);
        self.stats.writebacks[class] += 1;
        self.overload
            .note_displacement(owner.slot, class, self.stats.loads[class]);
        self.queue_writeback(Writeback::Thread { owner, id, desc });
        Ok(())
    }

    /// Choose a thread to displace with the shared clock sweep
    /// ([`crate::cache::ObjCache::victim`]), on behalf of a load by
    /// `for_kernel`. A thread is pinned if it is currently running, or if
    /// it is locked *and* its address space and owning kernel are locked
    /// too; referenced threads get a second chance. Overload rules: a
    /// bystander kernel at or below its thread reservation is protected
    /// (shedding the greedy load with [`CkError::Again`] if nothing else
    /// is displaceable), and a kernel under thrash penalty forfeits the
    /// second chance for its own threads.
    pub(crate) fn thread_victim(&mut self, for_kernel: ObjId) -> CkResult<ObjId> {
        let spaces = &self.spaces;
        let kernels = &self.kernels;
        let overload = &self.overload;
        let class = Counters::idx_pub(ObjKind::Thread);
        let now = self.stats.loads[class];
        let mut protected = false;
        let victim = self.threads.victim(
            |_, t| {
                if matches!(t.desc.state, ThreadState::Running(_)) {
                    return true;
                }
                if t.owner != for_kernel {
                    let reserved = u32::from(overload.reserved(t.owner.slot).threads);
                    if reserved != 0 && overload.resident(t.owner.slot, class) <= reserved {
                        protected = true;
                        return true;
                    }
                }
                t.locked
                    && spaces
                        .get(t.desc.space)
                        .map(|s| {
                            s.locked && kernels.get(s.owner).map(|k| k.locked).unwrap_or(false)
                        })
                        .unwrap_or(false)
            },
            |t| {
                if overload.penalized(t.owner.slot, class, now) {
                    t.referenced = false;
                    return false;
                }
                core::mem::replace(&mut t.referenced, false)
            },
        );
        match victim {
            Some(id) => Ok(id),
            None if protected => {
                let backoff = self.config.shed_backoff;
                Err(self.shed_load(for_kernel, backoff))
            }
            None => Err(CkError::CacheFull),
        }
    }

    // ------------------------------------------------------------------
    // Address-space unload
    // ------------------------------------------------------------------

    /// Unload an address space: all threads in it, then all its page
    /// mappings, then the space itself. If `queue_space_wb`, a `Space`
    /// writeback is queued (reclamation); explicit unloads skip it.
    /// Eager form: one shootdown round covers the whole teardown.
    pub(crate) fn do_unload_space(
        &mut self,
        id: ObjId,
        mpm: &mut Mpm,
        queue_space_wb: bool,
    ) -> CkResult<()> {
        let mut batch = self.take_shootdown_batch();
        let res = self.unload_space_batched(id, mpm, queue_space_wb, &mut batch);
        // On error the partial teardown's invalidations still must reach
        // the other CPUs; flush whatever was collected.
        self.finish_shootdown(batch, mpm);
        res
    }

    /// Space unload body with the invalidations deferred to `batch`.
    pub(crate) fn unload_space_batched(
        &mut self,
        id: ObjId,
        mpm: &mut Mpm,
        queue_space_wb: bool,
        batch: &mut ShootdownBatch,
    ) -> CkResult<()> {
        let owner = self
            .spaces
            .get(id)
            .map(|s| s.owner)
            .ok_or(CkError::StaleId(id))?;
        // Threads first: "before an address space object is written back,
        // all the page mappings in the address space and all the
        // associated threads are written back" (§2.1).
        for tid in self.threads.ids_where(|t| t.desc.space == id) {
            let Some(towner) = self.threads.get(tid).map(|t| t.owner) else {
                continue;
            };
            let desc = self.unload_thread_batched(tid, mpm, batch)?;
            self.queue_writeback(Writeback::Thread {
                owner: towner,
                id: tid,
                desc,
            });
        }
        // Then every mapping.
        let mut vpns = core::mem::take(&mut self.vpn_scratch);
        vpns.clear();
        if let Some(s) = self.spaces.get(id) {
            vpns.extend(s.pt.iter().map(|(v, _)| v));
        }
        for &vpn in &vpns {
            self.unload_mapping_impl(id, vpn, mpm, true, Some(batch));
        }
        vpns.clear();
        self.vpn_scratch = vpns;
        // The whole-ASID flush subsumes this space's per-page entries at
        // the batch flush.
        batch.flush_asid(CacheKernel::asid_of(id));
        if let Some(s) = self.spaces.remove(id) {
            self.overload
                .note_unload(owner.slot, Counters::idx_pub(ObjKind::AddrSpace));
            if s.locked {
                if let Some(k) = self.kernels.get_mut(owner) {
                    k.locked_spaces = k.locked_spaces.saturating_sub(1);
                }
            }
        }
        if queue_space_wb {
            self.queue_writeback(Writeback::Space { owner, id });
        }
        Ok(())
    }

    /// Reclamation writeback of a space. The shootdown is charged once at
    /// the teardown's batch flush, not here.
    pub(crate) fn writeback_space(&mut self, id: ObjId, mpm: &mut Mpm) -> CkResult<()> {
        let owner = self
            .spaces
            .get(id)
            .map(|s| s.owner)
            .ok_or(CkError::StaleId(id))?;
        mpm.clock.charge(mpm.config.cost.signal_fast);
        self.do_unload_space(id, mpm, true)?;
        let class = Counters::idx_pub(ObjKind::AddrSpace);
        self.stats.writebacks[class] += 1;
        self.overload
            .note_displacement(owner.slot, class, self.stats.loads[class]);
        Ok(())
    }

    /// Choose an address space to displace with the shared clock sweep,
    /// on behalf of a load by `for_kernel`. A space is pinned if locked
    /// with a locked owner kernel, or if it contains a running thread;
    /// referenced spaces get a second chance. Overload rules as in
    /// [`CacheKernel::thread_victim`]: bystanders at or below their space
    /// reservation are protected, thrash-penalized owners forfeit the
    /// second chance.
    pub(crate) fn space_victim(&mut self, for_kernel: ObjId) -> CkResult<ObjId> {
        let threads = &self.threads;
        let kernels = &self.kernels;
        let overload = &self.overload;
        let class = Counters::idx_pub(ObjKind::AddrSpace);
        let now = self.stats.loads[class];
        let mut protected = false;
        let victim = self.spaces.victim(
            |id, s| {
                if s.owner != for_kernel {
                    let reserved = u32::from(overload.reserved(s.owner.slot).spaces);
                    if reserved != 0 && overload.resident(s.owner.slot, class) <= reserved {
                        protected = true;
                        return true;
                    }
                }
                let fully_locked =
                    s.locked && kernels.get(s.owner).map(|k| k.locked).unwrap_or(false);
                let has_running = threads.iter().any(|(_, t)| {
                    t.desc.space == id && matches!(t.desc.state, ThreadState::Running(_))
                });
                fully_locked || has_running
            },
            |s| {
                if overload.penalized(s.owner.slot, class, now) {
                    s.referenced = false;
                    return false;
                }
                core::mem::replace(&mut s.referenced, false)
            },
        );
        match victim {
            Some(id) => Ok(id),
            None if protected => {
                let backoff = self.config.shed_backoff;
                Err(self.shed_load(for_kernel, backoff))
            }
            None => Err(CkError::CacheFull),
        }
    }

    // ------------------------------------------------------------------
    // Kernel unload
    // ------------------------------------------------------------------

    /// Unload a kernel object with all its spaces (and their threads and
    /// mappings). One batched shootdown round covers every space.
    pub(crate) fn do_unload_kernel(
        &mut self,
        id: ObjId,
        mpm: &mut Mpm,
    ) -> CkResult<Box<KernelDesc>> {
        if self.kernels.get(id).is_none() {
            return Err(CkError::StaleId(id));
        }
        let mut batch = self.take_shootdown_batch();
        let mut err = None;
        for sp in self.spaces.ids_where(|s| s.owner == id) {
            if let Err(e) = self.unload_space_batched(sp, mpm, true, &mut batch) {
                err = Some(e);
                break;
            }
        }
        self.finish_shootdown(batch, mpm);
        if let Some(e) = err {
            return Err(e);
        }
        self.accounts.remove(&id.slot);
        let k = self.kernels.remove(id).ok_or(CkError::StaleId(id))?;
        self.overload
            .note_unload(k.owner.slot, Counters::idx_pub(ObjKind::Kernel));
        // The unloaded kernel's reservation and thrash state die with it;
        // its pending-writeback count survives until the queue drains
        // (the sum-of-pending invariant tracks queued events, not loaded
        // kernels).
        self.overload.reset_kernel(id.slot);
        Ok(Box::new(k.desc))
    }

    /// Reclamation writeback of a kernel object (to the first kernel).
    pub(crate) fn writeback_kernel(
        &mut self,
        id: ObjId,
        mpm: &mut Mpm,
    ) -> crate::error::CkResult<()> {
        let owner = self
            .kernels
            .get(id)
            .map(|k| k.owner)
            .ok_or(crate::error::CkError::StaleId(id))?;
        mpm.clock.charge(
            CacheKernel::copy_cost(mpm, core::mem::size_of::<crate::objects::KernelDesc>())
                + mpm.config.cost.signal_fast,
        );
        let desc = self.do_unload_kernel(id, mpm)?;
        let class = Counters::idx_pub(ObjKind::Kernel);
        self.stats.writebacks[class] += 1;
        self.overload
            .note_displacement(owner.slot, class, self.stats.loads[class]);
        self.queue_writeback(Writeback::Kernel { owner, id, desc });
        Ok(())
    }

    /// Choose a kernel object to displace with the shared clock sweep:
    /// never the first kernel, never a locked kernel (a kernel has no
    /// dependencies, so its lock alone pins it); referenced kernels get a
    /// second chance. Returns `None` before boot instead of panicking
    /// (nothing is displaceable in an unbooted Cache Kernel).
    pub(crate) fn kernel_victim(&mut self) -> Option<ObjId> {
        let first = self.first_kernel?;
        self.kernels.victim(
            |id, k| id == first || k.locked,
            |k| core::mem::replace(&mut k.referenced, false),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ck::CkConfig;
    use crate::error::CkError;
    use crate::objects::*;
    use hw::{MachineConfig, Paddr, Rights};

    fn setup(cfg: CkConfig) -> (CacheKernel, Mpm, ObjId) {
        let mut ck = CacheKernel::new(cfg);
        let mpm = Mpm::new(MachineConfig {
            phys_frames: 4096,
            l2_bytes: 64 * 1024,
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        (ck, mpm, srm)
    }

    fn small() -> CkConfig {
        CkConfig {
            kernel_slots: 3,
            space_slots: 3,
            thread_slots: 4,
            mapping_capacity: 8,
            ..CkConfig::default()
        }
    }

    #[test]
    fn mapping_capacity_triggers_writeback() {
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        // Fill the 8-descriptor pool, then load one more.
        for i in 0..9u32 {
            ck.load_mapping(
                srm,
                sp,
                hw::Vaddr(0x10_0000 + i * 0x1000),
                Paddr(0x20_0000 + i * 0x1000),
                Pte::CACHEABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        assert_eq!(ck.physmap.len(), 8);
        assert_eq!(ck.stats.writebacks[STAT_MAPPING], 1);
        let wbs = ck.take_writebacks();
        assert_eq!(wbs.len(), 1);
        match &wbs[0] {
            Writeback::Mapping { vaddr, .. } => assert_eq!(*vaddr, hw::Vaddr(0x10_0000)),
            other => panic!("unexpected {other:?}"),
        }
        // The oldest mapping is gone from the page table too.
        assert_eq!(
            ck.query_mapping(srm, sp, hw::Vaddr(0x10_0000)),
            Err(CkError::NoMapping)
        );
    }

    #[test]
    fn referenced_mappings_get_second_chance() {
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        for i in 0..8u32 {
            ck.load_mapping(
                srm,
                sp,
                hw::Vaddr(0x10_0000 + i * 0x1000),
                Paddr(0x20_0000 + i * 0x1000),
                Pte::CACHEABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        // Touch the oldest mapping so its REFERENCED bit is set.
        ck.space_mut(sp)
            .unwrap()
            .pt
            .update(hw::Vaddr(0x10_0000).vpn(), |p| p.with(Pte::REFERENCED));
        ck.load_mapping(
            srm,
            sp,
            hw::Vaddr(0x30_0000),
            Paddr(0x40_0000),
            Pte::CACHEABLE,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        // The referenced first mapping survived; the second-oldest went.
        assert!(ck.query_mapping(srm, sp, hw::Vaddr(0x10_0000)).is_ok());
        assert_eq!(
            ck.query_mapping(srm, sp, hw::Vaddr(0x10_1000)),
            Err(CkError::NoMapping)
        );
    }

    #[test]
    fn space_unload_cascades_threads_and_mappings() {
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let _t1 = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        let _t2 = ck
            .load_thread(srm, ThreadDesc::new(sp, 2, 5), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            hw::Vaddr(0x1000),
            Paddr(0x2000),
            0,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        ck.unload_space(srm, sp, &mut mpm).unwrap();
        assert!(ck.threads.is_empty());
        assert!(ck.physmap.is_empty());
        assert_eq!(ck.sched.ready_count(), 0);
        // Two thread writebacks + one mapping writeback (explicit space
        // unload itself returns no Space record).
        let wbs = ck.take_writebacks();
        assert_eq!(wbs.len(), 3);
    }

    #[test]
    fn thread_unload_removes_its_signal_mappings() {
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            hw::Vaddr(0x5000),
            Paddr(0x6000),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        assert_eq!(ck.physmap.len(), 2); // p2v + signal record
        ck.unload_thread(srm, t, &mut mpm).unwrap();
        assert!(ck.physmap.is_empty(), "signal mapping unloaded with thread");
        assert_eq!(
            ck.query_mapping(srm, sp, hw::Vaddr(0x5000)),
            Err(CkError::NoMapping)
        );
    }

    #[test]
    fn multi_mapping_consistency_flush() {
        // Receiver holds a signal mapping; sender holds a writable mapping
        // of the same frame. Unloading the receiver's signal mapping must
        // flush the sender's writable mapping (§4.2).
        let (mut ck, mut mpm, srm) = setup(small());
        let recv_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let send_sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(recv_sp, 1, 5), false, &mut mpm)
            .unwrap();
        let frame = Paddr(0x9000);
        ck.load_mapping(
            srm,
            recv_sp,
            hw::Vaddr(0xa000),
            frame,
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        ck.load_mapping(
            srm,
            send_sp,
            hw::Vaddr(0xb000),
            frame,
            Pte::WRITABLE | Pte::MESSAGE,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        ck.unload_mapping_range(srm, recv_sp, hw::Vaddr(0xa000), 0x1000, &mut mpm)
            .unwrap();
        assert_eq!(ck.stats.consistency_flushes, 1);
        assert_eq!(
            ck.query_mapping(srm, send_sp, hw::Vaddr(0xb000)),
            Err(CkError::NoMapping),
            "sender's writable mapping flushed for consistency"
        );
    }

    #[test]
    fn kernel_cache_reclaims_on_pressure() {
        let (mut ck, mut mpm, srm) = setup(small());
        let all = || KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        };
        let k1 = ck.load_kernel(srm, all(), &mut mpm).unwrap();
        let _k2 = ck.load_kernel(srm, all(), &mut mpm).unwrap();
        // Cache is full (srm + k1 + k2 = 3 slots). Next load displaces one.
        let sp = ck.load_space(k1, SpaceDesc::default(), &mut mpm).unwrap();
        ck.load_mapping(
            k1,
            sp,
            hw::Vaddr(0x1000),
            Paddr(0x2000),
            0,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        let _k3 = ck.load_kernel(srm, all(), &mut mpm).unwrap();
        let wbs = ck.take_writebacks();
        // k1 (least recently loaded unlocked kernel) was displaced along
        // with its space and mapping.
        assert!(wbs
            .iter()
            .any(|w| matches!(w, Writeback::Kernel { id, .. } if *id == k1)));
        assert!(wbs.iter().any(|w| matches!(w, Writeback::Space { .. })));
        assert!(wbs.iter().any(|w| matches!(w, Writeback::Mapping { .. })));
        assert!(ck.kernel(k1).is_err());
        assert!(ck.space(sp).is_err());
    }

    #[test]
    fn locked_kernel_not_reclaimed() {
        let (mut ck, mut mpm, srm) = setup(small());
        let all = || KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        };
        let k1 = ck.load_kernel(srm, all(), &mut mpm).unwrap();
        let k2 = ck.load_kernel(srm, all(), &mut mpm).unwrap();
        ck.lock(srm, k1).unwrap();
        let _k3 = ck.load_kernel(srm, all(), &mut mpm).unwrap();
        assert!(ck.kernel(k1).is_ok(), "locked kernel survived");
        assert!(ck.kernel(k2).is_err(), "unlocked kernel displaced");
        // With every kernel locked, a further load fails CacheFull.
        let k3 = ck.kernels.ids_where(|_| true);
        for id in k3 {
            let _ = ck.lock(srm, id);
        }
        assert_eq!(
            ck.load_kernel(srm, all(), &mut mpm),
            Err(CkError::CacheFull)
        );
    }

    #[test]
    fn thread_cache_reclaims_on_pressure() {
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(
                ck.load_thread(srm, ThreadDesc::new(sp, i, 5), false, &mut mpm)
                    .unwrap(),
            );
        }
        // Fifth thread displaces one (they are all Ready, none running).
        let t5 = ck
            .load_thread(srm, ThreadDesc::new(sp, 99, 5), false, &mut mpm)
            .unwrap();
        assert!(ck.thread(t5).is_ok());
        assert_eq!(ck.threads.len(), 4);
        let wbs = ck.take_writebacks();
        assert_eq!(wbs.len(), 1);
        match &wbs[0] {
            Writeback::Thread { desc, .. } => assert!(desc.regs.pc < 4),
            other => panic!("unexpected {other:?}"),
        }
        // Scheduler no longer references the displaced slot's stale entry.
        assert_eq!(ck.sched.ready_count(), 4);
    }

    #[test]
    fn space_cache_reclaims_on_pressure() {
        let (mut ck, mut mpm, srm) = setup(small());
        let s1 = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let _s2 = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let _s3 = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let _t = ck
            .load_thread(srm, ThreadDesc::new(s1, 1, 5), false, &mut mpm)
            .unwrap();
        let s4 = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        assert!(ck.space(s4).is_ok());
        let wbs = ck.take_writebacks();
        assert!(wbs.iter().any(|w| matches!(w, Writeback::Space { .. })));
        // If s1 was the victim, its thread was written back first.
        if ck.space(s1).is_err() {
            assert!(wbs.iter().any(|w| matches!(w, Writeback::Thread { .. })));
        }
    }

    #[test]
    fn victim_selection_shares_the_clock_sweep() {
        // thread/space/kernel victim selection all ride the one
        // ObjCache::victim clock helper: a referenced object survives the
        // first sweep (bit cleared in passing), a running thread is pinned.
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t1 = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        let t2 = ck
            .load_thread(srm, ThreadDesc::new(sp, 2, 5), false, &mut mpm)
            .unwrap();
        ck.threads.get_mut(t1).unwrap().referenced = true;
        ck.threads.get_mut(t2).unwrap().referenced = false;
        assert_eq!(ck.thread_victim(srm), Ok(t2), "unreferenced taken first");
        // The sweep cleared t1's bit in passing; it is the next victim.
        assert_eq!(ck.thread_victim(srm), Ok(t1));
        // Running threads are pinned outright.
        ck.threads.get_mut(t1).unwrap().desc.state = ThreadState::Running(0);
        ck.threads.get_mut(t2).unwrap().desc.state = ThreadState::Running(1);
        assert_eq!(ck.thread_victim(srm), Err(CkError::CacheFull));
    }

    #[test]
    fn unload_of_stale_id_is_an_error_not_a_panic() {
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        ck.unload_thread(srm, t, &mut mpm).unwrap();
        assert_eq!(
            ck.do_unload_thread(t, &mut mpm).map(|_| ()),
            Err(CkError::StaleId(t))
        );
        assert_eq!(ck.writeback_thread(t, &mut mpm), Err(CkError::StaleId(t)));
        ck.unload_space(srm, sp, &mut mpm).unwrap();
        assert_eq!(
            ck.do_unload_space(sp, &mut mpm, true),
            Err(CkError::StaleId(sp))
        );
        let bogus = ObjId::new(ObjKind::Kernel, 2, 9);
        assert!(matches!(
            ck.do_unload_kernel(bogus, &mut mpm),
            Err(CkError::StaleId(_))
        ));
    }

    #[test]
    fn fully_locked_mapping_survives_pool_pressure() {
        // §4.2: "a locked mapping can be reclaimed unless its address
        // space, its kernel object and its signal thread (if any) are
        // locked" — lock the whole chain and squeeze the pool.
        let (mut ck, mut mpm, srm) = setup(CkConfig {
            kernel_slots: 3,
            space_slots: 3,
            thread_slots: 4,
            mapping_capacity: 4,
            ..CkConfig::default()
        });
        let sp = ck
            .load_space(srm, SpaceDesc { locked: true }, &mut mpm)
            .unwrap();
        // srm is locked at boot; space is locked; mapping locked below.
        ck.load_mapping(
            srm,
            sp,
            hw::Vaddr(0x1000),
            Paddr(0x2000),
            Pte::LOCKED | Pte::CACHEABLE,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        // Flood the pool with plain mappings.
        for i in 0..12u32 {
            ck.load_mapping(
                srm,
                sp,
                hw::Vaddr(0x10_0000 + i * 0x1000),
                Paddr(0x20_0000 + i * 0x1000),
                Pte::CACHEABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        assert!(
            ck.query_mapping(srm, sp, hw::Vaddr(0x1000)).is_ok(),
            "fully locked mapping never reclaimed"
        );
        ck.check_invariants().unwrap();

        // Unlock the space: the mapping's chain is broken, so pressure
        // may now take it.
        ck.unlock(srm, sp).unwrap();
        for i in 0..8u32 {
            ck.load_mapping(
                srm,
                sp,
                hw::Vaddr(0x30_0000 + i * 0x1000),
                Paddr(0x40_0000 + i * 0x1000),
                Pte::CACHEABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        assert!(
            ck.query_mapping(srm, sp, hw::Vaddr(0x1000)).is_err(),
            "once the chain is unlocked the mapping is reclaimable"
        );
        ck.check_invariants().unwrap();
    }

    #[test]
    fn grant_modification_ops() {
        let (mut ck, mut mpm, srm) = setup(small());
        let k = ck
            .load_kernel(srm, KernelDesc::default(), &mut mpm)
            .unwrap();
        ck.modify_kernel_grant(srm, k, 0, 2, Rights::ReadWrite, &mut mpm)
            .unwrap();
        assert_eq!(
            ck.kernel(k).unwrap().desc.memory_access.get(1),
            Rights::ReadWrite
        );
        ck.set_kernel_cpu_quota(srm, k, [25; MAX_CPUS]).unwrap();
        ck.set_kernel_max_priority(srm, k, 12).unwrap();
        assert_eq!(ck.kernel(k).unwrap().desc.max_priority, 12);
        // Non-first kernels may not call these.
        assert_eq!(
            ck.modify_kernel_grant(k, k, 0, 1, Rights::Read, &mut mpm),
            Err(CkError::FirstKernelOnly)
        );
    }

    // ------------------------------------------------------------------
    // Overload protection: reserved slots, backpressure, thrash detector.

    fn app_kernel_desc() -> KernelDesc {
        KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        }
    }

    #[test]
    fn reservation_protects_bystander_and_sheds_greedy_load() {
        let (mut ck, mut mpm, srm) = setup(CkConfig {
            kernel_slots: 4,
            space_slots: 4,
            thread_slots: 4,
            mapping_capacity: 2,
            shed_backoff: 123,
            ..CkConfig::default()
        });
        let a = ck.load_kernel(srm, app_kernel_desc(), &mut mpm).unwrap();
        let b = ck.load_kernel(srm, app_kernel_desc(), &mut mpm).unwrap();
        ck.set_kernel_reservation(
            srm,
            a,
            ReservedSlots {
                mappings: 2,
                ..ReservedSlots::default()
            },
        )
        .unwrap();
        let sp_a = ck.load_space(a, SpaceDesc::default(), &mut mpm).unwrap();
        let sp_b = ck.load_space(b, SpaceDesc::default(), &mut mpm).unwrap();
        for i in 0..2u32 {
            ck.load_mapping(
                a,
                sp_a,
                hw::Vaddr(0x10_0000 + i * 0x1000),
                Paddr(0x20_0000 + i * 0x1000),
                Pte::CACHEABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        // B's load finds only A's reservation-protected mappings to
        // displace: shed with the configured backoff, nothing evicted.
        let r = ck.load_mapping(
            b,
            sp_b,
            hw::Vaddr(0x30_0000),
            Paddr(0x40_0000),
            Pte::CACHEABLE,
            None,
            None,
            &mut mpm,
        );
        assert_eq!(r, Err(CkError::Again { backoff: 123 }));
        assert_eq!(ck.stats.loads_shed, 1);
        assert_eq!(ck.kernel_loads_shed(b), 1);
        assert_eq!(ck.kernel_residency(a).unwrap()[STAT_MAPPING], 2);
        // A displacing its own objects is still allowed (self-churn).
        ck.load_mapping(
            a,
            sp_a,
            hw::Vaddr(0x50_0000),
            Paddr(0x60_0000),
            Pte::CACHEABLE,
            None,
            None,
            &mut mpm,
        )
        .unwrap();
        ck.check_invariants().unwrap();
    }

    #[test]
    fn reservation_oversubscription_is_rejected() {
        let (mut ck, mut mpm, srm) = setup(CkConfig {
            kernel_slots: 4,
            space_slots: 3,
            thread_slots: 4,
            mapping_capacity: 8,
            ..CkConfig::default()
        });
        let a = ck.load_kernel(srm, app_kernel_desc(), &mut mpm).unwrap();
        let b = ck.load_kernel(srm, app_kernel_desc(), &mut mpm).unwrap();
        let two_spaces = ReservedSlots {
            spaces: 2,
            ..ReservedSlots::default()
        };
        ck.set_kernel_reservation(srm, a, two_spaces).unwrap();
        // 2 + 2 > 3 space slots: rejected.
        assert_eq!(
            ck.set_kernel_reservation(srm, b, two_spaces),
            Err(CkError::Invalid)
        );
        // Only the first kernel may set reservations.
        assert_eq!(
            ck.set_kernel_reservation(a, b, two_spaces),
            Err(CkError::FirstKernelOnly)
        );
    }

    #[test]
    fn writeback_backpressure_sheds_loads_and_spills_to_first() {
        let (mut ck, mut mpm, srm) = setup(CkConfig {
            kernel_slots: 4,
            space_slots: 8,
            thread_slots: 4,
            mapping_capacity: 16,
            wb_queue_bound: 2,
            shed_backoff: 50,
            ..CkConfig::default()
        });
        let b = ck.load_kernel(srm, app_kernel_desc(), &mut mpm).unwrap();
        // B fills the space cache beyond capacity; each extra load
        // displaces one of B's own spaces, queueing a writeback to B.
        let mut loaded = 0u32;
        let mut shed = false;
        for _ in 0..12 {
            match ck.load_space(b, SpaceDesc::default(), &mut mpm) {
                Ok(_) => loaded += 1,
                Err(CkError::Again { backoff }) => {
                    assert_eq!(backoff, 100, "wb backpressure doubles the base wait");
                    shed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
            assert!(
                ck.kernel_wb_pending(b).unwrap() <= 2,
                "per-kernel wb queue length must never exceed the bound"
            );
        }
        assert!(shed, "B was never shed (loaded {loaded})");
        assert_eq!(ck.kernel_wb_pending(b).unwrap(), 2);
        // Pressure from a third party while B sits at its bound spills
        // the displaced state to the first kernel instead of B.
        let redirects_before = ck.stats.wb_overflow_redirects;
        for _ in 0..4 {
            ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        }
        assert!(ck.stats.wb_overflow_redirects > redirects_before);
        assert_eq!(ck.kernel_wb_pending(b).unwrap(), 2);
        ck.check_invariants().unwrap();
        // Draining the queue releases the backpressure.
        while ck.pop_event().is_some() {}
        assert_eq!(ck.kernel_wb_pending(b).unwrap(), 0);
        ck.load_space(b, SpaceDesc::default(), &mut mpm).unwrap();
        ck.check_invariants().unwrap();
    }

    #[test]
    fn thrash_detector_fires_and_penalizes_the_offender() {
        let (mut ck, mut mpm, srm) = setup(CkConfig {
            kernel_slots: 4,
            space_slots: 4,
            thread_slots: 4,
            mapping_capacity: 2,
            thrash_window: 64,
            thrash_threshold: 3,
            thrash_penalty: 64,
            ..CkConfig::default()
        });
        let a = ck.load_kernel(srm, app_kernel_desc(), &mut mpm).unwrap();
        let sp = ck.load_space(a, SpaceDesc::default(), &mut mpm).unwrap();
        // A's working set (3 pages) exceeds the 2-descriptor pool: every
        // load displaces and immediately reloads — textbook thrash.
        for i in 0..8u32 {
            ck.load_mapping(
                a,
                sp,
                hw::Vaddr(0x10_0000 + (i % 3) * 0x1000),
                Paddr(0x20_0000 + (i % 3) * 0x1000),
                Pte::CACHEABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        assert!(
            ck.stats.thrash_detected >= 1,
            "detector must fire: {} fast reloads never reached threshold",
            ck.stats.thrash_detected
        );
        assert!(ck.kernel_thrash_penalized(a, STAT_MAPPING));
        // The event made it into the pipeline.
        let evs = ck.drain_events();
        assert!(evs.iter().any(|e| matches!(
            e,
            crate::events::KernelEvent::ThrashDetected { kernel, class, .. }
                if *kernel == a && *class == STAT_MAPPING
        )));
        ck.check_invariants().unwrap();
    }

    #[test]
    fn defaults_keep_the_fast_path_inert() {
        // With everything at defaults no load is ever shed and no
        // detector fires, whatever the churn.
        let (mut ck, mut mpm, srm) = setup(small());
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        for i in 0..64u32 {
            ck.load_mapping(
                srm,
                sp,
                hw::Vaddr(0x10_0000 + (i % 12) * 0x1000),
                Paddr(0x20_0000 + (i % 12) * 0x1000),
                Pte::CACHEABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        assert_eq!(ck.stats.loads_shed, 0);
        assert_eq!(ck.stats.thrash_detected, 0);
        assert_eq!(ck.stats.wb_overflow_redirects, 0);
        assert_eq!(ck.stats.events_dropped, 0);
        ck.check_invariants().unwrap();
    }
}
