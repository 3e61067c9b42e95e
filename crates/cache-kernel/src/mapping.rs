//! Page-mapping operations (§2.1, §2.2): load, unload, query, and the
//! copy-on-write source lookup.
//!
//! Mappings are the fourth cached "object" kind. Loading one checks the
//! caller's memory access array, records a 16-byte physical-to-virtual
//! dependency record (plus optional signal-thread and COW-source records)
//! in the physical memory map, and installs the PTE; displacement goes
//! through the FIFO-with-second-chance reclaim in `reclaim.rs`.

use crate::caps::CapOp;
use crate::ck::CacheKernel;
use crate::error::{CkError, CkResult};
use crate::events::MappingState;
use crate::ids::ObjId;
use hw::{Access, Mpm, Paddr, Pte, Vaddr};

use crate::counters::STAT_MAPPING;

/// Result of a [`CacheKernel::transfer_mapping`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The page was remapped from the source space into the destination
    /// space: a true zero-copy handoff, no data moved.
    Remapped,
    /// The frame is mapped in more than one place, so moving it would
    /// silently yank it from the other holders: nothing was changed and
    /// the caller should fall back to copying the payload.
    MultiplyMapped,
}

impl CacheKernel {
    /// Load a page mapping into `space`. `flags` are [`Pte`] flag bits;
    /// `signal_thread` registers the page for memory-based messaging;
    /// `cow_source` records a deferred-copy source frame. The physical
    /// address and requested access are checked against the calling
    /// kernel's memory access array.
    #[allow(clippy::too_many_arguments)]
    pub fn load_mapping(
        &mut self,
        caller: ObjId,
        space: ObjId,
        vaddr: Vaddr,
        paddr: Paddr,
        flags: u32,
        signal_thread: Option<ObjId>,
        cow_source: Option<Paddr>,
        mpm: &mut Mpm,
    ) -> CkResult<()> {
        // Rights: writable (even deferred) mappings need ReadWrite.
        let needed = if flags & Pte::WRITABLE != 0 {
            Access::Write
        } else {
            Access::Read
        };
        // Copy the verdicts out so the borrow of the kernel object ends
        // before the (mutating) capability-denial path runs.
        let (rights_ok, cow_ok, quota_ok) = {
            let k = self.kernel(caller)?;
            (
                k.desc.memory_access.rights_for(paddr).allows(needed),
                cow_source
                    .is_none_or(|src| k.desc.memory_access.rights_for(src).allows(Access::Read)),
                !(flags & Pte::LOCKED != 0 && k.locked_mappings >= k.desc.locked_quota.mappings),
            )
        };
        if !rights_ok {
            // A signal registration on a page outside the grant is a
            // distinct violation surface: the attacker is aiming at a
            // bystander's message page, not just at memory.
            let op = if signal_thread.is_some() {
                CapOp::SignalPage
            } else {
                CapOp::Map
            };
            return Err(self.cap_denied(caller, paddr, op));
        }
        if !cow_ok {
            let src = cow_source.expect("cow_ok is false only with a source");
            return Err(self.cap_denied(caller, src, CapOp::CowSource));
        }
        if !quota_ok {
            return Err(CkError::LockQuota);
        }
        {
            let s = self.space(space)?;
            if s.owner != caller {
                return Err(CkError::NotOwner(space));
            }
        }
        let sig_slot = match signal_thread {
            Some(tid) => {
                let t = self.thread(tid)?;
                if t.owner != caller {
                    return Err(CkError::NotOwner(tid));
                }
                Some(tid.slot)
            }
            None => None,
        };

        self.admit_load(caller)?;

        // One trap, a couple of probes, one 16-byte record.
        self.charge_op(
            mpm,
            3 * mpm.config.cost.hash_probe + mpm.config.cost.copy_line,
        );

        // Replace any existing mapping at this page first.
        let asid = Self::asid_of(space);
        let vpn = vaddr.vpn();
        if self.space(space)?.pt.lookup(vpn).is_valid() {
            self.do_unload_mapping(space, vpn, mpm, true);
        }

        // Make room in the mapping descriptor pool: "loading of a new page
        // descriptor may cause another page descriptor to be written back
        // … to make space" (§2.1). Fails `Again` when only reservation-
        // protected bystanders remain, `CacheFull` when all pinned.
        while self.physmap.len() >= self.physmap.capacity() {
            self.reclaim_one_mapping(caller, mpm)?;
        }

        let handle = self
            .physmap
            .insert_p2v(paddr, vaddr, asid as u32)
            .ok_or(CkError::CacheFull)?;
        if let Some(slot) = sig_slot {
            self.physmap.attach_signal(handle, slot as u32);
        }
        if let Some(src) = cow_source {
            self.physmap.attach_cow(handle, src);
        }
        let pte = Pte::new(paddr.pfn(), flags & !(Pte::REFERENCED | Pte::MODIFIED));
        let space_gen = space.gen;
        self.space_mut(space)?.pt.insert(vpn, pte);
        self.space_mut(space)?.referenced = true;
        if flags & Pte::LOCKED != 0 {
            self.kernel_mut(caller)?.locked_mappings += 1;
        }
        self.mapping_fifo.push_back((space.slot, space_gen, vpn));
        self.stats.loads[STAT_MAPPING] += 1;
        self.note_loaded(caller, STAT_MAPPING);
        Ok(())
    }

    /// Explicitly unload the mappings covering `vaddr..vaddr+len`,
    /// returning their final states (with referenced/modified bits). Used
    /// by application kernels when reclaiming page frames (§2.1).
    ///
    /// Walks only the populated PTEs intersecting the range (O(populated)
    /// for sparse ranges) and, past a single page, defers all TLB and
    /// reverse-TLB invalidations into one batched shootdown round.
    pub fn unload_mapping_range(
        &mut self,
        caller: ObjId,
        space: ObjId,
        vaddr: Vaddr,
        len: u32,
        mpm: &mut Mpm,
    ) -> CkResult<Vec<MappingState>> {
        let s = self.space(space)?;
        if s.owner != caller {
            return Err(CkError::NotOwner(space));
        }
        self.charge_op(mpm, 2 * mpm.config.cost.hash_probe);
        let first = vaddr.vpn();
        let last = Vaddr(
            vaddr
                .0
                .checked_add(len.saturating_sub(1))
                .ok_or(CkError::Invalid)?,
        )
        .vpn();
        if first == last {
            // Single page: probe it directly down the eager path — Table
            // 2's unload shape, no range walk.
            let mut out = Vec::new();
            if let Some(state) = self.do_unload_mapping(space, first, mpm, false) {
                out.push(state);
                self.stats.unloads[STAT_MAPPING] += 1;
            }
            return Ok(out);
        }
        let mut vpns = core::mem::take(&mut self.vpn_scratch);
        vpns.clear();
        if let Some(s) = self.spaces.get(space) {
            vpns.extend(s.pt.iter_range(first, last).map(|(v, _)| v));
        }
        let mut out = Vec::with_capacity(vpns.len());
        if vpns.len() == 1 {
            // One populated page in a wider span: still the eager path.
            if let Some(state) = self.do_unload_mapping(space, vpns[0], mpm, false) {
                out.push(state);
                self.stats.unloads[STAT_MAPPING] += 1;
            }
        } else if !vpns.is_empty() {
            let mut batch = self.take_shootdown_batch();
            for &vpn in &vpns {
                if let Some(state) =
                    self.unload_mapping_impl(space, vpn, mpm, false, Some(&mut batch))
                {
                    out.push(state);
                    self.stats.unloads[STAT_MAPPING] += 1;
                }
            }
            self.finish_shootdown(batch, mpm);
        }
        vpns.clear();
        self.vpn_scratch = vpns;
        Ok(out)
    }

    /// Move the page mapped at `src_vaddr` in `src_space` to `dst_vaddr`
    /// in `dst_space` — the zero-copy channel handoff (§2.2): instead of
    /// copying a message out of the sender's buffer, ownership of the
    /// page itself transfers to the receiver through the mapping
    /// machinery. The new mapping gets `flags` and an optional signal
    /// registration; the old one is torn down with its TLB/reverse-TLB
    /// invalidations riding one batched shootdown round.
    ///
    /// The move is only safe when the source holds the frame's *only*
    /// mapping; otherwise the transfer would silently yank the page from
    /// the other holders, and the call returns
    /// [`TransferOutcome::MultiplyMapped`] without changing anything so
    /// the caller can fall back to a copy.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_mapping(
        &mut self,
        caller: ObjId,
        src_space: ObjId,
        src_vaddr: Vaddr,
        dst_space: ObjId,
        dst_vaddr: Vaddr,
        flags: u32,
        signal_thread: Option<ObjId>,
        mpm: &mut Mpm,
    ) -> CkResult<TransferOutcome> {
        {
            let s = self.space(src_space)?;
            if s.owner != caller {
                return Err(CkError::NotOwner(src_space));
            }
        }
        let src_vpn = src_vaddr.vpn();
        if src_space == dst_space && src_vpn == dst_vaddr.vpn() {
            return Err(CkError::Invalid);
        }
        let src_pte = self.space(src_space)?.pt.lookup(src_vpn);
        if !src_pte.is_valid() {
            return Err(CkError::NoMapping);
        }
        let paddr = src_pte.pfn().base();

        // One probe to count the frame's holders; a multiply-mapped frame
        // stays put and the caller copies instead.
        self.charge_op(mpm, mpm.config.cost.hash_probe);
        let mut holders = 0usize;
        self.physmap.visit_p2v(paddr, |_| holders += 1);
        if holders > 1 {
            return Ok(TransferOutcome::MultiplyMapped);
        }

        // Sole holder: tear the source mapping down first (no siblings,
        // so no consistency cascade fires), then install the destination
        // mapping. Teardown first also means the transient state is
        // "unmapped", never "aliased in two spaces".
        let src_flags = src_pte.flags();
        let src_sig = self
            .physmap
            .find_p2v_exact(
                paddr,
                Self::asid_of(src_space) as u32,
                src_vaddr.page_base(),
            )
            .and_then(|h| self.physmap.signal_of(h))
            .and_then(|slot| self.threads.id_of_slot(slot as u16));
        // With one holder the only CPU that can cache the stale
        // translation is the one the sender last ran on, and it is in the
        // send trap right now; the receiver cannot touch the destination
        // address before the delivery signal lands. So the teardown is a
        // local flush riding the trap, not an IPI broadcast — the saving
        // that makes a remap cheaper than copying a page-sized payload.
        let mut batch = self.take_shootdown_batch();
        self.unload_mapping_impl(src_space, src_vpn, mpm, false, Some(&mut batch));
        self.finish_shootdown_local(batch, mpm);
        self.stats.unloads[STAT_MAPPING] += 1;

        match self.load_mapping(
            caller,
            dst_space,
            dst_vaddr.page_base(),
            paddr,
            flags,
            signal_thread,
            None,
            mpm,
        ) {
            Ok(()) => {
                self.stats.mapping_transfers += 1;
                Ok(TransferOutcome::Remapped)
            }
            Err(e) => {
                // Best-effort restore of the source mapping so a shed or
                // rejected load doesn't strand the page unmapped.
                let _ = self.load_mapping(
                    caller,
                    src_space,
                    src_vaddr.page_base(),
                    paddr,
                    src_flags,
                    src_sig,
                    None,
                    mpm,
                );
                Err(e)
            }
        }
    }

    /// Query a mapping (query operations are deliberately few; this one
    /// supports fault handlers inspecting current state).
    pub fn query_mapping(
        &self,
        caller: ObjId,
        space: ObjId,
        vaddr: Vaddr,
    ) -> CkResult<MappingState> {
        let s = self.space(space)?;
        if s.owner != caller {
            return Err(CkError::NotOwner(space));
        }
        let pte = s.pt.lookup(vaddr.vpn());
        if !pte.is_valid() {
            return Err(CkError::NoMapping);
        }
        Ok(MappingState {
            vaddr: vaddr.page_base(),
            paddr: pte.pfn().base(),
            flags: pte.flags(),
        })
    }

    /// The recorded copy-on-write source frame of a mapping, if any
    /// (§4.1: COW sources are dependency records in the physical memory
    /// map). Application kernels resolve a COW fault by copying from this
    /// frame into a private one.
    pub fn cow_source(&self, caller: ObjId, space: ObjId, vaddr: Vaddr) -> CkResult<Option<Paddr>> {
        let s = self.space(space)?;
        if s.owner != caller {
            return Err(CkError::NotOwner(space));
        }
        let pte = s.pt.lookup(vaddr.vpn());
        if !pte.is_valid() {
            return Err(CkError::NoMapping);
        }
        let asid = Self::asid_of(space) as u32;
        Ok(self
            .physmap
            .find_p2v_exact(pte.pfn().base(), asid, vaddr.page_base())
            .and_then(|h| self.physmap.cow_source_of(h)))
    }
}
