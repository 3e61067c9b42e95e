//! The physical memory map: dependency records (§4.1).
//!
//! Physical-to-virtual mappings are stored as 16-byte descriptors —
//! "specifying the physical address, the virtual address, the address
//! space and a hash link pointer". The structure is viewed as recording
//! *dependencies between objects*: a descriptor holds a key, a dependent
//! object, and a context. The dominant case is the physical-to-virtual
//! dependency (key = physical address, dependent = virtual address,
//! context = address space); a signal thread is a record whose key is the
//! *address of the physical-to-virtual record*, whose dependent is the
//! thread, and whose context is a special signal value. Copy-on-write
//! sources are recorded the same way.
//!
//! The map is versioned in the style of §4.2's non-blocking
//! synchronization: every mutation bumps an atomic version counter, so a
//! processor loading a derived structure (e.g. a reverse-TLB entry) can
//! check that the map did not change concurrently and retry its lookup if
//! it did. The map has a single owner: each Cache Kernel holds its own,
//! and each threaded shard holds its own Cache Kernel. Mutators take
//! `&mut self`, so the borrow checker provides the exclusion a lock
//! would; a caller that does share a map wraps it in its own lock.

use hw::{Paddr, Vaddr};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Context value marking a signal-thread dependency record.
pub const CTX_SIGNAL: u32 = 0xffff_ffff;
/// Context value marking a copy-on-write source record.
pub const CTX_COW: u32 = 0xffff_fffe;

/// Handle of a record in the map (arena index + 1; 0 is "null").
pub type RecHandle = u32;

/// A 16-byte dependency record, exactly the §4.1 descriptor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
pub struct DepRecord {
    /// Physical page address, or the handle of the record depended on.
    pub key: u32,
    /// Virtual page address, thread slot, or COW source address.
    pub dependent: u32,
    /// Address-space tag, [`CTX_SIGNAL`], or [`CTX_COW`].
    pub context: u32,
    /// Hash chain link (next record handle in the bucket, 0 = end).
    next: u32,
}

const _: () = assert!(core::mem::size_of::<DepRecord>() == 16);

/// A physical-to-virtual mapping returned from lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct P2v {
    /// Handle of the record (stable while the mapping is loaded).
    pub handle: RecHandle,
    /// Address-space tag of the mapping.
    pub asid: u32,
    /// Virtual page base in that space.
    pub vaddr: Vaddr,
}

/// The versioned physical memory map.
pub struct PhysMap {
    records: Vec<DepRecord>,
    /// Occupancy flag per record (a record can be all-zero yet live).
    live: Vec<bool>,
    buckets: Vec<u32>,
    free: Vec<u32>, // free arena indices
    count: usize,
    /// Thread slot → arena indices of its live signal records, in attach
    /// order. Keeps thread unload from scanning the whole arena.
    sig_index: BTreeMap<u32, Vec<u32>>,
    version: AtomicU64,
    capacity: usize,
}

impl PhysMap {
    /// A map able to hold `capacity` records (Table 1 provisions 65 536
    /// MemMapEntry descriptors).
    pub fn new(capacity: usize) -> Self {
        let nbuckets = (capacity / 4).next_power_of_two().max(16);
        PhysMap {
            records: Vec::new(),
            live: Vec::new(),
            buckets: vec![0; nbuckets],
            free: Vec::new(),
            count: 0,
            sig_index: BTreeMap::new(),
            version: AtomicU64::new(0),
            capacity,
        }
    }

    /// Maximum record count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live records (of all three flavors).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the map holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes consumed by live records (16 each), for the §5.2 space
    /// accounting.
    pub fn bytes(&self) -> usize {
        self.len() * core::mem::size_of::<DepRecord>()
    }

    /// Current version; bumped on every mutation. Callers deriving side
    /// structures re-check this and retry if it moved (§4.2).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn bump(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    fn bucket_of(&self, key: u32) -> usize {
        // Fibonacci hashing: keep the *high* bits of the product. Page
        // addresses have 12 zero low bits, and so does their product, so
        // masking the low bits would pile every frame into a few buckets.
        let bits = self.buckets.len().trailing_zeros();
        (key.wrapping_mul(0x9e37_79b9) >> (32 - bits)) as usize
    }

    /// The records chained in `key`'s bucket, head first, as
    /// `(handle, record)`. The bucket is shared with other keys, so
    /// callers filter on `key`. A corrupted link ends the walk instead
    /// of panicking.
    fn chain(&self, key: u32) -> impl Iterator<Item = (RecHandle, DepRecord)> + '_ {
        let mut cur = self.buckets[self.bucket_of(key)];
        std::iter::from_fn(move || {
            let h = cur;
            let r = *self.records.get(h.checked_sub(1)? as usize)?;
            cur = r.next;
            Some((h, r))
        })
    }

    /// Returns whether the record was found in its bucket chain. A miss
    /// means the map is corrupted; callers surface it as an error rather
    /// than panicking mid-reclamation.
    fn unlink(&mut self, idx: u32) -> bool {
        let Some(rec) = self.records.get(idx as usize).copied() else {
            return false;
        };
        let b = self.bucket_of(rec.key);
        let mut cur = self.buckets[b];
        let mut prev: Option<u32> = None;
        while cur != 0 {
            let i = cur - 1;
            if i == idx {
                let next = self.records[i as usize].next;
                match prev {
                    Some(p) => self.records[p as usize].next = next,
                    None => self.buckets[b] = next,
                }
                self.live[i as usize] = false;
                self.records[i as usize] = DepRecord::default();
                self.free.push(i);
                self.count -= 1;
                if rec.context == CTX_SIGNAL {
                    // Keep the per-thread signal index in sync (tolerates
                    // an already-removed entry: remove_signals_of_thread
                    // drains the whole list up front).
                    if let Some(v) = self.sig_index.get_mut(&rec.dependent) {
                        v.retain(|&x| x != idx);
                        if v.is_empty() {
                            self.sig_index.remove(&rec.dependent);
                        }
                    }
                }
                return true;
            }
            prev = Some(i);
            cur = match self.records.get(i as usize) {
                Some(r) => r.next,
                None => break,
            };
        }
        false
    }

    fn insert_record(&mut self, rec: DepRecord) -> Option<RecHandle> {
        if self.count >= self.capacity {
            return None;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.records[i as usize] = rec;
                self.live[i as usize] = true;
                i
            }
            None => {
                self.records.push(rec);
                self.live.push(true);
                (self.records.len() - 1) as u32
            }
        };
        self.count += 1;
        let b = self.bucket_of(rec.key);
        self.records[idx as usize].next = self.buckets[b];
        self.buckets[b] = idx + 1;
        if rec.context == CTX_SIGNAL {
            self.sig_index.entry(rec.dependent).or_default().push(idx);
        }
        self.bump();
        Some(idx + 1)
    }

    /// Record a physical-to-virtual mapping. Returns `None` if the map is
    /// at capacity (the Cache Kernel reclaims a mapping first).
    pub fn insert_p2v(&mut self, paddr: Paddr, vaddr: Vaddr, asid: u32) -> Option<RecHandle> {
        debug_assert!(asid < CTX_COW);
        self.insert_record(DepRecord {
            key: paddr.page_base().0,
            dependent: vaddr.page_base().0,
            context: asid,
            next: 0,
        })
    }

    /// Visit every physical-to-virtual record for the frame containing
    /// `paddr`, allocation-free. The hot-path form of
    /// [`PhysMap::find_p2v`].
    pub fn visit_p2v(&self, paddr: Paddr, mut f: impl FnMut(P2v)) {
        let key = paddr.page_base().0;
        for (handle, r) in self.chain(key) {
            if r.key == key && r.context < CTX_COW {
                f(P2v {
                    handle,
                    asid: r.context,
                    vaddr: Vaddr(r.dependent),
                });
            }
        }
    }

    /// All physical-to-virtual records for the frame containing `paddr`.
    /// Convenience wrapper over [`PhysMap::visit_p2v`] (allocates).
    pub fn find_p2v(&self, paddr: Paddr) -> Vec<P2v> {
        let mut out = Vec::new();
        self.visit_p2v(paddr, |m| out.push(m));
        out
    }

    /// The specific physical-to-virtual record for `(paddr, asid, vaddr)`.
    /// Direct chain walk with early return; no allocation.
    pub fn find_p2v_exact(&self, paddr: Paddr, asid: u32, vaddr: Vaddr) -> Option<RecHandle> {
        let key = paddr.page_base().0;
        let vpage = vaddr.page_base().0;
        self.chain(key)
            .find(|(_, r)| r.key == key && r.context == asid && r.dependent == vpage)
            .map(|(h, _)| h)
    }

    /// Remove a physical-to-virtual record and any signal/COW records
    /// attached to it, returning the mapping it described.
    pub fn remove_p2v(&mut self, handle: RecHandle) -> Option<(Paddr, Vaddr, u32)> {
        let idx = handle.checked_sub(1)?;
        if !*self.live.get(idx as usize)? {
            return None;
        }
        let rec = self.records[idx as usize];
        if rec.context >= CTX_COW {
            return None; // not a p2v record
        }
        // Cascade: remove attached signal/COW records (their key is our
        // handle).
        let attached: Vec<u32> = self
            .chain(handle)
            .filter(|(_, r)| r.key == handle && r.context >= CTX_COW)
            .map(|(h, _)| h - 1)
            .collect();
        for a in attached {
            self.unlink(a);
        }
        self.unlink(idx);
        self.bump();
        Some((Paddr(rec.key), Vaddr(rec.dependent), rec.context))
    }

    /// First record attached to `handle` with context `ctx` (no
    /// allocation).
    fn attached_first(&self, handle: RecHandle, ctx: u32) -> Option<u32> {
        self.chain(handle)
            .find(|(_, r)| r.key == handle && r.context == ctx)
            .map(|(_, r)| r.dependent)
    }

    /// Attach a signal-thread record to a physical-to-virtual record.
    pub fn attach_signal(&mut self, p2v: RecHandle, thread_slot: u32) -> Option<RecHandle> {
        self.insert_record(DepRecord {
            key: p2v,
            dependent: thread_slot,
            context: CTX_SIGNAL,
            next: 0,
        })
    }

    /// Attach a copy-on-write source record to a physical-to-virtual
    /// record.
    pub fn attach_cow(&mut self, p2v: RecHandle, source: Paddr) -> Option<RecHandle> {
        self.insert_record(DepRecord {
            key: p2v,
            dependent: source.page_base().0,
            context: CTX_COW,
            next: 0,
        })
    }

    /// The signal thread registered on a physical-to-virtual record.
    pub fn signal_of(&self, p2v: RecHandle) -> Option<u32> {
        self.attached_first(p2v, CTX_SIGNAL)
    }

    /// The COW source registered on a physical-to-virtual record.
    pub fn cow_source_of(&self, p2v: RecHandle) -> Option<Paddr> {
        self.attached_first(p2v, CTX_COW).map(Paddr)
    }

    /// The two-stage lookup used for slow-path signal delivery (§4.1),
    /// allocation-free: find the physical-to-virtual records for the
    /// page, then the signal records for each. Yields
    /// `(thread_slot, asid, receiver vaddr)`.
    pub fn visit_signals(&self, paddr: Paddr, mut f: impl FnMut(u32, u32, Vaddr)) {
        let key = paddr.page_base().0;
        for (h, r) in self.chain(key) {
            if r.key == key && r.context < CTX_COW {
                // Stage 2: signal records keyed by this p2v handle.
                for (_, s) in self.chain(h) {
                    if s.key == h && s.context == CTX_SIGNAL {
                        f(s.dependent, r.context, Vaddr(r.dependent));
                    }
                }
            }
        }
    }

    /// The two-stage lookup as a `Vec`; wrapper over
    /// [`PhysMap::visit_signals`].
    pub fn signals_for(&self, paddr: Paddr) -> Vec<(u32, u32, Vaddr)> {
        let mut out = Vec::new();
        self.visit_signals(paddr, |t, asid, v| out.push((t, asid, v)));
        out
    }

    /// Remove every signal record pointing at `thread_slot` (the thread is
    /// being unloaded; signal mappings depend on it per Fig. 6). Returns
    /// the affected physical-to-virtual record handles. Served from the
    /// per-thread signal index — O(signals of this thread), not an arena
    /// scan.
    pub fn remove_signals_of_thread(&mut self, thread_slot: u32) -> Vec<RecHandle> {
        let victims = self.sig_index.remove(&thread_slot).unwrap_or_default();
        let mut affected = Vec::with_capacity(victims.len());
        for v in victims {
            let Some(r) = self.records.get(v as usize).copied() else {
                continue;
            };
            if !self.live.get(v as usize).copied().unwrap_or(false)
                || r.context != CTX_SIGNAL
                || r.dependent != thread_slot
            {
                continue; // defensive: stale index entry
            }
            affected.push(r.key);
            self.unlink(v);
        }
        if !affected.is_empty() {
            self.bump();
        }
        affected
    }

    /// The physical-to-virtual mappings that have a signal record pointing
    /// at `thread_slot` — i.e. the signal mappings that depend on the
    /// thread (Fig. 6) and must be unloaded when it is. Served from the
    /// per-thread signal index, in attach order (deterministic).
    pub fn signal_mappings_of_thread(&self, thread_slot: u32) -> Vec<(Paddr, Vaddr, u32)> {
        let Some(idxs) = self.sig_index.get(&thread_slot) else {
            return Vec::new();
        };
        idxs.iter()
            .filter_map(|&i| {
                let s = self.records.get(i as usize).copied()?;
                let idx = s.key.checked_sub(1)? as usize;
                if !self.live.get(idx).copied().unwrap_or(false) {
                    return None;
                }
                let r = self.records.get(idx).copied()?;
                (r.context < CTX_COW).then_some((Paddr(r.key), Vaddr(r.dependent), r.context))
            })
            .collect()
    }

    /// Visit all live records, allocation-free (the invariant checker's
    /// walk).
    pub fn visit_records(&self, mut f: impl FnMut(RecHandle, &DepRecord)) {
        for (i, r) in self.records.iter().enumerate() {
            if self.live[i] {
                f(i as u32 + 1, r);
            }
        }
    }

    /// Snapshot of all live records (diagnostics); wrapper over
    /// [`PhysMap::visit_records`].
    pub fn records(&self) -> Vec<(RecHandle, DepRecord)> {
        let mut out = Vec::new();
        self.visit_records(|h, r| out.push((h, *r)));
        out
    }

    /// Whether any live signal record targets `thread_slot`. Index probe,
    /// not an arena scan.
    pub fn thread_has_signals(&self, thread_slot: u32) -> bool {
        self.sig_index
            .get(&thread_slot)
            .is_some_and(|v| !v.is_empty())
    }

    /// Verify the per-thread signal index against the arena: every index
    /// entry names a live signal record of that thread, and every live
    /// signal record appears in the index exactly once. Returns an error
    /// description on the first inconsistency (invariant checking).
    pub fn check_signal_index(&self) -> Result<(), String> {
        let mut indexed = 0usize;
        for (&slot, idxs) in &self.sig_index {
            for &i in idxs {
                let r = self
                    .records
                    .get(i as usize)
                    .ok_or_else(|| format!("sig_index[{slot}] names out-of-range record {i}"))?;
                if !self.live.get(i as usize).copied().unwrap_or(false) {
                    return Err(format!("sig_index[{slot}] names dead record {i}"));
                }
                if r.context != CTX_SIGNAL || r.dependent != slot {
                    return Err(format!("sig_index[{slot}] names non-signal record {i}"));
                }
                indexed += 1;
            }
        }
        let live_signals = self
            .records
            .iter()
            .enumerate()
            .filter(|(i, r)| self.live[*i] && r.context == CTX_SIGNAL)
            .count();
        if indexed != live_signals {
            return Err(format!(
                "sig_index covers {indexed} records, arena holds {live_signals} signal records"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_16_bytes() {
        assert_eq!(core::mem::size_of::<DepRecord>(), 16);
    }

    #[test]
    fn p2v_roundtrip() {
        let mut m = PhysMap::new(64);
        let h = m.insert_p2v(Paddr(0x5123), Vaddr(0x9abc), 3).unwrap();
        // Addresses are recorded at page granularity.
        let found = m.find_p2v(Paddr(0x5fff));
        assert_eq!(
            found,
            vec![P2v {
                handle: h,
                asid: 3,
                vaddr: Vaddr(0x9000)
            }]
        );
        assert_eq!(m.find_p2v_exact(Paddr(0x5000), 3, Vaddr(0x9010)), Some(h));
        assert_eq!(m.find_p2v_exact(Paddr(0x5000), 4, Vaddr(0x9010)), None);
        let (p, v, asid) = m.remove_p2v(h).unwrap();
        assert_eq!((p, v, asid), (Paddr(0x5000), Vaddr(0x9000), 3));
        assert!(m.find_p2v(Paddr(0x5000)).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn multiple_mappings_per_frame() {
        let mut m = PhysMap::new(64);
        m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        m.insert_p2v(Paddr(0x1000), Vaddr(0xb000), 2).unwrap();
        m.insert_p2v(Paddr(0x2000), Vaddr(0xc000), 1).unwrap();
        assert_eq!(m.find_p2v(Paddr(0x1000)).len(), 2);
        assert_eq!(m.find_p2v(Paddr(0x2000)).len(), 1);
    }

    #[test]
    fn signal_two_stage_lookup() {
        let mut m = PhysMap::new(64);
        let h1 = m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        let h2 = m.insert_p2v(Paddr(0x1000), Vaddr(0xb000), 2).unwrap();
        m.attach_signal(h1, 11).unwrap();
        m.attach_signal(h2, 22).unwrap();
        let mut sigs = m.signals_for(Paddr(0x1040));
        sigs.sort();
        assert_eq!(sigs, vec![(11, 1, Vaddr(0xa000)), (22, 2, Vaddr(0xb000))]);
        assert_eq!(m.signal_of(h1), Some(11));
        assert_eq!(m.signal_of(h2), Some(22));
    }

    #[test]
    fn remove_p2v_cascades_attached() {
        let mut m = PhysMap::new(64);
        let h = m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        m.attach_signal(h, 5).unwrap();
        m.attach_cow(h, Paddr(0x7000)).unwrap();
        assert_eq!(m.len(), 3);
        m.remove_p2v(h).unwrap();
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn cow_source_recorded() {
        let mut m = PhysMap::new(64);
        let h = m.insert_p2v(Paddr(0x3000), Vaddr(0xd000), 7).unwrap();
        assert_eq!(m.cow_source_of(h), None);
        m.attach_cow(h, Paddr(0x8123)).unwrap();
        assert_eq!(m.cow_source_of(h), Some(Paddr(0x8000)));
    }

    #[test]
    fn remove_signals_of_thread() {
        let mut m = PhysMap::new(64);
        let h1 = m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        let h2 = m.insert_p2v(Paddr(0x2000), Vaddr(0xb000), 1).unwrap();
        m.attach_signal(h1, 9).unwrap();
        m.attach_signal(h2, 9).unwrap();
        m.attach_signal(h2, 10).unwrap();
        assert!(m.thread_has_signals(9));
        let mut affected = m.remove_signals_of_thread(9);
        affected.sort();
        assert_eq!(affected, vec![h1, h2]);
        assert!(!m.thread_has_signals(9));
        assert_eq!(m.signal_of(h2), Some(10));
    }

    #[test]
    fn capacity_enforced() {
        let mut m = PhysMap::new(2);
        m.insert_p2v(Paddr(0x1000), Vaddr(0x1000), 1).unwrap();
        m.insert_p2v(Paddr(0x2000), Vaddr(0x2000), 1).unwrap();
        assert!(m.insert_p2v(Paddr(0x3000), Vaddr(0x3000), 1).is_none());
        assert_eq!(m.bytes(), 32);
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut m = PhysMap::new(8);
        let v0 = m.version();
        let h = m.insert_p2v(Paddr(0x1000), Vaddr(0x1000), 1).unwrap();
        let v1 = m.version();
        assert!(v1 > v0);
        m.find_p2v(Paddr(0x1000));
        assert_eq!(m.version(), v1);
        m.remove_p2v(h).unwrap();
        assert!(m.version() > v1);
    }

    #[test]
    fn handle_reuse_after_free() {
        let mut m = PhysMap::new(4);
        let h = m.insert_p2v(Paddr(0x1000), Vaddr(0x1000), 1).unwrap();
        m.remove_p2v(h).unwrap();
        let h2 = m.insert_p2v(Paddr(0x2000), Vaddr(0x2000), 1).unwrap();
        assert_eq!(h, h2, "arena slot reused");
        // The old p2v is gone; removing the stale handle must not affect
        // the new record's frame lookup for a different key.
        assert_eq!(m.find_p2v(Paddr(0x1000)), vec![]);
    }

    /// Longest bucket chain, in records.
    fn longest_chain(m: &PhysMap) -> usize {
        (0..m.buckets.len())
            .map(|b| {
                let mut n = 0;
                let mut cur = m.buckets[b];
                while cur != 0 {
                    n += 1;
                    cur = m.records[(cur - 1) as usize].next;
                }
                n
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn page_aligned_keys_spread_over_buckets() {
        // Page-aligned keys have 12 zero low bits; the hash must not
        // let that collapse them into a handful of buckets.
        let mut m = PhysMap::new(512);
        for f in 0..512u32 {
            m.insert_p2v(Paddr(f << 12), Vaddr(f << 12), 1).unwrap();
        }
        let longest = longest_chain(&m);
        assert!(longest <= 16, "512 frames: longest chain {longest}");

        // Table 1's 65 536 records, at an odd frame stride so every
        // frame still fits a 32-bit address.
        let mut m = PhysMap::new(65_536);
        for i in 0..65_536u32 {
            let frame = i * 7;
            m.insert_p2v(Paddr(frame << 12), Vaddr(i << 12), 1).unwrap();
        }
        assert_eq!(m.len(), 65_536);
        let longest = longest_chain(&m);
        assert!(longest <= 16, "65 536 frames: longest chain {longest}");
    }

    #[test]
    fn concurrent_hammer() {
        // The map has a single owner; threads that share one serialize
        // through their own lock.
        use std::sync::{Arc, Mutex};
        let m = Arc::new(Mutex::new(PhysMap::new(10_000)));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let pa = Paddr(((t * 500 + i) % 128) << 12);
                    let mut m = m.lock().unwrap();
                    if let Some(h) = m.insert_p2v(pa, Vaddr(i << 12), t) {
                        m.attach_signal(h, t);
                        let _ = m.signals_for(pa);
                        if i % 3 == 0 {
                            m.remove_p2v(h);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All surviving records are internally consistent: every signal
        // record's key resolves to a live p2v record.
        let m = m.lock().unwrap();
        let survivors = m.len();
        assert!(survivors > 0);
        for pa in 0..128u32 {
            for (t, asid, _v) in m.signals_for(Paddr(pa << 12)) {
                assert_eq!(t, asid); // by construction above
            }
        }
        m.visit_records(|_, r| {
            if r.context == CTX_SIGNAL {
                let p2v = m.records[(r.key - 1) as usize];
                assert!(m.live[(r.key - 1) as usize] && p2v.context < CTX_COW);
            }
        });
        m.check_signal_index().unwrap();
    }
}
