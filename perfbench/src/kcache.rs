//! The `kcache` workload: the bare Cache Kernel interface, driven the
//! way an application-kernel pager and a messaging client drive it.
//! No executive and no fabric.
//!
//! Two instances share the stream. The pager's has a 512-entry mapping
//! cache and 64 thread slots; it takes mapping faults over 2 048 pages
//! and dispatches 96 logical threads, so reclaim, writebacks and thread
//! reloads run on most misses. The messaging client's has the default
//! geometry; it raises single and batched signals on message pages and
//! sends on the classic copy channel and the page-remap channel at
//! three payload sizes.

use crate::clock::Stopwatch;
use crate::episode::{mix, ratio, Episode, Latency};
use crate::layers::counter_figures;
use crate::trace::{Name, Tracer, CHAN_SIZES};
use bench::Bench;
use std::collections::BTreeMap;
use vpp::cache_kernel::{CkConfig, CkResult, ObjId, SpaceDesc, ThreadDesc};
use vpp::hw::{Paddr, Pte, Vaddr, PAGE_SIZE};
use vpp::libkern::{Channel, PageChannel};

/// Latency limit for `slo_ok_ratio`, in cycles per client action.
const SLO_LIMIT: u64 = 1 << 9;
const MAPPING_CAPACITY: usize = 512;
const WORKING_SET: u32 = 2_048;
const THREAD_SLOTS: usize = 64;
const LOGICAL_THREADS: usize = 96;
const PAGER_VA: u32 = 0x10_0000;
const PAGER_PA: u32 = 0x40_0000;
/// Shared message pages, each mapped by every storm receiver.
const STORM_PAGES: u32 = 4;
const STORM_RECEIVERS: usize = 4;
const STORM_RAISES: u32 = 16;
const SHARED_PA: u32 = 0x40_0000;
/// A message page mapped by one receiver only (reverse-TLB fast path).
const SOLO_PA: u32 = 0x44_0000;

/// The action mix, out of 100.
const MIX: [(Action, u64); 6] = [
    (Action::MapFault, 50),
    (Action::Dispatch, 15),
    (Action::Raise, 12),
    (Action::Storm, 5),
    (Action::Copy, 9),
    (Action::Remap, 9),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    MapFault,
    Dispatch,
    Raise,
    Storm,
    Copy,
    Remap,
}

struct Kcache {
    pager: Bench,
    pager_space: ObjId,
    threads: Vec<Option<ObjId>>,
    msg: Bench,
    /// Thread slots of every signal receiver, the solo one last.
    receivers: Vec<u16>,
    copy: Vec<(Channel, u16)>,
    remap: Vec<(PageChannel, u16)>,
    payloads: Vec<Vec<u8>>,
    rng: u64,
    /// Interface calls made, and those that failed.
    calls: u64,
    failed: u64,
    map_accesses: u64,
    map_reloads: u64,
    copy_cycles: [u64; CHAN_SIZES.len()],
    remap_cycles: [u64; CHAN_SIZES.len()],
    /// Simulated cycles per action.
    latency: BTreeMap<u64, u64>,
}

fn boot(seed: u64) -> CkResult<Kcache> {
    let mut pager = Bench::with_config(
        CkConfig {
            mapping_capacity: MAPPING_CAPACITY,
            thread_slots: THREAD_SLOTS,
            ..CkConfig::default()
        },
        16 * 1024,
    );
    let pager_space = pager
        .ck
        .load_space(pager.srm, SpaceDesc::default(), &mut pager.mpm)?;

    let mut msg = Bench::new();
    let h = &mut msg;
    let mut receivers = Vec::new();
    for r in 0..=STORM_RECEIVERS {
        let sp = h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)?;
        let t =
            h.ck.load_thread(h.srm, ThreadDesc::new(sp, 1, 20), false, &mut h.mpm)?;
        let pages: Vec<u32> = if r < STORM_RECEIVERS {
            (0..STORM_PAGES)
                .map(|p| SHARED_PA + p * PAGE_SIZE)
                .collect()
        } else {
            vec![SOLO_PA]
        };
        for (i, pa) in pages.into_iter().enumerate() {
            h.ck.load_mapping(
                h.srm,
                sp,
                Vaddr(0xa000 + i as u32 * PAGE_SIZE),
                Paddr(pa),
                Pte::MESSAGE,
                Some(t),
                None,
                &mut h.mpm,
            )?;
        }
        receivers.push(t.slot);
    }
    let mut copy = Vec::new();
    let mut remap = Vec::new();
    for i in 0..CHAN_SIZES.len() as u32 {
        let (tx, rx, t) = channel_ends(h)?;
        let c = Channel::setup(
            &mut h.ck,
            &mut h.mpm,
            h.srm,
            tx,
            Vaddr(0xa000),
            rx,
            Vaddr(0xb000),
            t,
            Paddr(0x48_0000 + i * PAGE_SIZE),
        )?;
        copy.push((c, t.slot));
        let (tx, rx, t) = channel_ends(h)?;
        let c = PageChannel::setup(
            &mut h.ck,
            &mut h.mpm,
            h.srm,
            tx,
            Vaddr(0xa000),
            rx,
            Vaddr(0xb000),
            t,
            Paddr(0x50_0000 + i * PAGE_SIZE),
            Paddr(0x58_0000 + i * PAGE_SIZE),
        )?;
        remap.push((c, t.slot));
    }
    let mut rng = seed;
    let payloads = CHAN_SIZES
        .iter()
        .map(|&n| (0..n).map(|_| mix(&mut rng) as u8).collect())
        .collect();
    Ok(Kcache {
        pager,
        pager_space,
        threads: vec![None; LOGICAL_THREADS],
        msg,
        receivers,
        copy,
        remap,
        payloads,
        rng,
        calls: 0,
        failed: 0,
        map_accesses: 0,
        map_reloads: 0,
        copy_cycles: [0; CHAN_SIZES.len()],
        remap_cycles: [0; CHAN_SIZES.len()],
        latency: BTreeMap::new(),
    })
}

/// A sender space, a receiver space and a receiving thread.
fn channel_ends(h: &mut Bench) -> CkResult<(ObjId, ObjId, ObjId)> {
    let tx = h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)?;
    let rx = h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm)?;
    let t =
        h.ck.load_thread(h.srm, ThreadDesc::new(rx, 1, 20), false, &mut h.mpm)?;
    Ok((tx, rx, t))
}

impl Kcache {
    /// Count one interface call and whether it failed.
    fn call<T>(&mut self, r: CkResult<T>) -> Option<T> {
        self.calls += 1;
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    fn cycles(&self) -> u64 {
        self.pager.mpm.clock.cycles() + self.msg.mpm.clock.cycles()
    }

    fn pick(&mut self) -> Action {
        let mut r = mix(&mut self.rng) % 100;
        for (a, w) in MIX {
            if r < w {
                return a;
            }
            r -= w;
        }
        unreachable!("the mix sums to 100")
    }

    fn act(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let action = self.pick();
        let c0 = self.cycles();
        match action {
            Action::MapFault => self.map_fault(tr),
            Action::Dispatch => self.dispatch(tr),
            Action::Raise => self.raise(tr)?,
            Action::Storm => self.storm(tr)?,
            Action::Copy => self.send_copy(tr)?,
            Action::Remap => self.send_remap(tr)?,
        }
        *self.latency.entry(self.cycles() - c0).or_default() += 1;
        Ok(())
    }

    /// A fault on one page of the working set: the pager checks the
    /// mapping, loads it when missing (reclaiming another past the
    /// cache's capacity) and takes the displaced descriptors.
    fn map_fault(&mut self, tr: &mut Tracer) {
        let p = (mix(&mut self.rng) % u64::from(WORKING_SET)) as u32;
        let va = Vaddr(PAGER_VA + p * PAGE_SIZE);
        let h = &mut self.pager;
        self.map_accesses += 1;
        let s = tr.open(Name::QueryMapping);
        let found = h.ck.query_mapping(h.srm, self.pager_space, va);
        tr.close(s);
        self.calls += 1;
        if found.is_ok() {
            return;
        }
        self.map_reloads += 1;
        let s = tr.open(Name::LoadMapping);
        let r = h.ck.load_mapping(
            h.srm,
            self.pager_space,
            va,
            Paddr(PAGER_PA + p * PAGE_SIZE),
            Pte::CACHEABLE,
            None,
            None,
            &mut h.mpm,
        );
        tr.close(s);
        self.call(r);
        self.take_writebacks(tr);
    }

    fn take_writebacks(&mut self, tr: &mut Tracer) {
        let s = tr.open(Name::TakeWritebacks);
        let wbs = self.pager.ck.take_writebacks();
        tr.close(s);
        self.calls += 1;
        drop(wbs);
    }

    /// Dispatch one of the logical threads, reloading its descriptor
    /// when the thread cache wrote it back.
    fn dispatch(&mut self, tr: &mut Tracer) {
        let i = (mix(&mut self.rng) % LOGICAL_THREADS as u64) as usize;
        let h = &mut self.pager;
        if let Some(id) = self.threads[i] {
            let s = tr.open(Name::QueryThread);
            let cached = h.ck.thread(id).is_ok();
            tr.close(s);
            self.calls += 1;
            if cached {
                return;
            }
        }
        let s = tr.open(Name::LoadThread);
        let r = h.ck.load_thread(
            h.srm,
            ThreadDesc::new(self.pager_space, i as u32, 5),
            false,
            &mut h.mpm,
        );
        tr.close(s);
        self.threads[i] = self.call(r);
        self.take_writebacks(tr);
    }

    /// Take every queued signal on the receivers and return from the
    /// handlers.
    fn drain(&mut self, tr: &mut Tracer, slots: &[u16]) -> usize {
        let s = tr.open(Name::SigDrain);
        let mut got = 0;
        for &slot in slots {
            while self.msg.ck.take_signal(slot).is_some() {
                got += 1;
            }
            self.msg.ck.signal_return(slot);
        }
        tr.close(s);
        self.calls += got as u64 + slots.len() as u64;
        got
    }

    /// One signal on a message page: the solo page (reverse-TLB fast
    /// path) or a shared page (two-stage lookup, four receivers).
    fn raise(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let r = mix(&mut self.rng);
        let offset = ((r >> 8) % u64::from(PAGE_SIZE / 16)) as u32 * 16;
        let (pa, want) = if r.is_multiple_of(2) {
            (SOLO_PA, 1)
        } else {
            let page = ((r >> 20) % u64::from(STORM_PAGES)) as u32;
            (SHARED_PA + page * PAGE_SIZE, STORM_RECEIVERS)
        };
        let h = &mut self.msg;
        let s = tr.open(Name::SigRaise);
        let out = h.ck.raise_signal(&mut h.mpm, 0, Paddr(pa + offset));
        tr.close(s);
        self.calls += 1;
        let slots = self.receivers.clone();
        let got = self.drain(tr, &slots);
        if out.receivers() != want || got != want {
            return Err(format!(
                "signal on {pa:#x} reached {} receivers, {got} taken, want {want}",
                out.receivers()
            ));
        }
        Ok(())
    }

    /// Sixteen raises over the shared pages, delivered as one batch.
    fn storm(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let base = mix(&mut self.rng) as u32;
        let h = &mut self.msg;
        let s = tr.open(Name::SigStorm);
        let mut batch = h.ck.take_signal_batch();
        for r in 0..STORM_RAISES {
            let page = base.wrapping_add(r) % STORM_PAGES;
            batch.add(Paddr(SHARED_PA + page * PAGE_SIZE + r * 16));
        }
        h.ck.finish_signal_batch(batch, &mut h.mpm, 0);
        tr.close(s);
        self.calls += 2 + u64::from(STORM_RAISES);
        let slots = self.receivers[..STORM_RECEIVERS].to_vec();
        let got = self.drain(tr, &slots);
        let want = STORM_RAISES as usize * STORM_RECEIVERS;
        if got != want {
            return Err(format!("storm delivered {got} signals, want {want}"));
        }
        Ok(())
    }

    /// A payload of size index `i`, stamped with the call count so every
    /// message differs.
    fn payload(&mut self, i: usize) -> Vec<u8> {
        let mut p = self.payloads[i].clone();
        p[..8].copy_from_slice(&self.calls.to_le_bytes());
        p
    }

    fn send_copy(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let i = (mix(&mut self.rng) % CHAN_SIZES.len() as u64) as usize;
        let data = self.payload(i);
        let c0 = self.msg.mpm.clock.cycles();
        let h = &mut self.msg;
        let (chan, slot) = &mut self.copy[i];
        let slot = *slot;
        let s = tr.open(Name::ChanCopy(i as u8));
        let sent = chan.send_bytes(&mut h.ck, &mut h.mpm, 0, &data);
        let got = chan.recv(&mut h.mpm, 0);
        tr.close(s);
        self.call(sent);
        self.calls += 1;
        self.copy_cycles[i] = self.msg.mpm.clock.cycles() - c0;
        self.drain(tr, &[slot]);
        match got {
            Some((_, bytes)) if bytes == data => Ok(()),
            _ => Err(format!(
                "copy channel {} returned other bytes",
                CHAN_SIZES[i]
            )),
        }
    }

    fn send_remap(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let i = (mix(&mut self.rng) % CHAN_SIZES.len() as u64) as usize;
        let data = self.payload(i);
        let c0 = self.msg.mpm.clock.cycles();
        let h = &mut self.msg;
        let (chan, slot) = &mut self.remap[i];
        let slot = *slot;
        let s = tr.open(Name::ChanRemap(i as u8));
        let sent = chan.send(&mut h.ck, &mut h.mpm, 0, &data);
        let mut bytes = vec![0u8; data.len()];
        let read = chan
            .read_in_place(&h.mpm)
            .filter(|&(_, len, _)| len as usize == data.len())
            .is_some_and(|(_, _, pa)| h.mpm.mem.read(pa, &mut bytes).is_ok());
        let done = chan.complete(&mut h.ck, &mut h.mpm);
        tr.close(s);
        self.call(sent);
        self.calls += 1;
        self.call(done);
        self.remap_cycles[i] = self.msg.mpm.clock.cycles() - c0;
        self.drain(tr, &[slot]);
        if read && bytes == data {
            Ok(())
        } else {
            Err(format!(
                "remap channel {} returned other bytes",
                CHAN_SIZES[i]
            ))
        }
    }
}

/// One episode of `actions` client actions.
pub fn episode(actions: usize, seed: u64, tr: &mut Tracer) -> Result<Episode, String> {
    let t = Stopwatch::start();
    let span = tr.open(Name::Setup);
    let k = boot(seed);
    tr.close(span);
    let setup = t.stop();
    let mut k = k.map_err(|e| format!("kcache set-up failed: {e:?}"))?;
    let start_cycles = k.cycles();

    let t = Stopwatch::start();
    let mut events_max = 0;
    for _ in 0..actions {
        k.act(tr)?;
        let span = tr.open(Name::Probe);
        events_max = events_max.max(k.pager.ck.pending_events() + k.msg.ck.pending_events());
        tr.close(span);
    }
    let run = t.stop();

    let t = Stopwatch::start();
    let span = tr.open(Name::Verify);
    let out = verify(&k, start_cycles, events_max);
    // Tearing the simulator down is program time too.
    drop(k);
    tr.close(span);
    let verified = t.stop();
    let mut ep = out?;
    ep.setup = setup;
    ep.run = run;
    ep.verify = verified;
    Ok(ep)
}

fn verify(k: &Kcache, start_cycles: u64, events_max: usize) -> Result<Episode, String> {
    if k.failed != 0 {
        return Err(format!(
            "{} of {} interface calls failed",
            k.failed, k.calls
        ));
    }
    for (name, b) in [("pager", &k.pager), ("messaging", &k.msg)] {
        b.ck.check_invariants()
            .map_err(|e| format!("{name} invariants: {e}"))?;
    }
    let mut c = k.pager.ck.stats;
    c.merge_from(&k.msg.ck.stats);
    let (mut sim, canon) = counter_figures(&c, [&k.pager.mpm, &k.msg.mpm]);
    sim.push(("ck.reload_ratio", ratio(k.map_reloads, k.map_accesses)));
    sim.push(("ck.events_pending_max", events_max as f64));
    for (i, name) in COPY_CYCLES.iter().enumerate() {
        sim.push((name, k.copy_cycles[i] as f64));
    }
    for (i, name) in REMAP_CYCLES.iter().enumerate() {
        sim.push((name, k.remap_cycles[i] as f64));
    }
    Ok(Episode {
        setup: Default::default(),
        run: Default::default(),
        verify: Default::default(),
        attempted: k.calls,
        failed: k.failed,
        incomplete: 0,
        sim_cycles: k.cycles() - start_cycles,
        latency: Latency::Exact(k.latency.clone()),
        latency_ops: k.latency.values().sum(),
        slo_limit: SLO_LIMIT,
        sim,
        canon,
    })
}

/// Metric names of the per-size channel figures, in [`CHAN_SIZES`] order.
const COPY_CYCLES: [&str; 3] = [
    "chan.copy_cycles.64",
    "chan.copy_cycles.1024",
    "chan.copy_cycles.3900",
];
const REMAP_CYCLES: [&str; 3] = [
    "chan.remap_cycles.64",
    "chan.remap_cycles.1024",
    "chan.remap_cycles.3900",
];
