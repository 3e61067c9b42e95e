//! Per-CPU ready queues with deterministic idle-steal (§2.3, §4.2, §4.3).
//!
//! The Cache Kernel schedules only what is loaded: "the application kernel
//! loads a thread to schedule it, unloads a thread to deschedule it, and
//! relies on the Cache Kernel's fixed priority scheduling to designate
//! preference among the loaded threads." Within one priority the kernel
//! time-slices round-robin so equal-priority real-time threads of
//! different application kernels cannot starve one another.
//!
//! The paper's §4.2 argues for per-processor data structures so the
//! dispatch hot path touches only processor-local state. This scheduler
//! keeps one array of per-priority FIFO queues *per simulated CPU*: a
//! thread is homed on `slot % num_cpus` and normally dispatched there.
//! When a CPU finds nothing runnable at a priority level it *steals*
//! from the other CPUs in a fixed wrap-around order (`cpu+1, cpu+2,
//! ...`), so an idle processor never spins while work is queued
//! elsewhere.
//!
//! Determinism: there is no wall-clock and no randomness anywhere in
//! here. Queue contents are FIFO `VecDeque`s, the steal order is a pure
//! function of the stealing CPU index, and `pick` scans priority levels
//! high-to-low before it scans CPUs — so the global invariant of the old
//! single-queue scheduler (the highest-priority ready thread always runs
//! first) is preserved exactly, and two identical runs produce identical
//! dispatch sequences.

use crate::objects::{Priority, PRIORITY_LEVELS};
use std::collections::VecDeque;

/// One CPU's ready queues: one FIFO per priority level over thread slots,
/// plus a bitmap of the non-empty levels so the highest one is a
/// leading-zeros count instead of a 32-level scan.
struct CpuQueues {
    levels: [VecDeque<u16>; PRIORITY_LEVELS],
    /// Bit `p` is set iff `levels[p]` is non-empty.
    nonempty: u32,
}

impl CpuQueues {
    fn new() -> Self {
        CpuQueues {
            levels: core::array::from_fn(|_| VecDeque::new()),
            nonempty: 0,
        }
    }

    fn push(&mut self, slot: u16, p: usize) {
        self.levels[p].push_back(slot);
        self.nonempty |= 1 << p;
    }

    fn pop(&mut self, p: usize) -> Option<u16> {
        let slot = self.levels[p].pop_front()?;
        if self.levels[p].is_empty() {
            self.nonempty &= !(1 << p);
        }
        Some(slot)
    }

    /// Remove `slot` from whichever level holds it.
    fn remove(&mut self, slot: u16) -> bool {
        let mut bits = self.nonempty;
        while bits != 0 {
            let p = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let level = &mut self.levels[p];
            if let Some(pos) = level.iter().position(|&s| s == slot) {
                level.remove(pos);
                if level.is_empty() {
                    self.nonempty &= !(1 << p);
                }
                return true;
            }
        }
        false
    }
}

/// Highest set bit of a level bitmap, as a priority.
fn top_of(bits: u32) -> Option<Priority> {
    (bits != 0).then(|| (31 - bits.leading_zeros()) as Priority)
}

/// Result of a dispatch decision: which thread, at what priority, and
/// whether it was stolen from another CPU's queue (and from which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    pub slot: u16,
    pub priority: Priority,
    /// `Some(victim_cpu)` when this was an idle-steal, `None` when the
    /// thread came off the picking CPU's own queue.
    pub stolen_from: Option<usize>,
}

/// Per-CPU ready queues with fixed-order idle-steal.
pub struct Scheduler {
    cpus: Vec<CpuQueues>,
    /// Threads queued across all CPUs.
    ready: usize,
    /// Time-slice length in program steps.
    pub slice: u32,
    /// Total threads dispatched via idle-steal (monotonic, for reporting).
    pub steals: u64,
}

impl Scheduler {
    /// A one-CPU scheduler with the given time-slice length (in executor
    /// steps). The executive widens it via [`set_cpus`](Self::set_cpus).
    pub fn new(slice: u32) -> Self {
        assert!(slice > 0, "time slice must be at least one step");
        Scheduler {
            cpus: vec![CpuQueues::new()],
            ready: 0,
            slice,
            steals: 0,
        }
    }

    /// Number of per-CPU queue sets currently configured.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Reconfigure for `n` CPUs, re-homing any queued threads.
    ///
    /// Existing entries are drained in deterministic order (per CPU,
    /// priority high-to-low, FIFO within a level) and re-enqueued on
    /// their new home queues.
    pub fn set_cpus(&mut self, n: usize) {
        assert!(n > 0, "scheduler needs at least one CPU");
        if n == self.cpus.len() {
            return;
        }
        let mut queued: Vec<(u16, Priority)> = Vec::new();
        for cq in &mut self.cpus {
            for p in (0..PRIORITY_LEVELS).rev() {
                while let Some(slot) = cq.pop(p) {
                    queued.push((slot, p as Priority));
                }
            }
        }
        self.cpus = (0..n).map(|_| CpuQueues::new()).collect();
        self.ready = 0;
        for (slot, priority) in queued {
            self.enqueue(slot, priority);
        }
    }

    /// Home CPU for a thread slot: a fixed function so placement is
    /// stable and reproducible.
    pub fn home_of(&self, slot: u16) -> usize {
        slot as usize % self.cpus.len()
    }

    /// Enqueue a thread slot at `priority` on its home CPU's queue tail.
    pub fn enqueue(&mut self, slot: u16, priority: Priority) {
        debug_assert!(!self.contains(slot), "slot double-enqueued");
        let home = self.home_of(slot);
        self.cpus[home].push(slot, priority as usize);
        self.ready += 1;
    }

    /// Dispatch decision for `cpu`: the highest-priority ready thread,
    /// preferring the CPU's own queue at each priority level and then
    /// stealing in fixed wrap-around order (`cpu+1, cpu+2, ...`).
    pub fn pick(&mut self, cpu: usize) -> Option<Pick> {
        let n = self.cpus.len();
        if cpu >= n {
            // An unconfigured CPU simply has nothing to run; indexing
            // would abort the whole simulation over a harness mistake.
            debug_assert!(false, "pick from unconfigured CPU {cpu} (of {n})");
            return None;
        }
        if self.ready == 0 {
            return None;
        }
        // The global top level decides; within it the picking CPU's own
        // queue wins, then the victims in wrap-around order.
        let p = self.top_priority()? as usize;
        if let Some(slot) = self.cpus[cpu].pop(p) {
            self.ready -= 1;
            return Some(Pick {
                slot,
                priority: p as Priority,
                stolen_from: None,
            });
        }
        for step in 1..n {
            let victim = (cpu + step) % n;
            if let Some(slot) = self.cpus[victim].pop(p) {
                self.ready -= 1;
                self.steals += 1;
                return Some(Pick {
                    slot,
                    priority: p as Priority,
                    stolen_from: Some(victim),
                });
            }
        }
        None
    }

    /// Highest priority currently ready on any CPU, if any (for
    /// preemption checks).
    pub fn top_priority(&self) -> Option<Priority> {
        top_of(self.cpus.iter().fold(0, |bits, cq| bits | cq.nonempty))
    }

    /// Remove a specific slot from wherever it is queued (thread unloaded
    /// or blocked). Returns whether it was queued.
    pub fn remove(&mut self, slot: u16) -> bool {
        // `enqueue` and `set_cpus` only ever queue a slot on its home CPU.
        let home = self.home_of(slot);
        let found = self.cpus[home].remove(slot);
        if found {
            self.ready -= 1;
        }
        found
    }

    /// Move a queued slot to a new priority (the `set_priority`
    /// optimization call avoids unload/modify/reload, §2.3). No-op if the
    /// slot is not queued (the caller updates the descriptor either way).
    pub fn requeue(&mut self, slot: u16, new_priority: Priority) {
        if self.remove(slot) {
            self.enqueue(slot, new_priority);
        }
    }

    /// Whether a slot is in some ready queue.
    pub fn contains(&self, slot: u16) -> bool {
        self.cpus
            .iter()
            .any(|cq| cq.levels.iter().any(|l| l.contains(&slot)))
    }

    /// Total ready threads across all CPUs.
    pub fn ready_count(&self) -> usize {
        self.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_single_cpu() {
        let mut s = Scheduler::new(10);
        s.enqueue(1, 5);
        s.enqueue(2, 20);
        s.enqueue(3, 5);
        assert_eq!(s.top_priority(), Some(20));
        let picks: Vec<u16> = (0..3).map(|_| s.pick(0).unwrap().slot).collect();
        assert_eq!(picks, vec![2, 1, 3]);
        assert_eq!(s.pick(0), None);
    }

    #[test]
    fn round_robin_within_priority_on_home_cpu() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        // Slots 0, 2, 4 all home on CPU 0 at the same priority.
        for slot in [0u16, 2, 4] {
            s.enqueue(slot, 9);
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let p = s.pick(0).unwrap();
            assert_eq!(p.stolen_from, None);
            order.push(p.slot);
            s.enqueue(p.slot, 9);
        }
        assert_eq!(order, vec![0, 2, 4, 0, 2, 4]);
    }

    #[test]
    fn priority_ordering_holds_across_cpus() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        s.enqueue(0, 2); // home CPU 0, low priority
        s.enqueue(1, 20); // home CPU 1, high priority
                          // CPU 0 must run the remote high-priority thread before its own
                          // low-priority one: the global priority invariant survives the
                          // per-CPU split.
        let first = s.pick(0).unwrap();
        assert_eq!(first.slot, 1);
        assert_eq!(first.stolen_from, Some(1));
        let second = s.pick(0).unwrap();
        assert_eq!(second.slot, 0);
        assert_eq!(second.stolen_from, None);
    }

    #[test]
    fn idle_steal_uses_fixed_wraparound_order() {
        let mut s = Scheduler::new(10);
        s.set_cpus(4);
        // Same priority on CPUs 1, 2, 3; CPU 0's queue is empty.
        s.enqueue(1, 8); // home 1
        s.enqueue(2, 8); // home 2
        s.enqueue(3, 8); // home 3
                         // CPU 0 steals in order cpu+1, cpu+2, cpu+3.
        let victims: Vec<Option<usize>> = (0..3).map(|_| s.pick(0).unwrap().stolen_from).collect();
        assert_eq!(victims, vec![Some(1), Some(2), Some(3)]);
        assert_eq!(s.steals, 3);
    }

    #[test]
    fn idle_steal_is_deterministic_across_identical_runs() {
        let run = || {
            let mut s = Scheduler::new(10);
            s.set_cpus(3);
            for slot in 0..12u16 {
                s.enqueue(slot, ((slot % 4) * 5) as Priority);
            }
            let mut trace = String::new();
            let mut cpu = 0;
            while let Some(p) = s.pick(cpu) {
                trace.push_str(&format!(
                    "cpu{} slot{} prio{} steal{:?};",
                    cpu, p.slot, p.priority, p.stolen_from
                ));
                cpu = (cpu + 1) % 3;
            }
            trace
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical runs must produce byte-identical picks");
        assert!(a.contains("steal"));
    }

    #[test]
    fn no_starvation_at_equal_priority() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        let slots: Vec<u16> = (0..6).collect();
        for &slot in &slots {
            s.enqueue(slot, 10);
        }
        // Simulate both CPUs repeatedly dispatching and re-queueing at
        // equal priority; every thread must run within each window of
        // `slots.len()` picks.
        let mut window = Vec::new();
        for round in 0..30 {
            let cpu = round % 2;
            let p = s.pick(cpu).unwrap();
            window.push(p.slot);
            s.enqueue(p.slot, 10);
            if window.len() == slots.len() {
                let mut seen = window.clone();
                seen.sort_unstable();
                assert_eq!(seen, slots, "a thread starved in window {round}");
                window.clear();
            }
        }
    }

    #[test]
    fn remove_and_requeue() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        s.enqueue(1, 5);
        s.enqueue(2, 5);
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert!(!s.contains(1));
        s.enqueue(1, 5);
        s.requeue(1, 9);
        let p = s.pick(0).unwrap();
        assert_eq!((p.slot, p.priority), (1, 9));
        assert_eq!(s.ready_count(), 1);
    }

    #[test]
    fn requeue_unqueued_is_noop() {
        let mut s = Scheduler::new(10);
        s.requeue(4, 3);
        assert_eq!(s.ready_count(), 0);
        assert!(!s.contains(4));
    }

    #[test]
    fn set_cpus_rehomes_queued_threads() {
        let mut s = Scheduler::new(10);
        s.enqueue(0, 5);
        s.enqueue(1, 5);
        s.enqueue(2, 9);
        s.set_cpus(2);
        assert_eq!(s.ready_count(), 3);
        // Slot 2 (home CPU 0) at priority 9 still wins globally.
        assert_eq!(s.pick(1).unwrap().slot, 2);
        // Slot 1 now homes on CPU 1 and is picked locally there.
        let p = s.pick(1).unwrap();
        assert_eq!((p.slot, p.stolen_from), (1, None));
    }

    /// The scan scheduler the bitmap one replaced: per-CPU arrays of
    /// per-priority FIFOs, every query a full walk of the levels.
    struct ScanModel {
        cpus: Vec<Vec<VecDeque<u16>>>,
    }

    impl ScanModel {
        fn new() -> Self {
            ScanModel {
                cpus: vec![vec![VecDeque::new(); PRIORITY_LEVELS]],
            }
        }

        fn set_cpus(&mut self, n: usize) {
            if n == self.cpus.len() {
                return;
            }
            let mut queued = Vec::new();
            for cq in &mut self.cpus {
                for p in (0..PRIORITY_LEVELS).rev() {
                    queued.extend(cq[p].drain(..).map(|slot| (slot, p)));
                }
            }
            self.cpus = vec![vec![VecDeque::new(); PRIORITY_LEVELS]; n];
            for (slot, p) in queued {
                self.enqueue(slot, p);
            }
        }

        fn enqueue(&mut self, slot: u16, p: usize) {
            let n = self.cpus.len();
            self.cpus[slot as usize % n][p].push_back(slot);
        }

        fn pick(&mut self, cpu: usize) -> Option<Pick> {
            let n = self.cpus.len();
            for p in (0..PRIORITY_LEVELS).rev() {
                for step in 0..n {
                    let victim = (cpu + step) % n;
                    if let Some(slot) = self.cpus[victim][p].pop_front() {
                        return Some(Pick {
                            slot,
                            priority: p as Priority,
                            stolen_from: (step > 0).then_some(victim),
                        });
                    }
                }
            }
            None
        }

        fn remove(&mut self, slot: u16) -> bool {
            for level in self.cpus.iter_mut().flatten() {
                if let Some(pos) = level.iter().position(|&s| s == slot) {
                    level.remove(pos);
                    return true;
                }
            }
            false
        }

        fn top_priority(&self) -> Option<Priority> {
            (0..PRIORITY_LEVELS)
                .rev()
                .find(|&p| self.cpus.iter().any(|cq| !cq[p].is_empty()))
                .map(|p| p as Priority)
        }

        fn ready_count(&self) -> usize {
            self.cpus.iter().flatten().map(VecDeque::len).sum()
        }
    }

    #[test]
    fn bitmap_scheduler_matches_the_scan_model() {
        const SLOTS: u64 = 48;
        for seed in 0..64u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
            let mut s = Scheduler::new(10);
            let mut m = ScanModel::new();
            let mut queued = vec![false; SLOTS as usize];
            for step in 0..2_000 {
                let r = hw::splitmix64(&mut rng);
                let slot = (r >> 8) % SLOTS;
                // Priorities cluster on a few levels (so FIFO order and
                // steals are exercised) with the extremes mixed in.
                let p = match (r >> 16) % 8 {
                    0 => 0,
                    1 => PRIORITY_LEVELS - 1,
                    k => (k as usize * 3) % PRIORITY_LEVELS,
                };
                let cpus = s.num_cpus();
                match r % 16 {
                    0..=5 => {
                        if !queued[slot as usize] {
                            queued[slot as usize] = true;
                            s.enqueue(slot as u16, p as Priority);
                            m.enqueue(slot as u16, p);
                        }
                    }
                    6..=10 => {
                        let cpu = (r >> 24) as usize % cpus;
                        let got = s.pick(cpu);
                        assert_eq!(got, m.pick(cpu), "seed {seed} step {step}: pick({cpu})");
                        if let Some(pk) = got {
                            queued[pk.slot as usize] = false;
                        }
                    }
                    11 | 12 => {
                        let got = s.remove(slot as u16);
                        assert_eq!(got, m.remove(slot as u16), "seed {seed} step {step}");
                        queued[slot as usize] = false;
                    }
                    13 | 14 => {
                        s.requeue(slot as u16, p as Priority);
                        if m.remove(slot as u16) {
                            m.enqueue(slot as u16, p);
                        }
                    }
                    _ => {
                        let n = 1 + (r >> 32) as usize % 4;
                        s.set_cpus(n);
                        m.set_cpus(n);
                    }
                }
                assert_eq!(
                    s.top_priority(),
                    m.top_priority(),
                    "seed {seed} step {step}"
                );
                assert_eq!(s.ready_count(), m.ready_count(), "seed {seed} step {step}");
            }
        }
    }
}
