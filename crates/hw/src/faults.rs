//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded schedule of hardware-level failures: fabric
//! frame loss and duplication, device error interrupts, and "the software
//! running in slot S dies" triggers keyed to a simulated cycle count or to
//! that slot's K-th writeback. All randomness comes from one SplitMix64
//! stream seeded at construction, and every query site is deterministic
//! with respect to the simulation, so a chaos run replays byte-identically
//! from its seed.
//!
//! This crate stays below the software boundary: the plan speaks in raw
//! slot numbers, cycles and frames. The executive above interprets
//! "kill slot S" against its kernel table.

/// One step of SplitMix64: advance `state`, return the mixed output.
/// Every seeded stream in the workspace draws from this one generator,
/// each from its own `state`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny, well-distributed PRNG. One stream per plan keeps
/// frame-fate decisions independent of everything else in the simulation.
#[derive(Clone, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seed the stream.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Bernoulli trial with probability `permille`/1000.
    pub fn chance(&mut self, permille: u32) -> bool {
        self.below(1000) < u64::from(permille.min(1000))
    }
}

/// When a kill trigger fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// At the first quantum boundary at or after this simulated cycle.
    Cycle(u64),
    /// After the slot's K-th delivered writeback (1-based).
    Writeback(u32),
}

/// A scheduled "software in this slot dies" trigger.
#[derive(Clone, Debug)]
struct KernelKill {
    slot: u16,
    at: KillPoint,
    fired: bool,
    /// Writebacks observed for this slot so far (for `KillPoint::Writeback`).
    seen_writebacks: u32,
}

/// A scheduled change to the fabric topology. Unlike frame fates (which
/// are per-frame probabilistic draws), fabric events are absolute-time
/// schedule entries: at or after the trigger cycle the cluster loop
/// applies them to the [`Fabric`](crate::fabric::Fabric), whose send
/// choke point then enforces them on every protocol identically —
/// seeded runs replay the same network byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricEvent {
    /// Split the nodes into isolated groups; traffic crosses a group
    /// boundary nowhere. Nodes not listed in any group are isolated
    /// singletons.
    Partition(Vec<Vec<usize>>),
    /// Restore full connectivity (partitions only; downed nodes stay
    /// down).
    Heal,
    /// Halt a whole node: its MPM stops executing and the fabric drops
    /// its traffic permanently.
    NodeDown(usize),
    /// Charge extra delivery cycles to frames crossing between the
    /// listed delay groups. Unlike a partition, every frame is still
    /// carried — just late (and possibly reordered against faster
    /// paths).
    DelayLink {
        /// The delay groups; unlisted nodes form group 0.
        groups: Vec<Vec<usize>>,
        /// Extra cycles per crossing frame.
        extra: u64,
    },
    /// Turn a node into a straggler: every frame it sends or receives
    /// pays this many extra cycles (a service-time multiplier resolved
    /// against [`FaultPlan::straggler_base`] by the builder).
    SlowNode {
        /// The straggler.
        node: usize,
        /// Extra cycles per frame touching it.
        extra: u64,
    },
    /// Remove every delay: link delays, per-node penalties, jitter.
    /// Frames already in flight keep their delivery deadlines.
    ClearDelays,
    /// Arm bounded downward jitter (permille of each frame's delay)
    /// on the fabric's dedicated seeded stream.
    DelayJitter {
        /// Fraction of the delay the jitter may shave off, permille.
        permille: u32,
        /// Seed for the fabric-local jitter stream.
        seed: u64,
    },
}

/// A fabric event armed at a trigger cycle.
#[derive(Clone, Debug)]
struct ScheduledFabricEvent {
    at: u64,
    event: FabricEvent,
    fired: bool,
}

/// What should happen to an outbound fabric frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Deliver normally.
    Deliver,
    /// Silently drop it.
    Drop,
    /// Deliver it twice.
    Duplicate,
}

/// Injection counters, so harnesses can report what the plan actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fabric frames dropped.
    pub frames_dropped: u64,
    /// Fabric frames duplicated.
    pub frames_duplicated: u64,
    /// Kill triggers fired.
    pub kills_fired: u64,
    /// Device error interrupts raised.
    pub device_errors: u64,
    /// Fabric topology events fired (partitions, heals, node downs).
    pub fabric_events: u64,
}

impl FaultStats {
    /// Total injections of any kind.
    pub fn total(&self) -> u64 {
        self.frames_dropped
            + self.frames_duplicated
            + self.kills_fired
            + self.device_errors
            + self.fabric_events
    }
}

/// A seeded, deterministic schedule of failures.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The seed the plan was built from (for reporting/replay).
    pub seed: u64,
    rng: FaultRng,
    /// Per-mille probability an outbound fabric frame is dropped.
    pub frame_loss_permille: u32,
    /// Per-mille probability an outbound fabric frame is duplicated.
    pub frame_dup_permille: u32,
    kills: Vec<KernelKill>,
    /// `(cycle, fired)` device-error schedule.
    device_errors: Vec<(u64, bool)>,
    /// Fabric topology schedule (partitions, heals, node downs).
    fabric: Vec<ScheduledFabricEvent>,
    /// Cycles one "service-time unit" of straggler delay costs; the
    /// [`FaultPlan::slow_node`] builder multiplies this by the node's
    /// multiplier-minus-one to get its per-frame penalty.
    pub straggler_base: u64,
    /// What the plan has injected so far.
    pub stats: FaultStats,
}

impl FaultPlan {
    /// An empty plan: no failures until configured.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rng: FaultRng::new(seed),
            frame_loss_permille: 0,
            frame_dup_permille: 0,
            kills: Vec::new(),
            device_errors: Vec::new(),
            fabric: Vec::new(),
            straggler_base: 2_500,
            stats: FaultStats::default(),
        }
    }

    /// Set the per-mille fabric frame loss probability.
    pub fn with_frame_loss(mut self, permille: u32) -> Self {
        self.frame_loss_permille = permille.min(1000);
        self
    }

    /// Set the per-mille fabric frame duplication probability.
    pub fn with_frame_dup(mut self, permille: u32) -> Self {
        self.frame_dup_permille = permille.min(1000);
        self
    }

    /// Override the straggler service-time unit (cycles per 1× of a
    /// [`FaultPlan::slow_node`] multiplier; default 2_500). Call it
    /// before `slow_node` — the per-frame penalty is computed when the
    /// event is scheduled.
    pub fn with_straggler_base(mut self, cycles: u64) -> Self {
        self.straggler_base = cycles;
        self
    }

    /// Schedule slot `slot` to die at the first quantum boundary at or
    /// after simulated cycle `cycle`.
    pub fn kill_at_cycle(mut self, slot: u16, cycle: u64) -> Self {
        self.kills.push(KernelKill {
            slot,
            at: KillPoint::Cycle(cycle),
            fired: false,
            seen_writebacks: 0,
        });
        self
    }

    /// Schedule slot `slot` to die right after its `k`-th delivered
    /// writeback (1-based; `k == 0` fires on the first).
    pub fn kill_at_writeback(mut self, slot: u16, k: u32) -> Self {
        self.kills.push(KernelKill {
            slot,
            at: KillPoint::Writeback(k.max(1)),
            fired: false,
            seen_writebacks: 0,
        });
        self
    }

    /// Schedule a device error interrupt at the first quantum boundary at
    /// or after `cycle`.
    pub fn device_error_at(mut self, cycle: u64) -> Self {
        self.device_errors.push((cycle, false));
        self
    }

    /// Schedule a network partition at the first cluster step at or after
    /// cycle `at`: nodes can reach each other only within their listed
    /// group; unlisted nodes are isolated singletons.
    pub fn partition(mut self, at: u64, groups: &[&[usize]]) -> Self {
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::Partition(groups.iter().map(|g| g.to_vec()).collect()),
            fired: false,
        });
        self
    }

    /// Schedule a heal at the first cluster step at or after cycle `at`:
    /// partitions are dissolved (downed nodes stay down).
    pub fn heal(mut self, at: u64) -> Self {
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::Heal,
            fired: false,
        });
        self
    }

    /// Schedule a whole-node failure at the first cluster step at or
    /// after cycle `at`: the node's MPM halts and the fabric drops its
    /// traffic permanently.
    pub fn node_down(mut self, at: u64, node: usize) -> Self {
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::NodeDown(node),
            fired: false,
        });
        self
    }

    /// Schedule a link delay at the first cluster step at or after
    /// cycle `at`: frames crossing between the listed delay groups pay
    /// `extra_cycles` each. The link still carries everything — this is
    /// a gray failure, not a cut.
    pub fn delay_link(mut self, at: u64, groups: &[&[usize]], extra_cycles: u64) -> Self {
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::DelayLink {
                groups: groups.iter().map(|g| g.to_vec()).collect(),
                extra: extra_cycles,
            },
            fired: false,
        });
        self
    }

    /// Schedule node `node` to become a straggler at the first cluster
    /// step at or after `at`: every frame touching it pays
    /// `straggler_base × (mult_permille − 1000) / 1000` extra cycles.
    /// A multiplier of 1000 (1×) or below restores full speed.
    pub fn slow_node(mut self, at: u64, node: usize, mult_permille: u64) -> Self {
        let extra = self.straggler_base * mult_permille.saturating_sub(1_000) / 1_000;
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::SlowNode { node, extra },
            fired: false,
        });
        self
    }

    /// Schedule a straggler's recovery: from `at`, frames touching
    /// `node` are full speed again.
    pub fn recover_node(mut self, at: u64, node: usize) -> Self {
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::SlowNode { node, extra: 0 },
            fired: false,
        });
        self
    }

    /// Schedule the removal of every delay (link, per-node, jitter) at
    /// the first cluster step at or after `at`.
    pub fn clear_delays(mut self, at: u64) -> Self {
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::ClearDelays,
            fired: false,
        });
        self
    }

    /// Arm bounded downward delivery jitter on delayed frames from
    /// cycle `at`, on a stream derived from the plan seed (so replay
    /// holds without touching the frame-fate stream).
    pub fn delay_jitter(mut self, at: u64, permille: u32) -> Self {
        let seed = self.seed ^ 0x6a77_7e5f_0f5e_ed01;
        self.fabric.push(ScheduledFabricEvent {
            at,
            event: FabricEvent::DelayJitter { permille, seed },
            fired: false,
        });
        self
    }

    /// Fabric events due at simulated cycle `now`, in trigger order
    /// (ties resolve in schedule order). Each fires once.
    pub fn due_fabric_events(&mut self, now: u64) -> Vec<FabricEvent> {
        let mut due: Vec<(u64, usize)> = self
            .fabric
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.fired && now >= e.at)
            .map(|(i, e)| (e.at, i))
            .collect();
        due.sort_unstable();
        due.into_iter()
            .map(|(_, i)| {
                self.fabric[i].fired = true;
                self.stats.fabric_events += 1;
                self.fabric[i].event.clone()
            })
            .collect()
    }

    /// Whether any fabric event remains armed.
    pub fn fabric_events_pending(&self) -> bool {
        self.fabric.iter().any(|e| !e.fired)
    }

    /// A fully random chaos plan derived from `seed`: moderate frame
    /// loss/duplication, a kill trigger for each listed slot (by cycle or
    /// by writeback count), and up to two device errors. Two plans built
    /// from the same seed and slot list are identical.
    pub fn chaos(seed: u64, victim_slots: &[u16]) -> Self {
        let mut derive = FaultRng::new(seed ^ 0x0c4a_05c0_dead_bead);
        let mut plan = FaultPlan::new(seed)
            .with_frame_loss(derive.below(120) as u32)
            .with_frame_dup(derive.below(40) as u32);
        for &slot in victim_slots {
            plan = if derive.chance(650) {
                plan.kill_at_cycle(slot, 20_000 + derive.below(600_000))
            } else {
                plan.kill_at_writeback(slot, 1 + derive.below(4) as u32)
            };
        }
        for _ in 0..derive.below(3) {
            plan = plan.device_error_at(10_000 + derive.below(400_000));
        }
        plan
    }

    /// Decide the fate of one outbound fabric frame. Consumes one or two
    /// draws from the plan's stream.
    pub fn frame_fate(&mut self) -> FrameFate {
        if self.frame_loss_permille > 0 && self.rng.chance(self.frame_loss_permille) {
            self.stats.frames_dropped += 1;
            return FrameFate::Drop;
        }
        if self.frame_dup_permille > 0 && self.rng.chance(self.frame_dup_permille) {
            self.stats.frames_duplicated += 1;
            return FrameFate::Duplicate;
        }
        FrameFate::Deliver
    }

    /// Kill triggers due at simulated cycle `now`. Each fires once; slots
    /// are returned in schedule order.
    pub fn due_cycle_kills(&mut self, now: u64) -> Vec<u16> {
        let mut due = Vec::new();
        for k in self.kills.iter_mut() {
            if k.fired {
                continue;
            }
            if let KillPoint::Cycle(c) = k.at {
                if now >= c {
                    k.fired = true;
                    self.stats.kills_fired += 1;
                    due.push(k.slot);
                }
            }
        }
        due
    }

    /// Record that `slot` was delivered a writeback; returns `true` when a
    /// writeback-count kill trigger for it fires (once).
    pub fn note_writeback(&mut self, slot: u16) -> bool {
        let mut fire = false;
        for k in self.kills.iter_mut() {
            if k.slot != slot || k.fired {
                continue;
            }
            if let KillPoint::Writeback(target) = k.at {
                k.seen_writebacks += 1;
                if k.seen_writebacks >= target {
                    k.fired = true;
                    self.stats.kills_fired += 1;
                    fire = true;
                }
            }
        }
        fire
    }

    /// Number of device error interrupts due at cycle `now`; each fires
    /// once.
    pub fn due_device_errors(&mut self, now: u64) -> u32 {
        let mut n = 0;
        for (cycle, fired) in self.device_errors.iter_mut() {
            if !*fired && now >= *cycle {
                *fired = true;
                self.stats.device_errors += 1;
                n += 1;
            }
        }
        n
    }

    /// Whether any kill trigger remains armed.
    pub fn kills_pending(&self) -> bool {
        self.kills.iter().any(|k| !k.fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = FaultRng::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn frame_fates_replay_from_seed() {
        let run = |seed| {
            let mut p = FaultPlan::new(seed)
                .with_frame_loss(300)
                .with_frame_dup(200);
            (0..64).map(|_| p.frame_fate()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        let fates = run(7);
        assert!(fates.contains(&FrameFate::Drop));
        assert!(fates.contains(&FrameFate::Deliver));
    }

    #[test]
    fn cycle_kills_fire_once_at_or_after_deadline() {
        let mut p = FaultPlan::new(0)
            .kill_at_cycle(3, 100)
            .kill_at_cycle(5, 200);
        assert!(p.due_cycle_kills(50).is_empty());
        assert_eq!(p.due_cycle_kills(150), vec![3]);
        assert_eq!(p.due_cycle_kills(500), vec![5]);
        assert!(p.due_cycle_kills(1000).is_empty());
        assert!(!p.kills_pending());
        assert_eq!(p.stats.kills_fired, 2);
    }

    #[test]
    fn writeback_kills_count_per_slot() {
        let mut p = FaultPlan::new(0).kill_at_writeback(2, 3);
        assert!(!p.note_writeback(9)); // other slot: no effect
        assert!(!p.note_writeback(2));
        assert!(!p.note_writeback(2));
        assert!(p.note_writeback(2));
        assert!(!p.note_writeback(2)); // fires once
    }

    #[test]
    fn device_errors_fire_once() {
        let mut p = FaultPlan::new(0).device_error_at(10).device_error_at(10);
        assert_eq!(p.due_device_errors(5), 0);
        assert_eq!(p.due_device_errors(10), 2);
        assert_eq!(p.due_device_errors(11), 0);
    }

    #[test]
    fn fabric_events_fire_once_in_trigger_order() {
        let mut p = FaultPlan::new(0)
            .heal(500)
            .partition(100, &[&[0, 1], &[2]])
            .node_down(100, 2);
        assert!(p.fabric_events_pending());
        assert!(p.due_fabric_events(50).is_empty());
        // Two events tie at 100: schedule order breaks the tie, and the
        // heal armed later (cycle 500) is not due yet.
        assert_eq!(
            p.due_fabric_events(120),
            vec![
                FabricEvent::Partition(vec![vec![0, 1], vec![2]]),
                FabricEvent::NodeDown(2),
            ]
        );
        assert!(p.due_fabric_events(120).is_empty()); // fired once
        assert_eq!(p.due_fabric_events(900), vec![FabricEvent::Heal]);
        assert!(!p.fabric_events_pending());
        assert_eq!(p.stats.fabric_events, 3);
    }

    #[test]
    fn delay_schedule_builders_resolve_and_fire() {
        let mut p = FaultPlan::new(9)
            .slow_node(100, 3, 8_000) // 8× → 2_500 × 7 = 17_500 extra
            .delay_link(200, &[&[0, 1], &[2, 3]], 4_000)
            .recover_node(300, 3)
            .clear_delays(400);
        assert_eq!(
            p.due_fabric_events(100),
            vec![FabricEvent::SlowNode {
                node: 3,
                extra: 17_500
            }]
        );
        assert_eq!(
            p.due_fabric_events(250),
            vec![FabricEvent::DelayLink {
                groups: vec![vec![0, 1], vec![2, 3]],
                extra: 4_000
            }]
        );
        assert_eq!(
            p.due_fabric_events(300),
            vec![FabricEvent::SlowNode { node: 3, extra: 0 }]
        );
        assert_eq!(p.due_fabric_events(400), vec![FabricEvent::ClearDelays]);
        assert!(!p.fabric_events_pending());
        assert_eq!(p.stats.fabric_events, 4);
    }

    #[test]
    fn delay_jitter_seed_derives_from_plan_seed() {
        let mut a = FaultPlan::new(5).delay_jitter(0, 300);
        let mut b = FaultPlan::new(5).delay_jitter(0, 300);
        assert_eq!(a.due_fabric_events(0), b.due_fabric_events(0));
        let mut c = FaultPlan::new(6).delay_jitter(0, 300);
        assert_ne!(a.fabric[0].event, c.due_fabric_events(0)[0]);
    }

    #[test]
    fn slow_node_multiplier_floor_is_full_speed() {
        let mut p = FaultPlan::new(0)
            .slow_node(0, 1, 1_000)
            .slow_node(0, 2, 500);
        let evs = p.due_fabric_events(0);
        for ev in evs {
            match ev {
                FabricEvent::SlowNode { extra, .. } => assert_eq!(extra, 0),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_plans_are_reproducible() {
        let a = FaultPlan::chaos(0xfeed, &[4, 7]);
        let b = FaultPlan::chaos(0xfeed, &[4, 7]);
        assert_eq!(a.frame_loss_permille, b.frame_loss_permille);
        assert_eq!(a.frame_dup_permille, b.frame_dup_permille);
        assert_eq!(a.kills.len(), 2);
        assert_eq!(b.kills.len(), 2);
        for (x, y) in a.kills.iter().zip(b.kills.iter()) {
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.at, y.at);
        }
        assert_eq!(a.device_errors, b.device_errors);
    }
}
