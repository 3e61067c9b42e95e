//! Chaos property test: random seeded fault plans (frame loss knobs,
//! cycle kills, writeback kills, device error interrupts) against a
//! two-kernel workload. Whatever the schedule of injected failures, the
//! Cache Kernel's structural invariants hold, the object-traffic
//! counters balance, and a survivor kernel's output is identical to a
//! fault-free run — crashes are contained and recovery is reclamation.
//!
//! The adversarial section composes the same fault schedules with a
//! *malicious* kernel that attacks the capability boundary (forged
//! writeback targets, out-of-grant maps, grant-escalation retries,
//! signal registration on bystander pages): every attack is denied and
//! counted, and the bystander's output stays byte-identical.

use proptest::prelude::*;
use vpp::cache_kernel::{
    AppKernel, CkError, Counters, Env, Executive, FaultDisposition, ForkableFn, LockedQuota, ObjId,
    ReservedSlots, SpaceDesc, Step, ThreadCtx, TrapDisposition, Writeback, MAX_CPUS,
};
use vpp::hw::{Fault, FaultPlan, Paddr, Pte, Rights, Vaddr, PAGE_SIZE};
use vpp::libkern::{retry, Backoff};
use vpp::srm::Srm;
use vpp::{boot_cluster, boot_node, BootConfig};

/// Identity pager with a trap log: the workload kernel for both the
/// chaos victim and the bystander whose output must stay fault-free.
struct Pager {
    me: ObjId,
    frame_base: u32,
    log: Vec<u32>,
}

impl AppKernel for Pager {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn on_start(&mut self, _env: &mut Env, id: ObjId) {
        self.me = id;
    }
    fn on_page_fault(&mut self, env: &mut Env, thread: ObjId, fault: Fault) -> FaultDisposition {
        let Ok(t) = env.ck.thread(thread) else {
            return FaultDisposition::Kill;
        };
        let space = t.desc.space;
        let frame = Paddr((self.frame_base + fault.vaddr.vpn().0 % 32) * PAGE_SIZE);
        match env.ck.load_mapping_and_resume(
            self.me,
            space,
            fault.vaddr.page_base(),
            frame,
            Pte::WRITABLE | Pte::CACHEABLE,
            None,
            None,
            env.mpm,
            env.cpu,
        ) {
            Ok(_) => FaultDisposition::Resume,
            // Overload shed: keep the thread and let the executive
            // requeue it — the load is retried on the next dispatch.
            Err(CkError::Again { .. }) => FaultDisposition::Retry,
            Err(_) => FaultDisposition::Kill,
        }
    }
    fn on_trap(&mut self, _env: &mut Env, _t: ObjId, no: u32, args: [u32; 4]) -> TrapDisposition {
        self.log.push(args[0]);
        TrapDisposition::Return(no)
    }
    fn name(&self) -> &str {
        "chaos-pager"
    }
}

fn start_pager(ex: &mut Executive, srm: ObjId, name: &str) -> ObjId {
    let id = ex
        .with_kernel::<Srm, _>(srm, |s, env| {
            s.start_kernel(env, name, 2, [50; MAX_CPUS], 20, LockedQuota::default())
        })
        .unwrap()
        .expect("grant available");
    let frame_base = ex
        .with_kernel::<Srm, _>(srm, |s, _| s.grant_of(id).map(|g| g.frame_first()))
        .unwrap()
        .unwrap();
    ex.register_kernel(
        id,
        Box::new(Pager {
            me: id,
            frame_base,
            log: Vec::new(),
        }),
    );
    id
}

/// A thread that stores, reloads and reports `count` values, spread out
/// with compute steps.
fn reporter(count: u32, salt: u32) -> Box<ForkableFn<impl FnMut(&mut ThreadCtx) -> Step + Clone>> {
    Box::new(ForkableFn({
        let mut stage = 0u32;
        move |ctx: &mut ThreadCtx| {
            let s = stage;
            stage += 1;
            let i = s / 4;
            if i >= count {
                return Step::Exit(0);
            }
            let addr = Vaddr(0x20_0000 + (i % 24) * PAGE_SIZE);
            match s % 4 {
                0 => Step::Store(addr, salt + i * 3),
                1 => Step::Compute(2_000),
                2 => Step::Load(addr),
                _ => Step::Trap {
                    no: 1,
                    args: [ctx.loaded, 0, 0, 0],
                },
            }
        }
    }))
}

struct RunResult {
    stats: Counters,
    live: [(usize, usize); 4],
    survivor_log: Vec<u32>,
    fault_total: u64,
}

fn chaos_run(seed: Option<u64>, overload: bool) -> RunResult {
    // A small physmap keeps mappings churning, so writeback-triggered
    // kills in the plan have a steady stream of victim-owned writeback
    // deliveries to count.
    //
    // With `overload` the full robustness machinery is armed on top:
    // mapping reservations for both kernels, a bounded writeback queue
    // and the thrash detector. Fault plans then kill the victim in the
    // middle of thrash episodes and with writebacks queued, and
    // recovery must reclaim its reserved slots and queued writebacks
    // (invariant 9 cross-checks the overload ledger after every run).
    let ck_cfg = if overload {
        vpp::cache_kernel::CkConfig {
            // Smaller than either kernel's 24-page working set alone:
            // every pass over the set displaces and promptly reloads,
            // which is exactly the episode the thrash detector tracks.
            mapping_capacity: 16,
            wb_queue_bound: 16,
            thrash_window: 64,
            thrash_threshold: 4,
            thrash_penalty: 32,
            shed_backoff: 500,
            ..vpp::cache_kernel::CkConfig::default()
        }
    } else {
        vpp::cache_kernel::CkConfig {
            mapping_capacity: 24,
            ..vpp::cache_kernel::CkConfig::default()
        }
    };
    let (mut ex, srm) = boot_node(BootConfig {
        ck: ck_cfg,
        ..BootConfig::default()
    });
    ex.with_kernel::<Srm, _>(srm, |s, _| {
        // Far above the worst-case inter-tick gap: under thrashing a
        // single quantum can burn tens of thousands of cycles, and a
        // healthy-but-slow kernel must not be reaped by mistake. Plan
        // kills mark the kernel dead explicitly, so real failures are
        // still detected on the next tick regardless of this value.
        s.heartbeat_timeout = 400_000;
        // No restart factory exists for the victim; don't loop trying.
        s.restart_budget = 0;
    });
    let victim = start_pager(&mut ex, srm, "victim");
    let survivor = start_pager(&mut ex, srm, "survivor");
    if overload {
        let reserved = ReservedSlots {
            mappings: 4,
            ..ReservedSlots::default()
        };
        for k in [victim, survivor] {
            ex.ck.set_kernel_reservation(srm, k, reserved).unwrap();
        }
    }
    // Victim: three busy threads whose demand paging keeps the small
    // physmap churning (displacement writebacks flow to the victim).
    let vsp = ex
        .ck
        .load_space(victim, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    for t in 0..3u32 {
        ex.spawn_thread(victim, vsp, reporter(60, 1000 + t * 100), 14)
            .unwrap();
    }
    // Survivor: one reporting thread; its log is the output to compare.
    let ssp = ex
        .ck
        .load_space(survivor, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    ex.spawn_thread(survivor, ssp, reporter(12, 5), 12).unwrap();

    if let Some(seed) = seed {
        ex.faults = Some(FaultPlan::chaos(seed, &[victim.slot]));
    }
    let target = ex.mpm.clock.cycles() + 1_200_000;
    while ex.mpm.clock.cycles() < target {
        ex.run(5);
    }
    ex.run_until_idle(100);

    ex.ck.check_invariants().unwrap();
    let survivor_log = ex
        .with_kernel::<Pager, _>(survivor, |p, _| p.log.clone())
        .expect("survivor kernel still registered");
    assert!(
        !ex.ck.kernel_failed(survivor),
        "the survivor was never a casualty"
    );
    RunResult {
        stats: ex.ck.stats,
        live: ex.ck.occupancy(),
        survivor_log,
        fault_total: ex.faults.as_ref().map(|p| p.stats.total()).unwrap_or(0),
    }
}

fn check_seed(seed: u64) {
    check_seed_with(seed, false);
}

fn check_seed_with(seed: u64, overload: bool) {
    let r = chaos_run(Some(seed), overload);
    let s = &r.stats;

    // The pipeline drained: every emitted event was delivered.
    assert_eq!(s.events_delivered, s.events_emitted, "seed {seed:#x}");

    // Counter balance. Kernels, spaces and mappings leave the cache only
    // through a counted unload or a counted (displacement or recovery)
    // writeback, so the books balance exactly against live occupancy.
    for (kind, name) in [(0usize, "kernels"), (1, "spaces"), (3, "mappings")] {
        assert_eq!(
            s.loads[kind],
            r.live[kind].0 as u64 + s.unloads[kind] + s.writebacks[kind],
            "{name} balance, seed {seed:#x}"
        );
    }
    // Threads also leave through exit (uncounted in `unloads`), and an
    // exit in flight when the recovery sweep runs is counted by both the
    // exit counter and the sweep. Bound it from both sides.
    let floor = r.live[2].0 as u64 + s.unloads[2] + s.writebacks[2];
    assert!(
        (floor..=floor + s.thread_exits).contains(&s.loads[2]),
        "thread balance, seed {seed:#x}: loads={} floor={} exits={}",
        s.loads[2],
        floor,
        s.thread_exits
    );

    // Every fault the executive counted is one the plan says it fired
    // (kills aimed at an already-empty slot are planned but not counted).
    assert!(
        s.faults_injected <= r.fault_total,
        "seed {seed:#x}: injected {} > planned {}",
        s.faults_injected,
        r.fault_total
    );
    // A killed kernel is recovered exactly once; budget zero means no
    // restarts, so failures and recoveries pair up.
    assert_eq!(s.kernels_failed, s.kernels_recovered, "seed {seed:#x}");

    // Containment: the survivor's output is byte-for-byte the fault-free
    // output (under the same overload knobs — sheds and retries may
    // change timing, never values).
    let baseline = chaos_run(None, overload);
    assert_eq!(baseline.stats.kernels_failed, 0);
    assert_eq!(
        r.survivor_log, baseline.survivor_log,
        "survivor output diverged under chaos, seed {seed:#x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn chaos_is_contained(seed in any::<u64>()) {
        check_seed(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    // Fault schedules compose with the overload machinery: kills land
    // mid-thrash and with bounded writeback queues partially full, and
    // recovery still reclaims everything the victim held.
    #[test]
    fn chaos_composes_with_overload(seed in any::<u64>()) {
        check_seed_with(seed, true);
    }
}

/// Pinned seeds for `scripts/check.sh`: stable names, stable schedules.
#[test]
fn pinned_seed_a() {
    check_seed(0x00c0_ffee_dead_beef);
}

#[test]
fn pinned_seed_b() {
    check_seed(0x9e37_79b9_7f4a_7c15);
}

// ---------------------------------------------------------------------
// Adversarial chaos: a malicious kernel attacks the capability boundary
// while the fault plan kills the victim around it.
// ---------------------------------------------------------------------

/// Malicious application kernel: each trap from its driver thread fires
/// one attack from a rotating schedule — an out-of-grant map, a forged
/// writeback addressed to the bystander, a grant-escalation retry and a
/// signal-page registration on a bystander page. It counts its own
/// denials so the run can balance them against
/// [`Counters::cap_denied`]; with enforcement off it asserts the legacy
/// error shapes instead (the checking paths must be inert).
struct Saboteur {
    me: ObjId,
    /// Its own (legitimately granted) space — the vehicle for the map
    /// and signal attacks.
    space: ObjId,
    /// The kernel whose pages and writeback channel are under attack.
    bystander: ObjId,
    /// A physical page inside the bystander's grant.
    bystander_page: Paddr,
    denied: u64,
    attempts: u64,
    caps_on: bool,
}

impl AppKernel for Saboteur {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn on_page_fault(&mut self, _env: &mut Env, _t: ObjId, _f: Fault) -> FaultDisposition {
        FaultDisposition::Kill
    }
    fn on_trap(
        &mut self,
        env: &mut Env,
        thread: ObjId,
        _no: u32,
        _args: [u32; 4],
    ) -> TrapDisposition {
        let attack = self.attempts % 4;
        self.attempts += 1;
        let me = self.me;
        match attack {
            0 => {
                // Out-of-grant map: write access to the bystander's page.
                let err = env
                    .ck
                    .load_mapping(
                        me,
                        self.space,
                        Vaddr(0x40_0000),
                        self.bystander_page,
                        Pte::WRITABLE | Pte::CACHEABLE,
                        None,
                        None,
                        env.mpm,
                    )
                    .unwrap_err();
                if self.caps_on {
                    assert!(matches!(
                        err,
                        CkError::CapDenied {
                            retryable: false,
                            ..
                        }
                    ));
                } else {
                    assert_eq!(err, CkError::NoAccess(self.bystander_page));
                }
                self.denied += 1;
            }
            1 => {
                // Forged writeback: displaced state addressed into the
                // bystander's writeback channel. Only fired with caps on
                // — with them off this boundary is trusted (the exact
                // hole the capability layer closes) and the forgery
                // would be queued.
                if self.caps_on {
                    let err = env
                        .ck
                        .submit_writeback(
                            me,
                            Writeback::Mapping {
                                owner: self.bystander,
                                space: self.bystander,
                                vaddr: Vaddr(0x1000),
                                paddr: self.bystander_page,
                                flags: 0,
                            },
                        )
                        .unwrap_err();
                    assert!(matches!(
                        err,
                        CkError::CapDenied {
                            retryable: false,
                            ..
                        }
                    ));
                    self.denied += 1;
                }
            }
            2 => {
                // Grant escalation, driven through the library retry
                // helper: the denial is fatal (not retryable), so the
                // helper must give up after exactly one attempt.
                let mut calls = 0u32;
                let r = retry(
                    Backoff {
                        max_attempts: 3,
                        cap: 100,
                        ..Backoff::default()
                    },
                    |_w| {
                        calls += 1;
                        env.ck
                            .modify_kernel_grant(me, me, 0, 1, Rights::ReadWrite, env.mpm)
                    },
                );
                assert_eq!(calls, 1, "escalation denial must not be retried");
                if self.caps_on {
                    assert!(matches!(
                        r,
                        Err(CkError::CapDenied {
                            retryable: false,
                            ..
                        })
                    ));
                } else {
                    assert_eq!(r, Err(CkError::FirstKernelOnly));
                }
                self.denied += 1;
            }
            _ => {
                // Signal-page registration on a bystander page: aiming a
                // message-delivery surface at memory outside the grant.
                let err = env
                    .ck
                    .load_mapping(
                        me,
                        self.space,
                        Vaddr(0x41_0000),
                        self.bystander_page,
                        Pte::CACHEABLE,
                        Some(thread),
                        None,
                        env.mpm,
                    )
                    .unwrap_err();
                if self.caps_on {
                    assert!(matches!(err, CkError::CapDenied { .. }));
                } else {
                    assert_eq!(err, CkError::NoAccess(self.bystander_page));
                }
                self.denied += 1;
            }
        }
        TrapDisposition::Return(0)
    }
    fn name(&self) -> &str {
        "saboteur"
    }
}

/// A thread that traps `count` times with compute gaps: the saboteur's
/// attack driver (it never touches memory itself).
fn trapper(count: u32) -> Box<ForkableFn<impl FnMut(&mut ThreadCtx) -> Step + Clone>> {
    Box::new(ForkableFn({
        let mut stage = 0u32;
        move |_ctx: &mut ThreadCtx| {
            let s = stage;
            stage += 1;
            if s >= 2 * count {
                return Step::Exit(0);
            }
            if s.is_multiple_of(2) {
                Step::Trap {
                    no: 9,
                    args: [s, 0, 0, 0],
                }
            } else {
                Step::Compute(1_500)
            }
        }
    }))
}

struct AdvResult {
    stats: Counters,
    survivor_log: Vec<u32>,
    denied: u64,
}

/// The chaos workload plus a saboteur: the same victim/survivor pagers
/// and fault plan as [`chaos_run`], with a third, malicious kernel
/// attacking the capability boundary throughout.
fn adversarial_run(seed: Option<u64>, caps_on: bool) -> AdvResult {
    let (mut ex, srm) = boot_node(BootConfig {
        ck: vpp::cache_kernel::CkConfig {
            mapping_capacity: 24,
            caps_enforce: caps_on,
            ..vpp::cache_kernel::CkConfig::default()
        },
        ..BootConfig::default()
    });
    ex.with_kernel::<Srm, _>(srm, |s, _| {
        s.heartbeat_timeout = 400_000;
        s.restart_budget = 0;
    });
    let victim = start_pager(&mut ex, srm, "victim");
    let survivor = start_pager(&mut ex, srm, "survivor");
    let sab = ex
        .with_kernel::<Srm, _>(srm, |s, env| {
            s.start_kernel(
                env,
                "saboteur",
                2,
                [50; MAX_CPUS],
                20,
                LockedQuota::default(),
            )
        })
        .unwrap()
        .expect("grant available");
    let bystander_frame = ex
        .with_kernel::<Srm, _>(srm, |s, _| s.grant_of(survivor).map(|g| g.frame_first()))
        .unwrap()
        .unwrap();
    ex.register_kernel(
        sab,
        Box::new(Saboteur {
            me: sab,
            space: sab, // placeholder until the space is loaded below
            bystander: survivor,
            bystander_page: Paddr(bystander_frame * PAGE_SIZE),
            denied: 0,
            attempts: 0,
            caps_on,
        }),
    );

    let vsp = ex
        .ck
        .load_space(victim, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    for t in 0..3u32 {
        ex.spawn_thread(victim, vsp, reporter(60, 1000 + t * 100), 14)
            .unwrap();
    }
    let ssp = ex
        .ck
        .load_space(survivor, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    ex.spawn_thread(survivor, ssp, reporter(12, 5), 12).unwrap();
    let sabsp = ex
        .ck
        .load_space(sab, SpaceDesc::default(), &mut ex.mpm)
        .unwrap();
    ex.with_kernel::<Saboteur, _>(sab, |s, _| s.space = sabsp);
    ex.spawn_thread(sab, sabsp, trapper(40), 10).unwrap();

    if let Some(seed) = seed {
        ex.faults = Some(FaultPlan::chaos(seed, &[victim.slot]));
    }
    let target = ex.mpm.clock.cycles() + 1_200_000;
    while ex.mpm.clock.cycles() < target {
        ex.run(5);
    }
    ex.run_until_idle(100);

    ex.ck.check_invariants().unwrap();
    // No-cross-kernel visibility: with caps on, nothing the rTLB can
    // resolve reaches a frame outside the resolving kernel's grant.
    ex.ck.check_visibility(&ex.mpm).unwrap();
    let survivor_log = ex
        .with_kernel::<Pager, _>(survivor, |p, _| p.log.clone())
        .expect("survivor kernel still registered");
    let denied = ex.with_kernel::<Saboteur, _>(sab, |s, _| s.denied).unwrap();
    assert!(
        !ex.ck.kernel_failed(survivor),
        "the bystander was never a casualty"
    );
    AdvResult {
        stats: ex.ck.stats,
        survivor_log,
        denied,
    }
}

fn check_adversarial(seed: u64) {
    let r = adversarial_run(Some(seed), true);
    // The saboteur got traction (its driver thread ran attacks) and
    // every one of its denials is balanced in the counter — and nothing
    // else in the run tripped a capability check.
    assert!(r.denied > 0, "seed {seed:#x}: the saboteur never attacked");
    assert_eq!(
        r.denied, r.stats.cap_denied,
        "seed {seed:#x}: saboteur denials must balance the cap_denied counter"
    );
    // Containment: the bystander's output is byte-identical to the
    // fault-free, saboteur-free baseline while violations fire.
    let baseline = chaos_run(None, false);
    assert_eq!(
        r.survivor_log, baseline.survivor_log,
        "seed {seed:#x}: bystander output diverged under adversarial chaos"
    );
}

/// Pinned adversarial seeds for `scripts/check.sh`.
#[test]
fn pinned_seed_adversarial_a() {
    check_adversarial(0x00c0_ffee_dead_beef);
}

#[test]
fn pinned_seed_adversarial_b() {
    check_adversarial(0x9e37_79b9_7f4a_7c15);
}

/// The same adversarial schedule with enforcement off is the defaults
/// pin: the attacks bounce off the legacy error shapes (asserted inside
/// the saboteur), no violation is counted, and the bystander's output
/// is still the baseline — the new paths are provably inert.
#[test]
fn adversarial_caps_off_is_inert() {
    let r = adversarial_run(Some(0x00c0_ffee_dead_beef), false);
    assert!(r.denied > 0, "the saboteur never attacked");
    assert_eq!(r.stats.cap_denied, 0, "no counter moves with caps off");
    let baseline = chaos_run(None, false);
    assert_eq!(r.survivor_log, baseline.survivor_log);
}

/// Gray-failure composition (ISSUE 10 satellite): the adversarial
/// schedule runs on node 0 of a two-node cluster while a pure-delay
/// schedule stretches every frame touching node 1 — SRM membership ads
/// limp across the fabric in both directions throughout the attack.
/// Containment must not care: every saboteur attack is denied and
/// balanced in the counter, the bystander's output is byte-identical
/// to the fault-free single-node baseline, and the delays mint zero
/// membership epochs — slow is not dead, even under adversarial load.
#[test]
fn adversarial_chaos_composes_with_delay_schedules() {
    let seed = 0x00c0_ffee_dead_beef_u64;
    let run = || {
        let (mut cluster, srms) = boot_cluster(
            2,
            BootConfig {
                ck: vpp::cache_kernel::CkConfig {
                    mapping_capacity: 24,
                    caps_enforce: true,
                    ..vpp::cache_kernel::CkConfig::default()
                },
                clock_interval: 5_000,
                ..BootConfig::default()
            },
        );
        // Node 0 carries the whole adversarial workload, same shape as
        // `adversarial_run`; node 1 only gossips membership.
        let ex = &mut cluster.nodes[0];
        let srm = srms[0];
        ex.with_kernel::<Srm, _>(srm, |s, _| {
            s.heartbeat_timeout = 400_000;
            s.restart_budget = 0;
        });
        let victim = start_pager(ex, srm, "victim");
        let survivor = start_pager(ex, srm, "survivor");
        let sab = ex
            .with_kernel::<Srm, _>(srm, |s, env| {
                s.start_kernel(
                    env,
                    "saboteur",
                    2,
                    [50; MAX_CPUS],
                    20,
                    LockedQuota::default(),
                )
            })
            .unwrap()
            .expect("grant available");
        let bystander_frame = ex
            .with_kernel::<Srm, _>(srm, |s, _| s.grant_of(survivor).map(|g| g.frame_first()))
            .unwrap()
            .unwrap();
        ex.register_kernel(
            sab,
            Box::new(Saboteur {
                me: sab,
                space: sab,
                bystander: survivor,
                bystander_page: Paddr(bystander_frame * PAGE_SIZE),
                denied: 0,
                attempts: 0,
                caps_on: true,
            }),
        );
        let vsp = ex
            .ck
            .load_space(victim, SpaceDesc::default(), &mut ex.mpm)
            .unwrap();
        for t in 0..3u32 {
            ex.spawn_thread(victim, vsp, reporter(60, 1000 + t * 100), 14)
                .unwrap();
        }
        let ssp = ex
            .ck
            .load_space(survivor, SpaceDesc::default(), &mut ex.mpm)
            .unwrap();
        ex.spawn_thread(survivor, ssp, reporter(12, 5), 12).unwrap();
        let sabsp = ex
            .ck
            .load_space(sab, SpaceDesc::default(), &mut ex.mpm)
            .unwrap();
        ex.with_kernel::<Saboteur, _>(sab, |s, _| s.space = sabsp);
        ex.spawn_thread(sab, sabsp, trapper(40), 10).unwrap();
        let victim_slot = victim.slot;
        cluster.nodes[0].faults = Some(FaultPlan::chaos(seed, &[victim_slot]));
        // The delay schedule: node 1 ramps to a 20x limp with bounded
        // jitter — every membership ad either way is late. The ramp
        // keeps each onset's delivery-gap spike under the dead
        // threshold (a constant delay shifts the whole ad stream, so
        // only the *change* in delay widens a gap).
        cluster.net_faults = Some(
            FaultPlan::new(seed)
                .delay_jitter(100_000, 400)
                .slow_node(100_000, 1, 8_000)
                .slow_node(160_000, 1, 14_000)
                .slow_node(220_000, 1, 20_000),
        );

        while cluster
            .nodes
            .iter()
            .map(|n| n.mpm.clock.cycles())
            .min()
            .unwrap()
            < 1_200_000
        {
            cluster.step(5);
        }

        let frames_delayed = cluster.fabric.frames_delayed();
        let ex = &mut cluster.nodes[0];
        ex.ck.check_invariants().unwrap();
        ex.ck.check_visibility(&ex.mpm).unwrap();
        let survivor_log = ex
            .with_kernel::<Pager, _>(survivor, |p, _| p.log.clone())
            .expect("survivor kernel still registered");
        let denied = ex.with_kernel::<Saboteur, _>(sab, |s, _| s.denied).unwrap();
        assert!(!ex.ck.kernel_failed(survivor), "bystander was a casualty");
        let mut nodes_down = 0;
        let mut epochs = 0;
        let mut slow = 0;
        for n in &cluster.nodes {
            nodes_down += n.ck.stats.nodes_down;
            epochs += n.ck.stats.epoch_changes;
            slow += n.ck.stats.nodes_suspected_slow;
        }
        (
            cluster.nodes[0].ck.stats,
            survivor_log,
            denied,
            frames_delayed,
            nodes_down,
            epochs,
            slow,
        )
    };

    let (stats, survivor_log, denied, frames_delayed, nodes_down, epochs, _slow) = run();
    assert!(denied > 0, "the saboteur never attacked");
    assert_eq!(
        denied, stats.cap_denied,
        "saboteur denials must balance the cap_denied counter"
    );
    assert!(frames_delayed > 0, "the delay schedule never engaged");
    // The chaos plan *drops* some of node 0's outgoing ads (frame
    // fates), so suspicion may legitimately fire on real loss — but a
    // two-node split can never hold a quorum, so no epoch is minted,
    // delayed ads or not.
    let _ = nodes_down;
    assert_eq!(epochs, 0, "a minority suspicion must never mint an epoch");
    let baseline = chaos_run(None, false);
    assert_eq!(
        baseline.survivor_log, survivor_log,
        "bystander output diverged under adversarial chaos plus delays"
    );

    // Determinism of the whole composition.
    let (stats2, survivor_log2, denied2, frames_delayed2, ..) = run();
    assert_eq!(stats, stats2, "composition replay diverged");
    assert_eq!(survivor_log, survivor_log2);
    assert_eq!(denied, denied2);
    assert_eq!(frames_delayed, frames_delayed2);
}

/// The pinned overload seed must genuinely compose the two mechanisms:
/// the thrash detector fires on the churning working sets *and* the
/// plan's kill lands, so recovery reclaims a kernel that was mid-thrash
/// with reservations held (containment is checked by `check_seed_with`,
/// the ledger cleanup by invariant 9 inside it).
#[test]
fn pinned_seed_overload() {
    check_seed_with(0x00c0_ffee_dead_beef, true);
    let r = chaos_run(Some(0x00c0_ffee_dead_beef), true);
    assert!(r.stats.thrash_detected > 0, "no thrash episode detected");
    assert_eq!(r.stats.kernels_failed, 1, "the victim was never killed");
    assert_eq!(r.stats.kernels_recovered, 1);
}
