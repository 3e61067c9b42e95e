//! Capped-backoff retry for overload-shed Cache Kernel calls.
//!
//! Overload protection (reserved slots, writeback backpressure, the
//! share watermark) sheds loads with the retryable
//! [`CkError::Again`], carrying a suggested wait. A well-behaved
//! application kernel backs off for at least that long — charging the
//! wait to the simulated clock so backoff has a real cost — and
//! re-issues the call a bounded number of times before surfacing the
//! failure to its own caller.
//!
//! Two storm-control layers sit on top of the bare schedule:
//!
//! * **Seeded jitter** ([`Backoff::jitter_permille`] +
//!   [`Backoff::wait_for_seeded`]): kernels shed by the same overload
//!   event would otherwise re-arrive in phase and be shed again as a
//!   block. Jitter spreads each wait downward by a deterministic,
//!   seed-derived fraction, so replays stay byte-identical per seed
//!   while distinct kernels decorrelate. With jitter off the schedule
//!   is bit-identical to the unjittered one.
//! * **Retry budgets** ([`RetryBudget`] + [`retry_budgeted`]): a token
//!   bucket charged per re-issue. When a shed storm drains the bucket,
//!   further retries degrade to a counted drop-and-report instead of
//!   amplifying the storm with unbounded re-drive.

use cache_kernel::{CkError, CkResult};

/// Retry policy: how many attempts, and a cap on the per-attempt wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// Total attempts (including the first); at least 1.
    pub max_attempts: u32,
    /// Upper bound on a single wait, in simulated cycles.
    pub cap: u32,
    /// Downward jitter spread, in permille of the computed wait
    /// (0 = off: [`wait_for_seeded`] is then bit-identical to
    /// [`wait_for`]; 1000 = a wait may shrink to 1 cycle). Only the
    /// seeded paths apply it — the plain [`retry`] loop never jitters.
    ///
    /// [`wait_for`]: Backoff::wait_for
    /// [`wait_for_seeded`]: Backoff::wait_for_seeded
    pub jitter_permille: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            max_attempts: 8,
            cap: 65_536,
            jitter_permille: 0,
        }
    }
}

impl Backoff {
    /// The wait before attempt `attempt + 1`, given the kernel's
    /// `suggested` backoff from the shed: the suggestion doubled per
    /// elapsed attempt, capped.
    pub fn wait_for(&self, attempt: u32, suggested: u32) -> u32 {
        let base = suggested.max(1);
        let grown = base.checked_shl(attempt.min(16)).unwrap_or(self.cap);
        grown.min(self.cap)
    }

    /// Like [`wait_for`], jittered downward by up to
    /// `jitter_permille`‰ of the wait, deterministically from `stream`
    /// (a splitmix64 state the caller seeds once per retry sequence).
    /// Jitter only shortens waits — the schedule never exceeds the
    /// unjittered one — and never below 1 cycle. With
    /// `jitter_permille == 0` the stream is not consumed and the
    /// result is bit-identical to [`wait_for`].
    ///
    /// [`wait_for`]: Backoff::wait_for
    pub fn wait_for_seeded(&self, attempt: u32, suggested: u32, stream: &mut u64) -> u32 {
        let wait = self.wait_for(attempt, suggested);
        if self.jitter_permille == 0 {
            return wait;
        }
        let spread = (wait as u64 * self.jitter_permille.min(1000) as u64) / 1000;
        if spread == 0 {
            return wait;
        }
        let cut = hw::splitmix64(stream) % (spread + 1);
        (wait as u64 - cut).max(1) as u32
    }
}

/// Absolute per-request deadline on the simulated clock.
///
/// Expiry is *retryable* in the same sense as [`CkError::Again`]: an
/// expired request may be re-admitted with a fresh deadline if the
/// owner's [`RetryBudget`] still has tokens; once the budget is
/// drained the expiry degrades to a counted drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    /// The cycle at (or after) which the request is expired.
    pub at: u64,
}

impl Deadline {
    /// No deadline — never expires.
    pub const NONE: Deadline = Deadline { at: u64::MAX };

    /// A deadline `budget` cycles from `now` (saturating).
    pub fn after(now: u64, budget: u64) -> Self {
        Deadline {
            at: now.saturating_add(budget),
        }
    }

    /// Whether the deadline has passed at `now`.
    pub fn expired(&self, now: u64) -> bool {
        now >= self.at
    }

    /// Cycles left before expiry (0 if already expired).
    pub fn remaining(&self, now: u64) -> u64 {
        self.at.saturating_sub(now)
    }
}

/// Per-kernel retry budget: a token bucket over [`Backoff`].
///
/// Every *re*-issue (attempt after the first) costs one token; tokens
/// refill at `refill_per_mcycle` per million simulated cycles up to
/// `capacity`. A drained bucket denies the retry — the caller drops
/// the request and counts it ([`denied`]) instead of re-driving, so a
/// shed storm cannot amplify into a synchronized retry storm.
/// `capacity == 0` disables budgeting (every spend granted), which is
/// the [`Default`] — existing retry paths are unaffected unless a
/// budget is explicitly armed.
///
/// Accounting is exact integer arithmetic (micro-tokens), so replay is
/// byte-identical per seed.
///
/// [`denied`]: RetryBudget::denied
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryBudget {
    /// Bucket size in tokens; 0 = budgeting off (unlimited).
    pub capacity: u32,
    /// Refill rate, tokens per million simulated cycles.
    pub refill_per_mcycle: u32,
    /// Retries granted (tokens spent, or free grants while disabled).
    pub spent: u64,
    /// Retries denied by a drained bucket — each is a dropped request
    /// the owner must count and report.
    pub denied: u64,
    /// Remaining credit in micro-tokens (1 token = 1_000_000).
    credit: u64,
    /// Clock position of the last refill.
    last_now: u64,
}

const MICRO: u64 = 1_000_000;

impl RetryBudget {
    /// An armed bucket, starting full.
    pub fn new(capacity: u32, refill_per_mcycle: u32) -> Self {
        RetryBudget {
            capacity,
            refill_per_mcycle,
            credit: capacity as u64 * MICRO,
            ..RetryBudget::default()
        }
    }

    /// Whether budgeting is armed (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u32 {
        (self.credit / MICRO) as u32
    }

    /// Refill up to `now` on the simulated clock. Time never runs
    /// backward here: an earlier `now` (e.g. another CPU's skewed
    /// clock) is ignored rather than minting negative elapsed time.
    pub fn advance(&mut self, now: u64) {
        if now <= self.last_now {
            return;
        }
        let elapsed = now - self.last_now;
        self.last_now = now;
        if !self.enabled() {
            return;
        }
        // One token = MICRO micro-tokens; at `refill_per_mcycle` tokens
        // per MICRO cycles, micro-tokens accrue as elapsed × rate.
        let gained = elapsed.saturating_mul(self.refill_per_mcycle as u64);
        self.credit = self
            .credit
            .saturating_add(gained)
            .min(self.capacity as u64 * MICRO);
    }

    /// Try to pay for one retry at `now`: refill, then spend a token.
    /// Returns `false` (and counts the denial) when the bucket is
    /// drained; the caller must drop the request, not re-drive it.
    pub fn try_spend(&mut self, now: u64) -> bool {
        self.advance(now);
        if !self.enabled() {
            self.spent += 1;
            return true;
        }
        if self.credit >= MICRO {
            self.credit -= MICRO;
            self.spent += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }
}

/// Drive `op` until it stops returning a retryable error or the policy
/// runs out of attempts. The closure receives the wait (in simulated
/// cycles) to charge to its clock *before* re-issuing the call — `0` on
/// the first attempt — so backed-off retries cost simulated time
/// instead of spinning for free.
///
/// Two errors are retryable: [`CkError::Again`] (overload shed, with a
/// suggested wait) and [`CkError::CapDenied`] with `retryable: true`
/// (partial rights on the page group — the grant may be renegotiated
/// with the SRM between attempts, e.g. during a restart's grant
/// re-extension). A non-retryable `CapDenied` passes through at once:
/// the target is wholly outside the grant and no amount of waiting
/// fixes a forged request.
///
/// Returns the operation's result, or the final retryable error if
/// every attempt failed.
pub fn retry<T>(policy: Backoff, mut op: impl FnMut(u32) -> CkResult<T>) -> CkResult<T> {
    let mut wait = 0u32;
    let mut last = CkError::Again { backoff: 0 };
    for attempt in 0..policy.max_attempts.max(1) {
        match op(wait) {
            Err(CkError::Again { backoff }) => {
                last = CkError::Again { backoff };
                wait = policy.wait_for(attempt, backoff);
            }
            Err(CkError::CapDenied {
                paddr,
                retryable: true,
            }) => {
                last = CkError::CapDenied {
                    paddr,
                    retryable: true,
                };
                wait = policy.wait_for(attempt, 0);
            }
            other => return other,
        }
    }
    Err(last)
}

/// [`retry`] with per-sequence seeded jitter and a per-kernel
/// [`RetryBudget`]. Semantics beyond the base loop:
///
/// * Waits come from [`Backoff::wait_for_seeded`] with a splitmix64
///   stream seeded from `seed` — with `jitter_permille == 0` the
///   schedule is bit-identical to [`retry`]'s.
/// * Each *re*-issue must pay one budget token at the simulated time
///   the retry would run (`now` plus waits charged so far). A denied
///   spend aborts the sequence immediately with the last retryable
///   error — the caller counts the drop (the budget tracks it in
///   [`RetryBudget::denied`]) instead of re-driving into the storm.
///
/// The closure contract is unchanged: it receives the wait to charge
/// to its clock before re-issuing, `0` on the first attempt.
pub fn retry_budgeted<T>(
    policy: Backoff,
    budget: &mut RetryBudget,
    now: u64,
    seed: u64,
    mut op: impl FnMut(u32) -> CkResult<T>,
) -> CkResult<T> {
    let mut stream = seed;
    let mut wait = 0u32;
    let mut elapsed = 0u64;
    let mut last = CkError::Again { backoff: 0 };
    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 && !budget.try_spend(now.saturating_add(elapsed)) {
            return Err(last);
        }
        match op(wait) {
            Err(CkError::Again { backoff }) => {
                last = CkError::Again { backoff };
                wait = policy.wait_for_seeded(attempt, backoff, &mut stream);
            }
            Err(CkError::CapDenied {
                paddr,
                retryable: true,
            }) => {
                last = CkError::CapDenied {
                    paddr,
                    retryable: true,
                };
                wait = policy.wait_for_seeded(attempt, 0, &mut stream);
            }
            other => return other,
        }
        elapsed += wait as u64;
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_waits_nothing() {
        let mut waits = Vec::new();
        let r: CkResult<u32> = retry(Backoff::default(), |w| {
            waits.push(w);
            Ok(7)
        });
        assert_eq!(r, Ok(7));
        assert_eq!(waits, vec![0]);
    }

    #[test]
    fn waits_grow_and_success_passes_through() {
        let mut calls = 0u32;
        let mut waits = Vec::new();
        let r = retry(Backoff::default(), |w| {
            waits.push(w);
            calls += 1;
            if calls < 4 {
                Err(CkError::Again { backoff: 100 })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r, Ok(4));
        // Suggested 100, doubled per elapsed attempt: 0, 100, 200, 400.
        assert_eq!(waits, vec![0, 100, 200, 400]);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut calls = 0u32;
        let r: CkResult<()> = retry(
            Backoff {
                max_attempts: 3,
                cap: 1_000,
                ..Backoff::default()
            },
            |_| {
                calls += 1;
                Err(CkError::Again { backoff: 5_000 })
            },
        );
        assert_eq!(calls, 3);
        assert_eq!(r, Err(CkError::Again { backoff: 5_000 }));
    }

    #[test]
    fn cap_bounds_the_wait() {
        let p = Backoff {
            max_attempts: 20,
            cap: 1_000,
            ..Backoff::default()
        };
        assert_eq!(p.wait_for(0, 600), 600);
        assert_eq!(p.wait_for(1, 600), 1_000);
        assert_eq!(p.wait_for(31, 600), 1_000);
    }

    #[test]
    fn other_errors_pass_through_immediately() {
        let mut calls = 0u32;
        let r: CkResult<()> = retry(Backoff::default(), |_| {
            calls += 1;
            Err(CkError::CacheFull)
        });
        assert_eq!(calls, 1);
        assert_eq!(r, Err(CkError::CacheFull));
    }

    #[test]
    fn retryable_cap_denial_retries_fatal_does_not() {
        use hw::Paddr;
        // Partial rights: retried until the (renegotiated) grant lets
        // the call through.
        let mut calls = 0u32;
        let r = retry(Backoff::default(), |_| {
            calls += 1;
            if calls < 3 {
                Err(CkError::CapDenied {
                    paddr: Paddr(0x4000),
                    retryable: true,
                })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r, Ok(3));
        // Wholly outside the grant: surfaced immediately.
        let mut calls = 0u32;
        let r: CkResult<()> = retry(Backoff::default(), |_| {
            calls += 1;
            Err(CkError::CapDenied {
                paddr: Paddr(0x4000),
                retryable: false,
            })
        });
        assert_eq!(calls, 1);
        assert!(matches!(
            r,
            Err(CkError::CapDenied {
                retryable: false,
                ..
            })
        ));
    }

    #[test]
    fn jitter_off_is_bit_identical_to_plain_schedule() {
        // Pins the satellite guarantee: with jitter_permille == 0 the
        // seeded path reproduces wait_for exactly, stream untouched.
        let p = Backoff::default();
        for attempt in 0..12 {
            for &suggested in &[0u32, 1, 100, 5_000, 70_000] {
                let mut stream = 0xdead_beef;
                assert_eq!(
                    p.wait_for_seeded(attempt, suggested, &mut stream),
                    p.wait_for(attempt, suggested)
                );
                assert_eq!(stream, 0xdead_beef, "stream must not advance");
            }
        }
        // And the budgeted loop with jitter off replays retry()'s pinned
        // schedule: 0, 100, 200, 400.
        let mut budget = RetryBudget::default();
        let mut calls = 0u32;
        let mut waits = Vec::new();
        let r = retry_budgeted(p, &mut budget, 0, 42, |w| {
            waits.push(w);
            calls += 1;
            if calls < 4 {
                Err(CkError::Again { backoff: 100 })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r, Ok(4));
        assert_eq!(waits, vec![0, 100, 200, 400]);
    }

    #[test]
    fn jitter_shortens_deterministically_within_bounds() {
        let p = Backoff {
            jitter_permille: 500,
            ..Backoff::default()
        };
        let run = |seed: u64| {
            let mut stream = seed;
            (0..8)
                .map(|a| p.wait_for_seeded(a, 1_000, &mut stream))
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same schedule");
        assert_ne!(a, run(8), "different seeds decorrelate");
        for (attempt, &w) in a.iter().enumerate() {
            let full = p.wait_for(attempt as u32, 1_000);
            assert!(w >= 1 && w <= full, "wait {w} out of [1, {full}]");
            assert!(w as u64 >= full as u64 - full as u64 * 500 / 1000 - 1);
        }
        assert!(
            a.iter()
                .enumerate()
                .any(|(i, &w)| w != p.wait_for(i as u32, 1_000)),
            "spread of 50% over 8 attempts should perturb something"
        );
    }

    #[test]
    fn deadline_arithmetic() {
        let d = Deadline::after(1_000, 500);
        assert!(!d.expired(1_499));
        assert!(d.expired(1_500));
        assert_eq!(d.remaining(1_200), 300);
        assert_eq!(d.remaining(9_999), 0);
        assert!(!Deadline::NONE.expired(u64::MAX - 1));
        assert_eq!(Deadline::after(u64::MAX, 5), Deadline::NONE);
    }

    #[test]
    fn disabled_budget_grants_everything() {
        let mut b = RetryBudget::default();
        assert!(!b.enabled());
        for now in 0..100 {
            assert!(b.try_spend(now));
        }
        assert_eq!(b.spent, 100);
        assert_eq!(b.denied, 0);
    }

    #[test]
    fn budget_drains_then_refills_on_the_simulated_clock() {
        // 2-token bucket refilling 1 token per Mcycle.
        let mut b = RetryBudget::new(2, 1);
        assert!(b.try_spend(0));
        assert!(b.try_spend(0));
        assert!(!b.try_spend(0), "drained");
        assert!(!b.try_spend(999_999), "not yet refilled");
        assert!(b.try_spend(1_000_000), "one token back");
        assert_eq!((b.spent, b.denied), (3, 2));
        // Refill caps at capacity.
        b.advance(100_000_000);
        assert_eq!(b.tokens(), 2);
        // The clock never runs backward.
        b.advance(5);
        assert_eq!(b.tokens(), 2);
    }

    #[test]
    fn budgeted_retry_degrades_to_counted_drop() {
        let mut b = RetryBudget::new(2, 0);
        let mut calls = 0u32;
        let r: CkResult<()> = retry_budgeted(Backoff::default(), &mut b, 0, 1, |_| {
            calls += 1;
            Err(CkError::Again { backoff: 50 })
        });
        // First attempt free, two budgeted re-issues, then the drained
        // bucket aborts the sequence — no re-drive to max_attempts.
        assert_eq!(calls, 3);
        assert_eq!(r, Err(CkError::Again { backoff: 50 }));
        assert_eq!((b.spent, b.denied), (2, 1));
        // Non-retryable errors never touch the bucket.
        let mut b2 = RetryBudget::new(1, 0);
        let r2: CkResult<()> = retry_budgeted(Backoff::default(), &mut b2, 0, 1, |_| {
            Err(CkError::CacheFull)
        });
        assert_eq!(r2, Err(CkError::CacheFull));
        assert_eq!((b2.spent, b2.denied), (0, 0));
    }
}
