//! Epoch-based cluster membership (§3).
//!
//! Each SRM instance runs a copy of this detector. Liveness evidence is
//! the peer load advertisements that already flow every few ticks over
//! the reliable link; a peer silent for [`SUSPICION_TICKS`] delivered
//! ticks is suspected dead (the same delivered-tick discipline the PR 3
//! single-node failure detector uses — a slow node that still answers
//! ticks is never reaped).
//!
//! Transitions are fenced with a monotonically increasing **epoch**:
//!
//! * When the side of a cut that retains a **majority** of the
//!   configured cluster suspects peers, it bumps the epoch once and
//!   declares each suspect down under the new epoch. DSM directories
//!   re-home the dead owners' lines under that epoch; any later reply
//!   stamped with an older epoch is fenced off.
//! * The **minority** side cannot know whether it is the failed part,
//!   so it *degrades*: the peer table freezes, placement falls back to
//!   local, and crucially the epoch is **not** bumped — a stale minority
//!   must never outrank the majority's view.
//! * On heal, each side hears the other's advertisements again. The
//!   majority side bumps the epoch and announces the rejoin; the
//!   minority side adopts the higher epoch it hears (max-epoch-wins)
//!   and re-syncs its DSM directory from the peer it adopted from.
//!
//! The module is pure bookkeeping — no I/O. The owning SRM feeds it
//! `heard(peer, epoch)` from advertisements and `on_tick()` from the
//! clock, and drains [`ClusterEvent`]s to emit through the Cache
//! Kernel's pipeline choke point.

use cache_kernel::ClusterEvent;

/// Per-node membership state machine.
#[derive(Debug, Default)]
pub struct Membership {
    /// This node's index.
    pub node: usize,
    /// Configured cluster size (0 or 1 = standalone; detector inert).
    pub cluster_nodes: usize,
    /// Current membership epoch. Starts at 1 on join; only a majority
    /// side ever bumps it, minority sides adopt higher epochs heard.
    pub epoch: u64,
    /// Whether this node degraded to standalone scheduling (minority
    /// side of a partition): peer table frozen, placement local.
    pub degraded: bool,
    alive: Vec<bool>,
    /// Peers currently in the suspect-slow state.
    slow: Vec<bool>,
    last_heard: Vec<u64>,
    /// Fixed-point (×[`EWMA_SCALE`]) EWMA of each peer's inter-ad gap in
    /// delivered ticks; 0 = no estimate yet.
    gap_ewma: Vec<u64>,
    ticks: u64,
    events: Vec<ClusterEvent>,
}

/// Delivered ticks of silence before a peer is suspected dead.
/// Advertisements go out every 4 ticks; 12 tolerates two lost ads and
/// one retransmission round.
pub const SUSPICION_TICKS: u64 = 12;

/// Delivered ticks of silence before a peer is suspected *slow* — the
/// reversible advisory level below suspect-dead: load steers away, no
/// epoch is minted, and the next advertisement clears it. 8 sits safely
/// above the 4-tick ad cadence so a healthy cluster never trips it.
pub const SLOW_TICKS: u64 = 8;

/// Fixed-point scale of the per-peer gap EWMA.
const EWMA_SCALE: u64 = 8;

impl Membership {
    /// An inert (standalone) membership instance; call [`join`] to arm.
    ///
    /// [`join`]: Membership::join
    pub fn new() -> Self {
        Membership {
            epoch: 1,
            ..Membership::default()
        }
    }

    /// Arm the detector for a cluster of `cluster_nodes`, as node `node`.
    /// All peers start presumed alive, heard "now".
    pub fn join(&mut self, node: usize, cluster_nodes: usize) {
        self.node = node;
        self.cluster_nodes = cluster_nodes;
        self.alive = vec![true; cluster_nodes];
        self.slow = vec![false; cluster_nodes];
        self.last_heard = vec![self.ticks; cluster_nodes];
        self.gap_ewma = vec![0; cluster_nodes];
        self.degraded = false;
    }

    /// Whether the detector is armed (a real cluster, not standalone).
    pub fn active(&self) -> bool {
        self.cluster_nodes > 1
    }

    /// Whether `node` is currently believed alive.
    pub fn alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// Whether `node` is currently suspected slow (alive, but late).
    pub fn slow(&self, node: usize) -> bool {
        self.slow.get(node).copied().unwrap_or(false)
    }

    /// This peer's observed inter-ad gap EWMA in delivered ticks
    /// (rounded down; 0 = no estimate yet).
    pub fn gap_estimate(&self, node: usize) -> u64 {
        self.gap_ewma.get(node).copied().unwrap_or(0) / EWMA_SCALE
    }

    /// Nodes currently believed alive (self included).
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// The lowest-indexed live node — the deterministic re-home target
    /// for a dead owner's DSM lines.
    pub fn lowest_alive(&self) -> usize {
        self.alive.iter().position(|a| *a).unwrap_or(self.node)
    }

    /// Whether this node's live set is a strict majority of the
    /// configured cluster.
    pub fn majority(&self) -> bool {
        self.alive_count() * 2 > self.cluster_nodes
    }

    /// Drain the transitions recorded since the last drain, in order.
    pub fn take_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.events)
    }

    /// Record a peer advertisement carrying the peer's epoch.
    ///
    /// A higher epoch is adopted immediately (max-epoch-wins): the peer
    /// was on a majority side that moved on while we were cut off. A
    /// previously-dead peer turning up again is a rejoin — the majority
    /// side bumps the epoch for it (fencing out anything the returnee
    /// still believes), while a degraded side only marks it alive and
    /// waits to adopt the majority's epoch.
    pub fn heard(&mut self, peer: usize, peer_epoch: u64) {
        if !self.active() || peer >= self.cluster_nodes || peer == self.node {
            return;
        }
        // Sample the inter-ad gap while the peer is believed alive (a
        // rejoin gap says nothing about its serving cadence) — this is
        // the RTT-EWMA the adaptive suspicion thresholds scale from.
        let gap = self.ticks.saturating_sub(self.last_heard[peer]);
        if self.alive[peer] && gap > 0 {
            let e = &mut self.gap_ewma[peer];
            *e = if *e == 0 {
                gap * EWMA_SCALE
            } else {
                (*e * 7 + gap * EWMA_SCALE) / 8
            };
        }
        self.last_heard[peer] = self.ticks;
        if self.slow[peer] {
            // The straggler answered: clear suspect-slow on the spot so
            // consumers reintegrate it. No epoch was ever minted for it.
            self.slow[peer] = false;
            self.events.push(ClusterEvent::NodeSlow {
                node: peer,
                slow: false,
            });
        }
        if peer_epoch > self.epoch {
            self.epoch = peer_epoch;
            self.events.push(ClusterEvent::EpochChanged {
                epoch: self.epoch,
                adopted_from: Some(peer),
            });
        }
        if !self.alive[peer] {
            self.alive[peer] = true;
            if !self.degraded && peer_epoch < self.epoch {
                // Majority side hearing a *stale* returnee: fence its
                // state behind a fresh epoch before anyone trusts its
                // replies. A returnee already at our epoch (or the one
                // we just adopted from) carries nothing stale to fence.
                self.epoch += 1;
                self.events.push(ClusterEvent::EpochChanged {
                    epoch: self.epoch,
                    adopted_from: None,
                });
            }
            self.events.push(ClusterEvent::NodeRejoined {
                node: peer,
                epoch: self.epoch,
            });
        }
        // Hearing peers again may restore quorum for a degraded node.
        if self.degraded && self.majority() {
            self.degraded = false;
        }
    }

    /// One delivered clock tick: advance time, suspect silent peers.
    /// Majority sides bump the epoch (once per batch of suspicions) and
    /// declare the suspects down under it; minority sides degrade
    /// without touching the epoch.
    pub fn on_tick(&mut self) {
        if !self.active() {
            return;
        }
        self.ticks += 1;
        let mut suspects = Vec::new();
        for peer in 0..self.cluster_nodes {
            if peer == self.node || !self.alive[peer] {
                continue;
            }
            let silence = self.ticks.saturating_sub(self.last_heard[peer]);
            // Both thresholds scale with the peer's observed inter-ad gap
            // EWMA, floored at the constants: a healthy peer (gap ≈ ad
            // cadence) keeps the legacy dead budget exactly, while a peer
            // *observed* slow earns headroom before either level fires.
            let gap = self.gap_ewma[peer] / EWMA_SCALE;
            let slow_at = SLOW_TICKS.max(2 * gap);
            let dead_at = SUSPICION_TICKS.max(3 * gap);
            if silence > dead_at {
                suspects.push(peer);
            } else if silence > slow_at && !self.slow[peer] {
                // Level one: answering-but-late. Advisory only — load
                // steers away, nothing is re-homed, no epoch is minted,
                // and the next advertisement clears it.
                self.slow[peer] = true;
                self.events.push(ClusterEvent::NodeSlow {
                    node: peer,
                    slow: true,
                });
            }
        }
        if suspects.is_empty() {
            return;
        }
        for &peer in &suspects {
            self.alive[peer] = false;
            // Dead supersedes slow; the NodeDown below carries the news.
            self.slow[peer] = false;
        }
        if self.majority() {
            self.epoch += 1;
            self.events.push(ClusterEvent::EpochChanged {
                epoch: self.epoch,
                adopted_from: None,
            });
            for &peer in &suspects {
                self.events.push(ClusterEvent::NodeDown {
                    node: peer,
                    epoch: self.epoch,
                    quorum: true,
                });
            }
        } else {
            // Minority: we might be the failed part. Degrade to local
            // scheduling and record the losses under the *old* epoch —
            // a stale side must never mint epochs the majority could
            // mistake for progress.
            self.degraded = true;
            for &peer in &suspects {
                self.events.push(ClusterEvent::NodeDown {
                    node: peer,
                    epoch: self.epoch,
                    quorum: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(m: &mut Membership, n: u64) {
        for _ in 0..n {
            m.on_tick();
        }
    }

    #[test]
    fn standalone_detector_is_inert() {
        let mut m = Membership::new();
        ticks(&mut m, 100);
        assert!(m.take_events().is_empty());
        assert_eq!(m.epoch, 1);
    }

    #[test]
    fn majority_side_bumps_epoch_and_declares_suspects() {
        let mut m = Membership::new();
        m.join(0, 3);
        m.heard(1, 1);
        m.heard(2, 1);
        // Peer 2 goes silent; peer 1 keeps advertising.
        for _ in 0..20 {
            m.on_tick();
            m.heard(1, 1);
        }
        assert!(!m.alive(2));
        assert!(m.alive(1));
        assert!(m.majority());
        assert!(!m.degraded);
        assert_eq!(m.epoch, 2);
        let evs = m.take_events();
        assert_eq!(
            evs,
            vec![
                // Level one fired first: the silent peer crossed the
                // suspect-slow line before the dead line.
                ClusterEvent::NodeSlow {
                    node: 2,
                    slow: true
                },
                ClusterEvent::EpochChanged {
                    epoch: 2,
                    adopted_from: None
                },
                ClusterEvent::NodeDown {
                    node: 2,
                    epoch: 2,
                    quorum: true
                },
            ]
        );
        assert_eq!(m.lowest_alive(), 0);
    }

    #[test]
    fn minority_side_degrades_without_minting_epochs() {
        let mut m = Membership::new();
        m.join(2, 3); // cut off alone: both peers go silent
        ticks(&mut m, 20);
        assert!(m.degraded);
        assert_eq!(m.epoch, 1, "minority never bumps");
        let evs = m.take_events();
        let downs: Vec<_> = evs
            .iter()
            .filter(|e| matches!(e, ClusterEvent::NodeDown { .. }))
            .collect();
        assert_eq!(downs.len(), 2);
        assert!(downs.iter().all(|e| matches!(
            e,
            ClusterEvent::NodeDown {
                epoch: 1,
                quorum: false,
                ..
            }
        )));
        // Both peers passed through suspect-slow on the way down.
        let slows = evs
            .iter()
            .filter(|e| matches!(e, ClusterEvent::NodeSlow { slow: true, .. }))
            .count();
        assert_eq!(slows, 2);
    }

    #[test]
    fn heal_rejoins_and_minority_adopts_majority_epoch() {
        // Majority side (node 0 of 3) lost node 2, epoch now 2.
        let mut maj = Membership::new();
        maj.join(0, 3);
        for _ in 0..20 {
            maj.on_tick();
            maj.heard(1, 1);
        }
        assert_eq!(maj.epoch, 2);
        maj.take_events();
        // Minority side (node 2) degraded on epoch 1.
        let mut min = Membership::new();
        min.join(2, 3);
        ticks(&mut min, 20);
        assert!(min.degraded);
        min.take_events();

        // Heal: majority hears the returnee → bump to 3 + rejoin event.
        maj.heard(2, min.epoch);
        assert_eq!(maj.epoch, 3);
        assert_eq!(
            maj.take_events(),
            vec![
                ClusterEvent::EpochChanged {
                    epoch: 3,
                    adopted_from: None
                },
                ClusterEvent::NodeRejoined { node: 2, epoch: 3 },
            ]
        );
        // Minority hears the majority's epoch 3 ad → adopts, rejoins
        // both peers, quorum restored, degradation lifts.
        min.heard(0, maj.epoch);
        min.heard(1, maj.epoch);
        assert_eq!(min.epoch, 3);
        assert!(!min.degraded);
        let evs = min.take_events();
        assert_eq!(
            evs[0],
            ClusterEvent::EpochChanged {
                epoch: 3,
                adopted_from: Some(0)
            }
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, ClusterEvent::NodeRejoined { node: 0, .. })));
        // No fresh epoch was minted by the (formerly) degraded side for
        // the rejoins it observed.
        assert!(!evs.iter().any(|e| matches!(
            e,
            ClusterEvent::EpochChanged {
                adopted_from: None,
                ..
            }
        )));
    }

    #[test]
    fn two_node_cut_degrades_both_sides() {
        // With n=2 neither half of a cut holds a strict majority: both
        // degrade, neither mints an epoch, and the heal resolves by
        // rejoin without fencing (there is no majority directory to
        // protect).
        let mut a = Membership::new();
        a.join(0, 2);
        let mut b = Membership::new();
        b.join(1, 2);
        ticks(&mut a, 20);
        ticks(&mut b, 20);
        assert!(a.degraded && b.degraded);
        assert_eq!((a.epoch, b.epoch), (1, 1));
        a.take_events();
        b.take_events();
        a.heard(1, 1);
        b.heard(0, 1);
        assert!(!a.degraded && !b.degraded);
        assert!(a
            .take_events()
            .iter()
            .any(|e| matches!(e, ClusterEvent::NodeRejoined { node: 1, .. })));
    }

    #[test]
    fn slow_fires_then_clears_without_minting_an_epoch() {
        let mut m = Membership::new();
        m.join(0, 3);
        // Peer 1 keeps advertising; peer 2 goes quiet for 9 ticks —
        // past the slow line (8), short of the dead line (12).
        for _ in 0..9 {
            m.on_tick();
            m.heard(1, 1);
        }
        assert!(m.alive(2) && m.slow(2));
        assert_eq!(m.epoch, 1, "suspect-slow never mints");
        assert_eq!(
            m.take_events(),
            vec![ClusterEvent::NodeSlow {
                node: 2,
                slow: true
            }]
        );
        // The straggler answers: the state clears on the spot, still
        // with no epoch traffic and no rejoin (it was never dead).
        m.heard(2, 1);
        assert!(!m.slow(2));
        assert_eq!(
            m.take_events(),
            vec![ClusterEvent::NodeSlow {
                node: 2,
                slow: false
            }]
        );
        assert_eq!(m.epoch, 1);
    }

    #[test]
    fn adaptive_threshold_tolerates_observed_slow_cadence() {
        // A steady 10-tick cadence teaches the EWMA; afterwards 15
        // silent ticks stay under 2× the observed gap — neither level
        // fires, though 15 is past the fixed `SUSPICION_TICKS` floor.
        let mut m = Membership::new();
        m.join(0, 2);
        for _ in 0..5 {
            ticks(&mut m, 10);
            m.heard(1, 1);
        }
        m.take_events();
        assert!(m.gap_estimate(1) >= 9, "ewma {}", m.gap_estimate(1));
        ticks(&mut m, 15);
        assert!(m.alive(1) && !m.slow(1));
        assert!(m.take_events().is_empty());
    }

    #[test]
    fn dead_detection_budget_unchanged_for_healthy_peers() {
        // A peer advertising at the healthy 4-tick cadence keeps the
        // EWMA at the cadence, so 3×gap equals the fixed 12-tick floor:
        // a genuinely dead peer is detected on exactly the same tick as
        // the pre-adaptive detector.
        let mut m = Membership::new();
        m.join(0, 3);
        for _ in 0..5 {
            ticks(&mut m, 4);
            m.heard(1, 1);
            m.heard(2, 1);
        }
        m.take_events();
        let mut died_at = None;
        for t in 1..=20u64 {
            m.on_tick();
            if t % 4 == 0 {
                m.heard(1, 1);
            }
            if !m.alive(2) && died_at.is_none() {
                died_at = Some(t);
            }
        }
        assert_eq!(died_at, Some(13), "same tick budget as the fixed detector");
    }

    #[test]
    fn suspicion_uses_delivered_ticks_not_wall_time() {
        let mut m = Membership::new();
        m.join(0, 2);
        // Exactly at the threshold: not yet suspected.
        ticks(&mut m, SUSPICION_TICKS);
        assert!(m.alive(1));
        m.on_tick();
        assert!(!m.alive(1));
    }
}
