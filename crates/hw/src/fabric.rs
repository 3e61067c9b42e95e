//! Inter-MPM interconnect model.
//!
//! Models the 266 Mb/s fiber-channel links that connect MPMs to each other
//! and to shared servers. The fabric is a simple store-and-forward router:
//! packets enqueue toward a destination node and are drained by the cluster
//! step loop, which hands them to the destination node's network interface.

use crate::splitmix64;
use std::collections::{BTreeMap, VecDeque};

/// A packet in flight between nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Originating node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Connection/channel identifier (the networking facility is
    /// connection-oriented; the SRM's channel manager rate-limits and can
    /// disconnect individual channels).
    pub channel: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// Per-node delivery statistics, used by the SRM channel manager to compute
/// transfer rates (§4.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets sent from this node.
    pub tx_packets: u64,
    /// Bytes sent from this node.
    pub tx_bytes: u64,
    /// Packets delivered to this node.
    pub rx_packets: u64,
    /// Bytes delivered to this node.
    pub rx_bytes: u64,
}

/// The cluster interconnect.
pub struct Fabric {
    queues: Vec<VecDeque<Packet>>,
    stats: Vec<LinkStats>,
    /// Nodes marked failed: packets to or from them are dropped (used by
    /// the fault-containment experiments).
    failed: Vec<bool>,
    /// Partition group per node. All zero means fully connected; a send is
    /// carried only between nodes in the same group.
    group_of: Vec<u32>,
    /// Sends dropped because the endpoints were in different partition
    /// groups.
    blocked: u64,
    /// Frames held back by a delay schedule, keyed by (deliver-at cycle,
    /// insertion sequence) so draining is deterministic even when many
    /// frames mature on the same cycle. Drained into the FIFO queues by
    /// [`Fabric::set_now`].
    future: BTreeMap<(u64, u64), Packet>,
    /// Monotone insertion sequence for `future` keys.
    fseq: u64,
    /// The fabric's notion of the current cycle (max node clock, advanced
    /// by the cluster step loop).
    now: u64,
    /// Extra delivery cycles charged to any frame sent from or to this
    /// node (a straggler's service-time penalty).
    node_extra: Vec<u64>,
    /// Delay-group per node: frames crossing delay groups pay
    /// `link_extra` on top of the per-node penalties.
    delay_group_of: Vec<u32>,
    /// Extra cycles for crossing delay groups.
    link_extra: u64,
    /// Bounded jitter: up to this fraction (permille) of a frame's
    /// computed delay is subtracted, drawn from `jitter_rng`. The stream
    /// is consumed only for frames whose delay is nonzero, so an
    /// unconfigured fabric stays byte-inert.
    jitter_permille: u32,
    jitter_rng: u64,
    /// Frames that took the delay path.
    delayed: u64,
}

impl Fabric {
    /// A fabric connecting `nodes` MPMs.
    pub fn new(nodes: usize) -> Self {
        Fabric {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            stats: vec![LinkStats::default(); nodes],
            failed: vec![false; nodes],
            group_of: vec![0; nodes],
            blocked: 0,
            future: BTreeMap::new(),
            fseq: 0,
            now: 0,
            node_extra: vec![0; nodes],
            delay_group_of: vec![0; nodes],
            link_extra: 0,
            jitter_permille: 0,
            jitter_rng: 0,
            delayed: 0,
        }
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> usize {
        self.queues.len()
    }

    /// Inject a packet. Returns `false` (dropping it) if either endpoint is
    /// out of range or failed, or a partition separates the endpoints. This
    /// is the choke point every cluster protocol sends through, so one
    /// fault schedule gives every protocol the same seeded network.
    pub fn send(&mut self, pkt: Packet) -> bool {
        if pkt.src >= self.nodes() || pkt.dst >= self.nodes() {
            return false;
        }
        if self.failed[pkt.src] || self.failed[pkt.dst] {
            return false;
        }
        if self.group_of[pkt.src] != self.group_of[pkt.dst] {
            self.blocked += 1;
            return false;
        }
        self.stats[pkt.src].tx_packets += 1;
        self.stats[pkt.src].tx_bytes += pkt.data.len() as u64;
        let mut delay = self.node_extra[pkt.src] + self.node_extra[pkt.dst];
        if self.delay_group_of[pkt.src] != self.delay_group_of[pkt.dst] {
            delay += self.link_extra;
        }
        if delay == 0 {
            // The legacy instant-delivery path, byte-identical when no
            // delay schedule is active.
            self.queues[pkt.dst].push_back(pkt);
            return true;
        }
        if self.jitter_permille > 0 {
            // Bounded downward jitter: the delay is the worst case, the
            // draw shaves off up to jitter_permille/1000 of it.
            let r = splitmix64(&mut self.jitter_rng) % 1_000;
            delay -= delay * r * self.jitter_permille as u64 / 1_000_000;
        }
        self.delayed += 1;
        self.fseq += 1;
        self.future.insert((self.now + delay, self.fseq), pkt);
        true
    }

    /// Advance the fabric clock and mature delayed frames whose
    /// delivery cycle has arrived, in (deliver-at, send-order) order.
    /// The cluster step loop calls this with the max node clock before
    /// draining deliveries.
    pub fn set_now(&mut self, now: u64) {
        if now > self.now {
            self.now = now;
        }
        while let Some(e) = self.future.first_entry() {
            if e.key().0 > self.now {
                break;
            }
            let pkt = e.remove();
            self.queues[pkt.dst].push_back(pkt);
        }
    }

    /// Charge `extra` cycles to every frame sent from or to `node`.
    pub fn set_node_extra(&mut self, node: usize, extra: u64) {
        if node < self.nodes() {
            self.node_extra[node] = extra;
        }
    }

    /// Extra delivery cycles currently charged to `node`.
    pub fn node_extra(&self, node: usize) -> u64 {
        self.node_extra.get(node).copied().unwrap_or(0)
    }

    /// Charge `extra` cycles to frames crossing between the listed
    /// delay groups (nodes not listed stay in group 0 and also pay when
    /// talking to a listed group). Unlike a partition, a delayed link
    /// still carries every frame — just late.
    pub fn set_link_delay(&mut self, groups: &[Vec<usize>], extra: u64) {
        let n = self.nodes();
        self.delay_group_of.iter_mut().for_each(|g| *g = 0);
        for (i, group) in groups.iter().enumerate() {
            for &node in group {
                if node < n {
                    self.delay_group_of[node] = i as u32 + 1;
                }
            }
        }
        self.link_extra = extra;
    }

    /// Remove every delay: per-node penalties, link delays, and jitter.
    /// Frames already held in the future queue keep their deadlines.
    pub fn clear_delays(&mut self) {
        self.node_extra.iter_mut().for_each(|e| *e = 0);
        self.delay_group_of.iter_mut().for_each(|g| *g = 0);
        self.link_extra = 0;
        self.jitter_permille = 0;
    }

    /// Arm bounded delivery jitter on delayed frames, drawn from a
    /// dedicated splitmix stream seeded here.
    pub fn set_delay_jitter(&mut self, permille: u32, seed: u64) {
        self.jitter_permille = permille.min(1_000);
        self.jitter_rng = seed;
    }

    /// Frames that took the delay path so far.
    pub fn frames_delayed(&self) -> u64 {
        self.delayed
    }

    /// Take the next packet destined for `node`, if any.
    pub fn recv(&mut self, node: usize) -> Option<Packet> {
        let pkt = self.queues[node].pop_front()?;
        self.stats[node].rx_packets += 1;
        self.stats[node].rx_bytes += pkt.data.len() as u64;
        Some(pkt)
    }

    /// Packets queued toward `node`.
    pub fn pending(&self, node: usize) -> usize {
        self.queues[node].len()
    }

    /// Packets queued toward any node — the fabric's contribution to a
    /// cluster-wide quiescence check: zero means no frame is still in
    /// flight anywhere.
    pub fn total_pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum::<usize>() + self.future.len()
    }

    /// Link statistics for `node`.
    pub fn stats(&self, node: usize) -> LinkStats {
        self.stats[node]
    }

    /// Mark a node failed (its MPM halted). In the ParaDiGM design an MPM
    /// hardware failure halts the local Cache Kernel only; the fabric
    /// simply stops carrying its traffic.
    pub fn fail_node(&mut self, node: usize) {
        self.failed[node] = true;
        self.queues[node].clear();
        self.future.retain(|_, p| p.src != node && p.dst != node);
    }

    /// Whether `node` is failed.
    pub fn is_failed(&self, node: usize) -> bool {
        self.failed[node]
    }

    /// Partition the fabric: each listed group keeps full connectivity
    /// among its members; nodes not listed in any group become isolated
    /// singletons. Packets already queued across the cut are dropped —
    /// a partition severs the physical link, in-flight frames included.
    pub fn set_partition(&mut self, groups: &[Vec<usize>]) {
        let n = self.nodes();
        // Listed groups take ids 1..=groups.len(); unlisted nodes get a
        // unique singleton id above that range, so they reach no one.
        for (node, g) in self.group_of.iter_mut().enumerate() {
            *g = (groups.len() + 1 + node) as u32;
        }
        for (i, group) in groups.iter().enumerate() {
            for &node in group {
                if node < n {
                    self.group_of[node] = i as u32 + 1;
                }
            }
        }
        for dst in 0..n {
            let keep: VecDeque<Packet> = self.queues[dst]
                .drain(..)
                .filter(|p| {
                    let cut = self.group_of[p.src] != self.group_of[dst];
                    if cut {
                        self.blocked += 1;
                    }
                    !cut
                })
                .collect();
            self.queues[dst] = keep;
        }
        // Delayed frames are just as in-flight as queued ones: the cut
        // severs them too.
        let group_of = &self.group_of;
        let blocked = &mut self.blocked;
        self.future.retain(|_, p| {
            let cut = group_of[p.src] != group_of[p.dst];
            if cut {
                *blocked += 1;
            }
            !cut
        });
    }

    /// Dissolve all partitions (failed nodes stay failed).
    pub fn heal(&mut self) {
        self.group_of.iter_mut().for_each(|g| *g = 0);
    }

    /// Whether a packet from `src` could currently be carried to `dst`.
    pub fn reachable(&self, src: usize, dst: usize) -> bool {
        src < self.nodes()
            && dst < self.nodes()
            && !self.failed[src]
            && !self.failed[dst]
            && self.group_of[src] == self.group_of[dst]
    }

    /// Sends dropped at a partition cut so far.
    pub fn frames_blocked(&self) -> u64 {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: usize, dst: usize, data: &[u8]) -> Packet {
        Packet {
            src,
            dst,
            channel: 1,
            data: data.to_vec(),
        }
    }

    #[test]
    fn send_recv_fifo() {
        let mut f = Fabric::new(3);
        assert!(f.send(pkt(0, 2, b"a")));
        assert!(f.send(pkt(1, 2, b"bb")));
        assert_eq!(f.pending(2), 2);
        assert_eq!(f.recv(2).unwrap().data, b"a");
        assert_eq!(f.recv(2).unwrap().data, b"bb");
        assert_eq!(f.recv(2), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = Fabric::new(2);
        f.send(pkt(0, 1, b"xyz"));
        f.recv(1);
        assert_eq!(f.stats(0).tx_packets, 1);
        assert_eq!(f.stats(0).tx_bytes, 3);
        assert_eq!(f.stats(1).rx_packets, 1);
        assert_eq!(f.stats(1).rx_bytes, 3);
    }

    #[test]
    fn failed_node_drops_traffic() {
        let mut f = Fabric::new(2);
        f.send(pkt(0, 1, b"q"));
        f.fail_node(1);
        assert_eq!(f.pending(1), 0);
        assert!(!f.send(pkt(0, 1, b"r")));
        assert!(!f.send(pkt(1, 0, b"s")));
        assert!(f.is_failed(1));
        assert!(!f.is_failed(0));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut f = Fabric::new(1);
        assert!(!f.send(pkt(0, 5, b"x")));
    }

    #[test]
    fn partition_blocks_across_groups_and_heals() {
        let mut f = Fabric::new(3);
        f.send(pkt(0, 2, b"inflight")); // queued across the future cut
        f.set_partition(&[vec![0, 1], vec![2]]);
        assert_eq!(f.pending(2), 0, "in-flight frame severed with the link");
        assert!(f.send(pkt(0, 1, b"same-side")));
        assert!(!f.send(pkt(0, 2, b"cross")));
        assert!(!f.send(pkt(2, 1, b"cross-back")));
        assert!(f.reachable(0, 1));
        assert!(!f.reachable(1, 2));
        assert_eq!(f.frames_blocked(), 3);
        f.heal();
        assert!(f.send(pkt(0, 2, b"post-heal")));
        assert!(f.reachable(1, 2));
        assert_eq!(f.frames_blocked(), 3);
    }

    #[test]
    fn unlisted_nodes_are_isolated_singletons() {
        let mut f = Fabric::new(4);
        f.set_partition(&[vec![0, 1]]);
        // 2 and 3 were not listed: isolated from the group and each other.
        assert!(!f.send(pkt(2, 0, b"a")));
        assert!(!f.send(pkt(2, 3, b"b")));
        assert!(f.send(pkt(0, 1, b"c")));
        // Cross-partition sends don't count toward link stats.
        assert_eq!(f.stats(2).tx_packets, 0);
    }

    #[test]
    fn delayed_frame_matures_at_its_cycle() {
        let mut f = Fabric::new(2);
        f.set_now(1_000);
        f.set_node_extra(1, 500);
        assert!(f.send(pkt(0, 1, b"slow")));
        assert_eq!(f.pending(1), 0, "held in the future queue");
        assert_eq!(f.total_pending(), 1, "but still counts as in flight");
        f.set_now(1_499);
        assert_eq!(f.pending(1), 0);
        f.set_now(1_500);
        assert_eq!(f.recv(1).unwrap().data, b"slow");
        assert_eq!(f.frames_delayed(), 1);
    }

    #[test]
    fn delays_reorder_across_sources() {
        let mut f = Fabric::new(3);
        f.set_node_extra(0, 800);
        assert!(f.send(pkt(0, 2, b"early-but-slow")));
        assert!(f.send(pkt(1, 2, b"late-but-fast")));
        f.set_now(800);
        assert_eq!(f.recv(2).unwrap().data, b"late-but-fast");
        assert_eq!(f.recv(2).unwrap().data, b"early-but-slow");
    }

    #[test]
    fn link_delay_charges_cross_group_only() {
        let mut f = Fabric::new(3);
        f.set_link_delay(&[vec![0, 1]], 300);
        assert!(f.send(pkt(0, 1, b"same-group")));
        assert_eq!(f.recv(1).unwrap().data, b"same-group");
        assert!(f.send(pkt(0, 2, b"cross")));
        assert_eq!(f.pending(2), 0, "cross-group frame is delayed");
        f.set_now(300);
        assert_eq!(f.recv(2).unwrap().data, b"cross");
        f.clear_delays();
        assert!(f.send(pkt(0, 2, b"after-clear")));
        assert_eq!(f.recv(2).unwrap().data, b"after-clear");
    }

    #[test]
    fn partition_severs_delayed_frames() {
        let mut f = Fabric::new(2);
        f.set_node_extra(1, 1_000);
        assert!(f.send(pkt(0, 1, b"doomed")));
        f.set_partition(&[vec![0], vec![1]]);
        assert_eq!(f.total_pending(), 0, "the cut severed the delayed frame");
        assert_eq!(f.frames_blocked(), 1);
        f.set_now(2_000);
        assert_eq!(f.recv(1), None);
    }

    #[test]
    fn fail_node_purges_delayed_frames() {
        let mut f = Fabric::new(3);
        f.set_node_extra(1, 1_000);
        assert!(f.send(pkt(0, 1, b"to-dead")));
        assert!(f.send(pkt(1, 2, b"from-dead")));
        f.fail_node(1);
        assert_eq!(f.total_pending(), 0);
        f.set_now(2_000);
        assert_eq!(f.recv(1), None);
        assert_eq!(f.recv(2), None);
    }

    #[test]
    fn jitter_is_seed_deterministic_and_bounded() {
        let run = |seed: u64| {
            let mut f = Fabric::new(2);
            f.set_node_extra(1, 1_000);
            f.set_delay_jitter(500, seed);
            let mut arrivals = Vec::new();
            for i in 0..8u8 {
                assert!(f.send(pkt(0, 1, &[i])));
            }
            for t in 0..=1_000u64 {
                f.set_now(t);
                while let Some(p) = f.recv(1) {
                    arrivals.push((t, p.data[0]));
                }
            }
            arrivals
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed replays byte-identically");
        assert_ne!(a, run(43), "a different seed must diverge");
        for &(t, _) in &a {
            assert!((500..=1_000).contains(&t), "jitter only shaves downward");
        }
    }

    #[test]
    fn unconfigured_fabric_never_delays() {
        let mut f = Fabric::new(2);
        // Jitter armed but no delay configured: the stream must not be
        // consumed and delivery stays instant (the inertness contract).
        f.set_delay_jitter(999, 7);
        assert!(f.send(pkt(0, 1, b"x")));
        assert_eq!(f.recv(1).unwrap().data, b"x");
        assert_eq!(f.frames_delayed(), 0);
        assert_eq!(f.jitter_rng, 7, "jitter stream untouched on the fast path");
    }

    #[test]
    fn partition_composes_with_failed_nodes() {
        let mut f = Fabric::new(3);
        f.fail_node(2);
        f.set_partition(&[vec![0, 1, 2]]);
        assert!(!f.send(pkt(0, 2, b"dead")), "failure outranks grouping");
        assert!(!f.reachable(0, 2));
        f.heal();
        assert!(f.is_failed(2), "heal does not resurrect a failed node");
    }
}
