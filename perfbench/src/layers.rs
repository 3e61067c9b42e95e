//! Per-layer figures read from the program's public counters.

use crate::episode::ratio;
use vpp::cache_kernel::Counters;
use vpp::hw::Mpm;

/// Counter-derived figures for the executive, Cache Kernel, shootdown,
/// signal, simulated hardware and membership layers, plus the canonical
/// text of everything read (for the fingerprint).
pub fn counter_figures<'a>(
    c: &Counters,
    mpms: impl IntoIterator<Item = &'a Mpm>,
) -> (Vec<(&'static str, f64)>, String) {
    let (mut tlb, mut rtlb, mut l2) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    let mut canon = format!("{c:?}");
    for mpm in mpms {
        for cpu in &mpm.cpus {
            tlb.0 += cpu.tlb.stats.hits;
            tlb.1 += cpu.tlb.stats.misses;
            rtlb.0 += cpu.rtlb.stats.hits;
            rtlb.1 += cpu.rtlb.stats.misses;
        }
        l2.0 += mpm.l2.stats.hits;
        l2.1 += mpm.l2.stats.misses;
        canon.push_str(&format!("|{}", mpm.clock.cycles()));
    }
    canon.push_str(&format!("|{tlb:?}{rtlb:?}{l2:?}"));
    let figures = vec![
        ("exec.events", c.events_delivered as f64),
        ("exec.faults_forwarded", c.faults_forwarded as f64),
        ("exec.traps_forwarded", c.traps_forwarded as f64),
        ("shard.msgs", c.shard_msgs_sent as f64),
        ("shard.rings_full", c.rings_full as f64),
        ("ck.writebacks", c.writebacks.iter().sum::<u64>() as f64),
        ("ck.shootdown_rounds", c.shootdown_rounds as f64),
        (
            "ck.pages_per_round",
            ratio(c.shootdown_batched_pages, c.shootdown_batches),
        ),
        (
            "sig.fast_ratio",
            ratio(c.signals_fast, c.signals_fast + c.signals_slow),
        ),
        ("hw.tlb.hit_ratio", ratio(tlb.0, tlb.0 + tlb.1)),
        ("hw.l2.hit_ratio", ratio(l2.0, l2.0 + l2.1)),
        ("hw.rtlb.hit_ratio", ratio(rtlb.0, rtlb.0 + rtlb.1)),
        ("srm.suspect_slow", c.nodes_suspected_slow as f64),
        ("srm.false_dead", (c.nodes_down + c.epoch_changes) as f64),
        ("reliable.rpc_retries", c.rpc_retries as f64),
        ("reliable.frames_reordered", c.frames_reordered as f64),
    ];
    (figures, canon)
}
