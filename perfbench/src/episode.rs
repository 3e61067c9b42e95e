//! What one episode — set up, run, verify — leaves behind, and the
//! statistics shared by every workload.

use crate::clock::Elapsed;
use std::collections::BTreeMap;
use vpp::workloads::web_serving::{latency_percentile, LAT_BUCKETS};

/// Simulated latency of each operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Latency {
    /// The serving workload's own log2 histogram: bucket `b` holds
    /// latencies below `2^b` and at least `2^(b-1)` cycles, so every
    /// figure read from it is a bucket's upper edge (2× resolution).
    Log2(Box<[u64; LAT_BUCKETS]>),
    /// Exact cycles per operation, as a count per value.
    Exact(BTreeMap<u64, u64>),
}

impl Latency {
    /// The `p`-th percentile in cycles.
    pub fn percentile(&self, p: f64) -> u64 {
        match self {
            Latency::Log2(hist) => latency_percentile(hist, p),
            Latency::Exact(counts) => {
                let total: u64 = counts.values().sum();
                let target = ((total as f64 * p).ceil() as u64).max(1);
                let mut seen = 0;
                for (&v, &n) in counts {
                    seen += n;
                    if seen >= target {
                        return v;
                    }
                }
                0
            }
        }
    }

    /// Operations that completed in less than `limit` cycles. For the
    /// log2 histogram `limit` must be a power of two (a bucket edge).
    pub fn below(&self, limit: u64) -> u64 {
        match self {
            Latency::Log2(hist) => {
                assert!(limit.is_power_of_two(), "limit must be a bucket edge");
                let edge = limit.trailing_zeros() as usize;
                hist.iter().take(edge + 1).sum()
            }
            Latency::Exact(counts) => counts.range(..limit).map(|(_, n)| n).sum(),
        }
    }

    pub fn resolution(&self) -> &'static str {
        match self {
            Latency::Log2(_) => "log2 bucket upper edge (2x resolution)",
            Latency::Exact(_) => "exact",
        }
    }

    /// The distribution in short: `edge:count` for every non-empty log2
    /// bucket, or a few exact percentiles.
    pub fn summary(&self) -> String {
        match self {
            Latency::Log2(hist) => hist
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(b, n)| format!("<{}:{n}", 1u64 << b))
                .collect::<Vec<_>>()
                .join(" "),
            Latency::Exact(_) => [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
                .map(|p| format!("p{}={}", p * 100.0, self.percentile(p)))
                .join(" "),
        }
    }

    fn canon(&self) -> String {
        match self {
            Latency::Log2(hist) => format!("{hist:?}"),
            Latency::Exact(counts) => format!("{counts:?}"),
        }
    }
}

/// One episode's results. Everything but the host durations is
/// deterministic for a given seed.
pub struct Episode {
    /// Host time of boot, kernel start and backlog build.
    pub setup: Elapsed,
    /// Host time of the measured phase.
    pub run: Elapsed,
    /// Host time of the post-run checks, counter collection and
    /// teardown.
    pub verify: Elapsed,
    /// Operations attempted in the measured phase: requests, jobs or
    /// interface calls.
    pub attempted: u64,
    /// Operations dropped, denied or returning `Err`.
    pub failed: u64,
    /// Operations attempted but not finished when the run ended
    /// (requests still in flight or parked for retry).
    pub incomplete: u64,
    /// Simulated cycles advanced, summed over nodes or shards.
    pub sim_cycles: u64,
    /// Simulated latency per operation.
    pub latency: Latency,
    /// Operations `latency` is taken over, finished or not: arrivals,
    /// jobs, or client actions (each of which makes several interface
    /// calls).
    pub latency_ops: u64,
    /// Limit on a bucket edge for `slo_ok_ratio`, in cycles.
    pub slo_limit: u64,
    /// Deterministic per-layer figures by metric name.
    pub sim: Vec<(&'static str, f64)>,
    /// Canonical text of every deterministic counter the run read;
    /// hashed into the fingerprint.
    pub canon: String,
}

impl Episode {
    /// Share of attempted operations that completed within the limit;
    /// a dropped, refused or unfinished operation is a miss.
    pub fn slo_ok_ratio(&self) -> f64 {
        self.latency.below(self.slo_limit) as f64 / self.latency_ops.max(1) as f64
    }

    /// Dropped, denied, failed and unfinished operations over those
    /// attempted.
    pub fn fail_ratio(&self) -> f64 {
        (self.failed + self.incomplete) as f64 / self.attempted.max(1) as f64
    }

    pub fn sim_cycles_per_op(&self) -> f64 {
        self.sim_cycles as f64 / self.attempted.max(1) as f64
    }

    /// FNV-1a over every deterministic statistic of the episode. Two
    /// builds that differ only in host speed give the same value.
    pub fn fingerprint(&self) -> u64 {
        let text = format!(
            "{}|{}|{}|{}|{}|{}|{}|{:?}|{}",
            self.attempted,
            self.latency_ops,
            self.failed,
            self.incomplete,
            self.sim_cycles,
            self.latency.canon(),
            self.slo_limit,
            self.sim,
            self.canon
        );
        fnv1a(text.as_bytes())
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One step of splitmix64: the benchmark derives every input it makes
/// from the seed through this.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median of `xs` (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of host nanoseconds.
pub fn percentile_ns(xs: &mut [u64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((xs.len() as f64 * p).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_percentile_is_the_bucket_edge() {
        let mut hist = [0u64; LAT_BUCKETS];
        hist[4] = 3; // latencies 8..16
        hist[10] = 1;
        let l = Latency::Log2(Box::new(hist));
        assert_eq!(l.percentile(0.5), 16);
        assert_eq!(l.percentile(0.99), 1024);
        assert_eq!(l.below(16), 3);
        assert_eq!(l.below(1024), 4);
    }

    #[test]
    fn exact_percentile_and_limit() {
        let l = Latency::Exact([(5, 2), (9, 2)].into_iter().collect());
        assert_eq!(l.percentile(0.5), 5);
        assert_eq!(l.percentile(0.75), 9);
        assert_eq!(l.below(9), 2);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
