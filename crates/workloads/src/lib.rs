//! Workload generators for the evaluation harness.
//!
//! Deterministic (seeded) generators for the access patterns the paper's
//! motivation and evaluation discuss: Zipf-skewed random lookups,
//! sequential scans, working-set sweeps, and reference strings mixing
//! them. Everything returns plain index vectors so the same stream can
//! drive the database kernel, the segment manager, or a raw cache model.

pub mod dsm_cluster;
pub mod fanout;
pub mod throughput;
pub mod web_serving;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Zipf-distributed indices over `0..n` with skew `theta` (0 = uniform,
/// ~1 = classic web/db skew). Uses the standard inverse-CDF construction
/// over precomputed harmonic weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the distribution for `n` items with skew `theta`.
    pub fn new(n: u32, theta: f64) -> Self {
        assert!(n > 0);
        let mut weights: Vec<f64> = (1..=n as u64)
            .map(|k| 1.0 / (k as f64).powf(theta))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    /// Draw one index.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        self.sample_unit(u)
    }

    /// Map a uniform variate in [0, 1) to an index — the inverse-CDF
    /// step alone, for callers bringing their own uniform stream.
    pub fn sample_unit(&self, u: f64) -> u32 {
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) | Err(i) => (i as u32).min(self.cdf.len() as u32 - 1),
        }
    }

    /// Draw `count` indices.
    pub fn stream(&self, rng: &mut StdRng, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// A sequential scan reference string: `rounds` passes over `0..n`.
pub fn scan_stream(n: u32, rounds: u32) -> Vec<u32> {
    (0..rounds).flat_map(|_| 0..n).collect()
}

/// Uniform random indices over `0..n`.
pub fn uniform_stream(n: u32, count: usize, seed: u64) -> Vec<u32> {
    let mut r = rng(seed);
    (0..count).map(|_| r.gen_range(0..n)).collect()
}

/// A working-set sweep: for each working-set size in `sizes`, a reference
/// string that cycles through that many distinct items `rounds` times.
/// Used to find the thrash knee against a fixed-capacity cache (§5.2).
pub fn working_set_sweep(sizes: &[u32], rounds: u32) -> Vec<(u32, Vec<u32>)> {
    sizes
        .iter()
        .map(|&s| (s, (0..rounds).flat_map(|_| 0..s).collect()))
        .collect()
}

/// Interleave a hot-set probe stream with periodic scans: `hot` items
/// probed `probes_per_round` times per round, a full scan of `n` items
/// every `scan_every` rounds, for `rounds` rounds. Mirrors the mixed
/// OLTP-plus-report pattern where fixed policies fall over.
pub fn mixed_stream(
    n: u32,
    hot: u32,
    probes_per_round: u32,
    scan_every: u32,
    rounds: u32,
) -> Vec<u32> {
    let mut out = Vec::new();
    for round in 0..rounds {
        for _ in 0..probes_per_round {
            for h in 0..hot {
                out.push(h);
            }
        }
        if scan_every > 0 && round % scan_every == scan_every - 1 {
            out.extend(0..n);
        }
    }
    out
}

/// Exponentially spaced sizes from `lo` to `hi` (inclusive-ish), for
/// sweep axes.
pub fn log_sizes(lo: u32, hi: u32, per_decade: u32) -> Vec<u32> {
    assert!(lo > 0 && hi >= lo && per_decade > 0);
    let mut out = Vec::new();
    let ratio = 10f64.powf(1.0 / per_decade as f64);
    let mut x = lo as f64;
    while (x as u32) < hi {
        let v = x as u32;
        if out.last() != Some(&v) {
            out.push(v);
        }
        x *= ratio;
    }
    out.push(hi);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut r = rng(7);
        let s = z.stream(&mut r, 10_000);
        assert!(s.iter().all(|&i| i < 100));
        let head = s.iter().filter(|&&i| i < 10).count();
        assert!(
            head > 5_000,
            "top 10% of items should draw most accesses, got {head}/10000"
        );
    }

    #[test]
    fn zipf_zero_theta_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng(9);
        let s = z.stream(&mut r, 10_000);
        let head = s.iter().filter(|&&i| i == 0).count();
        assert!(head < 1_500, "uniform head share, got {head}");
    }

    #[test]
    fn scan_and_uniform_streams() {
        assert_eq!(scan_stream(3, 2), vec![0, 1, 2, 0, 1, 2]);
        let u = uniform_stream(5, 100, 1);
        assert!(u.iter().all(|&i| i < 5));
        assert_eq!(uniform_stream(5, 100, 1), u, "seeded determinism");
    }

    #[test]
    fn working_set_sweep_shapes() {
        let sweep = working_set_sweep(&[2, 4], 3);
        assert_eq!(sweep[0].0, 2);
        assert_eq!(sweep[0].1.len(), 6);
        assert_eq!(sweep[1].1.len(), 12);
    }

    #[test]
    fn mixed_stream_contains_scans() {
        let s = mixed_stream(10, 2, 1, 2, 4);
        // Rounds 1 and 3 end with a scan of 10.
        assert_eq!(s.len(), (2 * 4 + 2 * 10) as usize);
        assert!(s.contains(&9));
    }

    #[test]
    fn log_sizes_monotone() {
        let v = log_sizes(10, 1000, 3);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(*v.first().unwrap(), 10);
        assert_eq!(*v.last().unwrap(), 1000);
    }
}
