//! The simulator's benchmark: four workloads, each run from a seed,
//! checked for correctness, and measured on two clocks — host time
//! (how fast the simulator runs) and simulated 68040 cycles (what the
//! paper's claims are about). See `README.md` beside this crate.

pub mod cli;
pub mod clock;
pub mod episode;
pub mod harness;
pub mod kcache;
pub mod layers;
pub mod mem;
pub mod mill;
pub mod trace;
pub mod web;

use episode::Episode;
use trace::Tracer;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 10⁶-client serving row: front cache, fabric forwarding and
    /// the event pump.
    Serve,
    /// The same serving layer with a straggler: hedges, the fabric's
    /// delay queue and suspect-slow membership.
    Gray,
    /// The job mill on two lockstep shards: fault path, mapping
    /// install, shootdown rounds and shard rings.
    Mill,
    /// The bare Cache Kernel interface: object caches, reclaim,
    /// signals and channels.
    Kcache,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Serve,
        Workload::Gray,
        Workload::Mill,
        Workload::Kcache,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Gray => "gray",
            Workload::Mill => "mill",
            Workload::Kcache => "kcache",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reference pass whose speed this workload's host time is
    /// scaled by: the one its throughput was measured to move with. Over
    /// eight 10-second runs each, `mill`'s raw throughput had a quartile
    /// spread of 33 %; scaled by the private-cache reference 14 %, by
    /// the shared-cache one 5 %. The other workloads moved with the
    /// private-cache one (`kcache`: 4.7 % against 10.8 %).
    pub fn reference(self) -> clock::RefSize {
        match self {
            Workload::Mill => clock::REF_SHARED,
            _ => clock::REF_PRIVATE,
        }
    }

    /// Set up, run and verify one episode. `smoke` shrinks the episode
    /// to a short horizon for the tests; the benchmark always runs the
    /// full size.
    pub fn episode(self, seed: u64, smoke: bool, tr: &mut Tracer) -> Result<Episode, String> {
        match self {
            Workload::Serve => {
                let horizon = if smoke { 400_000 } else { SERVE_HORIZON };
                web::episode(&web::WebSpec::serve(horizon), seed, tr)
            }
            Workload::Gray => {
                let horizon = if smoke { 600_000 } else { GRAY_HORIZON };
                web::episode(&web::WebSpec::gray(horizon), seed, tr)
            }
            Workload::Mill => {
                let jobs = if smoke { 64 } else { MILL_JOBS_PER_SHARD };
                mill::episode(jobs, seed, tr)
            }
            Workload::Kcache => {
                let actions = if smoke { 2_000 } else { KCACHE_ACTIONS };
                kcache::episode(actions, seed, tr)
            }
        }
    }
}

// Episode sizes, chosen so that one episode takes 0.1 to 0.4 s of host
// time on a 2.1 GHz Xeon and a run repeats it 50 to 150 times.
const SERVE_HORIZON: u64 = 200_000_000;
const GRAY_HORIZON: u64 = 40_000_000;
const MILL_JOBS_PER_SHARD: usize = 8_000;
const KCACHE_ACTIONS: usize = 100_000;
