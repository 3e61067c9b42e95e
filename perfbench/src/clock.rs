//! Host time of a phase, and the reference pass that scales it.
//!
//! The benchmark's host metrics use the CPU time of the calling thread:
//! each workload runs on one thread, so that is the work the simulator
//! did. On a shared machine the same work still takes from 0.6x to 1.4x
//! as long from one second to the next, as other tenants load the
//! core's caches and memory. So every repetition of an episode is
//! bracketed by a fixed [`Reference`] pass, and its throughput is
//! scaled by `nominal / reference time`: it reads as if the host ran at
//! the reference speed. The raw figures are printed beside the metrics.

use crate::episode::mix;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the thread CPU clock is read through the 64-bit Linux `clock_gettime` ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPUTIME: i32 = 3;

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) and the clock
    // id is a constant the kernel defines; the call writes only `ts`.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is unavailable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The size of a [`Reference`]'s random-access table, and the thread
/// CPU time of one pass with it on the 2-core Xeon (2.1 GHz, 2 MiB of
/// L2 per core) virtual machine the benchmark was written on, at the
/// median of 300 passes.
#[derive(Clone, Copy, Debug)]
pub struct RefSize {
    words: usize,
    nominal: Duration,
}

/// A 256 KiB table, inside a core's private cache.
pub const REF_PRIVATE: RefSize = RefSize {
    words: 1 << 15,
    nominal: Duration::from_micros(18_000),
};

/// A 16 MiB table, in the shared last-level cache, where other
/// tenants' loads compete with it.
pub const REF_SHARED: RefSize = RefSize {
    words: 1 << 21,
    nominal: Duration::from_micros(22_500),
};

/// Iterations of one reference pass.
const REF_ITERS: u64 = 200_000;
/// Keys the reference's ordered map ranges over.
const REF_KEYS: u64 = 4_096;

/// A fixed computation shaped like the simulator's own work: ordered
/// map inserts and removals, and dependent loads from a table. Its time
/// measures how fast the host runs right now; it shares no code with
/// the simulator, so a change to the simulator cannot move it.
pub struct Reference {
    map: BTreeMap<u64, u64>,
    table: Vec<u64>,
    nominal: Duration,
}

impl Reference {
    pub fn new(size: RefSize) -> Self {
        Reference {
            map: BTreeMap::new(),
            table: vec![1; size.words],
            nominal: size.nominal,
        }
    }

    /// `nominal / pass`: multiply a host time measured beside a pass
    /// that took `pass` by this to read it at the reference speed.
    pub fn scale(&self, pass: Duration) -> f64 {
        self.nominal.as_secs_f64() / pass.as_secs_f64()
    }

    /// Run one pass and return its thread CPU time.
    pub fn time(&mut self) -> Duration {
        let t0 = thread_cpu();
        self.map.clear();
        let (mut s, mut acc) = (1u64, 0u64);
        let mask = self.table.len() - 1;
        for i in 0..REF_ITERS {
            let r = mix(&mut s);
            let k = r % REF_KEYS;
            if r & 1 == 0 {
                self.map.insert(k, i);
            } else if let Some(x) = self.map.remove(&k) {
                acc = acc.wrapping_add(x);
            }
            let j = (r >> 20) as usize & mask;
            self.table[j] = self.table[j].wrapping_add(acc ^ i);
            acc = acc.wrapping_add(self.table[acc as usize & mask]);
        }
        black_box(acc);
        thread_cpu() - t0
    }
}

/// Wall-clock and thread CPU time since [`Stopwatch::start`].
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

/// What a [`Stopwatch`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Elapsed {
    pub wall: Duration,
    pub cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    pub fn stop(&self) -> Elapsed {
        Elapsed {
            cpu: thread_cpu() - self.cpu,
            wall: self.wall.elapsed(),
        }
    }
}
