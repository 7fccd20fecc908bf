//! Host-speed calibration.
//!
//! Host speed on a shared VM drifts by ±30 % over seconds to minutes, so
//! raw host times of one workload spread across runs by about as much as
//! any bound allows. The benchmark therefore interleaves a fixed synthetic
//! chunk of work with the simulation — after a run slice, whenever
//! [`HostClock::INTERVAL`] of host time has passed since the last chunk —
//! and scales the measured host time by `(REFERENCE_CHUNK_S / mean chunk
//! time) ^ SENSITIVITY`: host seconds on a host that runs a chunk in
//! [`HostClock::REFERENCE_CHUNK_S`]. A chunk does ordered-map churn and
//! small allocations. Of the chunks tried, this one's time tracks the
//! workloads' host time most closely as the host's speed drifts: chunks
//! of DRAM reads or of register arithmetic slow down far less than the
//! simulator does. It is the benchmark's own code, so a faster or slower
//! simulator still moves the scaled figures; only the host's speed
//! cancels. Chunk time is excluded from the measured time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A host clock for one measured phase that interleaves calibration
/// chunks with the work and scales the phase's time by them.
pub struct HostClock {
    start: Instant,
    last: Instant,
    chunks: u32,
    chunk_s: f64,
    chunk_allocs: u64,
    x: u64,
}

/// A stopped [`HostClock`].
#[derive(Debug, Clone, Copy)]
pub struct HostTime {
    /// Host seconds of the phase net of chunks, scaled to the reference.
    pub seconds: f64,
    /// Host seconds of the phase net of chunks, unscaled.
    pub raw_seconds: f64,
    /// The scale applied: reference chunk time over mean chunk time, to
    /// the power [`HostClock::SENSITIVITY`].
    pub scale: f64,
    /// Heap allocations made by the chunks (to subtract from counts).
    pub chunk_allocs: u64,
}

impl HostClock {
    /// Host time between chunks: chunks cost ~10 % on top of the phase.
    pub const INTERVAL: Duration = Duration::from_millis(10);
    /// A chunk's time on the reference host (the 2-core VM the benchmark
    /// was defined on), s.
    pub const REFERENCE_CHUNK_S: f64 = 0.001_15;
    /// How strongly the workloads' host time follows the chunk's as the
    /// host's speed drifts: the slope of log window time over log mean
    /// chunk time across reps. Measured on the reference host at 1.24
    /// (`kvs-cold`), 1.32 (`kvs-hot`) and 1.37-1.61 (`rack64`), each with a
    /// correlation of at least 0.95. With an exponent of 1 the scale
    /// cancels only part of a drift.
    pub const SENSITIVITY: f64 = 1.4;

    /// Starts the clock.
    pub fn start() -> HostClock {
        let now = Instant::now();
        HostClock {
            start: now,
            last: now,
            chunks: 0,
            chunk_s: 0.0,
            chunk_allocs: 0,
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs a chunk if [`Self::INTERVAL`] has passed since the last one.
    /// Call it between run slices.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Self::INTERVAL {
            self.chunk();
        }
    }

    fn chunk(&mut self) {
        let a0 = crate::alloc::allocations();
        let t = Instant::now();
        let mut x = self.x;
        let mut acc = 0u64;
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x & 0xFFFF, i);
            if map.len() > 512 {
                map.pop_first();
            }
            let v = vec![x as u8; (x & 255) as usize];
            acc ^= black_box(v).len() as u64;
        }
        drop(black_box(map));
        black_box(acc);
        self.x = x;
        self.chunk_s += t.elapsed().as_secs_f64();
        self.chunk_allocs += crate::alloc::allocations() - a0;
        self.chunks += 1;
        self.last = Instant::now();
    }

    /// Stops the clock (running one chunk if the phase had none).
    pub fn stop(mut self) -> HostTime {
        let raw = self.start.elapsed().as_secs_f64() - self.chunk_s;
        if self.chunks == 0 {
            self.chunk();
        }
        let scale =
            (Self::REFERENCE_CHUNK_S * self.chunks as f64 / self.chunk_s).powf(Self::SENSITIVITY);
        HostTime {
            seconds: raw * scale,
            raw_seconds: raw,
            scale,
            chunk_allocs: self.chunk_allocs,
        }
    }
}
