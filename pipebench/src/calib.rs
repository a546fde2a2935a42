//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed swings by a third or
//! more within minutes, and by a tenth within seconds, as other tenants
//! load the machine; runs of the same code spread by a fifth (IQR over
//! median) on such a host. So every run also times a fixed reference
//! computation, written here and sharing no code with the program under
//! test, throughout its window: between ops, or from a thread of its own
//! while the daemon serves. Each op's time is divided by the host's
//! *slowdown* around it: the median of the reference samples within
//! [`NEAR_S`] of the op, over [`REFERENCE_US`]. The end-to-end times then
//! read in the reference host's milliseconds. A change to the program moves
//! them; a change in host speed moves the reference computation with them.

use std::hint::black_box;
use std::time::Instant;

/// Time of one [`Calibrator::sample`] on the reference host, µs: the
/// median of 798 samples over twelve runs on the 2-core machine the
/// benchmark was tuned on, timed in wall time between single-threaded
/// ops, where a thread's CPU time matches it.
pub const REFERENCE_US: f64 = 511.5;

/// Samples within this many seconds of an op set its slowdown.
pub const NEAR_S: f64 = 1.5;

/// An op with fewer samples near it uses this many nearest ones.
const MIN_NEAR: usize = 5;

/// Keys sorted, and inserted into a hash map.
const KEYS: usize = 1 << 12;
/// Side of the dense matrix.
const DIM: usize = 64;
/// Small vectors allocated and freed.
const VECS: usize = 1500;

/// The reference computation's inputs and the samples taken so far.
pub struct Calibrator {
    keys: Vec<u64>,
    matrix: Vec<f64>,
    start: Instant,
    /// (seconds since `start`, µs), in time order.
    samples: Vec<(f64, f64)>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Builds the inputs (from a fixed seed) and runs the computation once
    /// untimed.
    pub fn new() -> Calibrator {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys = (0..KEYS).map(|_| next()).collect();
        let matrix = (0..DIM * DIM)
            .map(|_| (next() % 1000) as f64 / 1000.0)
            .collect();
        let c = Calibrator {
            keys,
            matrix,
            start: Instant::now(),
            samples: Vec::new(),
        };
        black_box(c.reference_work());
        c
    }

    /// The reference computation: a sort, hash-map inserts and lookups,
    /// small allocations, and dense mat-vec products. Over a 5-minute trace
    /// of a shared host whose speed swung 1.75×, each of these tracked a
    /// fixed solve and a fixed cold compile of the pass with correlation
    /// 0.95–0.99, and dividing by their sum cut the spread of those ops'
    /// times from 0.18–0.22 to 0.06–0.07 (IQR over median, 8 s blocks).
    /// Random walks over tables larger than a core's caches tracked them
    /// only at 0.7 and are left out.
    fn reference_work(&self) -> u64 {
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        let mut acc = keys[KEYS / 2];
        let mut map = std::collections::HashMap::with_capacity(KEYS / 2);
        for (i, &k) in self.keys.iter().enumerate() {
            *map.entry(k % (KEYS as u64 / 2)).or_insert(0u64) += i as u64;
        }
        acc = acc.wrapping_add(map.get(&(acc % (KEYS as u64 / 2))).copied().unwrap_or(0));
        for _ in 0..2 {
            let vecs: Vec<Vec<u64>> = (0..VECS).map(|i| vec![acc; 4 + i % 60]).collect();
            acc = acc.wrapping_add(vecs.iter().map(|v| v.len() as u64).sum::<u64>());
        }
        let mut v = vec![1.0f64; DIM];
        for _ in 0..32 {
            let w: Vec<f64> = self
                .matrix
                .chunks_exact(DIM)
                .map(|row| row.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>())
                .collect();
            let norm = w.iter().map(|x| x.abs()).sum::<f64>().max(1e-300);
            v = w.into_iter().map(|x| x / norm).collect();
        }
        acc.wrapping_add(v[0].to_bits())
    }

    /// Seconds since the calibrator was built, the clock of [`Self::near`].
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// `t` on the clock of [`Self::near`].
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Times one run of the reference computation and keeps the sample.
    /// It is timed in the calling thread's CPU time, so a sample preempted
    /// by another thread of this process (the daemon's, on `daemon-mix`)
    /// reads the host's speed, not the process's own load.
    pub fn sample(&mut self) {
        let t = thread_cpu_us();
        black_box(self.reference_work());
        let us = thread_cpu_us() - t;
        self.samples.push((self.now(), us));
    }

    /// Takes `n` samples.
    pub fn samples(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// The slowdown over the whole run: the median sample over
    /// [`REFERENCE_US`], above 1 when this host ran slower than the
    /// reference host. 1 before any sample.
    pub fn slowdown(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median_over_reference(&all)
    }

    /// The slowdown around time `t` (see [`Self::now`]): from the samples
    /// within [`NEAR_S`] of it, or the [`MIN_NEAR`] nearest when fewer.
    pub fn near(&self, t: f64) -> f64 {
        let mut near: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| (s.0 - t).abs() <= NEAR_S)
            .map(|s| s.1)
            .collect();
        if near.len() < MIN_NEAR {
            let mut by_distance = self.samples.clone();
            by_distance.sort_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()));
            near = by_distance.iter().take(MIN_NEAR).map(|s| s.1).collect();
        }
        median_over_reference(&near)
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// CPU time the calling thread has used, µs.
fn thread_cpu_us() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

fn median_over_reference(samples_us: &[f64]) -> f64 {
    if samples_us.is_empty() {
        1.0
    } else {
        crate::report::percentile(samples_us, 0.5) / REFERENCE_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_computation_is_deterministic_and_timed() {
        let mut c = Calibrator::new();
        assert_eq!(c.reference_work(), Calibrator::new().reference_work());
        assert_eq!(c.slowdown(), 1.0);
        c.samples(3);
        assert_eq!(c.len(), 3);
        assert!(c.slowdown() > 0.0);
    }

    #[test]
    fn an_op_uses_the_samples_near_it() {
        let mut c = Calibrator::new();
        let at = |t: f64, us: f64| (t, us * REFERENCE_US);
        c.samples = vec![
            at(0.0, 1.0),
            at(0.1, 1.0),
            at(0.2, 1.0),
            at(0.3, 1.0),
            at(0.4, 1.0),
            at(10.0, 2.0),
            at(10.1, 2.0),
            at(10.2, 2.0),
            at(10.3, 2.0),
            at(10.4, 2.0),
            at(10.5, 2.0),
        ];
        assert_eq!(c.near(0.2), 1.0);
        assert_eq!(c.near(10.2), 2.0);
        // Nothing within NEAR_S: the five nearest samples.
        assert_eq!(c.near(4.0), 1.0);
        assert_eq!(c.slowdown(), 2.0);
    }
}
