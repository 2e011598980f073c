//! Host-speed calibration.
//!
//! The benchmark runs on a 2-vCPU host shared with other tenants. Its
//! speed drifts by ±20 % over minutes and by more over hours, so raw
//! wall times of the same code differ between runs taken ten minutes
//! apart by more than any useful regression bound. Each timed step is
//! therefore bracketed by a fixed calibration workload that belongs to
//! the benchmark, not the program, and end-to-end times are scaled to a
//! host on which that workload takes [`REFERENCE`]. A change to the program moves the scaled
//! time exactly as it moves the raw one; a change in host speed moves the
//! calibration too and largely cancels.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calibration time of the reference host.
pub const REFERENCE: Duration = Duration::from_millis(80);

/// 16 MiB of `u64`s: larger than the caches, like the program's tables.
const WORDS: usize = 1 << 21;
/// Read-modify-write steps per calibration.
const STEPS: usize = 4_000_000;
/// Arithmetic steps per calibration. The simulator is as much float
/// arithmetic and small allocations as memory traffic; with this half
/// the calibration tracked campaign and set-up times more closely than
/// the memory half alone.
const COMPUTE_STEPS: usize = 12_000_000;

/// A reusable calibration buffer plus every calibration time it measured.
pub struct Calibrator {
    buf: RefCell<Vec<u64>>,
    seen: RefCell<Vec<Duration>>,
}

impl Calibrator {
    /// Allocate and touch the buffer, so that page faults stay out of
    /// every later measurement.
    pub fn new() -> Calibrator {
        let c = Calibrator {
            buf: RefCell::new(vec![1; WORDS]),
            seen: RefCell::new(Vec::new()),
        };
        c.time_workload();
        c
    }

    fn time_workload(&self) -> Duration {
        let mut buf = self.buf.borrow_mut();
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % WORDS as u64) as usize;
            buf[j] = buf[j].wrapping_add(x ^ i as u64);
        }
        black_box(&mut *buf);
        let mut acc = 0.0f64;
        let mut small: Vec<Vec<u64>> = Vec::new();
        for i in 0..COMPUTE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += ((x >> 11) as f64 * 1e-16).sqrt();
            if i % 64 == 0 {
                if small.len() == 256 {
                    small.clear();
                }
                small.push(vec![x; 32]);
            }
        }
        black_box((acc, &small));
        t.elapsed()
    }

    /// Run `f` between two calibrations. Returns its result and the
    /// factor that scales a time measured inside `f` to the reference
    /// host: [`REFERENCE`] ÷ the mean of the two calibration times.
    pub fn bracket<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.time_workload();
        let out = f();
        let after = self.time_workload();
        self.seen.borrow_mut().extend([before, after]);
        let mean = (before + after).as_secs_f64() / 2.0;
        (out, REFERENCE.as_secs_f64() / mean)
    }

    /// Time `f` between two calibrations. Returns its result and its
    /// wall time in seconds, scaled to the reference host.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let ((out, secs), k) = self.bracket(|| {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        });
        (out, secs * k)
    }

    /// Every calibration time measured by [`Calibrator::bracket`].
    pub fn seen(&self) -> Vec<Duration> {
        self.seen.borrow().clone()
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_scales_by_the_mean_of_its_two_calibrations() {
        let c = Calibrator::new();
        let (out, k) = c.bracket(|| 7);
        assert_eq!(out, 7);
        let seen = c.seen();
        assert_eq!(seen.len(), 2);
        let mean = (seen[0] + seen[1]).as_secs_f64() / 2.0;
        assert!((k - REFERENCE.as_secs_f64() / mean).abs() < 1e-12);
    }
}
