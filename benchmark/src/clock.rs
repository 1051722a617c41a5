//! Clock-speed calibration for every timed window.
//!
//! The sandbox's cores wander between turbo bins on a scale of seconds: a
//! fixed dependent-multiply chain takes between 285.6 µs and 367 µs per
//! 200,000 iterations on it, in discrete steps, and a 15-second run sees a
//! different mix of bins every time. Measured raw, `fwd_pps` on `fwd_base`
//! spreads by 23 % between runs of the same code, which would drown any
//! 5–10 % bound.
//!
//! So every timed window is followed by one short run of that chain
//! (register-only, a fixed number of core cycles per iteration, so its
//! duration is inversely proportional to the core clock and to nothing
//! else), and the window is reported as the time it would have taken with
//! the chain running at [`REF_NS_PER_ITER`]: `raw × REF / measured`. What
//! a change to the program does to the window still shows in full; what the
//! host does to the clock cancels. Memory-bound time does not scale with
//! the core clock, so the correction is partial where the working set
//! leaves the caches (`fwd_fib`). The mean raw-to-scaled factor of a run is
//! written to its result file as `clock_scale`.

use std::hint::black_box;
use std::time::Instant;

/// Iterations per calibration sample: about 15 µs, 5 % of a burst.
const SAMPLE_ITERS: u32 = 8192;
/// The chain's time per iteration that windows are scaled to, ns: five
/// cycles at 2.75 GHz, the bin this sandbox's cores sit in most of the
/// time. Another host's own figure differs by a constant factor, which
/// cancels between two runs on that host.
pub const REF_NS_PER_ITER: f64 = 5.0 / 2.75;

/// A dependent multiply-add-xorshift chain: no memory access, no
/// instruction-level parallelism, so a fixed cycle count per iteration.
#[inline(never)]
fn chain(iters: u32, mut x: u64) -> u64 {
    for _ in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    x
}

/// The calibrator: holds the latest sample.
#[derive(Debug)]
pub struct Clock {
    last_ns_per_iter: f64,
    seed: u64,
    /// Σ and count of the factors applied, for the run's mean factor.
    scale_sum: f64,
    windows: u64,
}

impl Default for Clock {
    fn default() -> Self {
        let mut c = Clock {
            last_ns_per_iter: REF_NS_PER_ITER,
            seed: 1,
            scale_sum: 0.0,
            windows: 0,
        };
        c.last_ns_per_iter = c.sample();
        c
    }
}

impl Clock {
    /// One calibration sample: the chain's ns per iteration right now.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.seed = black_box(chain(SAMPLE_ITERS, black_box(self.seed)));
        t.elapsed().as_nanos() as f64 / f64::from(SAMPLE_ITERS)
    }

    /// Call at the start of a timed window that does not directly follow
    /// another: refreshes the "before" sample.
    pub fn mark(&mut self) {
        self.last_ns_per_iter = self.sample();
    }

    /// Call right after a timed window of `raw_secs`: takes the "after"
    /// sample and returns the window scaled to the reference clock. The
    /// smaller of the two samples around the window is used, so an
    /// interrupt that lands in one of them does not distort the window.
    pub fn scaled(&mut self, raw_secs: f64) -> f64 {
        let after = self.sample();
        let around = after.min(self.last_ns_per_iter);
        self.last_ns_per_iter = after;
        let scale = REF_NS_PER_ITER / around;
        self.scale_sum += scale;
        self.windows += 1;
        raw_secs * scale
    }

    /// Mean scaled-over-raw factor of every window so far (1 means the
    /// core ran at the reference clock throughout).
    pub fn mean_scale(&self) -> f64 {
        if self.windows == 0 {
            1.0
        } else {
            self.scale_sum / self.windows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_calibration_sample() {
        // Pretend the core ran twice as slow as the reference around the
        // window: the chain took twice the reference time.
        let mut c = Clock {
            last_ns_per_iter: 2.0 * REF_NS_PER_ITER,
            ..Clock::default()
        };
        let raw = 1.0;
        let scaled = c.scaled(raw);
        // The "after" sample is real, so only bounds can be asserted: the
        // factor is REF / min(before, after), hence at least 0.5.
        assert!(scaled >= 0.5 * raw);
        assert!(scaled.is_finite() && scaled > 0.0);
        assert!(c.mean_scale() > 0.0);
    }

    #[test]
    fn chain_depends_on_its_input_and_length() {
        assert_ne!(chain(10, 1), chain(10, 2));
        assert_ne!(chain(10, 1), chain(11, 1));
        assert_eq!(chain(0, 7), 7);
    }
}
