//! Log2-bucketed latency histogram for per-batch shard busy time.
//!
//! The sharded runtime folds per-shard busy nanoseconds at every epoch
//! barrier; a fleet health checker comparing devices needs their
//! *distribution*, cheaply and mergeably. [`BusyHistogram`] is the standard
//! trick: 64 power-of-two buckets (bucket `i` counts samples with
//! `floor(log2(ns)) == i`, bucket 0 also holding zero), fixed memory, O(1)
//! record, lossless merge, and quantile estimates good to a factor of two —
//! exactly the resolution a "device X is 8x slower than its peers" decision
//! needs.

use serde::Serialize;

/// Number of buckets: one per possible `floor(log2)` of a `u64` sample.
const BUCKETS: usize = 64;

/// A log2-bucketed histogram of per-batch busy-time samples (nanoseconds).
///
/// Folded at shard epoch barriers (one sample per barrier reply) and
/// exposed through the master stats fold, so the wire-level fleet health
/// checker gets a real latency signal instead of a scalar proxy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BusyHistogram {
    /// `buckets[i]` counts samples whose value `v` satisfies
    /// `floor(log2(max(v, 1))) == i`. Always `BUCKETS` long (a `Vec`
    /// only because the vendored serde has no fixed-array impls).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (ns) — preserves the exact mean across merges.
    pub total_ns: u64,
    /// Largest single sample seen (ns).
    pub max_ns: u64,
}

impl Default for BusyHistogram {
    fn default() -> Self {
        BusyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl BusyHistogram {
    /// Records one per-batch busy-time sample.
    pub fn record(&mut self, ns: u64) {
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram into this one (lossless: buckets add).
    pub fn merge(&mut self, other: &BusyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean sample (ns), 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding quantile `q` (0.0..=1.0): the
    /// estimate is exact to within a factor of two. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // Bucket i spans [2^i, 2^(i+1)); report the exclusive top.
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        self.max_ns
    }

    /// Resets all counters to empty.
    pub fn clear(&mut self) {
        *self = BusyHistogram::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let mut h = BusyHistogram::default();
        h.record(0); // bucket 0 (clamped to 1)
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.max_ns, 1024);
        assert_eq!(h.total_ns, 1030);
    }

    #[test]
    fn quantiles_bound_within_factor_of_two() {
        let mut h = BusyHistogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1_000_000); // bucket 19
        let p50 = h.quantile_ns(0.5);
        assert!((100..200).contains(&p50), "p50={p50}");
        let p100 = h.quantile_ns(1.0);
        assert!(p100 >= 1_000_000, "p100={p100}");
        assert_eq!(h.quantile_ns(0.0), p50); // rank clamps to 1 → same bucket
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = BusyHistogram::default();
        let mut b = BusyHistogram::default();
        let mut whole = BusyHistogram::default();
        for i in 0..1000u64 {
            let v = i * 97 + 3;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = BusyHistogram::default();
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
    }
}
