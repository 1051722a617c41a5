//! Order statistics for the benchmark's samples.
//!
//! A phase runs windows of identical work. The sandbox's memory system is
//! shared: for seconds at a time a neighbour slows every window by up to a
//! third, and a run may spend most of its time so disturbed. A disturbance
//! only ever adds time, so a run's value is computed over its *fastest
//! quarter* of windows ([`fastest_quarter`]): a rate over the work and time
//! they contain, a latency percentile over the fastest quarter of each use
//! case's samples. The
//! spread printed beside it is the inter-quartile range over *all*
//! windows, so the disturbance stays visible.

/// Value, spread and sample count of one metric within one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// Inter-quartile range (`q3 - q1`); 0 for fewer than two samples.
    pub iqr: f64,
    /// Samples behind the value.
    pub n: usize,
}

impl Summary {
    /// A value that is a single exact count, not a sample statistic.
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            iqr: 0.0,
            n: 1,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartile cut points `(q1, q2, q3)`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), because
/// that is what the acceptance driver applies to the per-run values.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let x = sorted(values);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median and inter-quartile range of a set of samples. Empty input
/// summarises to zero with `n == 0`, which the report prints as "not
/// measured on this workload".
pub fn summarize(values: &[f64]) -> Summary {
    match values {
        [] => Summary {
            value: 0.0,
            iqr: 0.0,
            n: 0,
        },
        [one] => Summary::exact(*one),
        _ => {
            let (q1, q2, q3) = quartiles(values).expect("two or more samples");
            Summary {
                value: q2,
                iqr: q3 - q1,
                n: values.len(),
            }
        }
    }
}

/// The fastest quarter of `windows` (at least one), fastest first, by
/// `cost` (lower is faster).
pub fn fastest_quarter<T>(windows: &[T], cost: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut ranked: Vec<&T> = windows.iter().collect();
    ranked.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    ranked.truncate((windows.len() / 4).max(1).min(windows.len()));
    ranked
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let x = sorted(values);
    if x.is_empty() {
        return 0.0;
    }
    let rank = ((q * x.len() as f64).ceil() as usize).clamp(1, x.len());
    x[rank - 1]
}

/// The highest of the conventional tail percentiles that still has at
/// least ten samples beyond it, or `None` when even p90 does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand): integer arithmetic, so
    // exactly 100 samples support p90.
    [(0.999, 1), (0.99, 10), (0.9, 100)]
        .into_iter()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille / 1000 >= 10)
        .map(|(q, _)| q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn window_median_and_iqr() {
        let s = summarize(&[8.0, 1.0, 4.0, 2.0, 7.0, 3.0, 6.0, 5.0]);
        assert_eq!(s.n, 8);
        assert_eq!(s.value, 4.5);
        assert_eq!(s.iqr, 6.75 - 2.25);
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(summarize(&[9.0]), Summary::exact(9.0));
    }

    #[test]
    fn fastest_quarter_ranks_by_cost_and_never_comes_back_empty() {
        let w = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 6.0];
        assert_eq!(fastest_quarter(&w, |x| *x), vec![&1.0, &2.0]);
        assert_eq!(fastest_quarter(&w, |x| -*x), vec![&8.0, &7.0]);
        assert_eq!(fastest_quarter(&w[..3], |x| *x), vec![&1.0]);
        assert!(fastest_quarter(&[] as &[f64], |x| *x).is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }
}
