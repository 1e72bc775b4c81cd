//! Summaries of timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count, so that a tail figure is never read off a handful of
//! points.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, in ascending order.
const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Nearest-rank `p`-th percentile of `samples` (any order). `NaN` when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `samples`: the middle value, or the mean of the two middle
/// values of an even count. `NaN` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 || n == 0 {
        return percentile(samples, 50.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

/// Arithmetic mean of `samples`; `NaN` when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A percentile as reported: which one, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was read from.
    pub n: usize,
}

/// The highest percentile no higher than `want` that has at least
/// [`MIN_BEYOND`] samples beyond it. Falls back to the median when even
/// that has fewer (under `2 * MIN_BEYOND + 1` samples): the report then
/// says p50 with its sample count rather than inventing a tail.
pub fn tail_at_most(samples: &[f64], want: f64) -> Tail {
    let n = samples.len();
    let percentile = TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= want && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    let value = if percentile == 50.0 {
        median(samples)
    } else {
        self::percentile(samples, percentile)
    };
    Tail {
        percentile,
        value,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_a_hundred_samples_and_p99_a_thousand() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);

        let t = tail_at_most(&ramp(100), 90.0);
        assert_eq!((t.percentile, t.value, t.n), (90.0, 90.0, 100));
        // 99 samples: p90 has only 9 beyond it, so the tail drops to p50.
        let t = tail_at_most(&ramp(99), 90.0);
        assert_eq!((t.percentile, t.n), (50.0, 99));
        // Asking for p99 of 500 samples reports p90 instead.
        let t = tail_at_most(&ramp(500), 99.0);
        assert_eq!((t.percentile, t.value), (90.0, 450.0));
        let t = tail_at_most(&ramp(1000), 99.0);
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
    }

    #[test]
    fn tiny_sample_sets_fall_back_to_the_median() {
        let t = tail_at_most(&[5.0, 1.0, 4.0, 3.0, 2.0], 90.0);
        assert_eq!((t.percentile, t.value, t.n), (50.0, 3.0, 5));
        // Every reported tail keeps MIN_BEYOND samples beyond it, or is p50.
        for n in 1..1200 {
            let t = tail_at_most(&ramp(n), 99.9);
            assert!(t.percentile == 50.0 || beyond(n, t.percentile) >= MIN_BEYOND);
        }
    }
}
