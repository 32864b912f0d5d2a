//! Order statistics with honest tails.
//!
//! A percentile is reported only when the sample backs it: the nearest-rank
//! `p`-th percentile of `n` samples leaves `n - ceil(p·n)` samples beyond it,
//! and a tail needs at least [`MIN_BEYOND`] of them.  At 60 samples a "p99" is
//! the maximum, so this module reports the p50 instead, and says so.

/// Fewest samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, in basis points, lowest first.
pub const LADDER_BP: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The p99, in basis points.
pub const P99: u32 = 9_900;

/// A sorted sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (NaN-free by construction: every value is a measured
    /// duration or count).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// 1-based nearest rank of percentile `bp` (basis points): the smallest
    /// rank with at least `bp/10000` of the samples at or below it.
    fn rank(&self, bp: u32) -> usize {
        let n = self.sorted.len();
        ((bp as usize * n).div_ceil(10_000)).clamp(1, n.max(1))
    }

    /// Samples strictly beyond the nearest-rank percentile `bp`.
    pub fn beyond(&self, bp: u32) -> usize {
        self.sorted.len().saturating_sub(self.rank(bp))
    }

    /// The nearest-rank percentile `bp`, whether or not the sample backs it as
    /// a tail (`None` only for an empty sample).
    pub fn at(&self, bp: u32) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(bp) - 1])
    }

    /// The median.
    pub fn p50(&self) -> Option<f64> {
        self.at(5_000)
    }

    /// Percentile `bp`, only when at least [`MIN_BEYOND`] samples lie beyond it.
    pub fn backed(&self, bp: u32) -> Option<f64> {
        (self.beyond(bp) >= MIN_BEYOND)
            .then(|| self.at(bp))
            .flatten()
    }

    /// The highest ladder percentile the sample backs, as `(bp, value)`.
    pub fn tail(&self) -> Option<(u32, f64)> {
        LADDER_BP
            .iter()
            .rev()
            .find_map(|&bp| self.backed(bp).map(|v| (bp, v)))
    }
}

/// Percentile `bp` across the full windows of `size` consecutive `values` of
/// the per-window statistic `stat` (`None` without a full window; a trailing
/// partial window is left out).
pub fn windowed(
    values: &[f64],
    size: usize,
    bp: u32,
    stat: impl Fn(&Sample) -> Option<f64>,
) -> Option<f64> {
    let per_window = values
        .chunks_exact(size)
        .filter_map(|w| stat(&Sample::new(w.to_vec())))
        .collect();
    Sample::new(per_window).at(bp)
}

/// Renders a basis-point percentile as `p99`, `p99.9`, ...
pub fn label(bp: u32) -> String {
    let whole = bp / 100;
    match bp % 100 {
        0 => format!("p{whole}"),
        frac if frac % 10 == 0 => format!("p{whole}.{}", frac / 10),
        frac => format!("p{whole}.{frac:02}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Sample {
        Sample::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn empty_sample_reports_nothing() {
        let s = sample(0);
        assert_eq!(s.p50(), None);
        assert_eq!(s.backed(P99), None);
        assert_eq!(s.tail(), None);
    }

    #[test]
    fn single_sample_has_a_median_but_no_tail() {
        let s = sample(1);
        assert_eq!(s.p50(), Some(1.0));
        assert_eq!(s.at(P99), Some(1.0));
        assert_eq!(s.beyond(P99), 0);
        assert_eq!(s.tail(), None);
    }

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let s = sample(10);
        assert_eq!(s.p50(), Some(5.0));
        assert_eq!(s.at(9_000), Some(9.0));
        assert_eq!(s.at(P99), Some(10.0));
        let s = sample(4);
        assert_eq!(s.p50(), Some(2.0));
        assert_eq!(s.at(2_500), Some(1.0));
        assert_eq!(s.at(7_500), Some(3.0));
    }

    #[test]
    fn p99_at_sixty_samples_is_the_maximum_and_is_not_reported() {
        let s = sample(60);
        assert_eq!(s.at(P99), Some(60.0), "rounded rank lands on the maximum");
        assert_eq!(s.backed(P99), None);
        // 30 samples lie beyond the median, 6 beyond the p90.
        assert_eq!(s.tail(), Some((5_000, 30.0)));
    }

    #[test]
    fn tail_moves_up_the_ladder_exactly_at_the_edges() {
        assert_eq!(sample(19).tail(), None, "9 beyond the median");
        assert_eq!(sample(20).tail(), Some((5_000, 10.0)));
        assert_eq!(sample(99).tail().map(|t| t.0), Some(5_000));
        assert_eq!(sample(100).tail(), Some((9_000, 90.0)));
        assert_eq!(sample(999).tail().map(|t| t.0), Some(9_000));
        assert_eq!(sample(1_000).tail(), Some((P99, 990.0)));
        assert_eq!(sample(1_000).beyond(P99), 10);
        assert_eq!(sample(10_000).tail(), Some((9_990, 9_990.0)));
        assert_eq!(sample(100_000).tail(), Some((9_999, 99_990.0)));
    }

    #[test]
    fn ranks_are_exact_where_float_products_are_not() {
        // 0.99 * 1000 is 989.999... in binary floating point; basis points
        // keep the rank at exactly 990.
        let s = sample(1_000);
        assert_eq!(s.at(P99), Some(990.0));
        let s = sample(1_001);
        assert_eq!(s.at(P99), Some(991.0));
        assert_eq!(s.beyond(P99), 10);
    }

    #[test]
    fn windowed_quantiles_use_full_windows_only() {
        let values: Vec<f64> = (0..1_505).map(|v| v as f64).collect();
        assert_eq!(windowed(&values[..499], 500, 5_000, Sample::p50), None);
        // Window medians are 249, 749 and 1249; the partial fourth window is
        // ignored.
        assert_eq!(windowed(&values, 500, 5_000, Sample::p50), Some(749.0));
        assert_eq!(windowed(&values, 500, 1_000, Sample::p50), Some(249.0));
        // Window sums are 124750, 374750 and 624750.
        assert_eq!(
            windowed(&values, 500, 5_000, |w| Some(w.sum())),
            Some(374_750.0)
        );
        // A window of 500 backs its own p90 (50 beyond it), not a p99 (5).
        assert_eq!(
            windowed(&values, 500, 5_000, |s| s.backed(9_000)),
            Some(949.0)
        );
        assert_eq!(windowed(&values, 500, 5_000, |s| s.backed(P99)), None);
    }

    #[test]
    fn labels() {
        assert_eq!(label(5_000), "p50");
        assert_eq!(label(9_900), "p99");
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(9_999), "p99.99");
    }
}
