//! Order statistics over one sorted sample: percentiles with linear
//! interpolation, and the empirical CDF (Fig. 9, Fig. 10b).

use serde::{Deserialize, Serialize};

/// Exact percentiles over a finite sample.
///
/// Values are sorted once at construction; quantiles use the standard
/// linear-interpolation estimator (NumPy's default): for quantile `q` over
/// `n` values, the rank is `q·(n−1)` and fractional ranks interpolate
/// between neighbours.
///
/// # Examples
///
/// ```
/// use marconi_metrics::Percentiles;
///
/// let p = Percentiles::new(&[10.0, 0.0]).unwrap();
/// assert_eq!(p.quantile(0.5), 5.0);
/// assert_eq!(p.p95(), 9.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Builds from a sample; returns `None` for an empty sample or one
    /// containing NaN.
    #[must_use]
    pub fn new(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("invariant: samples are finite, never NaN")
        });
        Some(Percentiles { sorted })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if the sample is empty (cannot happen for a constructed
    /// value; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile for `q ∈ [0, 1]`, linearly interpolated.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let rank = q * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// 5th percentile (the paper's lower whisker).
    #[must_use]
    pub fn p5(&self) -> f64 {
        self.quantile(0.05)
    }

    /// 25th percentile.
    #[must_use]
    pub fn p25(&self) -> f64 {
        self.quantile(0.25)
    }

    /// Median.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 75th percentile.
    #[must_use]
    pub fn p75(&self) -> f64 {
        self.quantile(0.75)
    }

    /// 95th percentile (the paper's headline tail statistic).
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Maximum sample value.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self
            .sorted
            .last()
            .expect("invariant: sorted samples are non-empty")
    }

    /// Fraction of samples `≤ threshold` — SLO attainment when the sample
    /// is a latency distribution and `threshold` the SLO.
    ///
    /// # Examples
    ///
    /// ```
    /// use marconi_metrics::Percentiles;
    ///
    /// let p = Percentiles::new(&[10.0, 20.0, 30.0, 40.0]).unwrap();
    /// assert_eq!(p.fraction_le(25.0), 0.5);
    /// assert_eq!(p.fraction_le(5.0), 0.0);
    /// assert_eq!(p.fraction_le(40.0), 1.0);
    /// ```
    #[must_use]
    pub fn fraction_le(&self, threshold: f64) -> f64 {
        let met = self.sorted.partition_point(|&v| v <= threshold);
        met as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF at `q ∈ (0, 1]` (nearest rank): the smallest sample `x`
    /// with [`fraction_le(x)`](Percentiles::fraction_le) `≥ q`.
    ///
    /// # Examples
    ///
    /// ```
    /// use marconi_metrics::Percentiles;
    ///
    /// let p = Percentiles::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert_eq!(p.inverse(0.5), 2.0);
    /// assert_eq!(p.inverse(0.51), 3.0);
    /// assert_eq!(p.inverse(1.0), 4.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    #[must_use]
    pub fn inverse(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "q {q} outside (0, 1]");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// The empirical CDF's `(x, P(X ≤ x))` plotting points: one per sample,
    /// deduplicated on `x`.
    #[must_use]
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match pts.last_mut() {
                Some(last) if last.0 == x => last.1 = y,
                _ => pts.push((x, y)),
            }
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_nan_rejected() {
        assert!(Percentiles::new(&[]).is_none());
        assert!(Percentiles::new(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn single_value() {
        let p = Percentiles::new(&[7.0]).unwrap();
        assert_eq!(p.quantile(0.0), 7.0);
        assert_eq!(p.max(), 7.0);
        assert_eq!(p.median(), 7.0);
        assert_eq!(p.p95(), 7.0);
    }

    #[test]
    fn interpolation_matches_numpy_convention() {
        let p = Percentiles::new(&[0.0, 10.0]).unwrap();
        assert_eq!(p.quantile(0.0), 0.0);
        assert_eq!(p.quantile(0.25), 2.5);
        assert_eq!(p.quantile(0.5), 5.0);
        assert_eq!(p.quantile(1.0), 10.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let p = Percentiles::new(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(p.sorted, [1.0, 2.0, 3.0]);
        assert_eq!(p.median(), 2.0);
    }

    #[test]
    fn named_percentiles_are_monotone() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let p = Percentiles::new(&values).unwrap();
        assert!(p.p5() < p.p25());
        assert!(p.p25() < p.median());
        assert!(p.median() < p.p75());
        assert!(p.p75() < p.p95());
        assert!(p.p95() < p.p99());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_quantile_panics() {
        let p = Percentiles::new(&[1.0]).unwrap();
        let _ = p.quantile(1.5);
    }

    #[test]
    fn step_behaviour_with_duplicates() {
        let p = Percentiles::new(&[1.0, 1.0, 2.0]).unwrap();
        assert!((p.fraction_le(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.fraction_le(2.0), 1.0);
        let pts = p.points();
        assert_eq!(pts.len(), 2, "duplicates collapse");
        assert_eq!(pts[0], (1.0, 2.0 / 3.0));
    }

    #[test]
    fn inverse_round_trips() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::new(&values).unwrap();
        assert_eq!(p.inverse(0.5), 50.0);
        assert_eq!(p.inverse(1.0), 100.0);
        assert_eq!(p.inverse(0.01), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn inverse_zero_panics() {
        let p = Percentiles::new(&[1.0]).unwrap();
        let _ = p.inverse(0.0);
    }
}
