//! Five-number box statistics with P5/P95 whiskers (paper Fig. 7 style).

use crate::Percentiles;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Box-plot statistics as the paper draws them: quartile box with whiskers
/// at the 5th and 95th percentile ("allowing us to disregard extreme data").
///
/// # Examples
///
/// ```
/// use marconi_metrics::BoxStats;
///
/// let values: Vec<f64> = (0..=100).map(f64::from).collect();
/// let b = BoxStats::new(&values).unwrap();
/// assert_eq!(b.median, 50.0);
/// assert_eq!(b.whisker_lo, 5.0);
/// assert_eq!(b.whisker_hi, 95.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Lower whisker (P5).
    pub whisker_lo: f64,
    /// First quartile (P25).
    pub q1: f64,
    /// Median (P50).
    pub median: f64,
    /// Third quartile (P75).
    pub q3: f64,
    /// Upper whisker (P95).
    pub whisker_hi: f64,
    /// Arithmetic mean (reported alongside boxes in the paper's text).
    pub mean: f64,
}

impl BoxStats {
    /// Computes box statistics; `None` for empty or NaN-containing input.
    #[must_use]
    pub fn new(values: &[f64]) -> Option<Self> {
        let p = Percentiles::new(values)?;
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Some(BoxStats {
            whisker_lo: p.p5(),
            q1: p.p25(),
            median: p.median(),
            q3: p.p75(),
            whisker_hi: p.p95(),
            mean,
        })
    }
}

impl fmt::Display for BoxStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P5 {:.2} | Q1 {:.2} | med {:.2} | Q3 {:.2} | P95 {:.2} (mean {:.2})",
            self.whisker_lo, self.q1, self.median, self.q3, self.whisker_hi, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_numbers_ordered() {
        let values: Vec<f64> = (0..1000).map(|i| f64::from(i % 97)).collect();
        let b = BoxStats::new(&values).unwrap();
        assert!(b.whisker_lo <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.whisker_hi);
    }

    #[test]
    fn mean_of_uniform() {
        let values: Vec<f64> = (0..=10).map(f64::from).collect();
        let b = BoxStats::new(&values).unwrap();
        assert!((b.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rejected() {
        assert!(BoxStats::new(&[]).is_none());
    }

    #[test]
    fn display_contains_all_fields() {
        let b = BoxStats::new(&[1.0, 2.0, 3.0]).unwrap();
        let s = b.to_string();
        assert!(s.contains("P5") && s.contains("P95") && s.contains("med"));
    }
}
