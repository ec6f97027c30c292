//! Fixed-point latency distribution summaries.

use crate::percentile::Percentiles;
use serde::{Deserialize, Serialize};

/// The latency distribution view every serving report exposes: the paper's
/// named order statistics (P50/P95/P99), printed with the count, the mean
/// and the maximum.
///
/// Built once from a sample via [`Percentiles`]; units follow the sample
/// (this repo always summarizes milliseconds).
///
/// # Examples
///
/// ```
/// use marconi_metrics::LatencySummary;
///
/// let s = LatencySummary::new(&[10.0, 20.0, 30.0, 40.0]).unwrap();
/// assert_eq!(s.p50(), 25.0);
/// assert_eq!(
///     s.to_string(),
///     "n=4 mean=25.0 p50=25.0 p95=38.5 p99=39.7 max=40.0"
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    count: usize,
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max: f64,
}

impl LatencySummary {
    /// Summarizes a sample; returns `None` for an empty sample or one
    /// containing NaN (same domain as [`Percentiles::new`]).
    #[must_use]
    pub fn new(values: &[f64]) -> Option<Self> {
        let p = Percentiles::new(values)?;
        Some(LatencySummary {
            count: p.len(),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            p50: p.median(),
            p95: p.p95(),
            p99: p.p99(),
            max: p.max(),
        })
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.p50
    }

    /// 95th percentile — the paper's headline tail statistic.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.p95
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.p99
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_nan_rejected() {
        assert!(LatencySummary::new(&[]).is_none());
        assert!(LatencySummary::new(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn summary_matches_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencySummary::new(&values).unwrap();
        let p = Percentiles::new(&values).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.p50(), p.median());
        assert_eq!(s.p95(), p.p95());
        assert_eq!(s.p99(), p.p99());
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn single_sample_is_degenerate() {
        let s = LatencySummary::new(&[42.0]).unwrap();
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.p50(), 42.0);
        assert_eq!(s.p99(), 42.0);
    }

    #[test]
    fn display_names_the_tail() {
        let s = LatencySummary::new(&[1.0, 2.0]).unwrap().to_string();
        assert!(s.contains("p95"), "got {s}");
    }
}
