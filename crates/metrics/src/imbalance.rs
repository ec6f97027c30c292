//! Load-imbalance statistics for sharded-cluster experiments.

use serde::{Deserialize, Serialize};

/// How unevenly a quantity (routed tokens, requests, bytes) is spread
/// across the replicas of a cluster.
///
/// The number is [`factor`](LoadImbalance::factor) — the classic
/// *imbalance factor* `max / mean`, 1.0 for a perfectly balanced cluster
/// and up to `n` when one of `n` replicas carries everything.
///
/// # Examples
///
/// ```
/// use marconi_metrics::LoadImbalance;
///
/// let balanced = LoadImbalance::new(&[10.0, 10.0, 10.0]).unwrap();
/// assert_eq!(balanced.factor(), 1.0);
///
/// let skewed = LoadImbalance::new(&[30.0, 0.0, 0.0]).unwrap();
/// assert_eq!(skewed.factor(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadImbalance {
    max: f64,
    mean: f64,
}

impl LoadImbalance {
    /// Computes imbalance statistics over per-replica loads.
    ///
    /// Returns `None` for an empty slice. An all-zero cluster (no load
    /// anywhere) is defined as perfectly balanced: `factor() == 1.0`.
    #[must_use]
    pub fn new(loads: &[f64]) -> Option<LoadImbalance> {
        if loads.is_empty() {
            return None;
        }
        let n = loads.len() as f64;
        let mean = loads.iter().sum::<f64>() / n;
        let max = loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(LoadImbalance { max, mean })
    }

    /// Imbalance factor `max / mean` (≥ 1.0; 1.0 = perfectly balanced).
    #[must_use]
    pub fn factor(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_yields_none() {
        assert!(LoadImbalance::new(&[]).is_none());
    }

    #[test]
    fn balanced_cluster_scores_one() {
        let b = LoadImbalance::new(&[5.0, 5.0, 5.0, 5.0]).unwrap();
        assert_eq!(b.factor(), 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.mean, 5.0);
    }

    #[test]
    fn fully_skewed_cluster_scores_n() {
        let s = LoadImbalance::new(&[0.0, 0.0, 0.0, 40.0]).unwrap();
        assert_eq!(s.factor(), 4.0);
    }

    #[test]
    fn idle_cluster_counts_as_balanced() {
        let z = LoadImbalance::new(&[0.0, 0.0]).unwrap();
        assert_eq!(z.factor(), 1.0);
    }

    #[test]
    fn moderate_skew_sits_between() {
        let m = LoadImbalance::new(&[10.0, 20.0, 30.0]).unwrap();
        assert!((m.mean - 20.0).abs() < 1e-12);
        assert!((m.factor() - 1.5).abs() < 1e-12);
    }
}
