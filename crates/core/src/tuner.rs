//! Online α tuning (paper §4.2, "Managing the balance"): the tuner's
//! configuration and the one α sweep both it and the offline oracle run.
//!
//! A sweep scores every α of a grid on its own thread — the paper
//! parallelizes the grid search across CPU cores — and [`best`] adopts the
//! hit-rate maximizer. The online tuner scores an α by replaying its
//! bootstrap window against a replica of the live cache
//! (`HybridPrefixCache::replica`); the oracle replays a whole trace
//! against a fresh cache ([`crate::oracle::best_static_alpha`]). Both
//! replays go through [`crate::oracle::replay`].

use serde::{Deserialize, Serialize};

/// Configuration of Marconi's online α tuner.
///
/// The paper's procedure: run with `α = 0` (LRU) until the first eviction;
/// snapshot the radix tree; keep serving with LRU while recording
/// token-level request information for a bootstrap window of 5–15× the
/// requests seen before the first eviction; then grid-search α by replaying
/// the window against the snapshot (one thread per α) and adopt the
/// hit-rate-maximizing value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Bootstrap window length as a multiple of the requests seen before
    /// the first eviction. The paper uses 5–15; default 10.
    pub bootstrap_multiplier: f64,
    /// α values to grid-search. Must be non-empty; 0 (pure LRU) is worth
    /// including so tuning can conclude recency alone is best.
    pub alpha_grid: Vec<f64>,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            bootstrap_multiplier: 10.0,
            alpha_grid: vec![0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0],
        }
    }
}

impl TunerConfig {
    /// Bootstrap window length for a given pre-eviction request count.
    #[must_use]
    pub(crate) fn window_len(&self, requests_before_first_eviction: u64) -> u64 {
        let w = (requests_before_first_eviction as f64 * self.bootstrap_multiplier).ceil() as u64;
        w.max(1)
    }
}

/// Read-only view of the tuner's lifecycle, exposed for diagnostics and
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TunerState {
    /// Serving with LRU; no eviction has happened yet.
    WaitingForFirstEviction,
    /// Snapshot taken; recording the bootstrap window (still serving LRU).
    Bootstrapping {
        /// Requests recorded so far.
        recorded: u64,
        /// Window length that triggers the grid search.
        target: u64,
    },
    /// Grid search finished; serving with the chosen α.
    Tuned {
        /// The adopted balance parameter.
        alpha: f64,
    },
}

/// Scores every α of `grid`, one scoped thread per α, and returns
/// `(α, score)` in grid order.
///
/// # Panics
///
/// Panics if `grid` is empty.
pub(crate) fn sweep(grid: &[f64], score: impl Fn(f64) -> f64 + Sync) -> Vec<(f64, f64)> {
    assert!(!grid.is_empty(), "alpha grid must be non-empty");
    let score = &score;
    std::thread::scope(|s| {
        let handles: Vec<_> = grid
            .iter()
            .map(|&alpha| s.spawn(move || (alpha, score(alpha))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("invariant: α replay threads do not panic"))
            .collect()
    })
}

/// The sweep's best `(α, score)`. Ties break toward the smaller α, so LRU
/// wins when FLOP awareness adds nothing.
pub(crate) fn best(sweep: &[(f64, f64)]) -> (f64, f64) {
    sweep
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.total_cmp(&a.0)))
        .expect("invariant: the α grid is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_contains_lru() {
        let c = TunerConfig::default();
        assert!(c.alpha_grid.contains(&0.0));
        assert!(c.bootstrap_multiplier >= 5.0 && c.bootstrap_multiplier <= 15.0);
    }

    #[test]
    fn window_len_scales_and_floors() {
        let c = TunerConfig::default();
        assert_eq!(c.window_len(0), 1);
        assert_eq!(c.window_len(7), 70);
    }
}
