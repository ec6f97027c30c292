//! Online α tuning (paper §4.2, "Managing the balance"): the tuner's
//! configuration, its state machine inside [`HybridPrefixCache`], the
//! replicas it replays against, and the one α sweep both it and the
//! offline oracle run.
//!
//! A sweep scores every α of a grid on its own thread — the paper
//! parallelizes the grid search across CPU cores — and [`best`] adopts the
//! hit-rate maximizer. The online tuner scores an α by replaying its
//! bootstrap window against a replica of the live cache
//! (`HybridPrefixCache::replica`); the oracle replays a whole trace
//! against a fresh cache ([`crate::oracle::best_static_alpha`]). Both
//! replays go through [`crate::oracle::replay`].

use crate::oracle::{replay, SequenceEvent};
use crate::policy::EvictionPolicy;
use crate::stats::CacheStats;
use crate::HybridPrefixCache;
use marconi_radix::Token;
use marconi_trace::{MissLedger, Tracer};
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

/// Internal tuner lifecycle (public view: [`TunerState`]).
#[derive(Debug, Clone)]
pub(crate) enum Tuner {
    Waiting {
        config: TunerConfig,
        requests_seen: u64,
    },
    Bootstrapping {
        config: TunerConfig,
        /// A [`replica`](HybridPrefixCache::replica) taken at the first
        /// pressure event; each α replays the window against a replica
        /// of it.
        snapshot: Box<HybridPrefixCache>,
        recorded: Vec<SequenceEvent>,
        target: u64,
    },
    Tuned {
        alpha: f64,
    },
}

impl HybridPrefixCache {
    /// Runs the α tuner state machine after an admission.
    pub(crate) fn observe_for_tuning(&mut self, input: &[Token], output: &[Token], now: f64) {
        let Some(tuner) = self.tuner.take() else {
            return;
        };
        self.tuner = Some(match tuner {
            Tuner::Waiting {
                config,
                requests_seen,
            } => {
                let requests_seen = requests_seen + 1;
                if self.stats.evictions + self.stats.demotions > 0 {
                    // First pressure event — a deletion, or (tiered) a
                    // demotion: snapshot and start the bootstrap window
                    // (recording begins with the *next* request). A tiered
                    // cache with an ample host budget may never delete,
                    // but α starts mattering at the first demotion: it
                    // decides which nodes stay device-resident vs pay a
                    // PCIe reload.
                    let target = config.window_len(requests_seen);
                    Tuner::Bootstrapping {
                        config,
                        snapshot: Box::new(self.replica(self.effective_alpha)),
                        recorded: Vec::new(),
                        target,
                    }
                } else {
                    Tuner::Waiting {
                        config,
                        requests_seen,
                    }
                }
            }
            Tuner::Bootstrapping {
                config,
                snapshot,
                mut recorded,
                target,
            } => {
                recorded.push(SequenceEvent {
                    input: input.to_vec(),
                    output: output.to_vec(),
                    at: now,
                });
                if (recorded.len() as u64) < target {
                    Tuner::Bootstrapping {
                        config,
                        snapshot,
                        recorded,
                        target,
                    }
                } else {
                    let sweep = sweep(&config.alpha_grid, |alpha| {
                        replay(&mut snapshot.replica(alpha), &recorded).token_hit_rate()
                    });
                    let (alpha, _) = best(&sweep);
                    self.effective_alpha = alpha;
                    Tuner::Tuned { alpha }
                }
            }
            tuned @ Tuner::Tuned { .. } => tuned,
        });
    }

    /// A fixed-α copy of this cache, for replay.
    ///
    /// A clone, so it keeps every behavioral knob — present or future —
    /// and the exact tree and residency state; it differs only in what a
    /// replay must not inherit. Anything less and the tuner grades each α
    /// against replay dynamics the live cache will never exhibit: e.g. a
    /// tiered cache's demoted entries keep hitting, so a single-tier
    /// replica would systematically underestimate reuse.
    pub(crate) fn replica(&self, alpha: f64) -> Self {
        let mut r = self.clone();
        // The live cache may have requests in flight; replay models no
        // request lifetimes, so the replica starts with every pin released
        // (the live pins drain by completion anyway — a replica keeping
        // them would protect paths forever).
        r.tree.clear_pins();
        r.name = "replica".into();
        r.policy = EvictionPolicy::FlopAware { alpha };
        r.tuner = None;
        r.effective_alpha = alpha;
        r.stats = CacheStats::default();
        r.kv_reused_blocks = 0;
        r.ssm_reused_blocks = 0;
        // Replicas replay silently: the tuner's grid-search probes are
        // hypotheticals, not serving decisions, so they never trace.
        r.tracer = Tracer::off();
        r.miss_ledger = MissLedger::default();
        #[cfg(test)]
        r.eviction_log.clear();
        r
    }
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
