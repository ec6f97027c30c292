//! Eviction policies and utility scoring (paper §4.2).

use crate::tuner::TunerConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Eviction policy of a [`HybridPrefixCache`](crate::HybridPrefixCache).
///
/// All policies share the same candidate set (nodes with ≤ 1 child) and
/// differ only in the utility score `S(n) = recency(n) + α ·
/// flop_efficiency(n)`:
///
/// * [`Lru`](EvictionPolicy::Lru) — `α = 0`; recency only. This is the
///   paper's SGLang+ baseline.
/// * [`FlopAware`](EvictionPolicy::FlopAware) — fixed `α`; used by the
///   offline-optimal oracle (artifact policy V3) and for ablations.
/// * [`AutoTuned`](EvictionPolicy::AutoTuned) — Marconi: start at `α = 0`,
///   snapshot at the first eviction, record a bootstrap window, then pick
///   the hit-rate-maximizing `α` by parallel grid-search replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Recency-only eviction (`α = 0`).
    Lru,
    /// FLOP-aware eviction with a fixed balance parameter.
    FlopAware {
        /// Weight of normalized FLOP efficiency relative to recency.
        alpha: f64,
    },
    /// FLOP-aware eviction with online α tuning (the full Marconi policy).
    AutoTuned(TunerConfig),
    /// GreedyDual-Size-Frequency (Cherkasova 1998), the classic cost-aware
    /// eviction the paper compares against in §4.2: priority
    /// `H = L + frequency · cost / size` with an inflation clock `L`.
    /// Included as an ablation baseline — size fails as a cost proxy for
    /// hybrid models because SSM states are length-independent.
    Gdsf,
}

impl Default for EvictionPolicy {
    /// The full Marconi policy with default tuner settings.
    fn default() -> Self {
        EvictionPolicy::AutoTuned(TunerConfig::default())
    }
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionPolicy::Lru => write!(f, "lru"),
            EvictionPolicy::FlopAware { alpha } => write!(f, "flop-aware(α={alpha})"),
            EvictionPolicy::AutoTuned(_) => write!(f, "flop-aware(auto-α)"),
            EvictionPolicy::Gdsf => write!(f, "gdsf"),
        }
    }
}

/// Per-candidate scoring inputs gathered by the cache before normalization.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<Id> {
    pub id: Id,
    pub last_access: f64,
    /// FLOPs a hit at this node saves relative to its parent, per byte the
    /// node's eviction would free. `f64::INFINITY` when eviction frees
    /// nothing (structural nodes whose KVs are absorbed by the child).
    pub flop_efficiency: f64,
}

/// Picks the eviction victim: lowest `recency + α·efficiency` after min-max
/// normalizing both terms across the candidates (the paper normalizes "by
/// comparing all nodes' last-accessed timestamps and FLOP saved/byte in the
/// radix tree"). Returns the victim's *position* in `candidates`.
///
/// Infinite-efficiency candidates (zero bytes freed) are kept unless
/// nothing else can be evicted when `α > 0`; at `α = 0` recency alone
/// decides for every candidate. Ties break toward older, then lower id, so
/// the chosen victim is the unique minimum of a strict total order — the
/// result is independent of candidate ordering.
///
/// The efficiency term is skipped outright at `α = 0` rather than
/// multiplied in: `0 · norm(∞)` is NaN, and the *sign* of a NaN produced
/// from non-NaN operands is unspecified by IEEE 754 — x86 returns the
/// negative default QNaN at runtime while compile-time constant folding
/// yields a positive one — so under `total_cmp` the same α = 0 pick could
/// differ between debug and release builds. Guarding the product keeps
/// every score finite and the order well-defined everywhere.
pub(crate) fn pick_victim_index<Id: Copy + Ord>(
    candidates: &[Candidate<Id>],
    alpha: f64,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let (mut ts_min, mut ts_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut eff_min, mut eff_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for c in candidates {
        ts_min = ts_min.min(c.last_access);
        ts_max = ts_max.max(c.last_access);
        if c.flop_efficiency.is_finite() {
            eff_min = eff_min.min(c.flop_efficiency);
            eff_max = eff_max.max(c.flop_efficiency);
        }
    }
    let norm = |v: f64, lo: f64, hi: f64| {
        if !v.is_finite() {
            return f64::INFINITY;
        }
        if hi > lo {
            (v - lo) / (hi - lo)
        } else {
            0.0
        }
    };
    candidates
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let score = |c: &Candidate<Id>| {
                let weighted = if alpha == 0.0 {
                    0.0
                } else {
                    alpha * norm(c.flop_efficiency, eff_min, eff_max)
                };
                norm(c.last_access, ts_min, ts_max) + weighted
            };
            score(a)
                .total_cmp(&score(b))
                .then(a.last_access.total_cmp(&b.last_access))
                .then(a.id.cmp(&b.id))
        })
        .map(|(i, _)| i)
}

/// Id-returning convenience over [`pick_victim_index`]; the pre-refactor
/// entry point, kept for the scan-based reference eviction the parity tests
/// replay against.
#[cfg(test)]
pub(crate) fn pick_victim<Id: Copy + Ord>(candidates: &[Candidate<Id>], alpha: f64) -> Option<Id> {
    pick_victim_index(candidates, alpha).map(|i| candidates[i].id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, ts: f64, eff: f64) -> Candidate<u32> {
        Candidate {
            id,
            last_access: ts,
            flop_efficiency: eff,
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(pick_victim::<u32>(&[], 1.0), None);
    }

    #[test]
    fn alpha_zero_is_pure_lru() {
        let cands = [cand(1, 5.0, 100.0), cand(2, 1.0, 1e9), cand(3, 3.0, 0.0)];
        assert_eq!(pick_victim(&cands, 0.0), Some(2), "oldest wins under LRU");
    }

    #[test]
    fn high_alpha_prefers_low_efficiency() {
        // Node 1 is oldest but extremely FLOP-efficient; node 2 is fresh but
        // inefficient. With a large α the inefficient node goes first.
        let cands = [cand(1, 0.0, 1e6), cand(2, 10.0, 1.0)];
        assert_eq!(pick_victim(&cands, 0.0), Some(1));
        assert_eq!(pick_victim(&cands, 100.0), Some(2));
    }

    #[test]
    fn alpha_zero_ranks_infinite_efficiency_by_recency_alone() {
        // At α = 0 the efficiency term must contribute exactly zero — not
        // 0·∞ = NaN, whose total_cmp rank depends on the NaN sign the
        // platform happens to produce. The zero-byte node here is strictly
        // older, so pure recency must evict it first, deterministically.
        let cands = [cand(1, 2.0, f64::INFINITY), cand(2, 5.0, 100.0)];
        assert_eq!(pick_victim(&cands, 0.0), Some(1));
        // ...and when it is younger, the finite node goes first.
        let cands = [cand(1, 9.0, f64::INFINITY), cand(2, 5.0, 100.0)];
        assert_eq!(pick_victim(&cands, 0.0), Some(2));
    }

    #[test]
    fn infinite_efficiency_evicted_last() {
        let cands = [cand(1, 0.0, f64::INFINITY), cand(2, 9.0, 5.0)];
        // Despite being older, the zero-byte node is never preferred when a
        // finite candidate exists and α > 0.
        assert_eq!(pick_victim(&cands, 1.0), Some(2));
        // ...but when everything is infinite, recency decides.
        let all_inf = [cand(1, 4.0, f64::INFINITY), cand(2, 2.0, f64::INFINITY)];
        assert_eq!(pick_victim(&all_inf, 1.0), Some(2));
    }

    #[test]
    fn degenerate_ranges_fall_back_to_id_order() {
        let cands = [cand(7, 1.0, 3.0), cand(3, 1.0, 3.0)];
        assert_eq!(pick_victim(&cands, 1.0), Some(3));
    }

    // ------------------------------------------------------------------
    // The scoring formula itself: S(n) = recency(n) + α·flop_efficiency(n)
    // over min-max-normalized terms, lowest score evicted (paper §4.2).
    // ------------------------------------------------------------------

    #[test]
    fn score_matches_normalized_formula_exactly() {
        // Hand-computed: timestamps {0, 5, 10} normalize to {0, 0.5, 1};
        // efficiencies {100, 300, 200} normalize to {0, 1, 0.5}.
        // With α = 1: S = {0+0, 0.5+1, 1+0.5} = {0, 1.5, 1.5} → evict 1.
        let cands = [
            cand(1, 0.0, 100.0),
            cand(2, 5.0, 300.0),
            cand(3, 10.0, 200.0),
        ];
        assert_eq!(pick_victim(&cands, 1.0), Some(1));
        // With α = 4: S = {0, 4.5, 3} → still evict 1 (old AND inefficient
        // dominates at any α ≥ 0).
        assert_eq!(pick_victim(&cands, 4.0), Some(1));
    }

    #[test]
    fn moderate_alpha_overrides_recency_for_efficiency() {
        // Node 1 is the LRU victim but highly FLOP-efficient (a long shared
        // prefix); node 2 is fresher but inefficient (a short sequence whose
        // SSM state dominates its footprint). Normalized: node 1 scores
        // 0 + α·1, node 2 scores 1 + α·0 — the crossover is exactly α = 1.
        let cands = [cand(1, 0.0, 1000.0), cand(2, 10.0, 10.0)];
        assert_eq!(pick_victim(&cands, 0.0), Some(1), "LRU picks oldest");
        assert_eq!(pick_victim(&cands, 0.5), Some(1), "below crossover");
        assert_eq!(pick_victim(&cands, 2.0), Some(2), "above crossover");
    }

    #[test]
    fn ordering_is_invariant_under_affine_rescaling() {
        // Min-max normalization makes the victim depend only on *relative*
        // position, so shifting/scaling all timestamps (seconds vs request
        // ids) or all efficiencies (FLOPs vs TFLOPs per byte) must not
        // change the decision.
        let base = [cand(1, 1.0, 7.0), cand(2, 3.0, 2.0), cand(3, 9.0, 5.0)];
        for alpha in [0.0, 0.5, 1.0, 2.0, 8.0] {
            let want = pick_victim(&base, alpha);
            let shifted: Vec<_> = base
                .iter()
                .map(|c| {
                    cand(
                        c.id,
                        1000.0 + 60.0 * c.last_access,
                        1e12 * c.flop_efficiency,
                    )
                })
                .collect();
            assert_eq!(pick_victim(&shifted, alpha), want, "α = {alpha}");
        }
    }

    #[test]
    fn victim_shifts_from_oldest_to_least_efficient_as_alpha_grows() {
        // Three-way tradeoff: 1 is oldest/most efficient, 3 is freshest/
        // least efficient, 2 sits between. Sweeping α must move the victim
        // monotonically from the LRU choice (1) to the efficiency choice (3)
        // without ever bouncing back.
        let cands = [
            cand(1, 0.0, 900.0),
            cand(2, 5.0, 500.0),
            cand(3, 10.0, 100.0),
        ];
        let sweep: Vec<u32> = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0]
            .iter()
            .map(|&a| pick_victim(&cands, a).unwrap())
            .collect();
        assert_eq!(*sweep.first().unwrap(), 1, "α=0 is LRU");
        assert_eq!(*sweep.last().unwrap(), 3, "large α is pure efficiency");
        assert!(
            sweep.windows(2).all(|w| w[0] <= w[1]),
            "monotone: {sweep:?}"
        );
    }

    #[test]
    fn default_policy_is_auto_tuned() {
        assert!(matches!(
            EvictionPolicy::default(),
            EvictionPolicy::AutoTuned(_)
        ));
    }

    #[test]
    fn display_names() {
        assert_eq!(EvictionPolicy::Lru.to_string(), "lru");
        assert!(EvictionPolicy::FlopAware { alpha: 2.0 }
            .to_string()
            .contains("α=2"));
        assert!(EvictionPolicy::default().to_string().contains("auto"));
    }
}
