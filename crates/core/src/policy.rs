//! Eviction policies and utility scoring (paper §4.2).

use crate::tuner::TunerConfig;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
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

/// The min-max normalisation behind `S(n) = recency(n) + α ·
/// flop_efficiency(n)` (the paper normalizes "by comparing all nodes'
/// last-accessed timestamps and FLOP saved/byte in the radix tree"), and the
/// only place a score is computed: the reference
/// ([`pick_victim_index`]), the cache's debug cross-check and the banded
/// walk ([`pick_victim_banded`]) all call [`score`](Self::score) or its two
/// addends, so their arithmetic is bit-equal by construction.
///
/// **Monotonicity**, which the banded walk rests on: IEEE 754 subtraction,
/// division by a positive value, multiplication by a non-negative value and
/// addition are each monotone non-decreasing under round-to-nearest, so
/// [`recency`](Self::recency) never decreases as the stamp grows,
/// [`weighted`](Self::weighted) never decreases as the efficiency grows,
/// and their sum never decreases in either — in floating point, not merely
/// over the reals. A lower bound on a candidate's stamp and efficiency is
/// therefore a lower bound on its *computed* score, with no epsilon.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Normalizer {
    ts_min: f64,
    ts_max: f64,
    /// Extremes over the *finite* efficiencies only.
    eff_min: f64,
    eff_max: f64,
    alpha: f64,
}

impl Normalizer {
    /// The normalisation over `candidates`: one pass, every candidate.
    fn over<Id>(candidates: &[Candidate<Id>], alpha: f64) -> Self {
        let mut n = Normalizer {
            ts_min: f64::INFINITY,
            ts_max: f64::NEG_INFINITY,
            eff_min: f64::INFINITY,
            eff_max: f64::NEG_INFINITY,
            alpha,
        };
        for c in candidates {
            n.ts_min = n.ts_min.min(c.last_access);
            n.ts_max = n.ts_max.max(c.last_access);
            if c.flop_efficiency.is_finite() {
                n.eff_min = n.eff_min.min(c.flop_efficiency);
                n.eff_max = n.eff_max.max(c.flop_efficiency);
            }
        }
        n
    }

    /// Min-max position of `v` in `[lo, hi]`; infinite for a non-finite
    /// `v`, zero on a degenerate range.
    fn norm(v: f64, lo: f64, hi: f64) -> f64 {
        if !v.is_finite() {
            return f64::INFINITY;
        }
        if hi > lo {
            (v - lo) / (hi - lo)
        } else {
            0.0
        }
    }

    /// The recency term of the score.
    fn recency(&self, last_access: f64) -> f64 {
        Self::norm(last_access, self.ts_min, self.ts_max)
    }

    /// The efficiency term of the score, `α`-weighted.
    ///
    /// Skipped outright at `α = 0` rather than multiplied in: `0 · norm(∞)`
    /// is NaN, and the *sign* of a NaN produced from non-NaN operands is
    /// unspecified by IEEE 754 — x86 returns the negative default QNaN at
    /// runtime while compile-time constant folding yields a positive one —
    /// so under `total_cmp` the same α = 0 pick could differ between debug
    /// and release builds. Guarding the product keeps every score finite
    /// and the order well-defined everywhere.
    fn weighted(&self, flop_efficiency: f64) -> f64 {
        if self.alpha == 0.0 {
            0.0
        } else {
            self.alpha * Self::norm(flop_efficiency, self.eff_min, self.eff_max)
        }
    }

    /// `S(n)`: the one scoring expression.
    fn score(&self, last_access: f64, flop_efficiency: f64) -> f64 {
        self.recency(last_access) + self.weighted(flop_efficiency)
    }
}

/// The victim order: lowest score, ties toward older, then lower id — a
/// strict total order, so its minimum is independent of candidate ordering.
fn victim_order<Id: Ord>(a: (f64, f64, Id), b: (f64, f64, Id)) -> Ordering {
    a.0.total_cmp(&b.0)
        .then(a.1.total_cmp(&b.1))
        .then(a.2.cmp(&b.2))
}

/// Picks the eviction victim: lowest `recency + α·efficiency` after min-max
/// normalizing both terms across the candidates ([`Normalizer`]). Returns
/// the victim's *position* in `candidates`. This is the reference: one full
/// pass, each candidate scored once.
///
/// Infinite-efficiency candidates (zero bytes freed) are kept unless
/// nothing else can be evicted when `α > 0`; at `α = 0` recency alone
/// decides for every candidate. Ties break toward older, then lower id
/// ([`victim_order`]).
pub(crate) fn pick_victim_index<Id: Copy + Ord>(
    candidates: &[Candidate<Id>],
    alpha: f64,
) -> Option<usize> {
    let n = Normalizer::over(candidates, alpha);
    candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let score = n.score(c.last_access, c.flop_efficiency);
            (i, (score, c.last_access, c.id))
        })
        .min_by(|(_, a), (_, b)| victim_order(*a, *b))
        .map(|(i, _)| i)
}

/// Bits of an efficiency's `f64` representation below the band boundary:
/// 51 keeps the exponent and the top mantissa bit, i.e. two bands per
/// octave. A constant, not a knob: measured against one band per octave it
/// halves the candidates read per victim on a 5.6k pool (365 → 185) for
/// +34% replay throughput on `resident_10k` and leaves `agent_pressure`'s
/// 90-candidate pool where it was; four per octave reads 143, buys 12% more
/// on the former and loses 2–4% on the latter.
const BAND_SHIFT: u32 = 51;

/// The band an efficiency belongs to: `1 +` the leading bits of its `f64`
/// representation, so bands partition `[0, ∞]` into consecutive ranges,
/// ascending class is ascending efficiency, and `∞` sits alone in the top
/// class. Class 0 is left to mean "unclassed".
pub(crate) fn efficiency_class(flop_efficiency: f64) -> u16 {
    debug_assert!(
        flop_efficiency >= 0.0,
        "efficiencies are non-negative, got {flop_efficiency}"
    );
    1 + (flop_efficiency.to_bits() >> BAND_SHIFT) as u16
}

/// The smallest efficiency [`efficiency_class`] files under `class` (0 for
/// the unclassed band, `∞` for the top class).
pub(crate) fn class_lower_edge(class: u16) -> f64 {
    f64::from_bits(u64::from(class.saturating_sub(1)) << BAND_SHIFT)
}

/// `pick` (a minimum or a maximum) over the efficiencies of the first
/// non-empty band with a finite edge: bands hold consecutive efficiency
/// ranges, so the extreme finite efficiency sits in the extreme such band.
fn band_extreme<Id, B: Iterator<Item = Candidate<Id>>>(
    bands: impl Iterator<Item = (f64, B)>,
    pick: fn(f64, f64) -> f64,
    read: &mut u64,
) -> Option<f64> {
    bands
        .filter(|(edge, _)| edge.is_finite())
        .find_map(|(_, band)| {
            band.map(|c| c.flop_efficiency)
                .inspect(|_| *read += 1)
                .reduce(pick)
        })
}

/// [`pick_victim_index`] without the full pass: the same victim from
/// candidates pre-sorted into efficiency bands, reading only the candidates
/// near the minimum. Adds the number of candidates it read to `read`.
///
/// `bands` yields `(lower_edge, band)` in ascending edge order; each band
/// yields its candidates oldest first — ascending `(last_access, id)` under
/// [`f64::total_cmp`] — and newest first from the back. Every member's
/// efficiency is at least its band's `lower_edge`, and when `α ≠ 0` the
/// bands are the [`efficiency_class`] ranges: every member of a band is at
/// least as efficient as every member of the bands before it, and only the
/// last band, edge `∞`, holds infinite efficiencies.
///
/// 1. `ts_min` is the oldest band front. At `α = 0` that front is already
///    the victim: with no efficiency term the score is a non-decreasing
///    function of the stamp and ties break toward the older stamp, so it
///    wins under any normalisation, and it is returned there. The exit is
///    what keeps α = 0 at one read per band: past it, `alpha > 0.0` fails
///    and α = 0 would fall through to the full-pass reference, and were
///    that guard relaxed, every α = 0 candidate sits in one unclassed band
///    (edge 0, finite), so `band_extreme` would scan the whole band. (Only
///    the front's own finiteness is checked here: a stamp spread wider than
///    `f64::MAX` is outside this exit's contract, the reference's scores
///    being `∞ / ∞` there, a NaN of platform-defined sign.)
/// 2. Otherwise `ts_max` is the newest band back, and `eff_min`/`eff_max`
///    come from scanning the first and the last band with a finite edge.
/// 3. Bands are walked in ascending edge, each oldest first. By the
///    monotonicity of [`Normalizer`], every candidate from the current one
///    on scores at least `recency(current stamp) + weighted(max(lower_edge,
///    eff_min))`, and every candidate of this and all later bands at least
///    `weighted(max(lower_edge, eff_min))`. The band, respectively the
///    whole walk, stops as soon as that bound **strictly** exceeds the best
///    score so far — strictly, so a candidate that ties still meets the
///    `(score, last_access, id)` tie-break.
///
/// The bounds need stamps that subtract without overflow and a positive
/// weight. Anything else — a NaN or infinite stamp at a band end, a stamp
/// range wider than `f64::MAX`, a negative or NaN `α` — takes the reference
/// instead.
pub(crate) fn pick_victim_banded<Id, B>(
    bands: impl DoubleEndedIterator<Item = (f64, B)> + Clone,
    alpha: f64,
    read: &mut u64,
) -> Option<Id>
where
    Id: Copy + Ord,
    B: DoubleEndedIterator<Item = Candidate<Id>>,
{
    let by_age = |a: &Candidate<Id>, b: &Candidate<Id>| {
        victim_order((0.0, a.last_access, a.id), (0.0, b.last_access, b.id))
    };
    // Plain loops: the `filter_map(..).min_by(..)` spelling of this probe
    // measured ~1 µs slower per pick on the tiered LRU workload.
    let mut oldest: Option<Candidate<Id>> = None;
    for (_, mut band) in bands.clone() {
        if let Some(front) = band.next() {
            *read += 1;
            if oldest.is_none_or(|oldest| by_age(&front, &oldest).is_lt()) {
                oldest = Some(front);
            }
        }
    }
    let oldest = oldest?;
    if alpha == 0.0 && oldest.last_access.is_finite() {
        return Some(oldest.id);
    }
    let mut newest = oldest;
    for (_, mut band) in bands.clone() {
        if let Some(back) = band.next_back() {
            *read += 1;
            if by_age(&back, &newest).is_gt() {
                newest = back;
            }
        }
    }
    let (ts_min, ts_max) = (oldest.last_access, newest.last_access);
    // Both extremes finite makes every stamp between them finite.
    if !(alpha > 0.0 && ts_min.is_finite() && ts_max.is_finite() && (ts_max - ts_min).is_finite()) {
        let all: Vec<Candidate<Id>> = bands.flat_map(|(_, band)| band).collect();
        *read += all.len() as u64;
        return pick_victim_index(&all, alpha).map(|i| all[i].id);
    }
    let eff_min = band_extreme(bands.clone(), f64::min, read).unwrap_or(f64::INFINITY);
    let eff_max = band_extreme(bands.clone().rev(), f64::max, read).unwrap_or(f64::NEG_INFINITY);
    let n = Normalizer {
        ts_min,
        ts_max,
        eff_min,
        eff_max,
        alpha,
    };
    let mut best: Option<(f64, f64, Id)> = None;
    for (edge, band) in bands {
        let floor = n.weighted(edge.max(eff_min));
        if best.is_some_and(|(score, ..)| floor > score) {
            break;
        }
        for c in band {
            *read += 1;
            let recency = n.recency(c.last_access);
            if best.is_some_and(|(score, ..)| recency + floor > score) {
                break;
            }
            let scored = (recency + n.weighted(c.flop_efficiency), c.last_access, c.id);
            if best.is_none_or(|best| victim_order(scored, best).is_lt()) {
                best = Some(scored);
            }
        }
    }
    best.map(|(.., id)| id)
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
        assert_eq!(pick_victim_index::<u32>(&[], 1.0), None);
    }

    #[test]
    fn alpha_zero_is_pure_lru() {
        let cands = [cand(1, 5.0, 100.0), cand(2, 1.0, 1e9), cand(3, 3.0, 0.0)];
        assert_eq!(
            pick_victim_index(&cands, 0.0),
            Some(1),
            "oldest wins under LRU"
        );
    }

    #[test]
    fn high_alpha_prefers_low_efficiency() {
        // Node 1 is oldest but extremely FLOP-efficient; node 2 is fresh but
        // inefficient. With a large α the inefficient node goes first.
        let cands = [cand(1, 0.0, 1e6), cand(2, 10.0, 1.0)];
        assert_eq!(pick_victim_index(&cands, 0.0), Some(0));
        assert_eq!(pick_victim_index(&cands, 100.0), Some(1));
    }

    #[test]
    fn alpha_zero_ranks_infinite_efficiency_by_recency_alone() {
        // At α = 0 the efficiency term must contribute exactly zero — not
        // 0·∞ = NaN, whose total_cmp rank depends on the NaN sign the
        // platform happens to produce. The zero-byte node here is strictly
        // older, so pure recency must evict it first, deterministically.
        let cands = [cand(1, 2.0, f64::INFINITY), cand(2, 5.0, 100.0)];
        assert_eq!(pick_victim_index(&cands, 0.0), Some(0));
        // ...and when it is younger, the finite node goes first.
        let cands = [cand(1, 9.0, f64::INFINITY), cand(2, 5.0, 100.0)];
        assert_eq!(pick_victim_index(&cands, 0.0), Some(1));
    }

    #[test]
    fn infinite_efficiency_evicted_last() {
        let cands = [cand(1, 0.0, f64::INFINITY), cand(2, 9.0, 5.0)];
        // Despite being older, the zero-byte node is never preferred when a
        // finite candidate exists and α > 0.
        assert_eq!(pick_victim_index(&cands, 1.0), Some(1));
        // ...but when everything is infinite, recency decides.
        let all_inf = [cand(1, 4.0, f64::INFINITY), cand(2, 2.0, f64::INFINITY)];
        assert_eq!(pick_victim_index(&all_inf, 1.0), Some(1));
    }

    #[test]
    fn degenerate_ranges_fall_back_to_id_order() {
        let cands = [cand(7, 1.0, 3.0), cand(3, 1.0, 3.0)];
        assert_eq!(pick_victim_index(&cands, 1.0), Some(1), "id 3 before id 7");
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
        assert_eq!(pick_victim_index(&cands, 1.0), Some(0));
        // With α = 4: S = {0, 4.5, 3} → still evict 1 (old AND inefficient
        // dominates at any α ≥ 0).
        assert_eq!(pick_victim_index(&cands, 4.0), Some(0));
    }

    #[test]
    fn moderate_alpha_overrides_recency_for_efficiency() {
        // Node 1 is the LRU victim but highly FLOP-efficient (a long shared
        // prefix); node 2 is fresher but inefficient (a short sequence whose
        // SSM state dominates its footprint). Normalized: node 1 scores
        // 0 + α·1, node 2 scores 1 + α·0 — the crossover is exactly α = 1.
        let cands = [cand(1, 0.0, 1000.0), cand(2, 10.0, 10.0)];
        assert_eq!(pick_victim_index(&cands, 0.0), Some(0), "LRU picks oldest");
        assert_eq!(pick_victim_index(&cands, 0.5), Some(0), "below crossover");
        assert_eq!(pick_victim_index(&cands, 2.0), Some(1), "above crossover");
    }

    #[test]
    fn ordering_is_invariant_under_affine_rescaling() {
        // Min-max normalization makes the victim depend only on *relative*
        // position, so shifting/scaling all timestamps (seconds vs request
        // ids) or all efficiencies (FLOPs vs TFLOPs per byte) must not
        // change the decision.
        let base = [cand(1, 1.0, 7.0), cand(2, 3.0, 2.0), cand(3, 9.0, 5.0)];
        for alpha in [0.0, 0.5, 1.0, 2.0, 8.0] {
            let want = pick_victim_index(&base, alpha);
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
            assert_eq!(pick_victim_index(&shifted, alpha), want, "α = {alpha}");
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
        let sweep: Vec<usize> = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0]
            .iter()
            .map(|&a| pick_victim_index(&cands, a).unwrap())
            .collect();
        assert_eq!(*sweep.first().unwrap(), 0, "α=0 is LRU");
        assert_eq!(*sweep.last().unwrap(), 2, "large α is pure efficiency");
        assert!(
            sweep.windows(2).all(|w| w[0] <= w[1]),
            "monotone: {sweep:?}"
        );
    }

    // ------------------------------------------------------------------
    // The banded walk against the full pass.
    // ------------------------------------------------------------------

    #[test]
    fn efficiency_classes_are_consecutive_ascending_ranges() {
        let effs = [
            0.0,
            f64::MIN_POSITIVE,
            1e-9,
            0.999,
            1.0,
            1.4,
            1.5,
            1.999,
            2.0,
            3.0,
            1e12,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in effs.windows(2) {
            assert!(efficiency_class(w[0]) <= efficiency_class(w[1]), "{w:?}");
        }
        for e in effs {
            let class = efficiency_class(e);
            assert!(class >= 1, "class 0 means unclassed");
            assert!(class_lower_edge(class) <= e, "{e} under {class}");
            assert!(e.is_infinite() || e < class_lower_edge(class + 1), "{e}");
        }
        // Two bands per octave, and ∞ alone in the top one.
        assert_eq!(efficiency_class(1.0) + 1, efficiency_class(1.5));
        assert_eq!(efficiency_class(1.5) + 1, efficiency_class(2.0));
        assert_eq!(
            class_lower_edge(efficiency_class(f64::INFINITY)),
            f64::INFINITY
        );
        assert!(efficiency_class(f64::MAX) < efficiency_class(f64::INFINITY));
        assert_eq!(class_lower_edge(0), 0.0);
        // The top class bit is the tree's tier bit: no efficiency reaches it.
        assert!(efficiency_class(f64::INFINITY) < marconi_radix::TIER_BIT);
    }

    /// A candidate identified by its position in the set under test.
    fn at(id: usize, last_access: f64, flop_efficiency: f64) -> Candidate<usize> {
        Candidate {
            id,
            last_access,
            flop_efficiency,
        }
    }

    /// The slice-backed band view: `cands` sorted oldest first into their
    /// efficiency bands (one band, class 0, when `classed` is off), ids =
    /// positions in `cands`. `misfile` files that position one band too
    /// high.
    fn banded_pick(
        cands: &[Candidate<usize>],
        alpha: f64,
        classed: bool,
        misfile: Option<usize>,
    ) -> (Option<usize>, u64) {
        let mut bands: std::collections::BTreeMap<u16, Vec<Candidate<usize>>> = Default::default();
        for c in cands {
            let class = if classed {
                efficiency_class(c.flop_efficiency) + u16::from(misfile == Some(c.id))
            } else {
                0
            };
            bands.entry(class).or_default().push(*c);
        }
        for band in bands.values_mut() {
            band.sort_by(|a, b| {
                a.last_access
                    .total_cmp(&b.last_access)
                    .then(a.id.cmp(&b.id))
            });
        }
        let mut read = 0;
        let view = bands
            .iter()
            .map(|(&class, band)| (class_lower_edge(class), band.iter().copied()));
        (pick_victim_banded(view, alpha, &mut read), read)
    }

    /// Stamps to draw from: the first eight finite (with a duplicate-prone
    /// neighbour pair and both zeros), the last four hostile.
    const STAMPS: [f64; 12] = [
        2.5,
        2.5000000000000004,
        0.0,
        7.0,
        1.0e3,
        -3.0,
        -0.0,
        1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// Efficiencies to draw from: neighbours inside one band, band edges,
    /// zero, far-apart magnitudes, and ∞ last.
    const EFFS: [f64; 10] = [
        3.0,
        3.5,
        2.9999999999999996,
        4.0,
        0.0,
        1.0e-9,
        1.0e12,
        96.0,
        3.0,
        f64::INFINITY,
    ];

    const ALPHAS: [f64; 4] = [0.0, 0.25, 2.0, 64.0];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// On random candidate sets — duplicate stamps and efficiencies,
        /// one-value ranges (`ts_min == ts_max`, `eff_min == eff_max`),
        /// infinite and all-infinite efficiencies, non-finite stamps, and
        /// (`spread`) a few hundred distinct values over twenty octaves —
        /// the banded walk returns the position the full pass returns.
        #[test]
        fn banded_walk_matches_the_full_pass(
            draws in proptest::collection::vec((0usize..4096, 0usize..4096), 0..48),
            spread in 0u32..2,
            stamp_pool in 1usize..13,
            eff_pool in 1usize..11,
            eff_shift in 0usize..10,
            alpha in 0usize..4,
        ) {
            let cands: Vec<Candidate<usize>> = draws
                .iter()
                .enumerate()
                .map(|(id, &(ts, eff))| match spread {
                    // `eff_shift = 9` with `eff_pool = 1` is all-infinite.
                    0 => at(
                        id,
                        STAMPS[ts % 12 % stamp_pool],
                        EFFS[(eff % 10 % eff_pool + eff_shift) % EFFS.len()],
                    ),
                    _ => at(id, (ts % 97) as f64 * 0.37, 1.07f64.powi((eff % 200) as i32)),
                })
                .collect();
            let alpha = ALPHAS[alpha];
            let want = pick_victim_index(&cands, alpha);
            // Classes exist only once a scored pick has filed them, but the
            // walk is exact over a classed index at α = 0 as well.
            let (got, read) = banded_pick(&cands, alpha, alpha != 0.0, None);
            proptest::prop_assert_eq!(got, want, "α = {}, {:?}", alpha, cands);
            let (got, _) = banded_pick(&cands, alpha, true, None);
            proptest::prop_assert_eq!(got, want, "classed, α = {}, {:?}", alpha, cands);
            // At most: two end probes and two efficiency scans per
            // candidate, then the walk (or the reference's pass) itself.
            proptest::prop_assert!(read <= 5 * cands.len() as u64);
        }
    }

    #[test]
    fn alpha_zero_reads_one_front_per_band() {
        let cands: Vec<Candidate<usize>> = (0..100)
            .map(|id| at(id, f64::from(100 - id as u32), 5.0))
            .collect();
        assert_eq!(banded_pick(&cands, 0.0, false, None), (Some(99), 1));
    }

    #[test]
    fn the_walk_leaves_a_band_once_recency_alone_exceeds_the_best() {
        // One band, efficiencies equal: the oldest wins, and the walk must
        // not read the other 998 to know it — the second entry's recency
        // already exceeds the incumbent's whole score. What is O(band) is
        // the two efficiency scans, which here land on the same band.
        let cands: Vec<Candidate<usize>> = (0..1000).map(|id| at(id, id as f64, 5.0)).collect();
        let (victim, read) = banded_pick(&cands, 2.0, true, None);
        assert_eq!(victim, Some(0));
        assert_eq!(read, 2 + 2 * 1000 + 2, "ends, efficiency scans, walk");
        // Across bands: an old candidate in a far more efficient band
        // cannot beat a young one in the least efficient band at α = 64,
        // and the walk stops at the band floor without entering it.
        let mut cands = cands;
        for c in &mut cands[..500] {
            c.flop_efficiency = 1.0e9;
        }
        let (victim, _) = banded_pick(&cands, 64.0, true, None);
        assert_eq!(victim, pick_victim_index(&cands, 64.0));
        assert_eq!(victim, Some(500));
    }

    #[test]
    fn a_stamp_range_wider_than_f64_takes_the_reference() {
        // `ts_max - ts_min` overflows: recency is `x / ∞` or `∞ / ∞`, no
        // bound holds, and the walk must defer to the full pass.
        let cands = [at(0, -1.0e308, 3.0), at(1, 1.0e308, 3.0), at(2, 0.0, 400.0)];
        let (victim, read) = banded_pick(&cands, 2.0, true, None);
        assert_eq!(victim, pick_victim_index(&cands, 2.0));
        assert!(read >= 3, "every candidate was handed to the reference");
    }

    #[test]
    fn a_candidate_filed_one_band_too_high_changes_the_victim() {
        // The self-test of the class invariant: the walk trusts each band's
        // lower edge, so filing the true victim above its efficiency hides
        // it behind a bound it does not satisfy. (In the cache, debug
        // builds' `scan_pick` catches exactly this.)
        // S = {0.5 + 0, 0 + 0.8, 1 + 2}: position 0 is the victim.
        let cands = [at(0, 5.0, 1.0), at(1, 0.0, 1.4), at(2, 10.0, 2.0)];
        assert_eq!(pick_victim_index(&cands, 2.0), Some(0));
        assert_eq!(banded_pick(&cands, 2.0, true, None).0, Some(0));
        // Filed under [1.5, 2) it no longer bounds `eff_min`, position 1
        // scores 0 and the walk stops at the misfiled band's floor.
        assert_eq!(banded_pick(&cands, 2.0, true, Some(0)).0, Some(1));
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
