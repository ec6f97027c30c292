//! The harness's own order statistics. Kept apart from `marconi-metrics` on
//! purpose: that crate is one of the layers being measured, and a regression
//! there must not bend the ruler.

/// Linearly interpolated `q`-quantile of an ascending sample (NumPy's default
/// estimator, which is also what `statistics.quantiles(..., method="inclusive")`
/// computes). Empty samples read 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Five-number summary printed beside every timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let s = sorted(values);
        Quartiles {
            n: s.len(),
            min: s.first().copied().unwrap_or(0.0),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s.last().copied().unwrap_or(0.0),
        }
    }

    /// A value that was read once, or is exact by construction.
    pub fn exact(value: f64, n: usize) -> Quartiles {
        Quartiles {
            n,
            min: value,
            q1: value,
            median: value,
            q3: value,
            max: value,
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        ratio(self.q3 - self.q1, self.median.abs())
    }

    /// The summary of `f(x)` for a monotone `f` (e.g. wall time → rate):
    /// order statistics map through, swapping ends when `f` is decreasing.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Quartiles {
        let (a, b) = (f(self.q1), f(self.q3));
        let (lo, hi) = (f(self.min), f(self.max));
        Quartiles {
            n: self.n,
            min: lo.min(hi),
            q1: a.min(b),
            median: f(self.median),
            q3: a.max(b),
            max: lo.max(hi),
        }
    }
}

/// `a / b`, reading 0 when the base is 0 so no metric is ever NaN.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it in a sample of `n` (choosing-metrics §1). `None` below 20
/// samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000) — integers, so that 10% of
    // 100 is exactly 10.
    const LADDER: [(f64, usize); 6] = [
        (0.9999, 1),
        (0.999, 10),
        (0.99, 100),
        (0.95, 500),
        (0.9, 1_000),
        (0.5, 5_000),
    ];
    LADDER
        .into_iter()
        .find(|&(_, beyond)| n * beyond / 10_000 >= 10)
        .map(|(p, _)| p)
}

/// Replays are deterministic, so request `i` does the same work in every
/// replay and its latency is the median of its own times across replays;
/// percentiles are then taken over requests. `replays[r][i]` is request `i`'s
/// time in replay `r`.
pub fn median_per_request(replays: &[Vec<u32>]) -> Vec<f64> {
    let n = replays.first().map_or(0, Vec::len);
    let mut column = vec![0.0; replays.len()];
    (0..n)
        .map(|i| {
            for (slot, replay) in column.iter_mut().zip(replays) {
                *slot = f64::from(replay[i]);
            }
            column.sort_by(f64::total_cmp);
            quantile_sorted(&column, 0.5)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.25), 1.75);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn median_of_replays_is_taken_per_request_not_per_replay() {
        // Request 0 is slow once (a stall in replay 1); request 1 is
        // genuinely slow in every replay. Only the second may survive.
        let replays = vec![vec![10, 900, 30], vec![5000, 910, 31], vec![12, 905, 29]];
        assert_eq!(median_per_request(&replays), vec![12.0, 905.0, 30.0]);
        assert!(median_per_request(&[]).is_empty());
    }

    #[test]
    fn even_replay_counts_average_the_middle_pair() {
        let replays = vec![vec![10], vec![20], vec![40], vec![30]];
        assert_eq!(median_per_request(&replays), vec![25.0]);
    }

    #[test]
    fn percentile_rank_needs_ten_samples_beyond_it() {
        // The smallest pinned trace has ~4.6k requests: 46 samples lie
        // beyond p99, 4 beyond p99.9.
        assert_eq!(highest_supported_percentile(4_600), Some(0.99));
        assert_eq!(highest_supported_percentile(28_000), Some(0.999));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn quartiles_map_through_a_decreasing_function() {
        let walls = Quartiles::of(&[1.0, 2.0, 4.0]);
        let rates = walls.map(|w| 8.0 / w);
        assert_eq!(rates.median, 4.0);
        assert!(rates.q1 < rates.median && rates.median < rates.q3);
        assert_eq!((rates.min, rates.max), (2.0, 8.0));
        assert_eq!(rates.n, 3);
        assert!((walls.spread() - 0.75).abs() < 1e-12);
        assert_eq!(Quartiles::exact(0.0, 1).spread(), 0.0);
    }
}
