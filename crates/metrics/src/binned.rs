//! Binned means: average of `y` grouped by fixed-width bins of `x`
//! (paper Fig. 10a: average hit rate binned by input sequence length).

use serde::{Deserialize, Serialize};

/// Accumulates `(x, y)` observations into fixed-width `x` bins and reports
/// per-bin mean `y`.
///
/// # Examples
///
/// ```
/// use marconi_metrics::BinnedMean;
///
/// let mut bins = BinnedMean::new(100.0);
/// bins.add(50.0, 1.0);
/// bins.add(60.0, 3.0);
/// bins.add(250.0, 10.0);
/// let means = bins.means();
/// assert_eq!(means[0], (0.0, Some(2.0)));   // bin [0, 100)
/// assert_eq!(means[1], (100.0, None));      // empty bin
/// assert_eq!(means[2], (200.0, Some(10.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinnedMean {
    bin_width: f64,
    bins: Vec<(f64, u64)>, // (sum_y, count)
}

impl BinnedMean {
    /// Creates an accumulator with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive and finite.
    #[must_use]
    pub fn new(bin_width: f64) -> Self {
        assert!(
            bin_width > 0.0 && bin_width.is_finite(),
            "bin width must be positive and finite"
        );
        BinnedMean {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// Records an observation. Negative `x` clamps into the first bin.
    pub fn add(&mut self, x: f64, y: f64) {
        let idx = (x.max(0.0) / self.bin_width).floor() as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, (0.0, 0));
        }
        let (sum, count) = &mut self.bins[idx];
        *sum += y;
        *count += 1;
    }

    /// Per-bin `(bin_start_x, mean_y)`; `None` mean for empty bins.
    #[must_use]
    pub fn means(&self) -> Vec<(f64, Option<f64>)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &(sum, count))| {
                let x = i as f64 * self.bin_width;
                let mean = (count > 0).then(|| sum / count as f64);
                (x, mean)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_independently() {
        let mut b = BinnedMean::new(10.0);
        b.add(0.0, 2.0);
        b.add(9.99, 4.0);
        b.add(10.0, 100.0);
        let means = b.means();
        assert_eq!(means[0].1, Some(3.0));
        assert_eq!(means[1].1, Some(100.0));
        assert_eq!(b.bins, [(6.0, 2), (100.0, 1)]);
    }

    #[test]
    fn negative_x_clamps_to_first_bin() {
        let mut b = BinnedMean::new(1.0);
        b.add(-5.0, 7.0);
        assert_eq!(b.means()[0].1, Some(7.0));
    }

    #[test]
    fn empty_accumulator() {
        let b = BinnedMean::new(1.0);
        assert!(b.means().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = BinnedMean::new(0.0);
    }
}
