//! FLOP breakdowns by layer kind.

use crate::layer::LayerKind;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Prefill FLOPs split by layer kind, summed over all layers of each kind.
///
/// Produced by [`ModelConfig::prefill_flops`] and used both for eviction
/// scoring (via [`total`](FlopBreakdown::total)) and for regenerating the
/// paper's Fig. 14 (FLOP distribution by layer type).
///
/// [`ModelConfig::prefill_flops`]: crate::ModelConfig::prefill_flops
///
/// # Examples
///
/// ```
/// use marconi_model::ModelConfig;
///
/// let m = ModelConfig::hybrid_7b();
/// let short = m.prefill_flops(128);
/// let long = m.prefill_flops(16_384);
/// // Attention's share grows quadratically with sequence length.
/// assert!(long.attention_share() > short.attention_share());
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct FlopBreakdown {
    /// FLOPs in Attention layers.
    pub attention: u128,
    /// FLOPs in SSM layers.
    pub ssm: u128,
    /// FLOPs in MLP layers.
    pub mlp: u128,
}

impl FlopBreakdown {
    /// The zero breakdown.
    pub const ZERO: FlopBreakdown = FlopBreakdown {
        attention: 0,
        ssm: 0,
        mlp: 0,
    };

    /// Total FLOPs across all layer kinds.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.attention + self.ssm + self.mlp
    }

    /// FLOPs attributed to the given layer kind.
    #[must_use]
    pub fn of_kind(&self, kind: LayerKind) -> u128 {
        match kind {
            LayerKind::Attention => self.attention,
            LayerKind::Ssm => self.ssm,
            LayerKind::Mlp => self.mlp,
        }
    }

    /// Fraction of total FLOPs spent in Attention layers (0.0 if empty).
    #[must_use]
    pub fn attention_share(&self) -> f64 {
        self.share(LayerKind::Attention)
    }

    /// Fraction of total FLOPs spent in the given layer kind (0.0 if empty).
    #[must_use]
    pub fn share(&self, kind: LayerKind) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.of_kind(kind) as f64 / total as f64
    }
}

impl Add for FlopBreakdown {
    type Output = FlopBreakdown;

    fn add(self, rhs: FlopBreakdown) -> FlopBreakdown {
        FlopBreakdown {
            attention: self.attention + rhs.attention,
            ssm: self.ssm + rhs.ssm,
            mlp: self.mlp + rhs.mlp,
        }
    }
}

impl AddAssign for FlopBreakdown {
    fn add_assign(&mut self, rhs: FlopBreakdown) {
        *self = *self + rhs;
    }
}

impl Sub for FlopBreakdown {
    type Output = FlopBreakdown;

    /// Component-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics in debug mode if any component of `rhs` exceeds `self`'s.
    fn sub(self, rhs: FlopBreakdown) -> FlopBreakdown {
        FlopBreakdown {
            attention: self.attention - rhs.attention,
            ssm: self.ssm - rhs.ssm,
            mlp: self.mlp - rhs.mlp,
        }
    }
}

impl Sum for FlopBreakdown {
    fn sum<I: Iterator<Item = FlopBreakdown>>(iter: I) -> FlopBreakdown {
        iter.fold(FlopBreakdown::ZERO, Add::add)
    }
}

impl fmt::Display for FlopBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3e} FLOPs (attn {:.3e}, ssm {:.3e}, mlp {:.3e})",
            self.total() as f64,
            self.attention as f64,
            self.ssm as f64,
            self.mlp as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    #[test]
    fn total_sums_components() {
        let b = FlopBreakdown {
            attention: 1,
            ssm: 2,
            mlp: 3,
        };
        assert_eq!(b.total(), 6);
        assert_eq!(b.of_kind(LayerKind::Attention), 1);
        assert_eq!(b.of_kind(LayerKind::Ssm), 2);
        assert_eq!(b.of_kind(LayerKind::Mlp), 3);
    }

    #[test]
    fn arithmetic() {
        let a = FlopBreakdown {
            attention: 10,
            ssm: 20,
            mlp: 30,
        };
        let b = FlopBreakdown {
            attention: 1,
            ssm: 2,
            mlp: 3,
        };
        assert_eq!((a + b).total(), 66);
        assert_eq!((a - b).total(), 54);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        let s: FlopBreakdown = [a, b].into_iter().sum();
        assert_eq!(s, a + b);
    }

    #[test]
    fn shares_sum_to_one() {
        let m = ModelConfig::hybrid_7b();
        let b = m.prefill_flops(5000);
        let sum: f64 = LayerKind::ALL.iter().map(|&k| b.share(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig14_attention_share_grows_quadratically() {
        // Fig. 14: Attention contributes few FLOPs at short lengths but a
        // significant portion at 30K tokens despite only 4/56 layers.
        let m = ModelConfig::hybrid_7b();
        let short = m.prefill_flops(512);
        let long = m.prefill_flops(30_000);
        // 4/56 ≈ 7.1% of layers; at 30K tokens Attention consumes ~17% of
        // FLOPs (Fig. 14) vs ~4% at 512 tokens.
        assert!(short.attention_share() < 0.08);
        assert!(long.attention_share() > 0.12);
        assert!(long.attention_share() > 2.5 * short.attention_share());
    }

    #[test]
    fn zero_share_on_empty() {
        assert_eq!(FlopBreakdown::ZERO.attention_share(), 0.0);
    }

    #[test]
    fn display_mentions_all_kinds() {
        let m = ModelConfig::hybrid_7b();
        let s = m.prefill_flops(100).to_string();
        assert!(s.contains("attn") && s.contains("ssm") && s.contains("mlp"));
    }
}
