//! FLOP efficiency (paper Eq. 1 and Table 1 closed forms).

use crate::ModelConfig;
use serde::{Deserialize, Serialize};

/// Closed-form FLOP-efficiency helpers matching the last rows of Table 1.
///
/// *FLOP efficiency* is the compute a cache hit saves per byte of cache
/// space the entry occupies (Eq. 1). For Attention layers it is
/// `L + 2D` FLOPs/byte — near-constant in practice because `2D` dominates
/// until `L` is large — while for SSM layers it is
/// `L·(6D/N + 8 + 5/(DN))`, which grows *linearly* in `L` because the state
/// size is constant. This asymmetry is why recency-only eviction leaves
/// savings on the table for hybrid models.
///
/// # Examples
///
/// ```
/// use marconi_model::{FlopEfficiency, ModelConfig};
///
/// let eff = FlopEfficiency::new(&ModelConfig::hybrid_7b());
/// // Table 1, 7B model: SSM efficiency ≈ 200·L.
/// let at_1k = eff.ssm_flops_per_byte(1000);
/// assert!((at_1k / 1000.0 - 200.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlopEfficiency {
    d_model: u64,
    d_state: u64,
}

impl FlopEfficiency {
    /// Creates the helper for a model's `D` and `N`.
    #[must_use]
    pub fn new(model: &ModelConfig) -> Self {
        FlopEfficiency {
            d_model: model.d_model(),
            d_state: model.d_state(),
        }
    }

    /// Attention-layer FLOPs saved per byte of KV state for an `L`-token
    /// prefix: `(8LD² + 4L²D) / 4LD = L + 2D`.
    #[must_use]
    pub fn attention_flops_per_byte(&self, len: u64) -> f64 {
        len as f64 + 2.0 * self.d_model as f64
    }

    /// SSM-layer FLOPs saved per byte of recurrent state for an `L`-token
    /// prefix: `(12LD² + 16LDN + 10L) / 2DN = L·(6D/N + 8 + 5/(DN))`.
    ///
    /// Note this closed form (like Table 1) excludes the small conv state.
    #[must_use]
    pub fn ssm_flops_per_byte(&self, len: u64) -> f64 {
        let d = self.d_model as f64;
        let n = self.d_state as f64;
        len as f64 * (6.0 * d / n + 8.0 + 5.0 / (d * n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    #[test]
    fn table1_7b_closed_forms() {
        // Table 1 bottom row for the 7B model (D=4096, N=128):
        // Attention: L + 8192; SSM: ~200L.
        let eff = FlopEfficiency::new(&ModelConfig::hybrid_7b());
        assert_eq!(eff.attention_flops_per_byte(1000), 1000.0 + 8192.0);
        let ssm = eff.ssm_flops_per_byte(1000) / 1000.0;
        assert!((ssm - 200.0).abs() < 1.0, "per-token ssm eff {ssm}");
    }

    #[test]
    fn closed_form_matches_exact_ratio() {
        // The closed form must equal FLOPs / bytes computed from the raw
        // Table 1 formulas (conv state excluded).
        let m = ModelConfig::hybrid_7b();
        let eff = FlopEfficiency::new(&m);
        for len in [1u64, 77, 1024, 30_000] {
            let attn_exact =
                m.layer_flops(LayerKind::Attention, len) as f64 / (4 * len * m.d_model()) as f64;
            assert!((eff.attention_flops_per_byte(len) - attn_exact).abs() < 1e-6);

            let ssm_exact =
                m.layer_flops(LayerKind::Ssm, len) as f64 / (2 * m.d_model() * m.d_state()) as f64;
            let rel = (eff.ssm_flops_per_byte(len) - ssm_exact).abs() / ssm_exact;
            assert!(rel < 1e-9, "len {len}: rel err {rel}");
        }
    }

    #[test]
    fn ssm_efficiency_scales_steeper_than_attention() {
        // Fig. 5's driving observation.
        let eff = FlopEfficiency::new(&ModelConfig::hybrid_7b());
        let attn_slope = eff.attention_flops_per_byte(2000) - eff.attention_flops_per_byte(1000);
        let ssm_slope = eff.ssm_flops_per_byte(2000) - eff.ssm_flops_per_byte(1000);
        assert!(ssm_slope > 100.0 * attn_slope);
    }

    #[test]
    fn fig5_model_ordering() {
        // Fig. 5: at a given length, whole-model FLOPs-saved-per-byte is
        // highest for pure Mamba, then Hybrid, then Transformer.
        let mamba = ModelConfig::mamba_7b();
        let hybrid = ModelConfig::hybrid_7b();
        let transformer = ModelConfig::transformer_7b();
        // The ordering emerges once sequence length dominates the constant
        // `2D` term in Attention's efficiency (Fig. 5's x-axis reaches 2K).
        for len in [1000u64, 2000, 4000] {
            let em = mamba.flop_efficiency(len);
            let eh = hybrid.flop_efficiency(len);
            let et = transformer.flop_efficiency(len);
            assert!(em > eh, "len {len}: mamba {em} <= hybrid {eh}");
            assert!(eh > et, "len {len}: hybrid {eh} <= transformer {et}");
        }
    }

    #[test]
    fn fig5_steeper_growth_with_more_ssm() {
        // "The more SSM layers in the model, the steeper the increase."
        let mamba = ModelConfig::mamba_7b();
        let hybrid = ModelConfig::hybrid_7b();
        let transformer = ModelConfig::transformer_7b();
        let slope = |m: &ModelConfig| m.flop_efficiency(2000) - m.flop_efficiency(1000);
        assert!(slope(&mamba) > slope(&hybrid));
        assert!(slope(&hybrid) > slope(&transformer));
    }
}
