//! Model architecture configuration.

use crate::flops::FlopBreakdown;
use crate::layer::LayerKind;
use crate::memory::StateFootprint;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Architecture of a (possibly hybrid) LLM, as seen by a prefix cache.
///
/// A `ModelConfig` captures exactly the quantities the caching layer needs:
/// the layer composition (`n_attention`, `n_ssm`, `n_mlp`), the model width
/// `d_model` (the paper's `D`), the SSM state dimension `d_state` (`N`), the
/// Mamba conv-block shape, and the numeric precision. It deliberately does
/// *not* model weights, tokenizers, or kernels — the cache only ever observes
/// FLOPs and bytes.
///
/// Construct via the presets ([`ModelConfig::hybrid_7b`] etc.) or the
/// [`builder`](ModelConfig::builder).
///
/// # Examples
///
/// ```
/// use marconi_model::ModelConfig;
///
/// let model = ModelConfig::builder("tiny-hybrid")
///     .d_model(256)
///     .d_state(16)
///     .layers(1, 6, 7)
///     .build()?;
/// assert_eq!(model.n_ssm(), 6);
/// assert!(model.has_ssm());
/// # Ok::<(), marconi_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    name: String,
    d_model: u64,
    d_state: u64,
    d_conv: u64,
    expand: u64,
    n_attention: u64,
    n_ssm: u64,
    n_mlp: u64,
    bytes_per_param: u64,
}

/// Error returned when a [`ModelConfigBuilder`] is given invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `d_model` must be positive.
    ZeroModelDim,
    /// `d_state` must be positive when the model contains SSM layers.
    ZeroStateDim,
    /// At least one compute layer (Attention or SSM) is required.
    NoComputeLayers,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroModelDim => write!(f, "d_model must be positive"),
            ConfigError::ZeroStateDim => {
                write!(f, "d_state must be positive for models with SSM layers")
            }
            ConfigError::NoComputeLayers => {
                write!(f, "model must contain at least one attention or SSM layer")
            }
        }
    }
}

impl Error for ConfigError {}

impl ModelConfig {
    /// Starts building a model configuration with the given display name.
    ///
    /// Defaults: `d_model = 4096`, `d_state = 128`, and no layers (must be
    /// set). Every built config has `d_conv = 4`, `expand = 2` and fp16
    /// precision.
    pub fn builder(name: impl Into<String>) -> ModelConfigBuilder {
        ModelConfigBuilder {
            name: name.into(),
            d_model: 4096,
            d_state: 128,
            n_attention: 0,
            n_ssm: 0,
            n_mlp: 0,
        }
    }

    /// Display name of the architecture.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Model width `D` (`d_model`).
    #[must_use]
    pub fn d_model(&self) -> u64 {
        self.d_model
    }

    /// SSM state/feature dimension `N` (`d_state`).
    #[must_use]
    pub fn d_state(&self) -> u64 {
        self.d_state
    }

    /// Mamba conv1d kernel width.
    #[must_use]
    pub fn d_conv(&self) -> u64 {
        self.d_conv
    }

    /// Inner-dimension expansion factor (`d_inner = expand · d_model`).
    #[must_use]
    pub fn expand(&self) -> u64 {
        self.expand
    }

    /// Number of Attention layers.
    #[must_use]
    pub fn n_attention(&self) -> u64 {
        self.n_attention
    }

    /// Number of SSM layers.
    #[must_use]
    pub fn n_ssm(&self) -> u64 {
        self.n_ssm
    }

    /// Number of MLP layers.
    #[must_use]
    pub fn n_mlp(&self) -> u64 {
        self.n_mlp
    }

    /// Bytes per parameter/activation element (2 for fp16).
    #[must_use]
    pub fn bytes_per_param(&self) -> u64 {
        self.bytes_per_param
    }

    /// `true` if the model has at least one SSM layer, meaning prefix reuse
    /// is constrained to SSM-state checkpoint boundaries ("all or nothing").
    #[must_use]
    pub fn has_ssm(&self) -> bool {
        self.n_ssm > 0
    }

    // ------------------------------------------------------------------
    // FLOPs (Table 1).
    // ------------------------------------------------------------------

    /// Prefill FLOPs of a *single* layer of `kind` over `len` tokens.
    ///
    /// Formulas from Table 1 of the paper:
    /// Attention `8LD² + 4L²D`; MLP `16LD²`; SSM `12LD² + 16LDN + 10L`.
    #[must_use]
    pub fn layer_flops(&self, kind: LayerKind, len: u64) -> u128 {
        let l = u128::from(len);
        let d = u128::from(self.d_model);
        let n = u128::from(self.d_state);
        match kind {
            LayerKind::Attention => 8 * l * d * d + 4 * l * l * d,
            LayerKind::Mlp => 16 * l * d * d,
            LayerKind::Ssm => 12 * l * d * d + 16 * l * d * n + 10 * l,
        }
    }

    /// Prefill FLOPs over `len` tokens, broken down by layer kind and summed
    /// over every layer in the model.
    #[must_use]
    pub fn prefill_flops(&self, len: u64) -> FlopBreakdown {
        FlopBreakdown {
            attention: u128::from(self.n_attention) * self.layer_flops(LayerKind::Attention, len),
            ssm: u128::from(self.n_ssm) * self.layer_flops(LayerKind::Ssm, len),
            mlp: u128::from(self.n_mlp) * self.layer_flops(LayerKind::Mlp, len),
        }
    }

    /// FLOPs *saved* by reusing a cached prefix of `prefix_len` tokens.
    ///
    /// Following the paper's accounting, a hit on a prefix of length `P`
    /// skips the full prefill of those `P` tokens across all layers.
    #[must_use]
    pub fn flops_saved(&self, prefix_len: u64) -> u128 {
        self.prefill_flops(prefix_len).total()
    }

    /// FLOPs required to prefill a request of `len` tokens when a prefix of
    /// `prefix_len` tokens is served from the cache.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > len`.
    #[must_use]
    pub fn prefill_flops_with_prefix(&self, len: u64, prefix_len: u64) -> u128 {
        assert!(
            prefix_len <= len,
            "prefix ({prefix_len}) longer than request ({len})"
        );
        self.prefill_flops(len).total() - self.prefill_flops(prefix_len).total()
    }

    // ------------------------------------------------------------------
    // Memory (Table 1 + Appendix A).
    // ------------------------------------------------------------------

    /// Bytes of KV state stored per token, summed over all Attention layers
    /// (`2 tensors · D · bytes_per_param` per layer).
    #[must_use]
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.n_attention * 2 * self.d_model * self.bytes_per_param
    }

    /// Bytes of KV state for a `len`-token sequence across Attention layers.
    #[must_use]
    pub fn kv_bytes(&self, len: u64) -> u64 {
        self.kv_bytes_per_token() * len
    }

    /// Bytes of one SSM recurrent-state checkpoint for a *single* SSM layer,
    /// including the Mamba conv1d state (`d_inner · d_conv` elements), which
    /// the paper includes in all experiments (Appendix A).
    #[must_use]
    pub fn ssm_layer_state_bytes(&self) -> u64 {
        let recurrent = self.d_model * self.d_state * self.bytes_per_param;
        let conv = self.expand * self.d_model * self.d_conv * self.bytes_per_param;
        recurrent + conv
    }

    /// Bytes of one full-model SSM checkpoint (all SSM layers).
    ///
    /// This is the size admitted into the cache every time an SSM state is
    /// checkpointed — constant regardless of how many tokens it represents
    /// (paper §3, property 1).
    #[must_use]
    pub fn ssm_checkpoint_bytes(&self) -> u64 {
        self.n_ssm * self.ssm_layer_state_bytes()
    }

    /// Total cached-state footprint for a `len`-token sequence with a single
    /// SSM checkpoint (KVs for every token + one set of SSM states).
    #[must_use]
    pub fn state_footprint(&self, len: u64) -> StateFootprint {
        StateFootprint {
            kv_bytes: self.kv_bytes(len),
            ssm_bytes: self.ssm_checkpoint_bytes(),
        }
    }

    // ------------------------------------------------------------------
    // FLOP efficiency (Eq. 1, Fig. 5).
    // ------------------------------------------------------------------

    /// FLOP efficiency (Eq. 1) of the cache entry for a `len`-token prefix:
    /// FLOPs saved by a hit divided by the bytes of all stateful-layer
    /// states for the entry.
    ///
    /// Returns 0.0 for an empty prefix or a model with no stateful layers.
    #[must_use]
    pub fn flop_efficiency(&self, len: u64) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let bytes = self.kv_bytes(len) + self.ssm_checkpoint_bytes();
        if bytes == 0 {
            return 0.0;
        }
        self.flops_saved(len) as f64 / bytes as f64
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (D={}, N={}, layers: {} attn / {} ssm / {} mlp)",
            self.name, self.d_model, self.d_state, self.n_attention, self.n_ssm, self.n_mlp
        )
    }
}

/// Builder for [`ModelConfig`]; see [`ModelConfig::builder`].
#[derive(Debug, Clone)]
pub struct ModelConfigBuilder {
    name: String,
    d_model: u64,
    d_state: u64,
    n_attention: u64,
    n_ssm: u64,
    n_mlp: u64,
}

impl ModelConfigBuilder {
    /// Sets the model width `D`.
    #[must_use]
    pub fn d_model(mut self, d_model: u64) -> Self {
        self.d_model = d_model;
        self
    }

    /// Sets the SSM state dimension `N`.
    #[must_use]
    pub fn d_state(mut self, d_state: u64) -> Self {
        self.d_state = d_state;
        self
    }

    /// Sets the layer composition: counts of Attention, SSM, and MLP layers.
    #[must_use]
    pub fn layers(mut self, n_attention: u64, n_ssm: u64, n_mlp: u64) -> Self {
        self.n_attention = n_attention;
        self.n_ssm = n_ssm;
        self.n_mlp = n_mlp;
        self
    }

    /// Validates the parameters and builds the [`ModelConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `d_model` is zero, if SSM layers are
    /// present with a zero `d_state`, or if there are no compute layers at
    /// all.
    pub fn build(self) -> Result<ModelConfig, ConfigError> {
        if self.d_model == 0 {
            return Err(ConfigError::ZeroModelDim);
        }
        if self.n_ssm > 0 && self.d_state == 0 {
            return Err(ConfigError::ZeroStateDim);
        }
        if self.n_attention == 0 && self.n_ssm == 0 {
            return Err(ConfigError::NoComputeLayers);
        }
        Ok(ModelConfig {
            name: self.name,
            d_model: self.d_model,
            d_state: self.d_state,
            d_conv: 4,
            expand: 2,
            n_attention: self.n_attention,
            n_ssm: self.n_ssm,
            n_mlp: self.n_mlp,
            bytes_per_param: 2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hybrid() -> ModelConfig {
        ModelConfig::hybrid_7b()
    }

    #[test]
    fn table1_attention_flops() {
        let m = hybrid();
        let l = 100u128;
        let d = 4096u128;
        assert_eq!(
            m.layer_flops(LayerKind::Attention, 100),
            8 * l * d * d + 4 * l * l * d
        );
    }

    #[test]
    fn table1_mlp_flops() {
        let m = hybrid();
        let l = 7u128;
        let d = 4096u128;
        assert_eq!(m.layer_flops(LayerKind::Mlp, 7), 16 * l * d * d);
    }

    #[test]
    fn table1_ssm_flops() {
        let m = hybrid();
        let l = 1000u128;
        let d = 4096u128;
        let n = 128u128;
        assert_eq!(
            m.layer_flops(LayerKind::Ssm, 1000),
            12 * l * d * d + 16 * l * d * n + 10 * l
        );
    }

    #[test]
    fn kv_bytes_match_table1() {
        // Table 1: state size per Attention layer = 4LD bytes (fp16).
        let m = hybrid();
        let per_layer = 4 * 1000 * 4096;
        assert_eq!(m.kv_bytes(1000), m.n_attention() * per_layer);
    }

    #[test]
    fn ssm_state_bytes_match_table1_plus_conv() {
        // Table 1: 2DN per layer, plus conv state 2·(2D)·4 (Appendix A).
        let m = hybrid();
        let recurrent = 2 * 4096 * 128;
        let conv = 2 * (2 * 4096) * 4;
        assert_eq!(m.ssm_layer_state_bytes(), recurrent + conv);
    }

    #[test]
    fn conv_state_is_small_fraction_of_total() {
        // Appendix A: conv states are ~6.1% of total state size on the 7B
        // hybrid model.
        let m = hybrid();
        let conv = 2 * (2 * 4096) * 4 * m.n_ssm();
        let frac = conv as f64 / m.ssm_checkpoint_bytes() as f64;
        assert!((0.05..0.08).contains(&frac), "conv fraction {frac}");
    }

    #[test]
    fn ssm_checkpoint_is_constant_in_length() {
        // Paper §3 property 1: SSM states are constant-sized.
        let m = hybrid();
        assert_eq!(m.ssm_checkpoint_bytes(), m.ssm_checkpoint_bytes());
        let a = m.state_footprint(10).ssm_bytes;
        let b = m.state_footprint(10_000).ssm_bytes;
        assert_eq!(a, b);
    }

    #[test]
    fn ssm_state_much_larger_than_single_token_kv() {
        // Paper §3 property 3: SSM states are 10-100x larger than one
        // token's KVs. For the 7B hybrid: per-layer SSM state 2DN+conv vs
        // per-layer per-token KV 4D.
        let m = hybrid();
        let per_layer_kv_token = 2 * m.d_model() * m.bytes_per_param();
        let ratio = m.ssm_layer_state_bytes() as f64 / per_layer_kv_token as f64;
        assert!(ratio > 10.0 && ratio < 200.0, "ratio {ratio}");
    }

    #[test]
    fn prefix_flops_partition() {
        let m = hybrid();
        let full = m.prefill_flops(500).total();
        let saved = m.flops_saved(200);
        let rest = m.prefill_flops_with_prefix(500, 200);
        assert_eq!(saved + rest, full);
    }

    #[test]
    #[should_panic(expected = "longer than request")]
    fn prefix_longer_than_request_panics() {
        let m = hybrid();
        let _ = m.prefill_flops_with_prefix(10, 11);
    }

    #[test]
    fn flop_efficiency_zero_cases() {
        let m = hybrid();
        assert_eq!(m.flop_efficiency(0), 0.0);
        assert!(m.flop_efficiency(1) > 0.0);
    }

    #[test]
    fn builder_validation() {
        assert_eq!(
            ModelConfig::builder("x").d_model(0).layers(1, 0, 0).build(),
            Err(ConfigError::ZeroModelDim)
        );
        assert_eq!(
            ModelConfig::builder("x").d_state(0).layers(0, 1, 0).build(),
            Err(ConfigError::ZeroStateDim)
        );
        assert_eq!(
            ModelConfig::builder("x").layers(0, 0, 5).build(),
            Err(ConfigError::NoComputeLayers)
        );
    }

    #[test]
    fn pure_transformer_has_no_ssm_constraint() {
        let t = ModelConfig::transformer_7b();
        assert!(!t.has_ssm());
        assert!(t.n_attention() > 0);
        assert_eq!(t.ssm_checkpoint_bytes(), 0);
    }

    #[test]
    fn display_is_informative() {
        let s = hybrid().to_string();
        assert!(s.contains("hybrid"));
        assert!(s.contains("4096"));
    }

    #[test]
    fn error_display_lowercase_no_period() {
        let msgs = [
            ConfigError::ZeroModelDim.to_string(),
            ConfigError::ZeroStateDim.to_string(),
            ConfigError::NoComputeLayers.to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'));
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }
}
