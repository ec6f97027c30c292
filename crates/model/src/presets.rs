//! Preset model zoo used across the paper's evaluation.

use crate::ModelConfig;

impl ModelConfig {
    /// The paper's main 7B hybrid model: `{4, 24, 28}` `{Attention, SSM,
    /// MLP}` layers with `D = 4096`, `N = 128` (Mamba2-scale state), fp16.
    #[must_use]
    pub fn hybrid_7b() -> ModelConfig {
        ModelConfig::builder("hybrid-7b")
            .d_model(4096)
            .d_state(128)
            .layers(4, 24, 28)
            .build()
            .expect("preset is valid")
    }

    /// A pure-SSM 7B model (Mamba-style): 64 SSM layers, `D = 4096`,
    /// `N = 128`. Mamba blocks fold the MLP into the mixer, so `n_mlp = 0`.
    #[must_use]
    pub fn mamba_7b() -> ModelConfig {
        ModelConfig::builder("mamba-7b")
            .d_model(4096)
            .d_state(128)
            .layers(0, 64, 0)
            .build()
            .expect("preset is valid")
    }

    /// A pure-Transformer 7B model: 32 Attention + 32 MLP layers,
    /// `D = 4096`.
    #[must_use]
    pub fn transformer_7b() -> ModelConfig {
        ModelConfig::builder("transformer-7b")
            .d_model(4096)
            .d_state(128)
            .layers(32, 0, 32)
            .build()
            .expect("preset is valid")
    }

    /// A Jamba-1.5-Mini-like hybrid (12B-active scale) used for the TTFT
    /// experiments: a 1:7 Attention:SSM ratio served with `N = 128`.
    #[must_use]
    pub fn jamba_mini_like() -> ModelConfig {
        ModelConfig::builder("jamba-1.5-mini-like")
            .d_model(4096)
            .d_state(128)
            .layers(4, 28, 32)
            .build()
            .expect("preset is valid")
    }

    /// Layer-composition sweep variant for Fig. 12a: `n_ssm` SSM and
    /// `n_attention` Attention layers with the main model's 28 MLP layers,
    /// `D = 4096`, `N = 128`.
    ///
    /// The paper sweeps `(SSM, Attn)` over
    /// `{(32,4), (30,5), (28,7), (24,12), (0,36)}`.
    ///
    /// # Panics
    ///
    /// Panics if both counts are zero.
    #[must_use]
    pub fn with_layer_composition(n_ssm: u64, n_attention: u64) -> ModelConfig {
        ModelConfig::builder(format!("hybrid-7b-ssm{n_ssm}-attn{n_attention}"))
            .d_model(4096)
            .d_state(128)
            .layers(n_attention, n_ssm, 28)
            .build()
            .expect("at least one compute layer required")
    }

    /// SSM state-dimension sweep variant for Fig. 12b: the main 7B hybrid
    /// with `d_state = n` (the paper sweeps 16 → 128, Mamba1 → Mamba2).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_state_dim(n: u64) -> ModelConfig {
        ModelConfig::builder(format!("hybrid-7b-dstate{n}"))
            .d_model(4096)
            .d_state(n)
            .layers(4, 24, 28)
            .build()
            .expect("d_state must be positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_7b_composition_matches_paper() {
        let m = ModelConfig::hybrid_7b();
        assert_eq!(
            (m.n_attention(), m.n_ssm(), m.n_mlp()),
            (4, 24, 28),
            "paper: 7B Hybrid model with {{4,24,28}} {{Attention,SSM,MLP}}"
        );
        assert_eq!(m.d_model(), 4096);
        assert_eq!(m.d_state(), 128);
    }

    #[test]
    fn attention_ssm_ratio_is_one_to_six() {
        // §5.1 describes the hybrid as having a 1:6 Attention:SSM ratio.
        let m = ModelConfig::hybrid_7b();
        assert_eq!(m.n_ssm() / m.n_attention(), 6);
    }

    #[test]
    fn pure_models_are_not_hybrid() {
        assert_eq!(ModelConfig::mamba_7b().n_attention(), 0);
        assert_eq!(ModelConfig::transformer_7b().n_ssm(), 0);
    }

    #[test]
    fn fig12a_sweep_members_build() {
        for (ssm, attn) in [(32, 4), (30, 5), (28, 7), (24, 12), (0, 36)] {
            let m = ModelConfig::with_layer_composition(ssm, attn);
            assert_eq!(m.n_ssm(), ssm);
            assert_eq!(m.n_attention(), attn);
        }
    }

    #[test]
    fn fig12b_sweep_members_build() {
        for n in [16, 32, 64, 128] {
            let m = ModelConfig::with_state_dim(n);
            assert_eq!(m.d_state(), n);
        }
        // Larger state dim => larger checkpoint.
        assert!(
            ModelConfig::with_state_dim(128).ssm_checkpoint_bytes()
                > ModelConfig::with_state_dim(16).ssm_checkpoint_bytes()
        );
    }

    #[test]
    fn preset_names_are_distinct() {
        let names = [
            ModelConfig::hybrid_7b().name().to_string(),
            ModelConfig::mamba_7b().name().to_string(),
            ModelConfig::transformer_7b().name().to_string(),
            ModelConfig::jamba_mini_like().name().to_string(),
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
