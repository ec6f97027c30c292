//! Analytic experiments: Table 1, Fig. 3b, Fig. 5, Fig. 14.
//!
//! These regenerate the paper's closed-form plots directly from
//! `marconi-model` — no simulation involved, so our numbers should match
//! the paper's up to the conv-state approximation.

use crate::GB;
use marconi_model::{FlopEfficiency, LayerKind, ModelConfig};
use std::fmt::Write as _;

/// Table 1: per-layer FLOPs, state sizes, and FLOPs-saved-per-byte for the
/// 7B hybrid model.
#[must_use]
pub fn table1() -> String {
    let m = ModelConfig::hybrid_7b();
    let eff = FlopEfficiency::new(&m);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 1: FLOP efficiency of layer types (7B hybrid, D=4096, N=128)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>18} {:>16} {:>22}",
        "layer", "FLOPs (L=4096)", "state bytes", "FLOPs saved per byte"
    );
    for kind in LayerKind::ALL {
        let l = 4096;
        let flops = m.layer_flops(kind, l);
        let (bytes, per_byte) = match kind {
            LayerKind::Attention => (
                format!("{}", 4 * l * m.d_model()),
                format!("L + 2D = {}", eff.attention_flops_per_byte(l)),
            ),
            LayerKind::Ssm => (
                format!("{}", 2 * m.d_model() * m.d_state()),
                format!("≈200L = {:.0}", eff.ssm_flops_per_byte(l)),
            ),
            LayerKind::Mlp => ("-".to_owned(), "-".to_owned()),
        };
        let _ = writeln!(out, "{kind:<12} {flops:>18} {bytes:>16} {per_byte:>22}");
    }
    let _ = writeln!(
        out,
        "paper check: SSM/Attn per-byte slope ratio at L=4096 → {:.0} (paper: 200L vs L+8192)",
        eff.ssm_flops_per_byte(4096) / 4096.0
    );
    out
}

/// Fig. 3b: total cache-entry bytes for one sequence under fine-grained
/// checkpointing, as sequence length scales, for block sizes 8/16/32.
#[must_use]
pub fn fig3b() -> String {
    let m = ModelConfig::hybrid_7b();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 3b: cache size of ONE sequence, fine-grained checkpointing (GB)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12}",
        "seq_len", "block=8", "block=16", "block=32"
    );
    for len in (1000..=15_000).step_by(2000) {
        let row: Vec<f64> = [8, 16, 32]
            .iter()
            .map(|&b| marconi_model::sequence_cache_bytes(&m, len, b) as f64 / GB as f64)
            .collect();
        let _ = writeln!(
            out,
            "{:>10} {:>12.2} {:>12.2} {:>12.2}",
            len, row[0], row[1], row[2]
        );
    }
    let at_10k = marconi_model::sequence_cache_bytes(&m, 10_000, 16) as f64 / GB as f64;
    let _ = writeln!(
        out,
        "paper check: 10K tokens @ block 16 = {at_10k:.1} GB (paper: 17.4 GB)"
    );
    out
}

/// Fig. 5: whole-model FLOPs-saved-per-byte vs sequence length for
/// Transformer / Hybrid / Mamba 7B models.
#[must_use]
pub fn fig5() -> String {
    let models = [
        ModelConfig::mamba_7b(),
        ModelConfig::hybrid_7b(),
        ModelConfig::transformer_7b(),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 5: FLOP efficiency (FLOPs saved / byte) vs sequence length"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>14}",
        "seq_len", "mamba", "hybrid", "transformer"
    );
    for len in (250..=2000).step_by(250) {
        let _ = writeln!(
            out,
            "{:>10} {:>14.0} {:>14.0} {:>14.0}",
            len,
            models[0].flop_efficiency(len),
            models[1].flop_efficiency(len),
            models[2].flop_efficiency(len)
        );
    }
    let _ = writeln!(
        out,
        "paper check: ordering mamba > hybrid > transformer and steeper slopes with more SSM layers"
    );
    out
}

/// Fig. 14: FLOP breakdown by layer type for the 7B hybrid model.
#[must_use]
pub fn fig14() -> String {
    let m = ModelConfig::hybrid_7b();
    let mut out = String::new();
    let _ = writeln!(out, "# Fig 14: FLOP breakdown by layer type (7B hybrid)");
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>8}",
        "seq_len", "attn(e12)", "ssm(e12)", "mlp(e12)", "attn%"
    );
    for len in (5_000..=30_000).step_by(5_000) {
        let b = m.prefill_flops(len);
        let _ = writeln!(
            out,
            "{:>10} {:>12.1} {:>12.1} {:>12.1} {:>8.1}",
            len,
            b.attention as f64 / 1e12,
            b.ssm as f64 / 1e12,
            b.mlp as f64 / 1e12,
            b.attention_share() * 100.0
        );
    }
    let _ = writeln!(
        out,
        "paper check: 4 Attention layers (7.1% of layers) consume a growing, significant share"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_all_layers() {
        let t = table1();
        assert!(t.contains("Attention") && t.contains("SSM") && t.contains("MLP"));
    }

    #[test]
    fn fig3b_reproduces_headline() {
        let t = fig3b();
        assert!(t.contains("17.4 GB"), "paper reference present");
        // Our measured value appears and is in range (checked in model
        // crate tests; here just ensure the row exists).
        assert!(t.contains("block=16"));
    }

    #[test]
    fn fig5_and_fig14_render() {
        assert!(fig5().lines().count() > 8);
        assert!(fig14().lines().count() > 6);
    }

    #[test]
    fn analytic_figures_match_the_golden_verbatim() {
        let golden = include_str!("../golden/figures_all.txt");
        for (name, figure) in [
            ("table1", table1()),
            ("fig3b", fig3b()),
            ("fig5", fig5()),
            ("fig14", fig14()),
        ] {
            assert!(
                golden.contains(&figure),
                "{name} differs from the golden:\n{figure}"
            );
        }
    }
}
