//! Fig. 12: impact of model architecture — layer composition (a) and SSM
//! state dimension (b).

use crate::sweep::{run_cell, SweepCell, SweepConfig};
use crate::{rate_ratio, times};
use marconi_model::ModelConfig;
use marconi_sim::SystemKind;
use marconi_workload::{ArrivalConfig, DatasetKind};
use std::fmt::Write as _;

/// The systems every Fig. 12 cell compares.
const SYSTEMS: [SystemKind; 3] = [
    SystemKind::VllmPlus,
    SystemKind::SglangPlus,
    SystemKind::Marconi,
];

/// `config` with its capacity at `fraction` of the bytes its trace's
/// distinct prefixes would occupy for its model (per-session final context
/// KVs + two checkpoints per session), so contention is comparable across
/// architectures.
fn at_working_set_fraction(config: SweepConfig, fraction: f64) -> SweepConfig {
    let mut final_len: std::collections::BTreeMap<u64, u64> = Default::default();
    for r in &config.trace().requests {
        let e = final_len.entry(r.session_id).or_insert(0);
        *e = (*e).max(r.total_len());
    }
    let tokens: u64 = final_len.values().sum();
    let model = &config.model;
    let bytes = tokens * model.kv_bytes_per_token()
        + 2 * final_len.len() as u64 * model.ssm_checkpoint_bytes();
    SweepConfig {
        capacity_bytes: (bytes as f64 * fraction) as u64,
        ..config
    }
}

/// Runs the Fig. 12 cell for `model`: 120 ShareGPT-like sessions at seed
/// 12, one session per second with 10 s between turns, on 30% of the
/// model's working set.
fn run_model(model: ModelConfig) -> SweepCell {
    let config = SweepConfig {
        arrival: ArrivalConfig::new(1.0, 10.0),
        model,
        ..SweepConfig::new(DatasetKind::ShareGpt, 120, 12, 0)
    };
    run_cell(&at_working_set_fraction(config, 0.3), &SYSTEMS)
}

/// One row from the hit rates of [`SYSTEMS`], in order: hit rates
/// normalized to Marconi's (undefined when Marconi's is 0), then Marconi's
/// ratio over each baseline.
fn row(label: &str, [vllm, sglang, marconi]: [f64; 3]) -> String {
    let norm = |x: f64| (marconi > 0.0).then(|| format!("{:.3}", x / marconi));
    format!(
        "{:<12} {:>9} {:>9} {:>9} {:>14} {:>14}\n",
        label,
        norm(marconi).unwrap_or_else(|| "n/a".to_owned()),
        norm(sglang).unwrap_or_else(|| "n/a".to_owned()),
        norm(vllm).unwrap_or_else(|| "n/a".to_owned()),
        rate_ratio(marconi, sglang, times),
        rate_ratio(marconi, vllm, times),
    )
}

fn render(rows: &[(String, SweepCell)], title: &str, check: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>14} {:>14}",
        "variant", "marconi", "sglang+", "vllm+", "vs sglang+", "vs vllm+"
    );
    for (label, cell) in rows {
        out.push_str(&row(label, SYSTEMS.map(|system| cell.hit_rate(system))));
    }
    let _ = writeln!(out, "paper check: {check}");
    out
}

/// Fig. 12a: the layer-composition `(SSM, Attn)` sweep, hit rates
/// normalized to Marconi.
#[must_use]
pub fn fig12a() -> String {
    let rows = [(32u64, 4u64), (30, 5), (28, 7), (24, 12), (0, 36)].map(|(ssm, attn)| {
        let model = ModelConfig::with_layer_composition(ssm, attn);
        (format!("({ssm},{attn})"), run_model(model))
    });
    render(
        &rows,
        "Fig 12a: varying layer composition (SSM, Attn); hit rate normalized to Marconi",
        "Marconi's advantage grows with the SSM ratio (paper: 13.5% → 66.6% → 2.6× over vLLM+);\n\
         for the pure Transformer (0,36) the three systems converge",
    )
}

/// Fig. 12b: the SSM state-dimension sweep.
#[must_use]
pub fn fig12b() -> String {
    let rows = [128u64, 64, 32, 16].map(|n| {
        (
            format!("dstate={n}"),
            run_model(ModelConfig::with_state_dim(n)),
        )
    });
    render(
        &rows,
        "Fig 12b: varying SSM state dimension; hit rate normalized to Marconi",
        "larger states (Mamba1 16 → Mamba2 128) amplify Marconi's win over vLLM+\n\
         (paper: 5.7× → 35.4×) while the SGLang+ gap stays ~1.6-1.9×",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Fig. 12 cell on `sessions` ShareGPT-like sessions at `seed` under
    /// the default arrival pattern, with its capacity at `fraction` of the
    /// working set.
    fn run_small(model: ModelConfig, sessions: usize, seed: u64, fraction: f64) -> SweepCell {
        let config = SweepConfig {
            model,
            ..SweepConfig::new(DatasetKind::ShareGpt, sessions, seed, 0)
        };
        run_cell(&at_working_set_fraction(config, fraction), &SYSTEMS)
    }

    #[test]
    fn pure_transformer_composition_converges() {
        let cell = run_small(ModelConfig::with_layer_composition(0, 36), 12, 12, 0.5);
        let [marconi, sglang, vllm] = [
            SystemKind::Marconi,
            SystemKind::SglangPlus,
            SystemKind::VllmPlus,
        ]
        .map(|s| cell.hit_rate(s));
        // No SSM constraint: radix systems identical, vLLM+ within one
        // block per request.
        assert!((marconi - sglang).abs() < 0.02, "{marconi} {sglang} {vllm}");
        assert!((marconi - vllm).abs() < 0.1, "{marconi} {sglang} {vllm}");
    }

    #[test]
    fn vllm_gap_grows_with_state_dim() {
        let small = run_small(ModelConfig::with_state_dim(16), 16, 13, 0.3);
        let large = run_small(ModelConfig::with_state_dim(128), 16, 13, 0.3);
        let gap = |c: &SweepCell| {
            let vllm = c.hit_rate(SystemKind::VllmPlus);
            if vllm > 0.0 {
                c.hit_rate(SystemKind::Marconi) / vllm
            } else {
                f64::INFINITY
            }
        };
        assert!(
            gap(&large) >= gap(&small),
            "small {:?} large {:?}",
            gap(&small),
            gap(&large)
        );
    }

    #[test]
    fn a_zero_marconi_rate_leaves_the_normalized_columns_undefined() {
        let line = row("(0,36)", [0.125, 0.25, 0.0]);
        assert_eq!(
            line.split_whitespace().collect::<Vec<_>>(),
            ["(0,36)", "n/a", "n/a", "n/a", "0.0×", "0.0×"]
        );
        assert!(row("x", [0.0, 0.25, 0.5]).contains("    1.000     0.500     0.000"));
    }

    #[test]
    fn zero_rates_everywhere_leave_every_column_undefined() {
        let line = row("(0,36)", [0.0, 0.0, 0.0]);
        assert_eq!(
            line.split_whitespace().collect::<Vec<_>>(),
            ["(0,36)", "n/a", "n/a", "n/a", "n/a", "n/a"]
        );
        // A positive rate over a zero baseline is infinite, not undefined.
        assert!(row("x", [0.0, 0.0, 0.5]).ends_with("∞              ∞\n"));
    }
}
