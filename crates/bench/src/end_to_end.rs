//! Fig. 7 (Marconi vs vLLM+ hit rate), Fig. 8 (win over SGLang+), and
//! Fig. 9 (P95 TTFT relative to vanilla), derived from the shared sweep.

use crate::sweep::{run_dataset, SweepCell, MAIN_SYSTEMS};
use crate::{pct, times};
use marconi_metrics::{BoxStats, Percentiles};
use marconi_sim::SystemKind;
use marconi_workload::DatasetKind;
use std::fmt::Write as _;

/// Sweep results for all three datasets, shared across the three figures.
#[must_use]
pub fn run_all() -> Vec<(DatasetKind, Vec<SweepCell>)> {
    DatasetKind::ALL
        .iter()
        .map(|&d| (d, run_dataset(d, &MAIN_SYSTEMS)))
        .collect()
}

/// Per-config token hit rates of one system.
fn hit_rates(cells: &[SweepCell], system: SystemKind) -> Vec<f64> {
    cells
        .iter()
        .filter_map(|c| c.result.report(system))
        .map(|r| r.token_hit_rate())
        .collect()
}

/// Fig. 7: box statistics of token hit rate over the config sweep,
/// Marconi vs vLLM+.
#[must_use]
pub fn fig7(sweeps: &[(DatasetKind, Vec<SweepCell>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 7: token hit rate over the config sweep (boxes: P5|Q1|med|Q3|P95)"
    );
    for (dataset, cells) in sweeps {
        for system in [SystemKind::VllmPlus, SystemKind::Marconi] {
            let rates = hit_rates(cells, system);
            let b = BoxStats::new(&rates).expect("non-empty sweep");
            let _ = writeln!(
                out,
                "{:<10} {:<9} {} ",
                dataset.to_string(),
                system.to_string(),
                b
            );
        }
        let vllm: f64 = mean(&hit_rates(cells, SystemKind::VllmPlus));
        let marconi: f64 = mean(&hit_rates(cells, SystemKind::Marconi));
        let ratio = if vllm > 0.0 {
            marconi / vllm
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            out,
            "{:<10} marconi/vllm+ mean hit-rate ratio: {}",
            dataset.to_string(),
            times(ratio)
        );
    }
    let _ = writeln!(
        out,
        "paper check: Marconi improves the hit rate by 4.5× (LMSys), 7.3× (ShareGPT), 34.4× (SWEBench) on average"
    );
    out
}

/// Fig. 8: Marconi's relative token-hit-rate win over SGLang+ per config.
#[must_use]
pub fn fig8(sweeps: &[(DatasetKind, Vec<SweepCell>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 8: token hit rate win of Marconi over SGLang+ (%)"
    );
    for (dataset, cells) in sweeps {
        let wins: Vec<f64> = cells
            .iter()
            .filter_map(|c| {
                let m = c.result.report(SystemKind::Marconi)?.token_hit_rate();
                let s = c.result.report(SystemKind::SglangPlus)?.token_hit_rate();
                (s > 0.0).then(|| (m - s) / s * 100.0)
            })
            .collect();
        let b = BoxStats::new(&wins).expect("non-empty sweep");
        let _ = writeln!(out, "{:<10} win% {}", dataset.to_string(), b);
    }
    let _ = writeln!(
        out,
        "paper check: largest wins on SWEBench (P95 +219.7%), smaller on ShareGPT (+19.0%) — \n\
         longer sequences make FLOP-aware eviction matter more"
    );
    out
}

/// Fig. 9: CDF of P95 TTFT relative to vanilla inference over the sweep.
#[must_use]
pub fn fig9(sweeps: &[(DatasetKind, Vec<SweepCell>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 9: P95 TTFT relative to vanilla (lower is better)"
    );
    for (dataset, cells) in sweeps {
        let _ = writeln!(out, "## {dataset}");
        for system in [
            SystemKind::VllmPlus,
            SystemKind::SglangPlus,
            SystemKind::Marconi,
        ] {
            let ratios: Vec<f64> = cells
                .iter()
                .filter_map(|c| {
                    let v = c
                        .result
                        .report(SystemKind::Vanilla)?
                        .ttft_percentile_ms(0.95)?;
                    let s = c.result.report(system)?.ttft_percentile_ms(0.95)?;
                    Some(s / v)
                })
                .collect();
            let cdf = Percentiles::new(&ratios).expect("non-empty sweep");
            let pts: Vec<String> = cdf
                .points()
                .into_iter()
                .map(|(x, y)| format!("({x:.3},{y:.2})"))
                .collect();
            let _ = writeln!(
                out,
                "{:<9} median {} | cdf {}",
                system.to_string(),
                pct(cdf.inverse(0.5)),
                pts.join(" ")
            );
        }
    }
    let _ = writeln!(
        out,
        "paper check: Marconi's curve sits left of SGLang+ which sits left of vLLM+\n\
         (paper: up to 36.9% / 73.2% / 46.8% P95 TTFT reduction vs vanilla per dataset)"
    );
    out
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_cell, SweepConfig};

    /// A single miniature sweep cell shared by the rendering tests.
    fn mini_sweep() -> Vec<(DatasetKind, Vec<SweepCell>)> {
        let config = SweepConfig {
            dataset: DatasetKind::ShareGpt,
            sessions_per_second: 1.0,
            cache_gb: 4.0,
            sessions: 8,
            seed: 77,
        };
        vec![(
            DatasetKind::ShareGpt,
            vec![run_cell(&config, &MAIN_SYSTEMS)],
        )]
    }

    #[test]
    fn figures_render_from_sweep() {
        let sweeps = mini_sweep();
        let f7 = fig7(&sweeps);
        let f8 = fig8(&sweeps);
        let f9 = fig9(&sweeps);
        assert!(f7.contains("marconi"));
        assert!(f8.contains("win%"));
        assert!(f9.contains("cdf"));
    }

    #[test]
    fn marconi_dominates_vllm_in_mini_sweep() {
        let sweeps = mini_sweep();
        let cells = &sweeps[0].1;
        let m = hit_rates(cells, SystemKind::Marconi)[0];
        let v = hit_rates(cells, SystemKind::VllmPlus)[0];
        assert!(m >= v, "marconi {m} vs vllm+ {v}");
    }
}
