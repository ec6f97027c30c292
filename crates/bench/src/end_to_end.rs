//! Fig. 7 (Marconi vs vLLM+ hit rate), Fig. 8 (win over SGLang+), and
//! Fig. 9 (P95 TTFT relative to vanilla), derived from the shared sweep.

use crate::sweep::{grid, run_cells, SweepCell, MAIN_SYSTEMS};
use crate::{pct, times};
use marconi_metrics::{BoxStats, Percentiles};
use marconi_sim::SystemKind;
use marconi_workload::DatasetKind;
use std::fmt::Write as _;

/// One dataset with its grid's cells, run.
pub type DatasetSweep = (DatasetKind, Vec<SweepCell>);

/// Sweep results for all three datasets, shared across the three figures.
#[must_use]
pub fn run_all() -> Vec<DatasetSweep> {
    DatasetKind::ALL
        .iter()
        .map(|&d| (d, run_cells(&grid(d), &MAIN_SYSTEMS)))
        .collect()
}

/// Per-config token hit rates of one system.
fn hit_rates(cells: &[SweepCell], system: SystemKind) -> Vec<f64> {
    cells.iter().map(|c| c.hit_rate(system)).collect()
}

/// Fig. 7: box statistics of token hit rate over the config sweep,
/// Marconi vs vLLM+.
#[must_use]
pub fn fig7(sweeps: &[DatasetSweep]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 7: token hit rate over the config sweep (boxes: P5|Q1|med|Q3|P95)"
    );
    for (dataset, cells) in sweeps {
        let [vllm, marconi] = [SystemKind::VllmPlus, SystemKind::Marconi].map(|system| {
            let b = BoxStats::new(&hit_rates(cells, system)).expect("non-empty sweep");
            let _ = writeln!(
                out,
                "{:<10} {:<9} {} ",
                dataset.to_string(),
                system.to_string(),
                b
            );
            b.mean
        });
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
pub fn fig8(sweeps: &[DatasetSweep]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 8: token hit rate win of Marconi over SGLang+ (%)"
    );
    for (dataset, cells) in sweeps {
        let wins: Vec<f64> = cells
            .iter()
            .filter_map(|c| {
                let m = c.hit_rate(SystemKind::Marconi);
                let s = c.hit_rate(SystemKind::SglangPlus);
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
pub fn fig9(sweeps: &[DatasetSweep]) -> String {
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
                    let v = c.report(SystemKind::Vanilla).ttft_percentile_ms(0.95)?;
                    let s = c.report(system).ttft_percentile_ms(0.95)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{response_time_for, run_cell, tuner_for, SweepConfig};
    use crate::GB;
    use marconi_workload::ArrivalConfig;

    /// A single miniature sweep cell shared by the rendering tests.
    fn mini_sweep() -> Vec<DatasetSweep> {
        let dataset = DatasetKind::ShareGpt;
        let config = SweepConfig {
            arrival: ArrivalConfig::new(1.0, response_time_for(dataset)),
            tuner: tuner_for(dataset),
            ..SweepConfig::new(dataset, 8, 77, 4 * GB)
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
