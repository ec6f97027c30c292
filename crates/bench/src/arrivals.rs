//! Fig. 13: impact of request arrival patterns.

use crate::sweep::{run_cells, SweepCell, SweepConfig};
use crate::{pct, rate_ratio, times, GB};
use marconi_core::TunerConfig;
use marconi_sim::SystemKind;
use marconi_workload::{ArrivalConfig, DatasetKind};
use std::fmt::Write as _;

/// The systems every Fig. 13 cell compares.
const SYSTEMS: [SystemKind; 2] = [SystemKind::SglangPlus, SystemKind::Marconi];

/// A Fig. 13 cell: 150 LMSys-like sessions at seed 21 under `arrival`, on
/// a `cache_gb` cache, with the figure's own tuner (α grid {0, 0.25, 0.5},
/// bootstrap multiplier 5).
fn cell(arrival: ArrivalConfig, cache_gb: u64) -> SweepConfig {
    SweepConfig {
        arrival,
        tuner: TunerConfig {
            bootstrap_multiplier: 5.0,
            alpha_grid: vec![0.0, 0.25, 0.5],
        },
        ..SweepConfig::new(DatasetKind::Lmsys, 150, 21, cache_gb * GB)
    }
}

fn render(
    cells: &[SweepCell],
    label: impl Fn(&ArrivalConfig) -> String,
    title: &str,
    check: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8}",
        "config", "marconi", "sglang+", "ratio"
    );
    for cell in cells {
        let marconi = cell.hit_rate(SystemKind::Marconi);
        let sglang = cell.hit_rate(SystemKind::SglangPlus);
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>8}",
            label(&cell.config.arrival),
            pct(marconi),
            pct(sglang),
            rate_ratio(marconi, sglang, times)
        );
    }
    let _ = writeln!(out, "paper check: {check}");
    out
}

/// Fig. 13a: varying the session arrival rate at 10 s between turns.
#[must_use]
pub fn fig13a() -> String {
    let cells = [0.5, 1.0, 2.0].map(|rate| cell(ArrivalConfig::new(rate, 10.0), 3));
    render(
        &run_cells(&cells, &SYSTEMS),
        |a| format!("{} sess/s", a.sessions_per_second),
        "Fig 13a: varying session arrival rate (LMSys-like, 5 s response time)",
        "hit rate falls as more sessions contend (paper: 48.7% → 43.0%) while Marconi's\n\
         relative win grows (paper: 1.4× → 1.6×)",
    )
}

/// Fig. 13b: varying the mean response time at 1 session/s.
#[must_use]
pub fn fig13b() -> String {
    let cells = [10.0, 15.0, 20.0].map(|resp| cell(ArrivalConfig::new(1.0, resp), 3));
    render(
        &run_cells(&cells, &SYSTEMS),
        |a| format!("{} s resp", a.mean_response_time),
        "Fig 13b: varying avg response time (LMSys-like, 1 session/s)",
        "longer gaps between turns reduce reuse (paper: 25.9% → 24.1%) while Marconi's\n\
         relative win grows (paper: 1.4× → 1.6×)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_cell;

    #[test]
    fn contention_lowers_hit_rate() {
        let [slow, fast] = [0.5, 2.0].map(|rate| {
            run_cell(&cell(ArrivalConfig::new(rate, 5.0), 16), &SYSTEMS)
                .hit_rate(SystemKind::SglangPlus)
        });
        // More concurrent sessions sharing the cache ⇒ lower (or equal)
        // hit rate for the LRU baseline.
        assert!(fast <= slow + 0.02, "fast {fast} vs slow {slow}");
    }
}
