//! Fig. 11: impact of cache contention on FLOP-aware eviction's benefits.

use crate::sweep::{run_cells, SweepCell, SweepConfig};
use crate::{fine_grained, pct, rate_ratio, GB};
use marconi_sim::SystemKind;
use std::fmt::Write as _;

/// Sweeps cache sizes (the paper's 60–140 GB axis) over Fig. 10's
/// SWEBench-like cell.
#[must_use]
pub fn run(cache_sizes_gb: &[f64]) -> Vec<SweepCell> {
    let cells: Vec<SweepConfig> = cache_sizes_gb
        .iter()
        .map(|&cache_gb| SweepConfig {
            capacity_bytes: (cache_gb * GB as f64) as u64,
            ..fine_grained::cell()
        })
        .collect();
    run_cells(&cells, &[SystemKind::SglangPlus, SystemKind::Marconi])
}

/// Fig. 11 rendered as text.
#[must_use]
pub fn fig11() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 11: token hit rate vs cache size (SWEBench-like trace)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>12}",
        "cache_gb", "marconi", "sglang+", "rel. win"
    );
    for cell in run(&[1.0, 1.5, 2.0, 3.0, 4.0]) {
        let marconi = cell.hit_rate(SystemKind::Marconi);
        let sglang = cell.hit_rate(SystemKind::SglangPlus);
        let _ = writeln!(
            out,
            "{:>10.1} {:>10} {:>10} {:>12}",
            cell.config.capacity_bytes as f64 / GB as f64,
            pct(marconi),
            pct(sglang),
            rate_ratio(marconi, sglang, |r| pct(r - 1.0))
        );
    }
    let _ = writeln!(
        out,
        "paper check: biggest relative win at moderate contention (paper: +24.3/+51.5/+68.3/+30.0/+10.0%\n\
         across 60→140 GB); extremes of very-high and very-low contention shrink the gap"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_grows_with_cache_size() {
        let cells = run(&[1.0, 4.0]);
        let (small, large) = (&cells[0], &cells[1]);
        assert!(large.hit_rate(SystemKind::Marconi) >= small.hit_rate(SystemKind::Marconi));
        assert!(large.hit_rate(SystemKind::SglangPlus) >= small.hit_rate(SystemKind::SglangPlus));
    }

    #[test]
    fn marconi_never_loses_to_lru_on_this_trace() {
        for cell in run(&[2.0, 3.0]) {
            let marconi = cell.hit_rate(SystemKind::Marconi);
            let sglang = cell.hit_rate(SystemKind::SglangPlus);
            assert!(
                marconi >= sglang * 0.98,
                "cache {} GB: {} vs {}",
                cell.config.capacity_bytes as f64 / GB as f64,
                marconi,
                sglang
            );
        }
    }
}
