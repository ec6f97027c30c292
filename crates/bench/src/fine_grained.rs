//! Fig. 10: fine-grained analysis of FLOP-aware eviction on one
//! SWE-Bench-like trace — per-length hit-rate differences (a) and the TTFT
//! distribution (b).

use crate::sweep::{run_cell, SweepCell, SweepConfig};
use crate::{pct, GB};
use marconi_sim::SystemKind;
use marconi_workload::{ArrivalConfig, DatasetKind};
use std::fmt::Write as _;

/// The contended SWE-agent cell the figure dissects: 36 SWE-Bench-like
/// sessions at seed 10, one session per second with 20 s between turns,
/// on a 2 GB cache. Fig. 11 resizes it, and the ablations replay its
/// trace.
#[must_use]
pub fn cell() -> SweepConfig {
    SweepConfig {
        arrival: ArrivalConfig::new(1.0, 20.0),
        ..SweepConfig::new(DatasetKind::SweBench, 36, 10, 2 * GB)
    }
}

/// Runs the cell across vanilla, SGLang+ and Marconi.
#[must_use]
pub fn run() -> SweepCell {
    let systems = [
        SystemKind::Vanilla,
        SystemKind::SglangPlus,
        SystemKind::Marconi,
    ];
    run_cell(&cell(), &systems)
}

/// Fig. 10 rendered as text.
#[must_use]
pub fn fig10() -> String {
    let cell = run();
    let marconi = cell.report(SystemKind::Marconi);
    let sglang = cell.report(SystemKind::SglangPlus);
    let vanilla = cell.report(SystemKind::Vanilla);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 10: FLOP-aware eviction vs LRU on one SWEBench-like trace"
    );
    let _ = writeln!(
        out,
        "overall token hit rate: marconi {} vs sglang+ {} ({}% relative win)",
        pct(marconi.token_hit_rate()),
        pct(sglang.token_hit_rate()),
        if sglang.token_hit_rate() > 0.0 {
            format!(
                "{:+.1}",
                (marconi.token_hit_rate() / sglang.token_hit_rate() - 1.0) * 100.0
            )
        } else {
            "inf".to_owned()
        }
    );

    // (a) average hit rate binned by input length, Marconi − SGLang+.
    const BIN: f64 = 4000.0;
    let mb = marconi.hit_rate_by_input_len(BIN);
    let sb = sglang.hit_rate_by_input_len(BIN);
    let _ = writeln!(
        out,
        "\n## (a) avg hit rate diff by input length (marconi − sglang+)"
    );
    let _ = writeln!(
        out,
        "{:>16} {:>12} {:>12} {:>10}",
        "len_bin", "marconi", "sglang+", "diff"
    );
    for (m, s) in mb.means().iter().zip(sb.means().iter()) {
        if let (Some(mm), Some(ss)) = (m.1, s.1) {
            let _ = writeln!(
                out,
                "{:>16} {:>12} {:>12} {:>+9.1}%",
                format!("[{:.0},{:.0})", m.0, m.0 + BIN),
                pct(mm),
                pct(ss),
                (mm - ss) * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "paper check: Marconi gives up a little hit rate on short sequences (≤ -3.0%) to gain\n\
         up to +25.5% on long ones (>7K tokens)"
    );

    // (b) TTFT distribution.
    let _ = writeln!(out, "\n## (b) TTFT (ms) percentiles");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8}",
        "system", "P5", "P50", "P95"
    );
    for (name, rep) in [
        ("marconi", marconi),
        ("sglang+", sglang),
        ("vanilla", vanilla),
    ] {
        let _ = writeln!(
            out,
            "{:<10} {:>8.1} {:>8.1} {:>8.1}",
            name,
            rep.ttft_percentile_ms(0.05).unwrap_or(f64::NAN),
            rep.ttft_percentile_ms(0.50).unwrap_or(f64::NAN),
            rep.ttft_percentile_ms(0.95).unwrap_or(f64::NAN),
        );
    }
    let _ = writeln!(
        out,
        "paper check: Marconi may lose a few ms at P5 but wins at P50/P95 (paper: −13.4% / −22.0%)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marconi_wins_aggregate_and_long_sequences() {
        let cell = run();
        let marconi = cell.report(SystemKind::Marconi);
        let sglang = cell.report(SystemKind::SglangPlus);
        assert!(
            marconi.token_hit_rate() >= sglang.token_hit_rate(),
            "marconi {} vs sglang+ {}",
            marconi.token_hit_rate(),
            sglang.token_hit_rate()
        );
        // P95 TTFT should not regress.
        let mp = marconi.ttft_percentile_ms(0.95).unwrap();
        let sp = sglang.ttft_percentile_ms(0.95).unwrap();
        assert!(mp <= sp * 1.02, "P95 {mp} vs {sp}");
    }
}
