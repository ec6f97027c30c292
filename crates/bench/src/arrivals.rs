//! Fig. 13: impact of request arrival patterns.

use crate::{pct, times, GB};
use marconi_model::ModelConfig;
use marconi_sim::{Comparison, SystemKind};
use marconi_workload::{ArrivalConfig, DatasetKind, TraceGenerator};
use std::fmt::Write as _;

/// One arrival-pattern data point.
#[derive(Debug, Clone)]
pub struct ArrivalPoint {
    /// Axis label.
    pub label: String,
    /// Marconi's token hit rate.
    pub marconi: f64,
    /// SGLang+'s token hit rate.
    pub sglang: f64,
}

impl ArrivalPoint {
    /// Marconi-over-SGLang+ hit-rate ratio.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.sglang == 0.0 {
            return f64::INFINITY;
        }
        self.marconi / self.sglang
    }
}

fn run_arrival(arrival: ArrivalConfig, label: String, cache_gb: u64) -> ArrivalPoint {
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(150)
        .arrival(arrival)
        .seed(21)
        .generate();
    let tuner = marconi_core::TunerConfig {
        bootstrap_multiplier: 5.0,
        alpha_grid: vec![0.0, 0.25, 0.5],
    };
    let result = Comparison::new(ModelConfig::hybrid_7b(), cache_gb * GB)
        .marconi_tuner(tuner)
        .systems(&[SystemKind::SglangPlus, SystemKind::Marconi])
        .run(&trace);
    let rate = |s| {
        result
            .report(s)
            .map(|r: &marconi_sim::SimReport| r.token_hit_rate())
            .unwrap_or(0.0)
    };
    ArrivalPoint {
        label,
        marconi: rate(SystemKind::Marconi),
        sglang: rate(SystemKind::SglangPlus),
    }
}

/// Fig. 13a: varying session arrival rate at a fixed 5 s response time.
#[must_use]
pub fn run_session_rates() -> Vec<ArrivalPoint> {
    [0.5f64, 1.0, 2.0]
        .iter()
        .map(|&rate| run_arrival(ArrivalConfig::new(rate, 10.0), format!("{rate} sess/s"), 3))
        .collect()
}

/// Fig. 13b: varying the average response time at 1 session/s.
#[must_use]
pub fn run_response_times() -> Vec<ArrivalPoint> {
    [10.0f64, 15.0, 20.0]
        .iter()
        .map(|&resp| run_arrival(ArrivalConfig::new(1.0, resp), format!("{resp} s resp"), 3))
        .collect()
}

fn render(points: &[ArrivalPoint], title: &str, check: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8}",
        "config", "marconi", "sglang+", "ratio"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>8}",
            p.label,
            pct(p.marconi),
            pct(p.sglang),
            times(p.ratio())
        );
    }
    let _ = writeln!(out, "paper check: {check}");
    out
}

/// Fig. 13a rendered as text.
#[must_use]
pub fn fig13a() -> String {
    render(
        &run_session_rates(),
        "Fig 13a: varying session arrival rate (LMSys-like, 5 s response time)",
        "hit rate falls as more sessions contend (paper: 48.7% → 43.0%) while Marconi's\n\
         relative win grows (paper: 1.4× → 1.6×)",
    )
}

/// Fig. 13b rendered as text.
#[must_use]
pub fn fig13b() -> String {
    render(
        &run_response_times(),
        "Fig 13b: varying avg response time (LMSys-like, 1 session/s)",
        "longer gaps between turns reduce reuse (paper: 25.9% → 24.1%) while Marconi's\n\
         relative win grows (paper: 1.4× → 1.6×)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_lowers_hit_rate() {
        let slow = run_arrival(ArrivalConfig::new(0.5, 5.0), "slow".into(), 16);
        let fast = run_arrival(ArrivalConfig::new(2.0, 5.0), "fast".into(), 16);
        // More concurrent sessions sharing the cache ⇒ lower (or equal)
        // hit rate for the LRU baseline.
        assert!(
            fast.sglang <= slow.sglang + 0.02,
            "fast {} vs slow {}",
            fast.sglang,
            slow.sglang
        );
    }
}
