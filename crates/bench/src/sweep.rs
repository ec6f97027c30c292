//! The figure cell: the paper's evaluation is a grid of cells — dataset ×
//! arrival pattern × cache size × model — each compared across systems.
//! Fig. 7 / Fig. 8 / Fig. 9 share one grid of them ([`grid`]), run once.

use crate::GB;
use marconi_core::TunerConfig;
use marconi_model::ModelConfig;
use marconi_sim::{Comparison, ComparisonResult, SimReport, SystemKind};
use marconi_workload::{ArrivalConfig, DatasetKind, Trace, TraceGenerator};

/// One figure cell: a trace (dataset, sessions, arrival pattern, seed), the
/// model served, the cache capacity, and Marconi's α tuner.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload family.
    pub dataset: DatasetKind,
    /// Sessions in the trace.
    pub sessions: usize,
    /// Session arrival rate and mean time between a session's turns.
    pub arrival: ArrivalConfig,
    /// RNG seed.
    pub seed: u64,
    /// The model served.
    pub model: ModelConfig,
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Marconi's online α tuner.
    pub tuner: TunerConfig,
}

impl SweepConfig {
    /// A cell of `sessions` `dataset` sessions at `seed` under the default
    /// arrival pattern, serving the 7B hybrid from `capacity_bytes` of
    /// cache with the default tuner.
    #[must_use]
    pub fn new(dataset: DatasetKind, sessions: usize, seed: u64, capacity_bytes: u64) -> Self {
        SweepConfig {
            dataset,
            sessions,
            arrival: ArrivalConfig::default(),
            seed,
            model: ModelConfig::hybrid_7b(),
            capacity_bytes,
            tuner: TunerConfig::default(),
        }
    }

    /// The cell's trace.
    #[must_use]
    pub fn trace(&self) -> Trace {
        TraceGenerator::new(self.dataset)
            .sessions(self.sessions)
            .arrival(self.arrival.clone())
            .seed(self.seed)
            .generate()
    }
}

/// A cell plus its comparison result.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The configuration that produced the result.
    pub config: SweepConfig,
    /// Per-system reports.
    pub result: ComparisonResult,
}

impl SweepCell {
    /// `system`'s report; panics if the cell did not run `system`.
    #[must_use]
    pub fn report(&self, system: SystemKind) -> &SimReport {
        self.result
            .report(system)
            .unwrap_or_else(|| panic!("the cell did not run {system}"))
    }

    /// `system`'s token hit rate; panics if the cell did not run `system`.
    #[must_use]
    pub fn hit_rate(&self, system: SystemKind) -> f64 {
        self.report(system).token_hit_rate()
    }
}

/// Per-dataset cache sizes chosen to span high → low contention around the
/// workload's working set (the paper's 60–140 GB sweep plays the same role
/// for its full-size traces).
#[must_use]
pub fn cache_sizes_gb(dataset: DatasetKind) -> [f64; 3] {
    match dataset {
        DatasetKind::Lmsys => [2.0, 4.0, 8.0],
        DatasetKind::ShareGpt => [3.0, 6.0, 12.0],
        DatasetKind::SweBench => [2.0, 4.0, 8.0],
    }
}

/// Per-dataset mean response time between a session's turns: human typing
/// for chat, environment/IDE interaction for agents (§5.1).
#[must_use]
pub fn response_time_for(dataset: DatasetKind) -> f64 {
    match dataset {
        DatasetKind::Lmsys => 10.0,
        DatasetKind::ShareGpt => 8.0,
        DatasetKind::SweBench => 20.0,
    }
}

/// Sessions per trace. No rule ties these counts to the cache sizes: they
/// were first picked for run time, which no longer binds (the whole grid
/// replays in about 2 s in release), and a trace may end before Marconi's
/// tuner leaves bootstrapping.
#[must_use]
pub fn sessions_for(dataset: DatasetKind) -> usize {
    match dataset {
        DatasetKind::Lmsys => 100,
        DatasetKind::ShareGpt => 120,
        DatasetKind::SweBench => 50,
    }
}

/// Marconi's α grid per dataset. LMSys's flat, short-output-dominated α
/// landscape punishes aggressive FLOP weighting, so its grid stays
/// conservative; the agentic/long-context datasets use the full default.
#[must_use]
pub fn tuner_for(dataset: DatasetKind) -> TunerConfig {
    match dataset {
        DatasetKind::Lmsys => TunerConfig {
            alpha_grid: vec![0.0, 0.1, 0.25, 0.5],
            ..TunerConfig::default()
        },
        DatasetKind::ShareGpt | DatasetKind::SweBench => TunerConfig::default(),
    }
}

/// The Fig. 7–9 grid for one dataset: 3 arrival rates × 3 cache sizes.
#[must_use]
pub fn grid(dataset: DatasetKind) -> Vec<SweepConfig> {
    let mut configs = Vec::new();
    for &rate in &[0.5, 1.0, 2.0] {
        for &cache_gb in &cache_sizes_gb(dataset) {
            let seed = 1000 + (cache_gb * 10.0) as u64 + (rate * 10.0) as u64;
            let capacity = (cache_gb * GB as f64) as u64;
            configs.push(SweepConfig {
                arrival: ArrivalConfig::new(rate, response_time_for(dataset)),
                tuner: tuner_for(dataset),
                ..SweepConfig::new(dataset, sessions_for(dataset), seed, capacity)
            });
        }
    }
    configs
}

/// Runs one cell across the given systems.
#[must_use]
pub fn run_cell(config: &SweepConfig, systems: &[SystemKind]) -> SweepCell {
    let result = Comparison::new(config.model.clone(), config.capacity_bytes)
        .marconi_tuner(config.tuner.clone())
        .systems(systems)
        .run(&config.trace());
    SweepCell {
        config: config.clone(),
        result,
    }
}

/// Runs each cell across the given systems.
#[must_use]
pub fn run_cells(configs: &[SweepConfig], systems: &[SystemKind]) -> Vec<SweepCell> {
    configs.iter().map(|c| run_cell(c, systems)).collect()
}

/// The systems Fig. 7–9 need (everything except the slow oracle).
pub const MAIN_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Vanilla,
    SystemKind::VllmPlus,
    SystemKind::SglangPlus,
    SystemKind::Marconi,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_rates_and_sizes() {
        let g = grid(DatasetKind::ShareGpt);
        assert_eq!(g.len(), 9);
        let rates: std::collections::BTreeSet<u64> = g
            .iter()
            .map(|c| (c.arrival.sessions_per_second * 10.0) as u64)
            .collect();
        assert_eq!(rates.len(), 3);
    }

    #[test]
    fn single_cell_runs_all_main_systems() {
        let mut config = grid(DatasetKind::ShareGpt).remove(0);
        config.sessions = 6; // keep the unit test fast
        let cell = run_cell(&config, &MAIN_SYSTEMS);
        assert_eq!(cell.result.reports.len(), 4);
        for system in MAIN_SYSTEMS {
            assert!(cell.result.report(system).is_some());
        }
    }
}
