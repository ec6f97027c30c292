//! Fig. 3a: token-block reuse rates under fine-grained checkpointing.

use crate::{pct, times, GB};
use marconi_core::BlockReuseReport;
use marconi_model::ModelConfig;
use marconi_sim::{vllm_plus, Engine, GpuModel};
use marconi_workload::{DatasetKind, TraceGenerator};
use std::fmt::Write as _;

/// One block-size data point.
#[derive(Debug, Clone, Copy)]
pub struct ReusePoint {
    /// Token-block size.
    pub block_size: u64,
    /// The vLLM+ cache's cumulative reuse counters.
    pub report: BlockReuseReport,
}

impl ReusePoint {
    /// KV-over-SSM reuse-rate ratio (the 65.3× / 27.9× / 11.1× labels).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        let ssm = self.report.ssm_reuse_fraction();
        if ssm == 0.0 {
            return f64::INFINITY;
        }
        self.report.kv_reuse_fraction() / ssm
    }
}

/// Runs vLLM+ over a multi-turn trace for each block size and measures the
/// fraction of cached blocks whose KVs vs SSM states are ever reused.
#[must_use]
pub fn run(block_sizes: &[u64]) -> Vec<ReusePoint> {
    // Long-context conversations: each resume touches hundreds of KV
    // blocks but exactly one SSM state, which is what makes SSM entries
    // sparsely hit (§3).
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(40)
        .seed(42)
        .generate();
    block_sizes
        .iter()
        .map(|&block_size| {
            // Ample capacity: measure reuse, not eviction.
            let cache = vllm_plus(ModelConfig::hybrid_7b(), 400 * GB, block_size);
            let mut engine = Engine::new(cache, GpuModel::a100_x4());
            let _ = engine.run(&trace);
            ReusePoint {
                block_size,
                report: engine
                    .cache()
                    .block_reuse()
                    .expect("invariant: a vLLM+ cache counts block reuse"),
            }
        })
        .collect()
}

/// Fig. 3a rendered as text.
#[must_use]
pub fn fig3a() -> String {
    let points = run(&[32, 64, 128]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig 3a: % of cached token blocks ever reused (vLLM+ fine-grained)"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>12} {:>10}",
        "block_size", "KVs", "SSM states", "ratio"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>12} {:>10}",
            p.block_size,
            pct(p.report.kv_reuse_fraction()),
            pct(p.report.ssm_reuse_fraction()),
            times(p.ratio())
        );
    }
    let _ = writeln!(
        out,
        "paper check: block 32 → KVs 25.0% vs SSM 0.4% (65.3×); gap narrows as blocks grow"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_reuse_dwarfs_ssm_reuse() {
        let points = run(&[32, 128]);
        for p in &points {
            assert!(
                p.report.kv_reuse_fraction() > 2.0 * p.report.ssm_reuse_fraction(),
                "block {}: kv {} vs ssm {}",
                p.block_size,
                p.report.kv_reuse_fraction(),
                p.report.ssm_reuse_fraction()
            );
        }
        // Larger blocks shrink the gap (fewer sparsely-hit checkpoints).
        assert!(points[0].ratio() > points[1].ratio());
    }

    #[test]
    fn rendering_includes_every_block_size() {
        let s = fig3a();
        for b in ["32", "64", "128"] {
            assert!(s.contains(b));
        }
    }

    #[test]
    fn fig3a_counters_are_pinned() {
        let counters: Vec<(u64, u64, u64, u64)> = run(&[32, 64, 128])
            .iter()
            .map(|p| {
                let r = p.report;
                (p.block_size, r.blocks_created, r.kv_reused, r.ssm_reused)
            })
            .collect();
        assert_eq!(
            counters,
            [
                (32, 8689, 6500, 143),
                (64, 4337, 3242, 142),
                (128, 2165, 1615, 138)
            ]
        );
    }
}
