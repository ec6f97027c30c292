//! Ablations of Marconi's design choices: eviction-policy family,
//! checkpoint materialization mode, and the §4.3 implementation rules.

use crate::{fine_grained, pct};
use marconi_core::HybridPrefixCacheBuilder as Builder;
use marconi_core::{CheckpointMode, EvictionPolicy, HybridPrefixCache};
use marconi_sim::{Engine, GpuModel};
use std::fmt::Write as _;

/// One ablation configuration and its measured hit rate.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: String,
    /// Token hit rate achieved.
    pub hit_rate: f64,
    /// Entries evicted (diagnostic for policy behaviour).
    pub evictions: u64,
}

/// Runs the ablation grid on Fig. 10's cell: contended SWE-agent-like
/// serving where eviction decisions matter.
#[must_use]
pub fn run() -> Vec<AblationPoint> {
    let cell = fine_grained::cell();
    let trace = cell.trace();
    let run_config = |label: &str, configure: fn(Builder) -> Builder| {
        let builder =
            HybridPrefixCache::builder(cell.model.clone()).capacity_bytes(cell.capacity_bytes);
        let mut engine = Engine::new(configure(builder).build(), GpuModel::a100_x4());
        let report = engine.run(&trace);
        AblationPoint {
            label: label.to_owned(),
            hit_rate: report.token_hit_rate(),
            evictions: report.cache_stats.evictions,
        }
    };
    vec![
        // Eviction-policy family.
        run_config("lru (sglang+)", |b| b.policy(EvictionPolicy::Lru)),
        run_config("gdsf (classic cost-aware)", |b| {
            b.policy(EvictionPolicy::Gdsf)
        }),
        run_config("flop-aware α=2 (static)", |b| {
            b.policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        }),
        run_config("flop-aware auto-α (marconi)", |b| b),
        // §4.1 checkpoint materialization.
        run_config("marconi + chunked ckpt (64)", |b| {
            b.checkpoint_mode(CheckpointMode::Chunked { chunk_size: 64 })
        }),
        run_config("marconi + chunked ckpt (256)", |b| {
            b.checkpoint_mode(CheckpointMode::Chunked { chunk_size: 256 })
        }),
        // §4.3 implementation rules, ablated one at a time on LRU (so the
        // effect is not masked by FLOP-aware scoring).
        run_config("lru + ancestor-refresh", |b| {
            b.policy(EvictionPolicy::Lru).refresh_ancestors(true)
        }),
        run_config("lru + leaf-only eviction", |b| {
            b.policy(EvictionPolicy::Lru).leaf_only_eviction(true)
        }),
    ]
}

/// The hit rate of the row whose label starts with `label`.
fn rate(points: &[AblationPoint], label: &str) -> f64 {
    points
        .iter()
        .find(|p| p.label.starts_with(label))
        .unwrap_or_else(|| panic!("{label} missing"))
        .hit_rate
}

/// Where `a` reads against `b` at the table's precision.
fn side(a: f64, b: f64) -> &'static str {
    if pct(a) == pct(b) {
        "level with"
    } else if a > b {
        "above"
    } else {
        "below"
    }
}

/// The ablation table rendered as text, with a reading whose every
/// comparison is derived from the rows it names.
#[must_use]
pub fn ablations() -> String {
    let points = run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablations: design choices on the contended SWE-agent trace (fig10 regime)"
    );
    let _ = writeln!(
        out,
        "{:<32} {:>10} {:>10}",
        "configuration", "hit rate", "evictions"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>10}",
            p.label,
            pct(p.hit_rate),
            p.evictions
        );
    }
    let lru = rate(&points, "lru (sglang+)");
    let gdsf = rate(&points, "gdsf");
    let flop = rate(&points, "flop-aware α=2");
    let marconi = rate(&points, "flop-aware auto-α");
    let chunked = [64, 256].map(|c| rate(&points, &format!("marconi + chunked ckpt ({c})")));
    let refresh = rate(&points, "lru + ancestor-refresh");
    let leaf_only = rate(&points, "lru + leaf-only eviction");
    let beats_lru = |r| side(r, lru) == "above";
    let every = if beats_lru(gdsf) && beats_lru(flop) && beats_lru(marconi) {
        "every"
    } else {
        "not every"
    };
    let chunked_side = match chunked.map(|c| side(c, marconi)) {
        [a, b] if a == b => format!("both {a}"),
        [a, b] => format!("{a} and {b} respectively"),
    };
    let _ = writeln!(
        out,
        "\nreading: {every} cost-aware policy beats LRU ({}): GDSF {}, static α=2 {},\n\
         auto-α {}. Our GDSF variant prices entries by FLOPs (not object size, which the\n\
         paper shows fails for length-independent SSM states) and adds frequency + an aging\n\
         clock; here it reads {} recency+α scoring ({} vs {}), in the spirit of\n\
         §4.2's remark that FLOP efficiency is complementary to classic estimators like GDSF.\n\
         Chunked checkpointing, much cheaper to materialize (§4.1), reads {} (64) and\n\
         {} (256), {chunked_side} exact checkpointing's {}. Ablating the §4.3 rules one at\n\
         a time on LRU ({}): ancestor refresh reads {} ({}), leaf-only eviction\n\
         {} ({}).",
        pct(lru),
        pct(gdsf),
        pct(flop),
        pct(marconi),
        side(gdsf, marconi),
        pct(gdsf),
        pct(marconi),
        pct(chunked[0]),
        pct(chunked[1]),
        pct(marconi),
        pct(lru),
        pct(refresh),
        side(refresh, lru),
        pct(leaf_only),
        side(leaf_only, lru),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_aware_policies_beat_lru() {
        let points = run();
        let marconi = rate(&points, "flop-aware auto-α");
        let lru = rate(&points, "lru (sglang+)");
        let gdsf = rate(&points, "gdsf");
        assert!(marconi > lru, "marconi {marconi} vs lru {lru}");
        // FLOP-priced GDSF is a *stronger* classic baseline (frequency +
        // aging on top of FLOP cost); it must also beat LRU.
        assert!(gdsf > lru, "gdsf {gdsf} vs lru {lru}");
    }

    #[test]
    fn chunked_checkpointing_costs_little() {
        let points = run();
        let exact = rate(&points, "flop-aware auto-α");
        let chunked = rate(&points, "marconi + chunked ckpt (64)");
        assert!(
            chunked > exact * 0.9,
            "chunked {chunked} should be within 10% of exact {exact}"
        );
    }
}
