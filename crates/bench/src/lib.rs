//! Figure- and table-reproduction harness for the Marconi paper.
//!
//! Every table and figure in the paper's evaluation maps to one function
//! here, and the `figures` binary names each once, in one table:
//!
//! ```text
//! cargo run --release -p marconi-bench --bin figures -- all
//! cargo run --release -p marconi-bench --bin figures -- fig7 fig8
//! ```
//!
//! The end-to-end figures (Figs. 7–13) are lists of figure cells. A
//! [`sweep::SweepConfig`] names a trace (dataset, sessions, arrival
//! pattern, seed), a model, a cache capacity and Marconi's tuner, and
//! [`sweep::run_cell`] compares systems on it. Fig. 3a and the ablations
//! compare cache configurations, not systems: they replay a cell's trace
//! through their own `Engine` loops. Table 1 and Figs. 3b, 5 and 14 are
//! closed-form.
//!
//! Each experiment prints the rows the paper reports, and each figure's
//! ends with a `paper check:` line stating the shape the paper shows.
//! Everything is seeded and deterministic, and `golden/figures_all.txt`
//! pins every byte `figures all` prints.
//!
//! This library covers the *paper* results. The *systems* costs
//! (radix-tree operations, eviction, routing, end-to-end replay
//! throughput) are measured by the perf ledger under `benchmark/`.
//!
//! # Examples
//!
//! ```
//! // The formatting helpers every experiment table uses.
//! assert_eq!(marconi_bench::pct(0.517), "51.7%");
//! assert_eq!(marconi_bench::times(2.25), "2.2×");
//! ```

pub mod ablations;
pub mod analytic;
pub mod architecture;
pub mod arrivals;
pub mod contention;
pub mod distributions;
pub mod end_to_end;
pub mod fine_grained;
pub mod reuse;
pub mod sweep;

/// 1 GB in bytes (decimal, as the paper's cache-size axis uses GB).
pub const GB: u64 = 1_000_000_000;

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a ratio as `N.N×`.
#[must_use]
pub fn times(x: f64) -> String {
    format!("{x:.1}×")
}

/// Formats the ratio `num / den` of two hit rates with `fmt`: `n/a` when
/// both are 0, where the ratio is undefined, and `∞` when only `den` is.
/// The one place a figure divides one system's hit rate by another's.
#[must_use]
pub fn rate_ratio(num: f64, den: f64, fmt: impl Fn(f64) -> String) -> String {
    match (num == 0.0, den == 0.0) {
        (true, true) => "n/a".to_owned(),
        (false, true) => "∞".to_owned(),
        _ => fmt(num / den),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.254), "25.4%");
        assert_eq!(times(34.42), "34.4×");
    }

    #[test]
    fn a_rate_ratio_is_undefined_only_at_zero_over_zero() {
        assert_eq!(rate_ratio(0.0, 0.0, times), "n/a");
        assert_eq!(rate_ratio(0.5, 0.0, times), "∞");
        assert_eq!(rate_ratio(0.0, 0.5, times), "0.0×");
        assert_eq!(rate_ratio(0.6, 0.5, |r| pct(r - 1.0)), "20.0%");
    }
}
