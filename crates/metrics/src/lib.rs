//! Statistics utilities for serving experiments.
//!
//! Small, dependency-free implementations of exactly the aggregations the
//! Marconi evaluation reports: order-statistic percentiles (P5/P50/P95
//! TTFT), empirical CDFs (Fig. 9, Fig. 10b), five-number box statistics
//! with P5/P95 whiskers (Fig. 7), binned means (Fig. 10a), running
//! summaries, load-imbalance statistics for the sharded-cluster
//! experiments ([`LoadImbalance`]), the latency distribution view
//! every serving report shares ([`LatencySummary`], with SLO attainment
//! via [`Percentiles::fraction_le`]), and the device/host tier breakdown
//! of the tiered cache's hits ([`TierSplit`]).
//!
//! # Examples
//!
//! ```
//! use marconi_metrics::Percentiles;
//!
//! let p = Percentiles::new(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
//! assert_eq!(p.median(), 3.0);
//! assert_eq!(p.quantile(1.0), 5.0);
//! ```

mod binned;
mod boxstats;
mod cdf;
mod imbalance;
mod latency;
mod percentile;
mod summary;
mod tier;

pub use binned::BinnedMean;
pub use boxstats::BoxStats;
pub use cdf::Cdf;
pub use imbalance::LoadImbalance;
pub use latency::LatencySummary;
pub use percentile::Percentiles;
pub use summary::Summary;
pub use tier::TierSplit;
