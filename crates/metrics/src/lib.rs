//! Statistics utilities for serving experiments.
//!
//! Small, dependency-free implementations of exactly the aggregations the
//! Marconi evaluation reports: order statistics over one sorted sample
//! ([`Percentiles`]: P5/P50/P95 TTFT, and the empirical CDF's points and
//! inverse for Fig. 9), five-number box statistics with P5/P95 whiskers
//! (Fig. 7), binned means (Fig. 10a), the load-imbalance factor of the
//! sharded-cluster experiments ([`LoadImbalance`]), the latency
//! distribution view every serving report shares ([`LatencySummary`], with
//! SLO attainment via [`Percentiles::fraction_le`]), and the device/host
//! tier breakdown of the tiered cache's hits ([`TierSplit`]).
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
mod imbalance;
mod latency;
mod percentile;
mod tier;

pub use binned::BinnedMean;
pub use boxstats::BoxStats;
pub use imbalance::LoadImbalance;
pub use latency::LatencySummary;
pub use percentile::Percentiles;
pub use tier::TierSplit;
