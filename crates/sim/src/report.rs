//! Per-request records and aggregate simulation reports.
//!
//! One record and one report type serve both service disciplines. Under
//! the analytic drivers ([`Engine`](crate::Engine),
//! [`Cluster`](crate::Cluster)) nothing queues and nothing takes virtual
//! time: `admitted` and `completed` equal `arrival`, and `queue_ms`,
//! `e2e_ms`, `busy_s` and `iterations` are zero.

use crate::gpu::ReloadDecision;
use marconi_core::CacheStats;
use marconi_metrics::{BinnedMean, BoxStats, Cdf, LatencySummary, Percentiles, TierSplit};
use serde::{Deserialize, Serialize};

/// One request's outcome in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request id (arrival order within the trace).
    pub id: u64,
    /// Session the request belonged to.
    pub session_id: u64,
    /// Arrival time in virtual seconds.
    pub arrival: f64,
    /// When the request left the FIFO queue for a batch slot.
    pub admitted: f64,
    /// When its last decode token finished (cache admission time).
    pub completed: f64,
    /// Prefill length in tokens.
    pub input_len: u64,
    /// Tokens served from cache at admission.
    pub hit_tokens: u64,
    /// The subset of [`hit_tokens`](RequestRecord::hit_tokens) that was
    /// host-resident at admission (reloaded or recomputed per the cache's
    /// reload policy).
    pub host_hit_tokens: u64,
    /// Raw longest match ignoring SSM checkpoint constraints (diagnostic).
    pub raw_matched: u64,
    /// Queueing delay in milliseconds (admitted − arrival).
    pub queue_ms: f64,
    /// Time to first token in milliseconds, including any reload charge:
    /// the analytic prefill time under [`Engine`](crate::Engine), queueing
    /// delay + reload + prefill service under the event drivers.
    pub ttft_ms: f64,
    /// End-to-end latency in milliseconds (completed − arrival).
    pub e2e_ms: f64,
    /// Latency charged at admission for the host-resident share of the
    /// hit, in milliseconds (0 for device-only hits).
    pub reload_ms: f64,
    /// Which compute-or-load arm served the host share.
    pub reload: ReloadDecision,
    /// Prefill FLOPs actually spent.
    pub flops_spent: u128,
    /// Prefill FLOPs skipped thanks to the cache.
    pub flops_saved: u128,
}

impl RequestRecord {
    /// This request's token hit rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.input_len == 0 {
            return 0.0;
        }
        self.hit_tokens as f64 / self.input_len as f64
    }
}

/// Aggregate result of replaying one trace through one cache system on
/// one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// System name (`"marconi"`, `"vllm+"`, ...; cluster replicas carry
    /// their index, e.g. `marconi[2]`).
    pub system: String,
    /// Trace name the run used.
    pub trace: String,
    /// Per-request outcomes, sorted by request id (arrival order).
    pub records: Vec<RequestRecord>,
    /// The cache's statistics: cumulative for a single-cache driver, this
    /// run's delta for a cluster replica.
    pub cache_stats: CacheStats,
    /// Virtual seconds the device spent executing iterations.
    pub busy_s: f64,
    /// Batching iterations executed (the discrete-event count).
    pub iterations: u64,
    /// Virtual time of the last completion (trace start is 0).
    pub makespan_s: f64,
}

impl SimReport {
    /// Overall token hit rate: cache-served tokens over all input tokens.
    #[must_use]
    pub fn token_hit_rate(&self) -> f64 {
        self.cache_stats.token_hit_rate()
    }

    /// Total prefill FLOPs saved across the run.
    #[must_use]
    pub fn total_flops_saved(&self) -> u128 {
        self.records.iter().map(|r| r.flops_saved).sum()
    }

    /// Total reload latency charged across the run, in milliseconds.
    #[must_use]
    pub fn total_reload_ms(&self) -> f64 {
        self.records.iter().map(|r| r.reload_ms).sum()
    }

    /// Per-request TTFTs in milliseconds, in arrival order.
    #[must_use]
    pub fn ttfts_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.ttft_ms).collect()
    }

    /// Per-request queueing delays in milliseconds, in arrival order.
    #[must_use]
    pub fn queue_delays_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.queue_ms).collect()
    }

    /// TTFT percentile in milliseconds (e.g. `0.95` for the paper's P95).
    ///
    /// Returns `None` for an empty run.
    #[must_use]
    pub fn ttft_percentile_ms(&self, q: f64) -> Option<f64> {
        Percentiles::new(&self.ttfts_ms()).map(|p| p.quantile(q))
    }

    /// TTFT distribution for CDF plots (Fig. 10b).
    #[must_use]
    pub fn ttft_cdf(&self) -> Option<Cdf> {
        Cdf::new(&self.ttfts_ms())
    }

    /// TTFT distribution summary (p50/p95/p99/mean); `None` for an empty
    /// run.
    #[must_use]
    pub fn ttft_summary(&self) -> Option<LatencySummary> {
        LatencySummary::new(&self.ttfts_ms())
    }

    /// Queueing-delay distribution summary; `None` for an empty run.
    #[must_use]
    pub fn queue_summary(&self) -> Option<LatencySummary> {
        LatencySummary::new(&self.queue_delays_ms())
    }

    /// Device utilization: busy time over the makespan, in `[0, 1]`
    /// (0.0 for an empty, analytic or instantaneous run).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        (self.busy_s / self.makespan_s).min(1.0)
    }

    /// Fraction of requests whose TTFT met `slo_ms`; `None` for an empty
    /// run.
    #[must_use]
    pub fn slo_attainment(&self, slo_ms: f64) -> Option<f64> {
        Percentiles::new(&self.ttfts_ms()).map(|p| p.fraction_le(slo_ms))
    }

    /// Goodput: SLO-meeting requests per virtual second of makespan
    /// (0.0 for an empty run; an instantaneous run reports the trace's
    /// own arrival rate, since every request trivially meets the SLO).
    #[must_use]
    pub fn goodput_rps(&self, slo_ms: f64) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        let met = self.records.iter().filter(|r| r.ttft_ms <= slo_ms).count();
        met as f64 / self.makespan_s
    }

    /// Hit tokens split by the memory tier that served them.
    #[must_use]
    pub fn hit_tier_split(&self) -> TierSplit {
        TierSplit {
            device: self.cache_stats.device_hit_tokens(),
            host: self.cache_stats.host_hit_tokens,
        }
    }

    /// Box statistics of per-request hit rates.
    #[must_use]
    pub fn hit_rate_box(&self) -> Option<BoxStats> {
        let rates: Vec<f64> = self.records.iter().map(RequestRecord::hit_rate).collect();
        BoxStats::new(&rates)
    }

    /// Mean per-request hit rate binned by input length (Fig. 10a).
    #[must_use]
    pub fn hit_rate_by_input_len(&self, bin_width: f64) -> BinnedMean {
        let mut bins = BinnedMean::new(bin_width);
        for r in &self.records {
            bins.add(r.input_len as f64, r.hit_rate());
        }
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, input: u64, hit: u64, ttft: f64) -> RequestRecord {
        RequestRecord {
            id,
            session_id: 0,
            arrival: id as f64,
            admitted: id as f64,
            completed: id as f64,
            input_len: input,
            hit_tokens: hit,
            host_hit_tokens: 0,
            raw_matched: hit,
            queue_ms: 0.0,
            ttft_ms: ttft,
            e2e_ms: 0.0,
            reload_ms: 0.0,
            reload: ReloadDecision::None,
            flops_spent: 10,
            flops_saved: 5,
        }
    }

    fn report() -> SimReport {
        SimReport {
            system: "test".into(),
            trace: "t".into(),
            records: vec![
                record(0, 100, 0, 500.0),
                record(1, 100, 50, 300.0),
                record(2, 200, 200, 50.0),
            ],
            cache_stats: CacheStats {
                input_tokens: 400,
                hit_tokens: 250,
                ..CacheStats::default()
            },
            busy_s: 0.0,
            iterations: 0,
            makespan_s: 2.0,
        }
    }

    #[test]
    fn aggregate_hit_rate_uses_cache_stats() {
        assert!((report().token_hit_rate() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn ttft_percentiles() {
        let r = report();
        let p95 = r.ttft_percentile_ms(0.95).unwrap();
        assert!(p95 > 400.0 && p95 <= 500.0);
        assert!(r.ttft_cdf().is_some());
    }

    #[test]
    fn ttft_summary_matches_percentiles() {
        let r = report();
        let s = r.ttft_summary().unwrap();
        assert_eq!(s.count(), 3);
        assert_eq!(s.p95(), r.ttft_percentile_ms(0.95).unwrap());
        assert_eq!(s.p50(), r.ttft_percentile_ms(0.5).unwrap());
    }

    #[test]
    fn per_request_rates_bin_by_length() {
        let bins = report().hit_rate_by_input_len(150.0);
        let means = bins.means();
        // Bin 0 holds the two 100-token requests (rates 0.0, 0.5).
        assert_eq!(means[0].1, Some(0.25));
        // Bin 1 holds the 200-token request (rate 1.0).
        assert_eq!(means[1].1, Some(1.0));
    }

    #[test]
    fn tier_split_reads_cache_stats() {
        let mut r = report();
        r.cache_stats.host_hit_tokens = 100;
        let split = r.hit_tier_split();
        assert_eq!(split.device, 150);
        assert_eq!(split.host, 100);
        assert_eq!(split.total(), 250);
    }

    #[test]
    fn empty_report_yields_none() {
        let r = SimReport {
            system: "x".into(),
            trace: "t".into(),
            records: vec![],
            cache_stats: CacheStats::default(),
            busy_s: 0.0,
            iterations: 0,
            makespan_s: 0.0,
        };
        assert!(r.ttft_percentile_ms(0.95).is_none());
        assert!(r.hit_rate_box().is_none());
        assert_eq!(r.total_flops_saved(), 0);
    }
}
