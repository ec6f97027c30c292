//! Output checking: every replay's report must equal the first replay's,
//! request by request and as a whole.

use crate::workloads::{Report, MISSING};
use marconi_core::CacheStats;
use marconi_workload::Trace;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of a report: per-request hit tokens plus the final
/// `CacheStats`, field by field.
pub fn fingerprint(hits: &[u64], s: &CacheStats) -> u64 {
    let mut h = Fnv::new();
    hits.iter().for_each(|&t| h.word(t));
    for w in [
        s.lookups,
        s.hits,
        s.host_hits,
        s.input_tokens,
        s.hit_tokens,
        s.host_hit_tokens,
        s.flops_saved as u64,
        (s.flops_saved >> 64) as u64,
        s.insertions,
        s.ssm_states_admitted,
        s.evictions,
        s.bytes_evicted,
        s.demotions,
        s.bytes_demoted,
        s.host_evictions,
        s.bytes_host_evicted,
        s.peak_usage_bytes,
    ] {
        h.word(w);
    }
    h.0
}

/// Failure accounting for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub replays: u64,
    pub requests_attempted: u64,
    pub requests_failed: u64,
    /// Replays whose whole-report fingerprint differed from the reference.
    pub fingerprint_mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.replays += other.replays;
        self.requests_attempted += other.requests_attempted;
        self.requests_failed += other.requests_failed;
        self.fingerprint_mismatches += other.fingerprint_mismatches;
    }

    pub fn clean(&self) -> bool {
        self.requests_failed == 0 && self.fingerprint_mismatches == 0
    }
}

/// The first replay of a configuration, which every later one must repeat.
#[derive(Debug, Clone)]
pub struct Reference {
    hits: Vec<u64>,
    pub fingerprint: u64,
}

impl Reference {
    /// Takes `hits` and `stats` as the reference and checks them against the
    /// trace itself: a request fails if its record is missing or it hit more
    /// tokens than it sent.
    pub fn new(trace: &Trace, hits: Vec<u64>, stats: &CacheStats) -> (Reference, Tally) {
        let reference = Reference {
            fingerprint: fingerprint(&hits, stats),
            hits,
        };
        let tally = reference.check_hits(trace, &reference.hits, reference.fingerprint);
        (reference, tally)
    }

    pub fn of_report(trace: &Trace, report: &Report) -> (Reference, Tally) {
        Reference::new(trace, report.hit_tokens(trace.len()), &report.stats())
    }

    pub fn check(&self, trace: &Trace, report: &Report) -> Tally {
        let hits = report.hit_tokens(trace.len());
        let print = fingerprint(&hits, &report.stats());
        self.check_hits(trace, &hits, print)
    }

    pub fn check_hits(&self, trace: &Trace, hits: &[u64], print: u64) -> Tally {
        let failed = trace
            .requests
            .iter()
            .enumerate()
            .filter(|&(i, req)| {
                let got = hits.get(i).copied().unwrap_or(MISSING);
                got == MISSING || got > req.input_len() || got != self.hits[i]
            })
            .count();
        Tally {
            replays: 1,
            requests_attempted: trace.len() as u64,
            requests_failed: failed as u64,
            fingerprint_mismatches: u64::from(print != self.fingerprint),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_workload::{DatasetKind, TraceGenerator};

    #[test]
    fn a_changed_hit_a_missing_record_and_an_impossible_hit_all_fail() {
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(3)
            .seed(1)
            .generate();
        let stats = CacheStats::default();
        let good: Vec<u64> = trace.requests.iter().map(|r| r.input_len() / 2).collect();
        let (reference, first) = Reference::new(&trace, good.clone(), &stats);
        assert!(first.clean());
        assert_eq!(first.requests_attempted, trace.len() as u64);

        let same = reference.check_hits(&trace, &good, fingerprint(&good, &stats));
        assert!(same.clean());

        let mut bad = good.clone();
        bad[0] += 1;
        bad[1] = MISSING;
        let got = reference.check_hits(&trace, &bad, fingerprint(&bad, &stats));
        assert_eq!(got.requests_failed, 2);
        assert_eq!(got.fingerprint_mismatches, 1);

        let mut over = good.clone();
        over[2] = trace.requests[2].input_len() + 1;
        let (_, tally) = Reference::new(&trace, over, &stats);
        assert_eq!(tally.requests_failed, 1, "more hit tokens than input");
    }

    #[test]
    fn the_fingerprint_covers_cache_stats() {
        let a = CacheStats::default();
        let b = CacheStats {
            evictions: 1,
            ..CacheStats::default()
        };
        assert_ne!(fingerprint(&[1, 2], &a), fingerprint(&[1, 2], &b));
        assert_ne!(fingerprint(&[1, 2], &a), fingerprint(&[2, 1], &a));
    }
}
