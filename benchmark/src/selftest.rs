//! The harness tested against a fault it must find: a cache that spins for a
//! fixed time inside `insert_at_with`. The slowdown has to surface in the
//! `core` metrics and in the embedded request latency, and has to stay out of
//! the serving loop's self time — otherwise the ledger could not localise a
//! regression to a layer.

use crate::drive::embed_replay;
use crate::spans::{LayerSelf, SpanLog, SpanName};
use crate::stats::median;
use crate::timed::{forward_accessors, TimedCache};
use marconi_core::{
    AdmissionReport, CacheStats, HybridPrefixCache, LookupResult, PinTicket, PrefixCache,
    ReloadPolicy, SessionCursor,
};
use marconi_model::ModelConfig;
use marconi_sim::{Engine, GpuModel};
use marconi_workload::{DatasetKind, Token, Trace, TraceGenerator};
use std::time::{Duration, Instant};

const FAULT: Duration = Duration::from_micros(20);

/// Forwards everything; inserts first burn `spin` of wall time.
struct SlowInsert<C> {
    inner: C,
    spin: Duration,
}

impl<C> SlowInsert<C> {
    fn burn(&self) {
        let start = Instant::now();
        while start.elapsed() < self.spin {
            std::hint::spin_loop();
        }
    }
}

impl<C: PrefixCache> PrefixCache for SlowInsert<C> {
    forward_accessors!();

    fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult {
        self.inner.lookup_at(input, now)
    }
    fn lookup_at_with(
        &mut self,
        input: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> LookupResult {
        self.inner.lookup_at_with(input, now, hint)
    }
    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        self.inner.longest_cached_prefix_len(input)
    }
    fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
        self.burn();
        self.inner.insert_at(input, output, now)
    }
    fn insert_at_with(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> (AdmissionReport, Option<SessionCursor>) {
        self.burn();
        self.inner.insert_at_with(input, output, now, hint)
    }
    fn pin_prefix(&mut self, input: &[Token]) -> PinTicket {
        self.inner.pin_prefix(input)
    }
    fn pin_prefix_with(&mut self, input: &[Token], hint: Option<SessionCursor>) -> PinTicket {
        self.inner.pin_prefix_with(input, hint)
    }
    fn unpin(&mut self, ticket: PinTicket) {
        self.inner.unpin(ticket)
    }
}

fn small_trace() -> Trace {
    TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(120)
        .seed(5)
        .generate()
}

fn cache(spin: Duration) -> SlowInsert<HybridPrefixCache> {
    SlowInsert {
        inner: HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build(),
        spin,
    }
}

/// What the ledger would report for this cache from one replay, in µs:
/// (`core.insert_us_p50`, `sim.engine_self_ns_per_req` / 1000,
/// `request_us_p50`), and the hit tokens.
fn measure(trace: &Trace, spin: Duration) -> ([f64; 3], Vec<u64>) {
    let log = SpanLog::shared(2 * trace.len() + 1);
    let mut engine = Engine::new(
        TimedCache::new(cache(spin), log.clone()),
        GpuModel::a100_x4(),
    );
    let root = log.borrow_mut().begin(SpanName::Run, 0, 0);
    let report = engine.run(trace);
    log.borrow_mut().end(root, 0);
    let spans = &log.borrow().spans;
    let inserts: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == SpanName::Insert)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let engine_self = LayerSelf::of(spans).sim_ns as f64 / 1e3 / trace.len() as f64;

    let mut ns = vec![0; trace.len()];
    let mut embed_hits = vec![0; trace.len()];
    embed_replay(&mut cache(spin), trace, &mut ns, &mut embed_hits);
    let us: Vec<f64> = ns.iter().map(|&t| f64::from(t) / 1e3).collect();
    (
        [median(&inserts), engine_self, median(&us)],
        report.records.iter().map(|r| r.hit_tokens).collect(),
    )
}

#[test]
fn a_seeded_slowdown_in_insert_is_localised_to_core() {
    let trace = small_trace();
    // The other tests run beside this one, and a disturbance only ever adds
    // time: alternate the two caches so both meet the same conditions, and
    // compare each one's least-disturbed replay.
    let (mut ok, mut slow) = ([f64::MAX; 3], [f64::MAX; 3]);
    for _ in 0..7 {
        let (sample, hits_ok) = measure(&trace, Duration::ZERO);
        ok = std::array::from_fn(|i| ok[i].min(sample[i]));
        let (sample, hits_slow) = measure(&trace, FAULT);
        slow = std::array::from_fn(|i| slow[i].min(sample[i]));
        assert_eq!(hits_ok, hits_slow, "the fault changes timing, not outputs");
    }
    let [insert_ok, self_ok, request_ok] = ok;
    let [insert_slow, self_slow, request_slow] = slow;
    let fault_us = FAULT.as_secs_f64() * 1e6;

    // "Carries" = most of the fault shows; the rest of it may hide in what
    // the neighbours did to the undisturbed side.
    assert!(
        insert_slow - insert_ok > 0.6 * fault_us,
        "core.insert_us_p50 must carry the fault: {insert_ok:.2} -> {insert_slow:.2} us"
    );
    assert!(
        request_slow - request_ok > 0.6 * fault_us,
        "request_us_p50 must carry the fault: {request_ok:.2} -> {request_slow:.2} us"
    );
    // The serving loop did not change, so its self time may move by noise
    // only: far less than the fault that was injected below it.
    assert!(
        (self_slow - self_ok).abs() < 0.25 * fault_us,
        "sim.engine_self_ns_per_req must not absorb the fault: {self_ok:.2} -> {self_slow:.2} us"
    );
}
