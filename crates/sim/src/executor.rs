//! Continuous-batching executor: token-level scheduling on a virtual clock.
//!
//! One executor models one serving device. Requests wait in a FIFO
//! admission queue until a batch slot frees; the running batch advances in
//! *iterations* (the continuous-batching step): each iteration schedules a
//! shared chunked-prefill token budget FIFO across prefilling requests plus
//! one decode token per decoding request, and lasts as long as the
//! [`GpuModel`] needs for that work. Requests that finish decoding complete
//! *mid-batch* — their slot is re-admitted from the queue at the very next
//! iteration — and only completion admits a sequence into the prefix cache,
//! so under load the cache observes the true serving interleaving rather
//! than the oracle arrival order the instantaneous engine assumes.
//!
//! Between two composition changes — an admission, a prefill chunk, a last
//! decode token — nothing the scheduler decides can change, so a
//! *pure-decode* batch (nothing admitted, no prefill, every request
//! decoding) is planned as one **segment**: every iteration up to the first
//! completion, walked in one tight loop with the stepped loop's own float
//! additions. An arrival that finds a free slot cuts the segment at the
//! boundary that admits it. `docs/latency.md` states why this is exact.
//!
//! Everything is a pure function of the trace and the configuration: no
//! wall clock, no randomness — iteration durations come from the analytic
//! device model, ties resolve in FIFO admission order.

use crate::engine::{Admitted, Replica};
use crate::gpu::{decode_token_flops, GpuModel};
use crate::report::RequestRecord;
use marconi_core::PrefixCache;
use marconi_model::ModelConfig;
use marconi_trace::TraceEvent;
use marconi_workload::Request;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Knobs of the continuous-batching executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Batch slots: maximum requests resident in the running batch.
    pub max_batch_requests: usize,
    /// Prefill tokens one iteration may schedule, shared FIFO across the
    /// batch (chunked prefill). Decode always advances one token per
    /// decoding request per iteration on top of this budget.
    pub prefill_chunk_tokens: u64,
}

impl Default for BatchConfig {
    /// 16 slots, 4096-token prefill chunks (vLLM-like defaults).
    fn default() -> Self {
        BatchConfig {
            max_batch_requests: 16,
            prefill_chunk_tokens: 4096,
        }
    }
}

impl BatchConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if either knob is zero (the executor could not make
    /// progress).
    pub fn validate(&self) {
        assert!(self.max_batch_requests > 0, "at least one batch slot");
        assert!(
            self.prefill_chunk_tokens > 0,
            "prefill chunk must be positive"
        );
    }
}

/// A request resident in the running batch.
#[derive(Debug)]
struct Running<'a> {
    req: &'a Request,
    /// The admission step's outcome, spent on completion.
    adm: Admitted,
    admitted: f64,
    /// Prefill frontier in tokens (starts at the cached prefix).
    prefill_pos: u64,
    /// Set when the prefill frontier reaches the input length — the TTFT
    /// instant.
    prefill_done_at: Option<f64>,
    decoded: u64,
    /// Work scheduled for the in-flight segment: a prefill chunk (segments
    /// of one iteration only), or one decode token per iteration.
    sched_prefill: u64,
    sched_decode: bool,
}

/// The iterations in flight, planned at one boundary: a single iteration,
/// or a pure-decode segment whose iteration `j` costs `flops + j·slope`.
/// FLOPs are `u64`: planning narrows them once, checking that the last
/// iteration's count fits (see [`Segment::narrow`]).
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Virtual time the first iteration starts.
    start: f64,
    /// The executor's `busy_s` before the first iteration.
    busy_before: f64,
    /// FLOPs of the first iteration.
    flops: u64,
    /// FLOPs each further iteration adds (0 for a single iteration).
    slope: u64,
    /// Requests admitted, and their reload charges, at the first iteration
    /// (both zero in a segment of more than one iteration).
    admitted: u32,
    reload_s: f64,
    /// Iterations planned (at least one).
    len: u64,
    /// Virtual time the last planned iteration ends.
    end: f64,
}

impl Segment {
    /// Narrows a segment's first-iteration FLOPs and slope to `u64`, given
    /// its last iteration's FLOPs `last`. Every count the walk forms lies
    /// in `flops..=last` and the slope is at most `last`, so checking
    /// `last` checks them all.
    ///
    /// # Panics
    ///
    /// Panics if `last` exceeds `u64::MAX`.
    fn narrow(flops: u128, slope: u128, last: u128) -> (u64, u64) {
        assert!(
            u64::try_from(last).is_ok(),
            "segment FLOPs overflow u64: the last iteration costs {last} FLOPs"
        );
        // Lossless: both are at most `last`.
        (flops as u64, slope as u64)
    }
}

/// One device's serving state: FIFO admission queue + running batch +
/// in-flight segment. Created fresh per run; the [`Replica`] it serves on
/// (cache, session cursors, tracer) is borrowed per call and outlives it.
#[derive(Debug)]
pub(crate) struct Executor<'a> {
    batch: &'a BatchConfig,
    gpu: &'a GpuModel,
    queue: VecDeque<&'a Request>,
    queued_input_tokens: u64,
    running: Vec<Running<'a>>,
    /// `None` when idle.
    in_flight: Option<Segment>,
    busy_s: f64,
    iterations: u64,
    records: Vec<RequestRecord>,
}

impl<'a> Executor<'a> {
    pub(crate) fn new(batch: &'a BatchConfig, gpu: &'a GpuModel) -> Self {
        batch.validate();
        Executor {
            batch,
            gpu,
            queue: VecDeque::new(),
            queued_input_tokens: 0,
            running: Vec::new(),
            in_flight: None,
            busy_s: 0.0,
            iterations: 0,
            records: Vec::new(),
        }
    }

    /// Queues an arriving request; starts an iteration immediately if the
    /// device is idle. On a busy device with a free slot, the in-flight
    /// segment ends at its first boundary strictly after `now`, where the
    /// request is admitted. A full batch admits nothing before a
    /// completion, and the first completion already ends the segment.
    pub(crate) fn enqueue<C: PrefixCache>(
        &mut self,
        req: &'a Request,
        replica: &mut Replica<C>,
        now: f64,
    ) {
        self.queued_input_tokens += req.input_len();
        self.queue.push_back(req);
        replica.tracer.emit(|| TraceEvent::QueueAdmission {
            ts: now,
            request: req.id,
            queue_depth: self.queue.len() as u64,
            queued_tokens: self.queued_input_tokens,
        });
        match self.in_flight {
            None => self.start_iteration(replica, now),
            Some(seg) if seg.len > 1 && self.running.len() < self.batch.max_batch_requests => {
                let (len, end, busy) = self.walk(&seg, now);
                self.iterations -= seg.len - len;
                self.busy_s = busy;
                self.in_flight = Some(Segment { len, end, ..seg });
            }
            Some(_) => {}
        }
    }

    /// Virtual time the in-flight segment ends (`None` when idle).
    pub(crate) fn next_event(&self) -> Option<f64> {
        self.in_flight.map(|seg| seg.end)
    }

    /// Outstanding prefill work in tokens: inputs waiting in the FIFO plus
    /// the un-prefilled remainder of every running request. This is the
    /// load signal the `QueueAware` router ties on.
    pub(crate) fn outstanding_tokens(&self) -> u64 {
        self.queued_input_tokens
            + self
                .running
                .iter()
                .map(|r| r.req.input_len() - r.prefill_pos.min(r.req.input_len()))
                .sum::<u64>()
    }

    /// Virtual seconds the device spent executing iterations.
    pub(crate) fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Iterations executed, including the in-flight segment's.
    pub(crate) fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Completed-request records, in completion order.
    pub(crate) fn take_records(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.records)
    }

    /// Completes the segment ending at `now`: applies its scheduled work,
    /// finishes prefills (TTFT), completes drained requests (admitting them
    /// into the cache), and starts the next segment if any work remains.
    pub(crate) fn advance<C: PrefixCache>(&mut self, replica: &mut Replica<C>, now: f64) {
        let seg = self
            .in_flight
            .take()
            .expect("invariant: the event loop advances only executors with a segment in flight");
        debug_assert!(seg.end <= now, "advance before the segment ended");
        for r in &mut self.running {
            r.prefill_pos += r.sched_prefill;
            r.sched_prefill = 0;
            if r.sched_decode {
                r.decoded += seg.len;
                r.sched_decode = false;
            }
            if r.prefill_pos >= r.req.input_len() && r.prefill_done_at.is_none() {
                r.prefill_done_at = Some(now);
            }
        }
        // Complete drained requests in admission order; completion — not
        // arrival — is what admits the sequence into the cache.
        let mut i = 0;
        while i < self.running.len() {
            let done = self.running[i].prefill_done_at.is_some()
                && self.running[i].decoded >= self.running[i].req.output_len();
            if !done {
                i += 1;
                continue;
            }
            let r = self.running.remove(i);
            let ttft_at = r
                .prefill_done_at
                .expect("invariant: completed requests have a prefill timestamp");
            let ttft_ms = (ttft_at - r.req.arrival) * 1e3;
            self.records
                .push(replica.complete(r.req, r.adm, r.admitted, ttft_ms, now));
        }
        if !self.running.is_empty() || !self.queue.is_empty() {
            self.start_iteration(replica, now);
        }
    }

    /// Starts a segment at `now`: admits from the FIFO while slots are
    /// free (the admission step pins each request's cached prefix and
    /// takes the compute-or-load decision for any host-resident share),
    /// then schedules the chunked-prefill budget FIFO plus one decode
    /// token per decoding request, and charges the device model for the
    /// total — including the admitted requests' reload charges. A
    /// pure-decode batch plans every iteration up to its first completion;
    /// any other batch plans one.
    fn start_iteration<C: PrefixCache>(&mut self, replica: &mut Replica<C>, now: f64) {
        debug_assert!(self.in_flight.is_none());
        let mut admitted_now = 0u32;
        let mut reload_now = 0.0f64;
        while self.running.len() < self.batch.max_batch_requests {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            // A wrapped or saturated count would silently poison the
            // `QueueAware` router's load signal; fail loudly instead.
            self.queued_input_tokens = self
                .queued_input_tokens
                .checked_sub(req.input_len())
                .expect("invariant: every dequeued request was counted into queued_input_tokens");
            let adm = replica.admit(req, now, self.gpu, true);
            reload_now += adm.reload_s;
            self.running.push(Running {
                req,
                admitted: now,
                prefill_pos: adm.hit.tokens_matched,
                adm,
                prefill_done_at: None,
                decoded: 0,
                sched_prefill: 0,
                sched_decode: false,
            });
            admitted_now += 1;
        }
        if self.running.is_empty() {
            return; // queue was empty too: stay idle
        }
        let model = replica.cache.model();
        let mut budget = self.batch.prefill_chunk_tokens;
        let mut flops: u128 = 0;
        // Iterations until the composition changes: up to the first
        // completion while every request decodes, else one. A request
        // admitted now either prefills or is a full-prefix hit, so it
        // always makes this a single iteration.
        let mut len = u64::MAX;
        for r in &mut self.running {
            if r.prefill_pos < r.req.input_len() {
                let chunk = budget.min(r.req.input_len() - r.prefill_pos);
                if chunk > 0 {
                    r.sched_prefill = chunk;
                    budget -= chunk;
                    flops += model.prefill_flops(r.prefill_pos + chunk).total()
                        - model.prefill_flops(r.prefill_pos).total();
                }
                len = 1;
            } else if r.prefill_done_at.is_some() && r.decoded < r.req.output_len() {
                r.sched_decode = true;
                flops += decode_token_flops(model, r.req.input_len() + r.decoded);
                len = len.min(r.req.output_len() - r.decoded);
            } else {
                // A freshly admitted full-prefix hit schedules nothing: its
                // prefill frontier is already at the input length, and the
                // next `advance` stamps its TTFT (queue wait + admission
                // overhead).
                len = 1;
            }
        }
        let (slope, last) = if len > 1 {
            self.decode_slope(model, flops, len)
        } else {
            (0, flops)
        };
        let (flops, slope) = Segment::narrow(flops, slope, last);
        let mut seg = Segment {
            start: now,
            busy_before: self.busy_s,
            flops,
            slope,
            admitted: admitted_now,
            reload_s: reload_now,
            len,
            end: now,
        };
        (_, seg.end, self.busy_s) = self.walk(&seg, f64::INFINITY);
        replica.tracer.emit(|| TraceEvent::BatchIteration {
            ts: now,
            iteration: self.iterations + 1,
            running: self.running.len() as u64,
            queue_depth: self.queue.len() as u64,
        });
        self.iterations += len;
        self.in_flight = Some(seg);
    }

    /// FLOPs each further iteration of a pure-decode segment adds to its
    /// first iteration's `flops`, and the FLOPs of its last iteration.
    /// [`decode_token_flops`] is affine in the context length, so iteration
    /// `j` costs exactly `flops + j·slope`; the segment's last iteration is
    /// recomputed directly to hold that to account in every profile.
    fn decode_slope(&self, model: &ModelConfig, flops: u128, len: u64) -> (u128, u128) {
        let (mut slope, mut last) = (0u128, 0u128);
        for r in &self.running {
            let context = r.req.input_len() + r.decoded;
            slope += decode_token_flops(model, context + 1) - decode_token_flops(model, context);
            last += decode_token_flops(model, context + len - 1);
        }
        assert!(
            flops + u128::from(len - 1) * slope == last,
            "invariant: decode FLOPs are affine in the context length, so a segment's last \
             iteration costs its first plus one slope per further iteration"
        );
        (slope, last)
    }

    /// Walks `seg` from its start with the stepped loop's own arithmetic —
    /// per iteration one [`duration`](Self::duration), then `t += d` and
    /// `busy += d`, in that order — through its `len` iterations, or up to
    /// the first boundary strictly after `until`. Returns the iterations
    /// walked, the boundary reached, and the busy time there.
    ///
    /// FLOPs step in `u64` and stop at the last iteration's, so no count
    /// past the one [`Segment::narrow`] checked is ever formed.
    fn walk(&self, seg: &Segment, until: f64) -> (u64, f64, f64) {
        let (mut t, mut busy, mut flops) = (seg.start, seg.busy_before, seg.flops);
        let mut walked = 0;
        loop {
            let d = self.duration(flops, seg.admitted, seg.reload_s);
            t += d;
            busy += d;
            walked += 1;
            if walked == seg.len || t > until {
                return (walked, t, busy);
            }
            flops += seg.slope;
        }
    }

    /// Virtual seconds of one iteration of `flops` that admits `admitted`
    /// requests with `reload_s` of reload charges. The sum is formed left
    /// to right, exactly as the stepped loop formed it; regrouping the
    /// per-admission terms would change its rounding.
    fn duration(&self, flops: u64, admitted: u32, reload_s: f64) -> f64 {
        self.gpu.secs_for_segment_flops(flops)
            + f64::from(admitted) * self.gpu.overhead_s()
            + reload_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_core::{EvictionPolicy, HybridPrefixCache};
    use marconi_trace::{RingRecorder, Tracer};
    use marconi_workload::{DatasetKind, Trace, TraceGenerator};
    use std::sync::{Arc, Mutex};

    fn replica() -> Replica<HybridPrefixCache> {
        let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .policy(EvictionPolicy::Lru)
            .build();
        Replica::new(cache, None)
    }

    /// Queue-token accounting must balance exactly: every enqueued input
    /// token is subtracted exactly once at admission, so a fully drained
    /// executor reports zero outstanding work.
    #[test]
    fn queue_token_accounting_drains_to_zero() {
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(6)
            .seed(5)
            .generate();
        let mut c = replica();
        let batch = BatchConfig {
            max_batch_requests: 2,
            prefill_chunk_tokens: 512,
        };
        let gpu = GpuModel::a100_x4();
        let mut ex = Executor::new(&batch, &gpu);
        for r in &trace.requests {
            ex.enqueue(r, &mut c, r.arrival);
        }
        assert!(ex.outstanding_tokens() > 0, "the batch must saturate");
        while let Some(t) = ex.next_event() {
            ex.advance(&mut c, t);
        }
        assert_eq!(
            ex.outstanding_tokens(),
            0,
            "drained executor must owe no queued or running tokens"
        );
        assert_eq!(ex.take_records().len(), trace.requests.len());
    }

    /// A one-turn request whose input and output are disjoint token runs.
    fn request(id: u64, arrival: f64, input: Vec<u32>, output: u32) -> Request {
        Request {
            id,
            session_id: id,
            tenant_id: 0,
            turn: 0,
            arrival,
            input,
            output: (0..output)
                .map(|t| 900_000 + 1000 * id as u32 + t)
                .collect(),
        }
    }

    /// Feeds `reqs` to `ex` in the event loop's order: executor events at or
    /// before each arrival first.
    fn feed<'a>(ex: &mut Executor<'a>, c: &mut Replica<HybridPrefixCache>, reqs: &'a [Request]) {
        for r in reqs {
            while let Some(t) = ex.next_event().filter(|&t| t <= r.arrival) {
                ex.advance(c, t);
            }
            ex.enqueue(r, c, r.arrival);
        }
    }

    fn drain(ex: &mut Executor<'_>, c: &mut Replica<HybridPrefixCache>) -> Vec<RequestRecord> {
        while let Some(t) = ex.next_event() {
            ex.advance(c, t);
        }
        let mut records = ex.take_records();
        records.sort_by_key(|r| r.id);
        records
    }

    /// The stepped loop's boundary after an iteration of `flops` admitting
    /// `admitted` requests (no reload) that starts at `t`.
    fn step(gpu: &GpuModel, t: f64, flops: u128, admitted: u32) -> f64 {
        t + (gpu.secs_for_flops(flops) + f64::from(admitted) * gpu.overhead_s() + 0.0)
    }

    /// Executor events come before arrivals at equal times, so an arrival
    /// exactly on a boundary inside a decode segment misses that boundary's
    /// admission and is admitted one boundary later; an arrival just before
    /// it is admitted on it.
    #[test]
    fn an_arrival_on_a_boundary_is_admitted_one_boundary_later() {
        let gpu = GpuModel::a100_x4();
        let m = ModelConfig::hybrid_7b();
        // A: a 64-token prefill, then a 40-token decode segment from
        // `prefilled` whose boundaries are `t2`, `t3`, ...
        let prefilled = step(&gpu, 0.0, m.prefill_flops(64).total(), 1);
        let t2 = step(&gpu, prefilled, decode_token_flops(&m, 64), 0);
        let t3 = step(&gpu, t2, decode_token_flops(&m, 65), 0);
        let admitted_at = |arrival: f64| {
            let trace = Trace {
                name: "boundary".into(),
                requests: vec![
                    request(0, 0.0, (0..64).collect(), 40),
                    request(1, arrival, (5000..5064).collect(), 4),
                ],
            };
            let mut sim = crate::EventSim::new(replica().cache, gpu.clone());
            sim.run(&trace).records[1].admitted
        };
        assert_eq!(admitted_at(t2), t3, "on a boundary: admitted one later");
        assert_eq!(
            admitted_at(t2.next_down()),
            t2,
            "just before: admitted on it"
        );
    }

    /// A full batch admits nothing before a completion, so an arrival
    /// leaves its decode segment whole; a free slot cuts it short.
    #[test]
    fn only_an_arrival_into_a_free_slot_cuts_a_segment() {
        let gpu = GpuModel::a100_x4();
        let decoding = [request(0, 0.0, (0..64).collect(), 40)];
        for slots in [1, 2] {
            let batch = BatchConfig {
                max_batch_requests: slots,
                prefill_chunk_tokens: 4096,
            };
            let mut c = replica();
            let mut ex = Executor::new(&batch, &gpu);
            feed(&mut ex, &mut c, &decoding);
            let prefilled = ex.next_event().expect("the prefill is in flight");
            ex.advance(&mut c, prefilled);
            let (end, iterations) = (ex.next_event(), ex.iterations());
            assert_eq!(iterations, 1 + 40, "one prefill, then one 40-token segment");
            let late = request(1, prefilled + 1e-6, (5000..5064).collect(), 4);
            ex.enqueue(&late, &mut c, late.arrival);
            if slots == 1 {
                assert_eq!(ex.next_event(), end, "a full batch never cuts");
                assert_eq!(ex.iterations(), iterations);
                let records = drain(&mut ex, &mut c);
                assert_eq!(records[1].admitted, records[0].completed);
            } else {
                let cut = ex.next_event().expect("the cut segment is in flight");
                assert!(late.arrival < cut && Some(cut) < end, "a free slot cuts");
                assert!(ex.iterations() < iterations);
                assert_eq!(drain(&mut ex, &mut c)[1].admitted, cut);
            }
        }
    }

    /// In the infinite-throughput limit a segment still covers every
    /// iteration up to the first completion, in zero virtual time.
    #[test]
    fn an_instantaneous_run_plans_zero_length_segments() {
        let (batch, gpu) = (BatchConfig::default(), GpuModel::unbounded());
        let mut c = replica();
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(64));
        c.tracer = tracer;
        let reqs = [request(0, 0.0, (0..64).collect(), 40)];
        let mut ex = Executor::new(&batch, &gpu);
        feed(&mut ex, &mut c, &reqs);
        ex.advance(&mut c, 0.0);
        assert_eq!(ex.next_event(), Some(0.0), "a zero-length segment");
        assert_eq!(ex.iterations(), 1 + 40);
        let records = drain(&mut ex, &mut c);
        assert_eq!((records[0].completed, ex.busy_s()), (0.0, 0.0));
        let firsts = batch_iterations(&recorder);
        assert_eq!(firsts, [(0.0, 1), (0.0, 2)], "prefill, then one segment");
    }

    /// A full-prefix hit schedules nothing in the iteration that admits it,
    /// so that iteration is a segment of its own; the decode segment that
    /// covers both requests starts at the hit's TTFT instant.
    #[test]
    fn a_full_prefix_hit_admitted_into_a_decoding_batch_ends_the_segment() {
        let first: Vec<u32> = (0..64).collect();
        let done = request(0, 0.0, first.clone(), 8);
        let mut resume = first;
        resume.extend_from_slice(&done.output);
        let trace = Trace {
            name: "full-hit".into(),
            requests: vec![
                done,
                request(1, 10.0, (5000..5064).collect(), 4000),
                request(2, 10.05, resume, 20),
            ],
        };
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(256));
        let mut sim = crate::EventSim::new(replica().cache, GpuModel::a100_x4());
        sim.set_tracer(tracer);
        let report = sim.run(&trace);
        let (decoding, hit) = (&report.records[1], &report.records[2]);
        assert_eq!(hit.hit_tokens, hit.input_len, "a full-prefix hit");
        assert!(decoding.admitted < hit.arrival && hit.admitted < decoding.completed);
        let firsts = batch_iterations(&recorder);
        let at = firsts
            .iter()
            .position(|&(ts, _)| ts == hit.admitted)
            .expect("a segment starts at the hit's admission");
        let ((_, admitting), (ttft_at, next)) = (firsts[at], firsts[at + 1]);
        assert_eq!(next, admitting + 1, "the admitting iteration stands alone");
        assert_eq!(hit.ttft_ms, (ttft_at - hit.arrival) * 1e3);
        assert!(
            firsts[at + 2].1 > next + 1,
            "then both requests decode in one segment"
        );
    }

    /// `(ts, iteration)` of every recorded `BatchIteration`.
    fn batch_iterations(recorder: &Arc<Mutex<RingRecorder>>) -> Vec<(f64, u64)> {
        let rec = recorder.lock().expect("lock: test-local recorder");
        rec.events()
            .filter_map(|e| match e.event {
                TraceEvent::BatchIteration { ts, iteration, .. } => Some((ts, iteration)),
                _ => None,
            })
            .collect()
    }

    /// The stepped loop a segment walk stands for: iteration `j`'s FLOPs
    /// formed in `u128` as `flops + j·slope` and timed by the public
    /// [`GpuModel::secs_for_flops`], one iteration at a time.
    fn stepped(gpu: &GpuModel, seg: &Segment, until: f64) -> (u64, f64, f64) {
        let (flops, slope) = (u128::from(seg.flops), u128::from(seg.slope));
        let (mut t, mut busy) = (seg.start, seg.busy_before);
        for j in 0..seg.len {
            let d = gpu.secs_for_flops(flops + u128::from(j) * slope)
                + f64::from(seg.admitted) * gpu.overhead_s()
                + seg.reload_s;
            t += d;
            busy += d;
            if t > until {
                return (j + 1, t, busy);
            }
        }
        (seg.len, t, busy)
    }

    /// Seeded random segments over first-iteration FLOPs (up to 2^64, so
    /// well past `f64`'s 53-bit mantissa), slope, length, admissions,
    /// reload charge and cut point: the `u64` walk reproduces the `u128`
    /// stepped loop bit for bit, uncut, cut anywhere, and cut exactly on
    /// or just before a boundary. A quarter of the segments are single
    /// iterations that admit requests and charge a reload, where
    /// regrouping `secs + admitted·overhead + reload` would round
    /// differently.
    #[test]
    fn segment_walk_matches_a_u128_stepped_reference() {
        let gpus = [
            GpuModel::a100_x4(),
            GpuModel::new("odd", 3.3e14 + 7.0, 0.003_1),
        ];
        let mut n = 0u64;
        let mut next = || {
            n += 1;
            crate::cluster::splitmix64(n)
        };
        for gpu in &gpus {
            let batch = BatchConfig::default();
            let ex = Executor::new(&batch, gpu);
            for _ in 0..1500 {
                let single = next() % 4 == 0;
                let len = if single { 1 } else { 2 + next() % 2000 };
                let slope = if single {
                    0
                } else {
                    u128::from(next() >> (24 + next() % 40))
                };
                // An eighth of the multi-iteration segments end on exactly
                // `u64::MAX` FLOPs, so stepping once past the last
                // iteration would overflow.
                let ceiling = u128::from(u64::MAX) - u128::from(len - 1) * slope;
                let flops = if !single && next() % 8 == 0 {
                    ceiling
                } else {
                    u128::from(next() >> (next() % 44)).min(ceiling)
                };
                let last = flops + u128::from(len - 1) * slope;
                let (flops, slope) = Segment::narrow(flops, slope, last);
                let (admitted, reload_s) = if single || next() % 8 == 0 {
                    (1 + (next() % 4) as u32, (next() % 1_000_000) as f64 * 1e-9)
                } else {
                    (0, 0.0)
                };
                let seg = Segment {
                    start: (next() % 1_000_000_000) as f64 * 1e-6,
                    busy_before: (next() % 1_000_000_000) as f64 * 1e-6,
                    flops,
                    slope,
                    admitted,
                    reload_s,
                    len,
                    end: 0.0,
                };
                let bits = |(n, t, busy): (u64, f64, f64)| (n, t.to_bits(), busy.to_bits());
                let (_, end, _) = stepped(gpu, &seg, f64::INFINITY);
                let cut = seg.start + (end - seg.start) * (next() % 1024) as f64 / 1024.0;
                let (_, boundary, _) = stepped(gpu, &seg, cut);
                for until in [f64::INFINITY, cut, boundary, boundary.next_down()] {
                    assert_eq!(
                        bits(ex.walk(&seg, until)),
                        bits(stepped(gpu, &seg, until)),
                        "{seg:?} until {until}"
                    );
                }
            }
        }
    }

    /// A decode segment whose first iteration fits in `u64` FLOPs but whose
    /// last does not is rejected by name when planned: one attention layer
    /// of width ~1.5·10^9 costs just under `u64::MAX` FLOPs per decode
    /// token at a short context, and each further token adds ~1.2·10^10.
    #[test]
    #[should_panic(expected = "segment FLOPs overflow u64")]
    fn a_segment_past_u64_flops_is_rejected() {
        let model = ModelConfig::builder("wide")
            .d_model(1_518_500_248)
            .layers(1, 0, 0)
            .build()
            .expect("a valid attention-only model");
        assert!(decode_token_flops(&model, 1) <= u128::from(u64::MAX));
        assert!(decode_token_flops(&model, 8) > u128::from(u64::MAX));
        let cache = HybridPrefixCache::builder(model)
            .capacity_bytes(1 << 50)
            .policy(EvictionPolicy::Lru)
            .build();
        let trace = Trace {
            name: "wide".into(),
            requests: vec![request(0, 0.0, vec![1], 8)],
        };
        crate::EventSim::new(cache, GpuModel::a100_x4()).run(&trace);
    }

    /// Admission catches queue-accounting drift (a request dequeued without
    /// having been counted) in every build profile, instead of wrapping or
    /// saturating `queued_input_tokens` and poisoning the `QueueAware`
    /// router's load signal.
    #[test]
    #[should_panic(expected = "invariant: every dequeued request was counted")]
    fn queue_accounting_underflow_panics() {
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(1)
            .seed(1)
            .generate();
        let mut c = replica();
        let (batch, gpu) = (BatchConfig::default(), GpuModel::unbounded());
        let mut ex = Executor::new(&batch, &gpu);
        // Bypass `enqueue`'s token bookkeeping to simulate drift, then let
        // admission (via `advance`'s restart path) dequeue the request.
        ex.queue.push_back(&trace.requests[0]);
        ex.in_flight = Some(Segment {
            start: 0.0,
            busy_before: 0.0,
            flops: 0,
            slope: 0,
            admitted: 0,
            reload_s: 0.0,
            len: 1,
            end: 0.0,
        });
        ex.advance(&mut c, 0.0);
    }
}
