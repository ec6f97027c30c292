//! The two places where the benchmark itself is the caller of a layer: it
//! plays the serving engine against one cache (`embed`), and it drives a
//! bare `RadixTree`, which sits below a concrete cache and cannot be wrapped.

use crate::stats::ratio;
use marconi_core::{CursorTable, PinTicket, PrefixCache, SessionCursor};
use marconi_radix::{MatchCursor, RadixTree};
use marconi_sim::BatchConfig;
use marconi_workload::Trace;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Sessions the embedded engine keeps cursors for: the serving loops' own
/// bound.
const SESSION_CURSOR_CAP: usize = 4096;

fn ns_since(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// One closed-loop replay against `cache` through the `PrefixCache` trait:
/// one client, a window of `BatchConfig::default().max_batch_requests`
/// requests in flight. Admission is cursor `take`, `lookup_at_with`,
/// `pin_prefix_with`; completion of the oldest is `unpin`, `insert_at_with`,
/// cursor `put`, as the event executor orders them. One clock pair per step;
/// a request's time is its admission plus its completion.
///
/// Fills `request_ns[i]` and `hits[i]` for request `i` and returns the wall
/// time of the whole loop in ns.
pub fn embed_replay<C: PrefixCache>(
    cache: &mut C,
    trace: &Trace,
    request_ns: &mut [u32],
    hits: &mut [u64],
) -> u64 {
    let window = BatchConfig::default().max_batch_requests;
    let mut cursors = CursorTable::new(SESSION_CURSOR_CAP);
    let mut in_flight: VecDeque<(usize, PinTicket, Option<SessionCursor>)> =
        VecDeque::with_capacity(window + 1);
    let n = trace.len();
    let wall = Instant::now();
    for i in 0..n + window {
        let now = trace.requests[i.min(n - 1)].arrival;
        if in_flight.len() == window || i >= n {
            let Some((done, pin, hint)) = in_flight.pop_front() else {
                break;
            };
            let req = &trace.requests[done];
            let step = Instant::now();
            cache.unpin(pin);
            let (_, next) = cache.insert_at_with(&req.input, &req.output, now, hint);
            if let Some(cursor) = next {
                cursors.put(req.session_id, cursor);
            }
            request_ns[done] = request_ns[done].saturating_add(ns_since(step));
        }
        if let Some(req) = trace.requests.get(i) {
            let step = Instant::now();
            let hint = cursors.take(req.session_id);
            let hit = cache.lookup_at_with(&req.input, now, hint);
            let pin = cache.pin_prefix_with(&req.input, hint);
            request_ns[i] = ns_since(step);
            hits[i] = hit.tokens_matched;
            in_flight.push_back((i, pin, hint));
        }
    }
    wall.elapsed().as_nanos() as u64
}

/// Unit costs of a bare `RadixTree` over a workload's own token sequences.
#[derive(Debug, Clone, Copy, Default)]
pub struct RadixSample {
    pub match_ns_per_token: f64,
    pub speculate_ns_per_token: f64,
    pub insert_ns_per_token: f64,
    pub cursor_match_ns_per_new_token: f64,
    pub remove_ns_per_op: f64,
    pub nodes_live: f64,
    pub arena_capacity: f64,
    pub store_tokens_per_live_token: f64,
    /// Time in the per-request operations (match, speculate, insert), which
    /// the full run performs one-to-one; removals are left out because the
    /// bare drive picks other victims than the cache's policy does.
    pub busy_ns: f64,
    /// Removals the tree refused; must be 0.
    pub failed_removes: u64,
}

#[derive(Default)]
struct Cost {
    ns: u64,
    units: u64,
}

impl Cost {
    /// Charges the time since `since` and returns the clock reading that
    /// ended it, so consecutive operations share one reading between them.
    fn add(&mut self, since: Instant, units: usize) -> Instant {
        let now = Instant::now();
        self.ns += (now - since).as_nanos() as u64;
        self.units += units as u64;
        now
    }

    fn per_unit(&self) -> f64 {
        ratio(self.ns as f64, self.units as f64)
    }
}

/// Per request what a cache does with its tree — match, `speculate_insert`,
/// `insert_parts` — resumed from the session's cursor on follow-up turns and
/// walked from the root otherwise (first turns, and any cursor the tree
/// rejects). Each cost is per token actually walked. Then `touch` the end
/// node and `remove` the head of `lru_candidates()` until the tree is back
/// at `node_target`, the node count the full run ended with. The requests of
/// `warm` are driven first in the same way, uncounted, like the prefill they
/// are.
pub fn radix_alone(warm: Option<&Trace>, trace: &Trace, node_target: usize) -> RadixSample {
    let mut tree: RadixTree<()> = RadixTree::new();
    let mut cursors: BTreeMap<u64, MatchCursor> = BTreeMap::new();
    let (mut matched, mut resumed, mut speculated, mut inserted, mut removed): (
        Cost,
        Cost,
        Cost,
        Cost,
        Cost,
    ) = Default::default();
    let mut failed_removes = 0;
    let prefill = warm.map_or(&[][..], |warm| &warm.requests);
    for (stamp, req) in prefill.iter().chain(&trace.requests).enumerate() {
        if stamp == prefill.len() {
            // The clock starts here: forget what the prefill cost.
            (matched, resumed, speculated, inserted, removed) = Default::default();
        }
        let (input, output) = (black_box(&req.input[..]), &req.output[..]);
        let total = input.len() + output.len();
        let cursor = cursors.remove(&req.session_id);
        let skipped = cursor.map_or(0, |c| c.matched_len() as usize);

        let t = Instant::now();
        let t = match cursor.map(|c| tree.match_prefix_from(&c, input)) {
            Some(Ok(hit)) => {
                black_box(hit);
                resumed.add(t, input.len() - skipped)
            }
            _ => {
                black_box(tree.match_prefix(input));
                matched.add(t, input.len())
            }
        };
        let t = match cursor.map(|c| tree.speculate_insert_from(&c, input)) {
            Some(Ok(spec)) => {
                black_box(spec);
                speculated.add(t, input.len() - skipped)
            }
            _ => {
                black_box(tree.speculate_insert(input));
                speculated.add(t, input.len())
            }
        };
        let outcome = match cursor.map(|c| tree.insert_parts_from(&c, input, output)) {
            Some(Ok(outcome)) => {
                inserted.add(t, total - skipped);
                outcome
            }
            _ => {
                let outcome = tree.insert_parts(input, output);
                inserted.add(t, total);
                outcome
            }
        };

        tree.touch(outcome.end_node, stamp as u64 + 1);
        if let Some(cursor) = tree.cursor_at(outcome.end_node) {
            cursors.insert(req.session_id, cursor);
        }
        while tree.len() > node_target {
            let Some((_, victim)) = tree.lru_candidates().next() else {
                break;
            };
            let t = Instant::now();
            let gone = black_box(tree.remove(victim));
            removed.add(t, 1);
            if gone.is_err() {
                failed_removes += 1;
                break;
            }
        }
    }
    RadixSample {
        match_ns_per_token: matched.per_unit(),
        speculate_ns_per_token: speculated.per_unit(),
        insert_ns_per_token: inserted.per_unit(),
        cursor_match_ns_per_new_token: resumed.per_unit(),
        remove_ns_per_op: removed.per_unit(),
        nodes_live: tree.len() as f64,
        arena_capacity: tree.arena_capacity() as f64,
        store_tokens_per_live_token: ratio(
            tree.token_store_len() as f64,
            tree.token_count() as f64,
        ),
        busy_ns: (matched.ns + resumed.ns + speculated.ns + inserted.ns) as f64,
        failed_removes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::MISSING;
    use marconi_core::HybridPrefixCache;
    use marconi_model::ModelConfig;
    use marconi_sim::{Engine, GpuModel};
    use marconi_workload::{DatasetKind, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(40)
            .seed(3)
            .generate()
    }

    #[test]
    fn embed_serves_every_request_and_releases_every_pin() {
        let trace = trace();
        let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build();
        let mut ns = vec![0; trace.len()];
        let mut hits = vec![MISSING; trace.len()];
        embed_replay(&mut cache, &trace, &mut ns, &mut hits);
        assert!(hits.iter().all(|&h| h != MISSING));
        assert!(ns.iter().all(|&t| t > 0));
        assert_eq!(cache.pinned_node_count(), 0);
        assert_eq!(cache.stats().lookups, trace.len() as u64);
        assert_eq!(cache.stats().insertions, trace.len() as u64);
        // Completion lags admission by the window, so the embedded engine
        // can only hit less than the instantaneous one, never more.
        let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build();
        let report = Engine::new(cache, GpuModel::a100_x4()).run(&trace);
        let instant: u64 = report.records.iter().map(|r| r.hit_tokens).sum();
        assert!(hits.iter().sum::<u64>() <= instant);
        assert!(hits.iter().sum::<u64>() > 0);
    }

    #[test]
    fn radix_alone_holds_the_node_target() {
        let trace = trace();
        let free = radix_alone(None, &trace, usize::MAX);
        assert_eq!(free.remove_ns_per_op, 0.0);
        assert!(free.match_ns_per_token > 0.0 && free.insert_ns_per_token > 0.0);
        assert!(
            free.cursor_match_ns_per_new_token > 0.0,
            "follow-up turns resume"
        );
        assert!(free.store_tokens_per_live_token >= 1.0);

        let held = radix_alone(None, &trace, 25);
        assert_eq!(held.nodes_live, 25.0);
        assert_eq!(held.failed_removes, 0);
        assert!(held.remove_ns_per_op > 0.0);
        assert!(held.arena_capacity < free.arena_capacity);
    }
}
