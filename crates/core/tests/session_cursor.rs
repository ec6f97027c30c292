//! Session-cursor invalidation contract (PR 10, see
//! `docs/session-fastpath.md`).
//!
//! A cursor is a live node and its depth. Each way it can go stale — its
//! resume node evicted (stale-generation), or the next query not extending
//! it (query-diverged) — must (a) fall back to the root walk with results
//! byte-identical to never having offered the hint, and (b) name its cause
//! in a `CursorFallback` trace event. A split landing under the cursor, a
//! leaf flip, or the resume path demoted to the host tier moves no live
//! node's root path or depth, so the cursor resumes, again byte-identical
//! to the root walk. The closing property test replays random session
//! interleavings, randomly dropping and spending hints, and demands hinted
//! and unhinted runs agree on every per-request result and all end-state
//! counters.

use marconi_core::{HybridPrefixCache, HybridPrefixCacheBuilder, PrefixCache, SessionCursor};
use marconi_model::ModelConfig;
use marconi_radix::Token;
use marconi_trace::{RingRecorder, TraceEvent, Tracer};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn seq(range: std::ops::Range<u32>) -> Vec<Token> {
    range.collect()
}

fn builder(capacity: u64) -> HybridPrefixCacheBuilder {
    HybridPrefixCache::builder(ModelConfig::hybrid_7b()).capacity_bytes(capacity)
}

/// Capacity fitting exactly two 128-token single-checkpoint sequences.
fn two_seq_capacity() -> u64 {
    let m = ModelConfig::hybrid_7b();
    2 * (128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes()) + 1
}

fn recorded(capacity: u64) -> (HybridPrefixCache, Arc<Mutex<RingRecorder>>) {
    let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 12));
    let mut c = builder(capacity).build();
    c.set_tracer(tracer);
    (c, recorder)
}

fn fallback_causes(recorder: &Arc<Mutex<RingRecorder>>) -> Vec<&'static str> {
    recorder
        .lock()
        .expect("lock: test-local recorder")
        .events()
        .filter_map(|e| match &e.event {
            TraceEvent::CursorFallback { cause, .. } => Some(cause.label()),
            _ => None,
        })
        .collect()
}

fn resumed_count(recorder: &Arc<Mutex<RingRecorder>>) -> usize {
    recorder
        .lock()
        .expect("lock: test-local recorder")
        .events()
        .filter(|e| e.event.kind() == "cursor-resumed")
        .count()
}

/// Mints a cursor by admitting `input ⧺ output` at `now`.
fn mint(c: &mut HybridPrefixCache, input: &[Token], output: &[Token], now: f64) -> SessionCursor {
    let (_, next) = c.insert_at_with(input, output, now, None);
    next.expect("admission at spare capacity mints a cursor")
}

/// Asserts the hinted lookup on `hinted_cache` equals the unhinted lookup
/// on a twin cache that saw the exact same operation stream.
fn assert_lookup_parity(
    hinted_cache: &mut HybridPrefixCache,
    cold_cache: &mut HybridPrefixCache,
    query: &[Token],
    now: f64,
    hint: SessionCursor,
) {
    let hinted = hinted_cache.lookup_at_with(query, now, Some(hint));
    let cold = cold_cache.lookup_at(query, now);
    assert_eq!(hinted, cold, "fallback must be byte-identical to root walk");
    assert_eq!(*hinted_cache.stats(), *cold_cache.stats(), "stats parity");
}

#[test]
fn evicted_resume_node_falls_back_as_stale_generation() {
    let (mut c, rec) = recorded(two_seq_capacity());
    let mut cold = builder(two_seq_capacity()).build();
    let drive = |c: &mut HybridPrefixCache| {
        // Single-tier cache at two-sequence capacity: admitting B and C
        // deletes session A's whole path, freeing its arena slots.
        c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0);
        c.insert_at(&seq(20_000..20_096), &seq(20_500..20_532), 2.0);
    };
    let cursor = mint(&mut c, &seq(0..96), &seq(500..532), 0.0);
    cold.insert_at(&seq(0..96), &seq(500..532), 0.0);
    drive(&mut c);
    drive(&mut cold);
    let mut resume: Vec<Token> = seq(0..96);
    resume.extend(seq(500..532));
    resume.push(42);
    assert_lookup_parity(&mut c, &mut cold, &resume, 3.0, cursor);
    assert_eq!(fallback_causes(&rec), ["stale-generation"]);
    assert_eq!(resumed_count(&rec), 0);
}

#[test]
fn split_under_cursor_resumes() {
    let (mut c, rec) = recorded(1 << 40);
    let mut cold = builder(1 << 40).build();
    let cursor = mint(&mut c, &seq(0..96), &seq(500..532), 0.0);
    cold.insert_at(&seq(0..96), &seq(500..532), 0.0);
    // A shorter replay of the same conversation ends mid-edge of A's path,
    // splitting the resume node's own edge: the node, its depth and its
    // full root-path tokens survive, so the cursor still resumes.
    c.insert_at(&seq(0..96), &seq(500..516), 1.0);
    cold.insert_at(&seq(0..96), &seq(500..516), 1.0);
    let mut resume: Vec<Token> = seq(0..96);
    resume.extend(seq(500..532));
    resume.push(42);
    assert_lookup_parity(&mut c, &mut cold, &resume, 2.0, cursor);
    assert!(fallback_causes(&rec).is_empty());
    assert_eq!(resumed_count(&rec), 1);
}

#[test]
fn diverged_query_falls_back_as_query_diverged() {
    let (mut c, rec) = recorded(1 << 40);
    let mut cold = builder(1 << 40).build();
    let cursor = mint(&mut c, &seq(0..96), &seq(500..532), 0.0);
    cold.insert_at(&seq(0..96), &seq(500..532), 0.0);
    // Same session id, different history: one token inside the resume edge
    // flipped (edge divergence) …
    let mut diverged: Vec<Token> = seq(0..96);
    diverged.extend(seq(500..532));
    diverged[100] = 9_999;
    diverged.push(42);
    assert_lookup_parity(&mut c, &mut cold, &diverged, 1.0, cursor);
    // … and a query shorter than the memoized prefix.
    let short: Vec<Token> = seq(0..64);
    assert_lookup_parity(&mut c, &mut cold, &short, 2.0, cursor);
    assert_eq!(fallback_causes(&rec), ["query-diverged", "query-diverged"]);
}

#[test]
fn demoted_resume_path_resumes() {
    let capacity = two_seq_capacity();
    let mk = || {
        builder(capacity)
            .host_capacity_bytes(1 << 40)
            .policy(marconi_core::EvictionPolicy::Lru)
            .build()
    };
    let (tracer, rec) = Tracer::to_sink(RingRecorder::new(1 << 12));
    let mut c = mk();
    c.set_tracer(tracer);
    let mut cold = mk();
    let cursor = mint(&mut c, &seq(0..96), &seq(500..532), 0.0);
    cold.insert_at(&seq(0..96), &seq(500..532), 0.0);
    let drive = |c: &mut HybridPrefixCache| {
        // Device pressure demotes A's path to the host tier: it survives
        // in the tree, so the cursor still names a live node.
        c.insert_at(&seq(10_000..10_096), &seq(10_500..10_532), 1.0);
        c.insert_at(&seq(20_000..20_096), &seq(20_500..20_532), 2.0);
    };
    drive(&mut c);
    drive(&mut cold);
    assert!(c.stats().demotions > 0, "pressure must demote A");
    let mut resume: Vec<Token> = seq(0..96);
    resume.extend(seq(500..532));
    resume.push(42);
    assert_lookup_parity(&mut c, &mut cold, &resume, 3.0, cursor);
    // The resumed walk prices the host hit exactly as the root walk does.
    assert!(c.stats().host_hits > 0, "the hit must be host-resident");
    assert!(fallback_causes(&rec).is_empty());
    assert_eq!(resumed_count(&rec), 1);
}

#[test]
fn demoted_end_node_still_mints_a_cursor() {
    // The admission itself ends with its end node demoted to the host
    // tier: the node lives, so a cursor is handed out, and the next turn
    // resumes from it exactly as the root walk would serve it.
    let m = ModelConfig::hybrid_7b();
    let tiny = 64 * m.kv_bytes_per_token();
    let mk = || builder(tiny).host_capacity_bytes(1 << 40).build();
    let (tracer, rec) = Tracer::to_sink(RingRecorder::new(1 << 12));
    let mut c = mk();
    c.set_tracer(tracer);
    let mut cold = mk();
    let cursor = mint(&mut c, &seq(0..96), &seq(500..532), 0.0);
    cold.insert_at(&seq(0..96), &seq(500..532), 0.0);
    assert!(
        c.stats().demotions > 0,
        "a 128-token path cannot stay device-resident under a 64-token cap"
    );
    let mut resume: Vec<Token> = seq(0..96);
    resume.extend(seq(500..532));
    resume.push(42);
    assert_lookup_parity(&mut c, &mut cold, &resume, 1.0, cursor);
    assert!(fallback_causes(&rec).is_empty());
    assert_eq!(resumed_count(&rec), 1);
}

/// Concurrent sessions in the cursor-gate trace.
const GATE_SESSIONS: u64 = 8;
/// Turns per session in the cursor-gate trace.
const GATE_TURNS: u64 = 128;
/// Tokens in each session's opening prompt.
const GATE_OPENER_TOKENS: u64 = 256;
/// New tokens per turn: half user extension, half decoded output.
const GATE_TURN_TOKENS: u64 = 128;

/// SplitMix64: a deterministic token stream with no RNG state to carry.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request of the gate trace.
struct Turn {
    session: u64,
    input: Vec<Token>,
    output: Vec<Token>,
}

/// A multi-turn chat trace: every input is the session's full history
/// (previous input + previous output + this turn's new user tokens), and
/// sessions interleave round-robin like concurrent conversations on one
/// engine.
fn session_trace(seed: u64) -> Vec<Turn> {
    let token = |s: u64, i: u64| (mix(seed ^ (s << 32) ^ i) % 50_000) as Token;
    let mut histories: Vec<Vec<Token>> = (0..GATE_SESSIONS)
        .map(|s| (0..GATE_OPENER_TOKENS).map(|i| token(s, i)).collect())
        .collect();
    let mut turns = Vec::new();
    for _ in 0..GATE_TURNS {
        for (s, history) in (0..).zip(histories.iter_mut()) {
            let base = history.len() as u64;
            history.extend((0..GATE_TURN_TOKENS / 2).map(|i| token(s, base + i)));
            let input = history.clone();
            let output: Vec<Token> = (0..GATE_TURN_TOKENS / 2)
                .map(|i| token(s, base + 1_000_000 + i))
                .collect();
            history.extend(&output);
            turns.push(Turn {
                session: s,
                input,
                output,
            });
        }
    }
    turns
}

fn flop_aware(capacity: u64) -> HybridPrefixCache {
    builder(capacity)
        .policy(marconi_core::EvictionPolicy::FlopAware { alpha: 2.0 })
        .build()
}

/// Tokens one cache operation walked, read off the events it emitted: the
/// `CursorResumed` delta when its hint validated, else the whole input (a
/// cold or fallen-back walk starts at the root). Empties the ring for the
/// next operation.
fn tokens_walked(recorder: &Mutex<RingRecorder>, input_len: usize) -> u64 {
    let mut rec = recorder.lock().expect("lock: test-local recorder");
    assert_eq!(rec.dropped(), 0, "one operation's events fit the ring");
    let delta = rec.events().find_map(|e| match e.event {
        TraceEvent::CursorResumed { delta_tokens, .. } => Some(delta_tokens),
        _ => None,
    });
    *rec = RingRecorder::new(1 << 12);
    delta.unwrap_or(input_len as u64)
}

/// The session fast path's exact work gate. Replays 8 sessions × 128
/// turns at capacity the way `Engine` serves them (a hinted lookup, then
/// a hinted admission, with a `CursorTable` between turns) and counts the
/// tokens each operation walks. A root walk reads the whole prompt, so
/// the input the replay presents must be at least 5× what it walks; an
/// unhinted twin must end in identical statistics.
#[test]
fn cursors_walk_a_fifth_of_the_input_at_128_turns() {
    let trace = session_trace(7);
    // Capacity 1/64 under the trace's whole footprint (KVs plus every
    // speculated SSM checkpoint): the tail evicts, so stale cursors occur.
    let mut uncapped = flop_aware(u64::MAX / 2);
    for (t, turn) in (0u32..).zip(&trace) {
        uncapped.insert_at(&turn.input, &turn.output, f64::from(t));
    }
    let peak = uncapped.stats().peak_usage_bytes;
    let capacity = peak - peak / 64;

    let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 12));
    let mut hinted = flop_aware(capacity);
    hinted.set_tracer(tracer);
    let mut cold = flop_aware(capacity);
    let mut table = marconi_core::CursorTable::new(64);
    let (mut presented, mut walked) = (0u64, 0u64);
    for (t, turn) in (0u32..).zip(&trace) {
        let now = f64::from(t);
        let hint = table.take(turn.session);
        hinted.lookup_at_with(&turn.input, now, hint);
        walked += tokens_walked(&recorder, turn.input.len());
        let (_, next) = hinted.insert_at_with(&turn.input, &turn.output, now, hint);
        walked += tokens_walked(&recorder, turn.input.len());
        if let Some(cursor) = next {
            table.put(turn.session, cursor);
        }
        presented += 2 * turn.input.len() as u64;
        cold.lookup_at(&turn.input, now);
        cold.insert_at(&turn.input, &turn.output, now);
    }
    assert!(hinted.stats().evictions > 0, "the replay runs at capacity");
    assert_eq!(
        *hinted.stats(),
        *cold.stats(),
        "cursors change no statistic, hit tokens included"
    );
    assert!(
        presented >= 5 * walked,
        "cursors walked {walked} of {presented} input tokens ({:.2}x, gate 5x)",
        presented as f64 / walked as f64
    );
}

/// One logical session: a growing conversation that each turn extends.
#[derive(Debug, Clone)]
struct Session {
    history: Vec<Token>,
    cursor: Option<SessionCursor>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of N sessions, each turn randomly spending or
    /// dropping its hint (and occasionally diverging its history so stale
    /// cursors meet foreign queries): the hinted cache must agree with an
    /// unhinted twin on every lookup result, every admission report, and
    /// all end-state counters.
    #[test]
    fn random_interleavings_keep_hinted_and_unhinted_runs_identical(
        roots in prop::collection::vec(0u32..6, 2..5),
        turns in prop::collection::vec((0usize..4, 0u32..3, 1usize..24, 0u8..2), 1..40),
    ) {
        let m = ModelConfig::hybrid_7b();
        // Tight enough that long runs overflow and evict mid-stream.
        let capacity = 600 * m.kv_bytes_per_token();
        let mut hinted_cache = builder(capacity).build();
        let mut cold_cache = builder(capacity).build();
        let mut sessions: Vec<Session> = roots
            .iter()
            .map(|&r| Session { history: vec![r * 50_000], cursor: None })
            .collect();
        for (i, (which, kind, len, spend)) in turns.iter().enumerate() {
            let now = i as f64;
            let idx = which % sessions.len();
            let s = &mut sessions[idx];
            match kind {
                // Extend the conversation (the fast-path case).
                0 | 1 => {}
                // Diverge: rewrite the tail so a live cursor meets a
                // different continuation than it memoized.
                _ => {
                    let keep = s.history.len() / 2;
                    s.history.truncate(keep.max(1));
                }
            }
            let input = s.history.clone();
            let output: Vec<Token> = (0..*len as u32).map(|t| 30_000 + t).collect();
            let hint = if *spend == 1 { s.cursor.take() } else { None };
            let a = hinted_cache.lookup_at_with(&input, now, hint);
            let b = cold_cache.lookup_at(&input, now);
            prop_assert_eq!(a, b, "lookup diverged at turn {}", i);
            let (ra, next) = hinted_cache.insert_at_with(&input, &output, now, hint);
            let rb = cold_cache.insert_at(&input, &output, now);
            prop_assert_eq!(ra, rb, "admission diverged at turn {}", i);
            s.cursor = next;
            s.history.extend(output);
        }
        prop_assert_eq!(*hinted_cache.stats(), *cold_cache.stats());
        prop_assert_eq!(hinted_cache.usage_bytes(), cold_cache.usage_bytes());
        for s in &sessions {
            prop_assert_eq!(
                hinted_cache.longest_cached_prefix_len(&s.history),
                cold_cache.longest_cached_prefix_len(&s.history)
            );
        }
    }
}
