//! The differential harness: seeded op streams replayed through
//! [`HybridPrefixCache`] and the executable spec ([`SpecCache`]) side by
//! side, compared after every op.
//!
//! Each request is served the way the serving layer serves it — a lookup,
//! a pin held across the next three requests (live-pins knob), the
//! admission, a session cursor carried to the session's next turn (hinted
//! knob) — under every combination of the knobs. After every op the two
//! must agree on the op's result, [`CacheStats`], device and host usage,
//! α and the tuner's state, the bytes under pins, and the victims in
//! order (as root-path token sequences, demoted or deleted), and Fig. 3a's
//! block-reuse counters; every [`RESIDENT_EVERY`] requests and at the end,
//! on the whole resident set (path, checkpoint, tier).

use super::spec::{Fault, Hostile, NodeIds, Rules, SpecCache};
use super::{CheckpointMode, HybridPrefixCache};
use crate::policy::EvictionPolicy;
use crate::stats::CacheStats;
use crate::tier::Tier;
use crate::tuner::{Tuner, TunerConfig};
use crate::{CursorTable, LookupResult, PrefixCache};
use marconi_model::ModelConfig;
use marconi_radix::{NodeId, Token};
use marconi_trace::{RingRecorder, Tracer};
use std::collections::VecDeque;

/// Requests between two comparisons of the whole resident set.
const RESIDENT_EVERY: usize = 16;

/// The four policy families, with the tuner settings the harness uses.
pub(super) fn families() -> [EvictionPolicy; 4] {
    [
        EvictionPolicy::Lru,
        EvictionPolicy::FlopAware { alpha: 2.0 },
        EvictionPolicy::Gdsf,
        auto_tuned(),
    ]
}

pub(super) fn auto_tuned() -> EvictionPolicy {
    EvictionPolicy::AutoTuned(TunerConfig {
        bootstrap_multiplier: 5.0,
        alpha_grid: vec![0.0, 1.0, 4.0],
    })
}

/// One cache configuration and the way it is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Knobs {
    /// A host tier of half the device capacity.
    pub host_tier: bool,
    /// Where checkpoints go: Marconi's exact branch point, rounded down to
    /// 32-token chunks, or vLLM+'s every 48-token block.
    pub checkpoint: CheckpointMode,
    /// Each request's pin held across the next three requests.
    pub live_pins: bool,
    /// §4.3(1) ablation: only leaves are evictable.
    pub leaf_only: bool,
    /// §4.3(2) ablation: a hit refreshes its ancestors too.
    pub refresh_ancestors: bool,
    /// Each turn carries its session's cursor from the previous turn.
    pub hinted: bool,
    /// A ring recorder is attached.
    pub traced: bool,
}

impl Knobs {
    /// Every combination of the cache knobs the builder accepts, driven
    /// `hinted` and `traced` as given. `EveryBlock` runs without a host
    /// tier and with leaf-only eviction, which it requires.
    pub(super) fn matrix(hinted: bool, traced: bool) -> impl Iterator<Item = Knobs> {
        let modes = [
            CheckpointMode::Exact,
            CheckpointMode::Chunked { chunk_size: 32 },
            CheckpointMode::EveryBlock { block_size: 48 },
        ];
        modes.into_iter().flat_map(move |checkpoint| {
            (0..16u8)
                .map(move |bits| Knobs {
                    host_tier: bits & 1 != 0,
                    checkpoint,
                    live_pins: bits & 2 != 0,
                    leaf_only: bits & 4 != 0,
                    refresh_ancestors: bits & 8 != 0,
                    hinted,
                    traced,
                })
                .filter(|k| {
                    !matches!(k.checkpoint, CheckpointMode::EveryBlock { .. })
                        || (!k.host_tier && k.leaf_only)
                })
        })
    }
}

/// One request of an op stream.
#[derive(Debug, Clone)]
pub(super) struct Request {
    session: u64,
    input: Vec<Token>,
    output: Vec<Token>,
    /// Lookup and admission time.
    at: f64,
    case: Option<Hostile>,
}

/// Tiny deterministic PRNG (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> usize {
        (lo + self.below(hi - lo)) as usize
    }
}

/// The hostile cases, in the order the stream cycles through them.
const HOSTILE: [Hostile; 9] = [
    Hostile::EmptyInput,
    Hostile::EmptyOutput,
    Hostile::EmptyBoth,
    Hostile::ForeignHint,
    Hostile::Oversized,
    Hostile::NanClock,
    Hostile::PosInfClock,
    Hostile::NegInfClock,
    Hostile::BackwardClock,
];

/// A seeded multi-tenant stream of `requests` requests: four tenants with
/// their own system prompts; multi-turn sessions that resume from their
/// last decoded token; new sessions branching off a tenant prompt; forks
/// of an earlier sequence at a random cut, mostly inside a label. Every
/// 16th request is the next [`Hostile`] case; `oversized` tokens make a
/// sequence larger than device + host.
pub(super) fn stream(seed: u64, requests: usize, oversized: usize) -> Vec<Request> {
    const TENANTS: u64 = 4;
    let mut rng = Rng(seed);
    let mut fresh: Token = 1_000_000;
    let mut take = |rng: &mut Rng, lo: u64, hi: u64| -> Vec<Token> {
        let n = rng.range(lo, hi);
        fresh += n as Token;
        (fresh - n as Token..fresh).collect()
    };
    let prompts: Vec<Vec<Token>> = (0..TENANTS)
        .map(|t| {
            let len = rng.range(48, 160) as Token;
            (0..len).map(|i| t as Token * 10_000 + i).collect()
        })
        .collect();
    // (session, history, turns) of the sessions still talking.
    let mut active: Vec<(u64, Vec<Token>, u32)> = Vec::new();
    let mut admitted: Vec<Vec<Token>> = Vec::new();
    let mut out = Vec::with_capacity(requests);
    let mut clock = 0.0;
    for i in 0..requests {
        clock += 1.0;
        let case = (i % 16 == 7).then(|| HOSTILE[i / 16 % HOSTILE.len()]);
        let roll = rng.below(10);
        let session = i as u64 + 1;
        let mut request = if roll < 4 && !active.is_empty() {
            let k = rng.below(active.len() as u64) as usize;
            let (session, history, _) = &active[k];
            let mut input = history.clone();
            input.extend(take(&mut rng, 8, 40));
            Request {
                session: *session,
                input,
                output: take(&mut rng, 4, 24),
                at: clock,
                case: None,
            }
        } else if roll < 7 || admitted.is_empty() {
            let tenant = rng.below(TENANTS);
            let mut input = prompts[tenant as usize].clone();
            input.extend(take(&mut rng, 8, 48));
            active.push((session, Vec::new(), 0));
            Request {
                session,
                input,
                output: take(&mut rng, 4, 24),
                at: clock,
                case: None,
            }
        } else {
            let base = &admitted[rng.below(admitted.len() as u64) as usize];
            let cut = rng.range(1, base.len() as u64);
            let mut input = base[..cut].to_vec();
            input.extend(take(&mut rng, 8, 40));
            Request {
                session,
                input,
                output: take(&mut rng, 4, 16),
                at: clock,
                case: None,
            }
        };
        match case {
            Some(Hostile::EmptyInput) => request.input.clear(),
            Some(Hostile::EmptyOutput) => request.output.clear(),
            Some(Hostile::EmptyBoth) => {
                request.input.clear();
                request.output.clear();
            }
            // Served with the cursor the previous request minted.
            Some(Hostile::ForeignHint) => {}
            Some(Hostile::Oversized) => {
                request.input = take(&mut rng, oversized as u64, oversized as u64 + 1)
            }
            Some(Hostile::NanClock) => request.at = f64::NAN,
            Some(Hostile::PosInfClock) => request.at = f64::INFINITY,
            Some(Hostile::NegInfClock) => request.at = f64::NEG_INFINITY,
            Some(Hostile::BackwardClock) => request.at = clock - 50.5,
            None => {}
        }
        request.case = case;
        if let Some(s) = active.iter_mut().find(|s| s.0 == request.session) {
            s.1 = [&request.input[..], &request.output[..]].concat();
            s.2 += 1;
        }
        active.retain(|s| s.2 < 8);
        let sequence = [&request.input[..], &request.output[..]].concat();
        if sequence.len() > 1 {
            admitted.push(sequence);
            if admitted.len() > 32 {
                admitted.remove(0);
            }
        }
        out.push(request);
    }
    out
}

/// What a run did, for the non-vacuity checks.
#[derive(Debug, Default)]
pub(super) struct Outcome {
    pub stats: CacheStats,
    pub tuned: bool,
    /// Recorded trace events (traced runs).
    pub events: u64,
    pub episodes: u64,
    /// Victims neither demoted nor booked as evictions: `EveryBlock` split
    /// points that are no block.
    pub unbooked: u64,
    pub resumes: u64,
    pub hints: u64,
    /// Hints taken from another session's cursor.
    pub foreign_hints: u64,
    pub cases: Vec<Hostile>,
}

/// The cache's ids for the spec: the live tree, then the victims logged.
/// `snapshot` is the tuner's snapshot when the op about to run completes
/// its bootstrap window.
struct CacheIds<'a> {
    cache: &'a HybridPrefixCache,
    snapshot: Option<HybridPrefixCache>,
}

impl NodeIds for CacheIds<'_> {
    fn id(&self, path: &[Token]) -> NodeId {
        self.cache
            .node_id_at(path)
            .expect("invariant: the cache held every node the spec ranks")
    }

    fn replay(&self, alpha: f64) -> Box<dyn NodeIds> {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("invariant: a sweep has a snapshot");
        Box::new(ReplayIds(snapshot.replica(alpha)))
    }

    fn serve(&mut self, _: &[Token], _: &[Token], _: f64) {
        unreachable!("only replays are served")
    }
}

/// The ids of one tuner replay: the cache's own replica, replayed in
/// lockstep with the spec's.
struct ReplayIds(HybridPrefixCache);

impl NodeIds for ReplayIds {
    fn id(&self, path: &[Token]) -> NodeId {
        self.0
            .node_id_at(path)
            .expect("invariant: the replica held every node the spec ranks")
    }

    fn replay(&self, _: f64) -> Box<dyn NodeIds> {
        unreachable!("replicas do not tune")
    }

    fn serve(&mut self, input: &[Token], output: &[Token], at: f64) {
        self.0.lookup_at(input, at);
        self.0.insert_at(input, output, at);
    }
}

/// The builder and the spec rules for one configuration.
fn build(policy: &EvictionPolicy, capacity: u64, knobs: Knobs) -> (HybridPrefixCache, Rules) {
    let host_capacity = if knobs.host_tier { capacity / 2 } else { 0 };
    let checkpoint_mode = knobs.checkpoint;
    let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
        .capacity_bytes(capacity)
        .host_capacity_bytes(host_capacity)
        .checkpoint_mode(checkpoint_mode)
        .refresh_ancestors(knobs.refresh_ancestors)
        .leaf_only_eviction(knobs.leaf_only)
        .policy(policy.clone())
        .build();
    let (alpha, gdsf, tuner) = match policy {
        EvictionPolicy::Lru => (0.0, false, None),
        EvictionPolicy::FlopAware { alpha } => (*alpha, false, None),
        EvictionPolicy::Gdsf => (0.0, true, None),
        EvictionPolicy::AutoTuned(config) => (0.0, false, Some(config.clone())),
    };
    let rules = Rules {
        capacity,
        host_capacity,
        alpha,
        gdsf,
        tuner,
        checkpoint_mode,
        refresh_ancestors: knobs.refresh_ancestors,
        leaf_only: knobs.leaf_only,
    };
    (cache, rules)
}

/// Replays `requests` through the cache and the spec under `knobs`, with
/// `fault` seeded into the spec, and returns the first divergence.
pub(super) fn run(
    policy: &EvictionPolicy,
    capacity: u64,
    knobs: Knobs,
    requests: &[Request],
    fault: Option<Fault>,
) -> Result<Outcome, String> {
    let (mut cache, rules) = build(policy, capacity, knobs);
    let mut spec = SpecCache::new(ModelConfig::hybrid_7b(), rules);
    if let Some(fault) = fault {
        spec.seed_fault(fault);
    }
    let recorder = knobs.traced.then(|| {
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 16));
        cache.set_tracer(tracer);
        recorder
    });
    let mut outcome = Outcome::default();
    let mut table = CursorTable::new(64);
    let mut held = VecDeque::new();
    let mut last_minted = None;
    // Served in a closure so that the pins still held are released on a
    // divergence too (a dropped ticket panics in debug builds).
    let mut serve = || -> Result<(), String> {
        for (i, r) in requests.iter().enumerate() {
            let at =
                |what: &str| format!("{policy}, {knobs:?}, request {i} ({:?}): {what}", r.case);
            outcome.cases.extend(r.case);
            let own = if knobs.hinted {
                table.take(r.session)
            } else {
                None
            };
            // A foreign hint: the cursor the previous request minted, for
            // a path this turn does not extend.
            let foreign = last_minted.filter(|(s, _)| *s != r.session);
            let hint = match (r.case, foreign) {
                (Some(Hostile::ForeignHint), Some((_, cursor))) if knobs.hinted => Some(cursor),
                _ => own,
            };
            outcome.hints += u64::from(hint.is_some());
            outcome.foreign_hints += u64::from(hint.is_some() && hint != own);

            let got = cache.lookup_at_with(&r.input, r.at, hint);
            let want = spec.lookup(&r.input, r.at);
            if (LookupResult { node: None, ..got }) != want {
                return Err(at(&format!("lookup {got:?}, spec {want:?}")));
            }
            compare(&cache, &spec, false).map_err(|e| at(&e))?;

            if knobs.live_pins {
                held.push_back((cache.pin_prefix_with(&r.input, hint), spec.pin(&r.input)));
                compare(&cache, &spec, false).map_err(|e| at(&format!("pin: {e}")))?;
            }

            let logged = cache.eviction_log.len();
            let snapshot = match &cache.tuner {
                Some(Tuner::Bootstrapping {
                    snapshot,
                    recorded,
                    target,
                    ..
                }) if recorded.len() as u64 + 1 >= *target => Some(snapshot.as_ref().clone()),
                _ => None,
            };
            let (report, cursor) = cache.insert_at_with(&r.input, &r.output, r.at, hint);
            let ids = CacheIds {
                cache: &cache,
                snapshot,
            };
            let victims_before = spec.victims().len();
            let (want, minted) = spec.insert(&r.input, &r.output, r.at, &ids);
            if report != want {
                return Err(at(&format!("admission {report:?}, spec {want:?}")));
            }
            let got: Vec<_> = cache.eviction_log[logged..]
                .iter()
                .map(|(action, path, _)| (*action, path.clone()))
                .collect();
            if got != spec.victims()[victims_before..] {
                return Err(at(&format!(
                    "victims {:?}, spec {:?}",
                    summary(&got),
                    summary(&spec.victims()[victims_before..])
                )));
            }
            if cursor.is_some() != minted {
                return Err(at(&format!(
                    "cursor minted: {}, spec {minted}",
                    cursor.is_some()
                )));
            }
            if let Some(cursor) = cursor {
                table.put(r.session, cursor);
                last_minted = Some((r.session, cursor));
            }
            if knobs.live_pins && held.len() > 3 {
                let (ticket, pin) = held.pop_front().expect("invariant: more than three held");
                cache.unpin(ticket);
                spec.unpin(pin);
            }
            compare(&cache, &spec, (i + 1) % RESIDENT_EVERY == 0).map_err(|e| at(&e))?;
        }
        Ok(())
    };
    let served = serve();
    for (ticket, pin) in held {
        cache.unpin(ticket);
        spec.unpin(pin);
    }
    served?;
    compare(&cache, &spec, true).map_err(|e| format!("{policy}, {knobs:?}, at the end: {e}"))?;
    assert_eq!(cache.pinned_node_count(), 0, "all tickets were redeemed");
    cache.tree.assert_invariants();
    cache.assert_tier_accounting();
    outcome.stats = cache.stats;
    outcome.unbooked =
        cache.eviction_log.len() as u64 - cache.stats.evictions - cache.stats.demotions;
    outcome.tuned = matches!(cache.tuner, Some(Tuner::Tuned { .. }));
    if let Some(recorder) = recorder {
        let rec = recorder.lock().expect("lock: test-local recorder");
        outcome.events = rec.recorded();
        for e in rec.events() {
            match e.event.kind() {
                "eviction-episode" => outcome.episodes += 1,
                "cursor-resumed" => outcome.resumes += 1,
                _ => {}
            }
        }
    }
    Ok(outcome)
}

/// The state both must agree on after every op; the resident set too when
/// `resident` is set.
fn compare(cache: &HybridPrefixCache, spec: &SpecCache, resident: bool) -> Result<(), String> {
    let pairs = [
        (
            "device usage",
            cache.usage_bytes(),
            spec.usage(Tier::Device),
        ),
        (
            "host usage",
            cache.host_usage_bytes(),
            spec.usage(Tier::Host),
        ),
        ("pinned bytes", cache.pinned_bytes(), spec.pinned_bytes()),
        (
            "α bits",
            cache.current_alpha().to_bits(),
            spec.alpha().to_bits(),
        ),
    ];
    for (what, got, want) in pairs {
        if got != want {
            return Err(format!("{what} {got}, spec {want}"));
        }
    }
    if cache.stats() != spec.stats() {
        return Err(format!(
            "stats {:?}, spec {:?}",
            cache.stats(),
            spec.stats()
        ));
    }
    if cache.block_reuse() != spec.block_reuse() {
        return Err(format!(
            "block reuse {:?}, spec {:?}",
            cache.block_reuse(),
            spec.block_reuse()
        ));
    }
    if cache.tuner_state() != spec.tuner_state() {
        return Err(format!(
            "tuner {:?}, spec {:?}",
            cache.tuner_state(),
            spec.tuner_state()
        ));
    }
    if resident {
        let mut got: Vec<_> = cache
            .tree
            .node_ids()
            .map(|id| {
                (
                    cache.tree.path_tokens(id),
                    cache.tree.data(id).has_ssm_state,
                    cache.tier(id),
                )
            })
            .collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        let want = spec.resident();
        if got != want {
            let first = got.iter().zip(&want).position(|(a, b)| a != b);
            return Err(format!(
                "resident set: {} nodes, spec {}; first difference at {first:?}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Victims as `(action, path length, first token)`, for messages.
fn summary(victims: &[(marconi_trace::VictimAction, Vec<Token>)]) -> Vec<String> {
    victims
        .iter()
        .map(|(a, p)| format!("{a:?} len {} from {:?}", p.len(), p.first()))
        .collect()
}

/// Device capacity of the standard streams, in bytes: about six
/// single-checkpoint sequences.
pub(super) fn capacity() -> u64 {
    6000 * ModelConfig::hybrid_7b().kv_bytes_per_token()
}

/// How a parity test drives the cache: hinted and traced or not, and the
/// stream's length and device capacity (a multiple of [`capacity`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct Drive {
    hinted: bool,
    traced: bool,
    requests: usize,
    scale: u64,
}

impl Drive {
    /// Unhinted, untraced.
    pub(super) const COLD: Drive = Drive {
        hinted: false,
        traced: false,
        requests: 160,
        scale: 1,
    };
    /// A ring recorder attached: recording must change no decision.
    pub(super) const TRACED: Drive = Drive {
        traced: true,
        ..Drive::COLD
    };
    /// Session cursors carried between turns, and traced so the resumes
    /// can be counted: a cursor must change no decision.
    pub(super) const HINTED_TRACED: Drive = Drive {
        hinted: true,
        ..Drive::TRACED
    };
    /// Hinted and untraced, on a longer stream over a larger tree.
    pub(super) const HINTED_AT_SCALE: Drive = Drive {
        hinted: true,
        traced: false,
        requests: 400,
        scale: 3,
    };
}

/// Replays a stream seeded with `seed` through every combination of the
/// cache knobs for one policy family, driven as `drive` says, and panics
/// on the first divergence from the spec. Non-vacuity: every run evicts,
/// a host tier demotes (and only a host tier), an LRU `EveryBlock` run
/// takes a split point that is no block (and only `EveryBlock` runs
/// do), a traced run
/// records eviction episodes, a hinted traced run resumes, the tuner
/// tunes, and the stream carries every hostile case.
pub(super) fn assert_parity(policy: EvictionPolicy, drive: Drive, seed: u64) {
    let capacity = capacity() * drive.scale;
    let tokens = capacity / ModelConfig::hybrid_7b().kv_bytes_per_token();
    let stream = stream(seed, drive.requests, 2 * tokens as usize);
    for knobs in Knobs::matrix(drive.hinted, drive.traced) {
        let outcome = run(&policy, capacity, knobs, &stream, None)
            .unwrap_or_else(|e| panic!("diverged from the spec: {e}"));
        let label = format!("{policy}, {knobs:?}");
        assert!(
            outcome.stats.evictions > 0,
            "the stream must evict ({label})"
        );
        assert_eq!(
            outcome.stats.demotions > 0,
            knobs.host_tier,
            "demotions iff a host tier ({label})"
        );
        if !knobs.host_tier {
            assert_eq!(
                outcome.stats.host_hits + outcome.stats.host_evictions,
                0,
                "{label}"
            );
        }
        let every_block = matches!(knobs.checkpoint, CheckpointMode::EveryBlock { .. });
        assert!(
            every_block || outcome.unbooked == 0,
            "only EveryBlock leaves victims unbooked ({label})"
        );
        if every_block && policy == EvictionPolicy::Lru {
            assert!(
                outcome.unbooked > 0,
                "an LRU EveryBlock run must take a split point that is no block ({label})"
            );
        }
        if knobs.traced {
            assert!(
                outcome.events > 0 && outcome.episodes > 0,
                "the recorder must log eviction episodes ({label})"
            );
        }
        if knobs.hinted {
            assert!(outcome.hints > 0, "the stream must offer hints ({label})");
            assert!(
                outcome.foreign_hints > 0,
                "the stream must offer a foreign hint ({label})"
            );
            if knobs.traced {
                assert!(outcome.resumes > 0, "a hinted run must resume ({label})");
            }
        }
        if matches!(policy, EvictionPolicy::AutoTuned(_)) {
            assert!(outcome.tuned, "the tuner must finish its sweep ({label})");
        }
        for case in HOSTILE {
            assert!(
                outcome.cases.contains(&case),
                "the stream must carry {case:?}"
            );
        }
    }
}

/// The self-test: a spec whose candidate filter also drops the oldest
/// eligible candidate must be reported as diverging, under every family,
/// with Marconi's checkpoints and with vLLM+'s.
#[test]
fn parity_harness_reports_a_spec_that_skips_the_oldest_candidate() {
    let stream = stream(5, 64, 20_000);
    let marconi = Knobs::matrix(false, false).next().expect("non-empty");
    let vllm = Knobs::matrix(false, false)
        .find(|k| matches!(k.checkpoint, CheckpointMode::EveryBlock { .. }))
        .expect("the matrix covers EveryBlock");
    for (policy, knobs) in families()
        .into_iter()
        .flat_map(|p| [(p.clone(), marconi), (p, vllm)])
    {
        run(&policy, capacity(), knobs, &stream, None)
            .unwrap_or_else(|e| panic!("the unfaulted spec diverged: {e}"));
        let err = run(
            &policy,
            capacity(),
            knobs,
            &stream,
            Some(Fault::SkipOldestCandidate),
        )
        .expect_err("a faulted spec must diverge");
        assert!(err.contains("request"), "{err}");
    }
}
