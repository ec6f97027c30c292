//! Marconi's prefix cache for hybrid LLMs.
//!
//! This crate implements the paper's primary contribution — a prefix cache
//! that manages Attention KVs and SSM recurrent states *holistically* in one
//! radix tree — together with every baseline its evaluation compares
//! against:
//!
//! | system | type | admission | eviction |
//! |---|---|---|---|
//! | Marconi | [`HybridPrefixCache`] | judicious (≤ 2 SSM states/sequence) | FLOP-aware, auto-tuned α |
//! | SGLang+ | [`HybridPrefixCache`] with [`EvictionPolicy::Lru`] | judicious | LRU |
//! | vLLM+ | [`HybridPrefixCache`] with [`CheckpointMode::EveryBlock`] | every token block | LRU over leaf blocks |
//! | vanilla | [`HybridPrefixCache`] with 0 bytes on both tiers | none | — |
//! | oracle (artifact V3) | [`oracle::best_static_alpha`] | judicious | FLOP-aware, offline-optimal static α |
//!
//! ## The two policies (paper §4)
//!
//! **Judicious admission.** SSM states are "all or nothing": a state can
//! only be reused by a request whose prefix *exactly* matches every token
//! the state has consumed. Marconi therefore checkpoints at most two SSM
//! states per sequence — at a branch point discovered by *speculative
//! insertion* of the request's input (purely-input reuse: system prompts,
//! few-shot examples), and at the last decoded token (input-and-output
//! reuse: conversation history).
//!
//! **FLOP-aware eviction.** Every eviction candidate `n` (a radix-tree node
//! with ≤ 1 child) is scored `S(n) = recency(n) + α · flop_efficiency(n)`,
//! where `flop_efficiency` is the compute a hit on `n` saves per byte the
//! node holds, computed relative to its parent. `α = 0` degenerates to LRU;
//! Marconi tunes α online by replaying a bootstrap window against a
//! snapshot across a grid of α values in parallel.
//!
//! # Examples
//!
//! ```
//! use marconi_core::{HybridPrefixCache, PrefixCache};
//! use marconi_model::ModelConfig;
//!
//! let mut cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
//!     .capacity_bytes(8 << 30)
//!     .build();
//!
//! let system_prompt: Vec<u32> = (0..256).collect();
//! let mut turn = system_prompt.clone();
//! turn.extend(5000..5040); // user input
//! assert_eq!(cache.lookup(&turn).tokens_matched, 0);
//! cache.insert_sequence(&turn, &[9000, 9001, 9002]);
//!
//! // The next conversation turn resumes from the last decoded token.
//! let mut next = turn.clone();
//! next.extend([9000, 9001, 9002]);
//! next.extend(6000..6010);
//! let hit = cache.lookup(&next);
//! assert_eq!(hit.tokens_matched as usize, turn.len() + 3);
//! ```

mod cursor;
mod hybrid;
pub mod oracle;
mod policy;
mod result;
mod stats;
mod tier;
mod tuner;

pub use cursor::{CursorTable, SessionCursor};
pub use hybrid::{CheckpointMode, HybridPrefixCache, HybridPrefixCacheBuilder};
pub use policy::EvictionPolicy;
pub use result::{AdmissionReport, BlockReuseReport, LookupResult};
pub use stats::CacheStats;
pub use tier::{ReloadPolicy, Tier, TieredPrefix};
pub use tuner::{TunerConfig, TunerState};

/// The token-store work counters [`HybridPrefixCache::store_counters`]
/// reports.
pub use marconi_radix::StoreCounters;

/// The flight-recorder crate, re-exported so callers holding only a
/// `marconi-core` dependency can build sinks and attach tracers.
pub use marconi_trace as trace;

use marconi_model::ModelConfig;
use marconi_radix::{NodeId, Token};

/// Opaque receipt for an in-flight prefix pin, issued by
/// [`PrefixCache::pin_prefix`] and redeemed by [`PrefixCache::unpin`].
///
/// While the ticket is outstanding, the cached path the request's
/// admission-time lookup hit is *protected*: the cache will neither evict
/// nor demote any node on it, because the request is still reading those
/// KVs while it decodes. Dropping a ticket without redeeming it leaks the
/// pin (the path stays protected forever), so serving layers must pair
/// every `pin_prefix` with exactly one `unpin` at request completion.
///
/// Tickets are deliberately neither `Clone` nor `Copy` — one pin, one
/// release. In debug builds, dropping a non-empty ticket without redeeming
/// it panics (see the `Drop` impl): a dropped ticket is a leaked pin.
#[derive(Debug, Default)]
#[must_use = "dropping a PinTicket leaks the pin; redeem it with `unpin`"]
pub struct PinTicket {
    /// The pinned hit node, if the lookup hit and pinning is enabled.
    /// Pinned nodes are never removed and keep their id across edge
    /// splits, so the id stays valid for the lifetime of the ticket.
    pub(crate) node: Option<NodeId>,
}

impl PinTicket {
    /// `true` if the ticket protects nothing (lookup missed, or the cache
    /// does not pin). Redeeming an empty ticket is a no-op.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node.is_none()
    }

    /// Takes the pinned node out of the ticket, marking it redeemed: the
    /// debug-build leak detector in `Drop` only fires on tickets whose
    /// node was never taken.
    pub(crate) fn redeem(&mut self) -> Option<NodeId> {
        self.node.take()
    }
}

/// Debug-build pin-leak detector: a ticket dropped while still holding its
/// node was never passed back through `unpin`, so the pinned path would
/// stay protected (unevictable) forever. Release builds skip the check —
/// a leak is a bug, not a memory-safety issue.
#[cfg(debug_assertions)]
impl Drop for PinTicket {
    fn drop(&mut self) {
        if self.node.is_some() && !std::thread::panicking() {
            panic!(
                "PinTicket leaked: dropped while still pinning node {:?} \
                 — every pin_prefix must be paired with unpin",
                self.node
            );
        }
    }
}

/// The interface the serving loops drive a cache through.
/// [`HybridPrefixCache`] is its one implementation and states every system
/// the paper compares (the table in the crate docs); the trait lets the
/// loops also drive wrappers around it, such as timers. No method has a
/// default body: a wrapper states what it forwards.
///
/// Timestamps (`now`) are caller-supplied so replay is deterministic and so
/// recency can reflect *workload* time (request arrivals) rather than
/// processing order. [`HybridPrefixCache`]'s inherent `lookup` /
/// `insert_sequence` conveniences advance an internal logical clock instead.
pub trait PrefixCache {
    /// Human-readable system name (e.g. `"marconi"`, `"vllm+"`).
    fn name(&self) -> &str;

    /// The model whose states this cache manages.
    fn model(&self) -> &ModelConfig;

    /// Finds the longest *reusable* cached prefix of `input` at time `now`.
    ///
    /// For models with SSM layers, reuse is constrained to checkpoint
    /// boundaries (the "all or nothing" property); for pure Transformers
    /// any matched length is reusable.
    fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult;

    /// Length of the longest *reusable* cached prefix of `input`, **without
    /// mutating any cache state**.
    ///
    /// This is the placement probe used by cluster routers (`marconi-sim`'s
    /// prefix-aware routing): a router may probe every replica before
    /// picking one, so — unlike [`lookup_at`](PrefixCache::lookup_at) — a
    /// probe must not refresh recency, bump hit/lookup counters, or trigger
    /// speculative insertion. A replica that is probed but does not win the
    /// request must remain byte-identical.
    ///
    /// The returned length always equals the `tokens_matched` that an
    /// immediately following `lookup_at` on the same state would report.
    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64;

    /// Admits the states of a completed request (`input` prefilled, then
    /// `output` decoded) at time `now`, evicting entries if needed.
    fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport;

    /// Cumulative statistics since construction.
    fn stats(&self) -> &CacheStats;

    /// Bytes of model states currently resident on the device tier.
    fn usage_bytes(&self) -> u64;

    /// Configured device-tier capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// How this cache wants host-resident hits brought back to the device;
    /// the serving layer's `GpuModel` applies it to a hit's
    /// [`host_bytes`](LookupResult::host_bytes) /
    /// [`host_reload_flops`](LookupResult::host_reload_flops). Irrelevant
    /// for single-tier caches, which never report host bytes.
    fn reload_policy(&self) -> ReloadPolicy;

    /// Pins the cached path a request's admission-time lookup hit, so the
    /// eviction/demotion machinery cannot reclaim it while the request is
    /// in flight (insertion happens at *completion*, so without the pin
    /// nothing stops pressure from reclaiming KVs the request is still
    /// reading — a use-after-free in a real engine).
    ///
    /// Call immediately after [`lookup_at`](PrefixCache::lookup_at) with
    /// the same `input`; redeem the ticket with
    /// [`unpin`](PrefixCache::unpin) at completion, *before* the
    /// completing sequence is inserted. A miss pins nothing: the ticket is
    /// empty.
    fn pin_prefix(&mut self, input: &[Token]) -> PinTicket;

    /// Releases an in-flight pin issued by
    /// [`pin_prefix`](PrefixCache::pin_prefix). Redeeming an empty ticket
    /// is a no-op.
    fn unpin(&mut self, ticket: PinTicket);

    /// Bytes currently protected by in-flight pins — unreclaimable by
    /// pressure until the owning requests complete.
    fn pinned_bytes(&self) -> u64;

    /// [`lookup_at`](PrefixCache::lookup_at) with an optional session
    /// hint: the match walk resumes from the hinted node in O(new tokens),
    /// falling back to the byte-identical root walk when the hint fails
    /// validation. Results are identical either way; hints are purely a
    /// shortcut.
    fn lookup_at_with(
        &mut self,
        input: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> LookupResult;

    /// [`insert_at`](PrefixCache::insert_at) with an optional session
    /// hint, returning the session's next cursor — a resume handle at the
    /// admitted sequence's end node — when that node survived the
    /// admission's own eviction pressure on the device tier. An admission
    /// that stores nothing mints none.
    fn insert_at_with(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> (AdmissionReport, Option<SessionCursor>);

    /// [`pin_prefix`](PrefixCache::pin_prefix) with an optional session
    /// hint (same fallback contract as
    /// [`lookup_at_with`](PrefixCache::lookup_at_with)).
    fn pin_prefix_with(&mut self, input: &[Token], hint: Option<SessionCursor>) -> PinTicket;
}
