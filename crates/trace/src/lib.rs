//! Deterministic flight recorder for the Marconi cache/sim stack.
//!
//! Every consequential decision the stack makes — admission, lookup (with
//! hit/miss attribution), eviction episodes with per-victim score
//! breakdowns, demotion/promotion, compute-or-load reloads, pin/unpin,
//! edge splits/merges, router choices, and event-sim queue/batch
//! boundaries — can be emitted as a structured [`TraceEvent`] through a
//! [`Tracer`] handle into a [`TraceSink`].
//!
//! ## The off-is-free contract
//!
//! Tracing must never change what the system *does*, only record it:
//!
//! 1. **Off is free.** A detached tracer ([`Tracer::off`], the default
//!    everywhere) reduces every emit site to a single branch on a cached
//!    `bool`; no event is even constructed. A tracer attached to the
//!    do-nothing [`NullSink`] is detected at attach time (via
//!    [`TraceSink::is_enabled`]) and behaves identically.
//! 2. **Recording is read-only.** Emit points read decision state; they
//!    never feed back into victim selection, admission, or routing.
//!    Victim logs, [`CacheStats`-style counters](StatCounters), and
//!    per-request records stay byte-identical with any sink attached.
//! 3. **Determinism.** Timestamps come from the caller's virtual clock
//!    (and a monotone sequence number assigned by the recorder) — never a
//!    wall clock — so a trace is a pure function of workload trace +
//!    config and replays byte-identically.
//!
//! ## Sinks and exporters
//!
//! - [`NullSink`] — discards everything; attaching it is free (see above).
//! - [`RingRecorder`] — a bounded in-memory ring with counter/gauge
//!   snapshots, a windowed hit rate, and a per-request
//!   [miss-attribution report](MissReport).
//! - [`to_jsonl`] / [`to_chrome_trace`] — schema-stable exporters to
//!   JSON-lines and Chrome trace-event JSON (loadable in Perfetto via
//!   <https://ui.perfetto.dev>).
//!
//! ## Miss attribution
//!
//! The [`MissLedger`] fingerprints evicted prefixes so a later lookup
//! that *would* have hit them can name its miss cause: `cold`,
//! `capacity-evicted`, `pinned-bystander`, `demoted-then-host-hit`, or
//! `never-checkpointed-ssm` (see [`MissCause`]). The ledger is maintained
//! only while a tracer is enabled, so it costs nothing when tracing is
//! off.

mod event;
mod export;
mod ledger;
mod ring;
mod sink;

pub use event::{
    CursorFallbackCause, MissCause, PressureCause, ReloadDecision, ReplicaProbe, SeqEvent,
    StatCounters, TraceEvent, TraceTier, VictimAction, VictimRecord,
};
pub use export::{to_chrome_trace, to_jsonl};
pub use ledger::{
    fingerprint, Fingerprint, MissLedger, DEFAULT_LEDGER_CAP, FINGERPRINT_DEPTH, PROBE_BUDGET,
};
pub use ring::{MissReport, RingRecorder};
pub use sink::{NullSink, TraceSink, Tracer};
