//! Seeded multi-turn and agentic LLM workload generators.
//!
//! The paper evaluates on tokenized request traces from three sources:
//! LMSys-Chat-1M and ShareGPT (multi-turn conversations with very different
//! output-length profiles) and SWE-Bench driven by SWE-Agent (agentic
//! software-engineering trajectories). Those token traces are not
//! redistributable, so this crate generates *synthetic* traces that match
//! the properties a prefix cache actually observes:
//!
//! * session/turn structure — each turn's input is the full conversation
//!   history (previous input + decoded output) plus new user/environment
//!   tokens, so input-and-output prefix reuse arises naturally;
//! * shared system prompts drawn from a per-dataset pool, producing
//!   purely-input prefix reuse across sessions;
//! * per-dataset input/output length distributions shaped after Fig. 6
//!   (LMSys: long outputs, up to ~30K-token contexts; ShareGPT: succinct
//!   outputs, mostly < 2K-token sequences; SWE-Bench: very wide input
//!   distribution from hundreds to tens of thousands of tokens);
//! * arrival dynamics — Poisson session arrivals and exponential think
//!   times between turns, the two knobs of the paper's Fig. 13, with an
//!   open-loop load-sweep helper ([`Trace::time_scaled`]) for the
//!   event-driven serving experiments;
//! * an optional multi-tenant mode ([`TraceGenerator::tenants`]) that
//!   interleaves sessions across tenants with per-tenant prompt pools, the
//!   workload under which cluster routing policies (`marconi-sim`)
//!   actually differ.
//!
//! All randomness flows from a single `u64` seed: the same seed always
//! produces the identical trace.
//!
//! # Examples
//!
//! ```
//! use marconi_workload::{DatasetKind, TraceGenerator};
//!
//! let trace = TraceGenerator::new(DatasetKind::ShareGpt)
//!     .sessions(10)
//!     .seed(7)
//!     .generate();
//! assert!(!trace.requests.is_empty());
//! // Deterministic: same seed, same trace.
//! let again = TraceGenerator::new(DatasetKind::ShareGpt)
//!     .sessions(10)
//!     .seed(7)
//!     .generate();
//! assert_eq!(trace, again);
//! ```

mod arrival;
mod dist;
mod generator;
mod spec;
mod trace;

pub use arrival::ArrivalConfig;
pub use dist::LenDist;
pub use generator::TraceGenerator;
pub use spec::{DatasetKind, SessionSpec};
pub use trace::{Request, Trace};

/// A token identifier (matches `marconi_radix::Token`).
pub type Token = u32;
