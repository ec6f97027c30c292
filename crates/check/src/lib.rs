//! `marconi-check`: the workspace contract linter and bounded-interleaving
//! model checker.
//!
//! Every guarantee this reproduction rests on — byte-parity contracts, the
//! no-wall-clock / no-unseeded-randomness rule for the event sim, and PR
//! 6's pin lifetimes — was enforced only by convention and scattered
//! `debug_assert`s. This crate turns them into CI gates:
//!
//! * [`lint`] — a token-level static pass (self-contained lexer in
//!   [`lexer`]; no syn, which is not vendorable offline) enforcing the
//!   repo-specific contract rules over
//!   `crates/{core,radix,sim,workload,metrics,trace}`;
//! * [`mc`] + [`scenarios`] — a mini-loom: a deterministic virtual
//!   scheduler over modeled shard locks that exhaustively explores bounded
//!   interleavings of `pin_prefix`/`probe`/`insert`/eviction on the real
//!   [`ShardedCache`](marconi_core::ShardedCache), with lock-order cycle
//!   (deadlock) detection and pin-leak detection. Re-enabling PR 6's
//!   unpinned mid-decode eviction race is caught within the bounded
//!   schedule budget; the shipped pinned implementation passes every
//!   schedule.
//!
//! The binary (`cargo run -p marconi-check -- --workspace`) is the CI
//! gate; `--self-test` checks the seeded-violation fixtures under
//! `crates/check/fixtures/` are still rejected (so the gate cannot rot),
//! and `--model-check` runs the scenario suite. `docs/verification.md`
//! catalogs which mechanism enforces which invariant.

pub mod lexer;
pub mod lint;
pub mod mc;
pub mod scenarios;
