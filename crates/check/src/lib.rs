//! `marconi-check`: the workspace contract linter.
//!
//! Every guarantee this reproduction rests on — byte-parity contracts, the
//! no-wall-clock / no-unseeded-randomness rule for the event sim, and
//! handle lifetimes — was enforced only by convention and scattered
//! `debug_assert`s. This crate turns the static ones into a CI gate:
//! [`lint`] is a token-level pass (self-contained lexer in [`lexer`]; no
//! syn, which is not vendorable offline) enforcing the repo-specific
//! contract rules over `crates/{core,radix,sim,workload,metrics,trace}`.
//!
//! The binary (`cargo run -p marconi-check -- --workspace`) is the CI
//! gate; `--self-test` checks the seeded-violation fixtures under
//! `crates/check/fixtures/` are still rejected (so the gate cannot rot).
//! `docs/verification.md` catalogs which mechanism enforces which
//! invariant.

pub mod lexer;
pub mod lint;
