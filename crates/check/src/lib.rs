//! `marconi-check`: the workspace contract linter.
//!
//! The contracts this reproduction rests on that no compiler lint states —
//! deterministic iteration order, panic messages that name the violated
//! contract, must-use handles, and radix hot paths that never copy edge
//! tokens — are a CI gate here: [`lint`] is a token-level pass
//! (self-contained lexer in [`lexer`]; no syn, which is not vendorable
//! offline) over `crates/{core,radix,sim,workload,metrics,trace}`. The
//! wall-clock, `unwrap` and print bans are clippy lints denied in the root
//! `Cargo.toml` instead.
//!
//! The binary (`cargo run -p marconi-check -- --workspace`) is the CI
//! gate; `--self-test` checks the seeded-violation fixtures under
//! `crates/check/fixtures/` are still rejected (so the gate cannot rot).
//! `docs/verification.md` catalogs which mechanism enforces which
//! invariant.

pub mod lexer;
pub mod lint;
