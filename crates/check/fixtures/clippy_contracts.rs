//! Seeded violations of the contract lints denied in the root
//! `Cargo.toml`'s `[workspace.lints.clippy]`, one per lint.
//!
//! CI copies this file into `crates/metrics/src/` as a module and requires
//! `cargo clippy -p marconi-metrics --lib` to fail and to name every lint
//! below; if it ever passes, a contract has lost its level or its
//! `clippy.toml` entry.

use std::time::{Instant, SystemTime};

/// `disallowed_types`, twice: a wall clock in report-producing code.
pub fn wall_ms() -> f64 {
    let t0 = Instant::now();
    let _stamp = SystemTime::now();
    t0.elapsed().as_secs_f64() * 1e3
}

/// `unwrap_used`: a panic that names no contract.
pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

/// `print_stdout`, `print_stderr` and `dbg_macro`: lib code narrating to a
/// terminal instead of a `TraceSink`.
pub fn narrate(step: u32) -> u32 {
    println!("step {step} done");
    eprintln!("warning: step {step}");
    dbg!(step + 1)
}

/// `allow_attributes_without_reason` (and `allow_attributes`): a waiver
/// that states no reason and would outlive its lint.
#[allow(clippy::needless_return)]
pub fn waived() -> u32 {
    return 1;
}
