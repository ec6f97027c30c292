//! The `marconi-check` CLI — the CI verification gate.
//!
//! ```text
//! cargo run -p marconi-check -- --workspace    # lint the six deterministic crates
//! cargo run -p marconi-check -- --self-test    # seeded-violation fixtures must still be rejected
//! cargo run -p marconi-check -- --model-check  # bounded-interleaving scenario suite
//! cargo run -p marconi-check --                # all three
//! ```
//!
//! Options: `--root <path>` (workspace root, default `.`), `--budget <n>`
//! (model-check schedule budget, default 4096). Exit code 0 iff every
//! requested stage passes.

use marconi_check::lint::{lint_source, lint_workspace};
use marconi_check::scenarios;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut budget = 4096usize;
    let mut stages: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => stages.push("workspace"),
            "--self-test" => stages.push("self-test"),
            "--model-check" => stages.push("model-check"),
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--budget" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => budget = n,
                None => return usage("--budget needs a number"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if stages.is_empty() {
        stages = vec!["workspace", "self-test", "model-check"];
    }

    let mut failed = false;
    for stage in stages {
        let ok = match stage {
            "workspace" => run_workspace(&root),
            "self-test" => run_self_test(&root),
            _ => run_model_check(budget),
        };
        if !ok {
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("marconi-check: {msg}");
    eprintln!("usage: marconi-check [--workspace] [--self-test] [--model-check] [--root <path>] [--budget <n>]");
    ExitCode::FAILURE
}

/// Lints the workspace's deterministic crates; clean = pass.
fn run_workspace(root: &Path) -> bool {
    match lint_workspace(root) {
        Ok(violations) if violations.is_empty() => {
            println!("workspace lint: clean");
            true
        }
        Ok(violations) => {
            println!("workspace lint: {} violation(s)", violations.len());
            for v in &violations {
                println!("  {v}");
            }
            false
        }
        Err(e) => {
            println!("workspace lint: error: {e}");
            false
        }
    }
}

/// Every seeded-violation fixture must still be *rejected* (and the clean
/// fixture accepted) — otherwise the gate has rotted and CI fails.
fn run_self_test(root: &Path) -> bool {
    // (fixture, path presented to the linter, rules that must fire at
    // least once). The path matters for path-scoped rules: `edge-clone`
    // only constrains `crates/radix/src`, so its fixture is presented
    // under that prefix.
    let expectations: &[(&str, &str, &[&str])] = &[
        ("wall_clock.rs", "wall_clock.rs", &["wall-clock"]),
        (
            "unwrap_in_lib.rs",
            "unwrap_in_lib.rs",
            &["unwrap", "expect-message"],
        ),
        ("hash_iteration.rs", "hash_iteration.rs", &["hash-iter"]),
        (
            "missing_must_use.rs",
            "missing_must_use.rs",
            &["must-use-handle"],
        ),
        (
            "edge_clone.rs",
            "crates/radix/src/edge_clone.rs",
            &["edge-clone"],
        ),
        ("print_in_lib.rs", "print_in_lib.rs", &["no-print"]),
        ("cursor_deref.rs", "cursor_deref.rs", &["cursor-deref"]),
    ];
    let dir = root.join("crates/check/fixtures");
    let mut ok = true;
    for (file, lint_path, rules) in expectations {
        let path = dir.join(file);
        let Ok(src) = std::fs::read_to_string(&path) else {
            println!("self-test: cannot read {}", path.display());
            ok = false;
            continue;
        };
        let found = lint_source(Path::new(lint_path), &src);
        for rule in *rules {
            if !found.iter().any(|v| v.rule == *rule) {
                println!(
                    "self-test: FIXTURE NOT REJECTED — {file} must trip `{rule}` \
                     but did not (the linter has rotted)"
                );
                ok = false;
            }
        }
        // Fixtures embed test modules to prove the exemption works: no
        // finding may point into them (wall_clock.rs keeps an Instant in
        // its tests on purpose).
        if let Some(unexpected) = found.iter().find(|v| !rules.contains(&v.rule)) {
            println!("self-test: unexpected finding in {file}: {unexpected}");
            ok = false;
        }
    }
    // And the clean fixture must stay clean.
    let clean = dir.join("clean.rs");
    match std::fs::read_to_string(&clean) {
        Ok(src) => {
            let found = lint_source(Path::new("clean.rs"), &src);
            if !found.is_empty() {
                for v in &found {
                    println!("self-test: FALSE POSITIVE on clean fixture: {v}");
                }
                ok = false;
            }
        }
        Err(_) => {
            println!("self-test: cannot read {}", clean.display());
            ok = false;
        }
    }
    println!(
        "self-test: {}",
        if ok {
            "all fixtures correctly classified"
        } else {
            "FAILED"
        }
    );
    ok
}

/// The bounded-interleaving suite. The unpinned mid-decode scenario must
/// *fail* (the checker proves it still catches PR 6's race) and every
/// shipped-configuration scenario must pass.
fn run_model_check(budget: usize) -> bool {
    let mut ok = true;

    // 1. The race must be caught when the pin filter is disabled.
    let mut unpinned = scenarios::mid_decode_eviction(false);
    let exp = unpinned.run(budget);
    let caught = exp
        .violations
        .iter()
        .any(|v| v.message.contains("mid-decode"));
    println!(
        "model-check: {} — {} schedules, {} linearizations, race {}",
        unpinned.name,
        exp.schedules,
        exp.linearizations,
        if caught {
            "CAUGHT (expected: the checker still detects PR 6's bug)"
        } else {
            "NOT CAUGHT — checker rotted"
        }
    );
    if caught {
        println!("  witness schedule: {}", exp.violations[0].schedule);
    }
    ok &= caught && !exp.budget_exhausted;

    // 2. The shipped pinned implementation must pass every schedule.
    let mut pinned = scenarios::mid_decode_eviction(true);
    let exp = pinned.run(budget);
    report_pass(pinned.name, &exp, &mut ok);

    // 3. Cross-shard commutation + non-mutating probes.
    let mut cross = scenarios::cross_shard_commutation();
    let exp = cross.run(budget);
    report_pass(cross.name, &exp, &mut ok);
    if cross.world.fingerprints.len() != 1 {
        println!(
            "  FINAL STATE DIVERGED across schedules: {:?}",
            cross.world.fingerprints
        );
        ok = false;
    }

    // 4. Overlapping pin refcounts balance under every interleaving.
    let mut pins = scenarios::overlapping_pins_balance();
    let exp = pins.run(budget);
    report_pass(pins.name, &exp, &mut ok);

    // 5. Leak-detector self-test: a pin-and-forget program must be flagged.
    let mut leak = scenarios::leaky_pin();
    let exp = leak.run(budget);
    let flagged = exp
        .violations
        .iter()
        .any(|v| v.message.contains("pin leak"));
    println!(
        "model-check: {} — leak {}",
        leak.name,
        if flagged {
            "FLAGGED (expected)"
        } else {
            "MISSED — detector rotted"
        }
    );
    ok &= flagged;

    ok
}

fn report_pass(name: &str, exp: &marconi_check::mc::Exploration, ok: &mut bool) {
    let clean = exp.violations.is_empty()
        && exp.deadlocks.is_empty()
        && exp.lock_order_cycle().is_none()
        && !exp.budget_exhausted;
    println!(
        "model-check: {name} — {} schedules, {} linearizations, {}",
        exp.schedules,
        exp.linearizations,
        if clean { "clean" } else { "VIOLATIONS" }
    );
    if !clean {
        for v in &exp.violations {
            println!("  {}: {}", v.schedule, v.message);
        }
        for d in &exp.deadlocks {
            println!("  {d}");
        }
        if let Some(c) = exp.lock_order_cycle() {
            println!("  lock-order cycle: {c:?}");
        }
        if exp.budget_exhausted {
            println!("  schedule budget exhausted — raise --budget");
        }
        *ok = false;
    }
}
