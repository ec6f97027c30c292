//! The `marconi-check` CLI — the CI verification gate.
//!
//! ```text
//! cargo run -p marconi-check -- --workspace    # lint the six deterministic crates
//! cargo run -p marconi-check -- --self-test    # seeded-violation fixtures must still be rejected
//! cargo run -p marconi-check --                # both
//! ```
//!
//! Options: `--root <path>` (workspace root, default `.`). Exit code 0 iff
//! every requested stage passes.

use marconi_check::lint::{lint_source, lint_workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut stages: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => stages.push("workspace"),
            "--self-test" => stages.push("self-test"),
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if stages.is_empty() {
        stages = vec!["workspace", "self-test"];
    }

    let mut failed = false;
    for stage in stages {
        let ok = match stage {
            "workspace" => run_workspace(&root),
            _ => run_self_test(&root),
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
    eprintln!("usage: marconi-check [--workspace] [--self-test] [--root <path>]");
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
        (
            "expect_message.rs",
            "expect_message.rs",
            &["expect-message"],
        ),
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
        // The clean fixture trips nothing: a false positive there would
        // make the gate unenforceable in practice.
        ("clean.rs", "clean.rs", &[]),
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
        // finding may point into them (expect_message.rs keeps a bare
        // `.expect` in its tests on purpose).
        if let Some(unexpected) = found.iter().find(|v| !rules.contains(&v.rule)) {
            println!("self-test: unexpected finding in {file}: {unexpected}");
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
