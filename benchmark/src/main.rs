//! The repo's benchmark: end-to-end and per-layer metrics over four pinned
//! workloads, measured from outside by timing calls into public functions.
//! See `README.md` beside this package.

mod check;
mod drive;
mod json;
mod ledger;
mod phases;
mod spans;
mod stats;
mod timed;
mod workloads;

#[cfg(test)]
mod selftest;

use ledger::PassResult;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: marconi-perf-ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       marconi-perf-ledger compare BASE.json NEW.json

  --workload NAME  one of chat_fit, agent_pressure, resident_10k, tenants_cluster
                   (default: all four)
  --seed N         trace seed; workload k uses N + k (default 7)
  --seconds S      time the measured phases run for (default 15)
  --trace 0|1      0 = the untraced pass (end-to-end metrics), 1 = the traced
                   pass (per-layer metrics); default: both
  --out FILE       where to write the ledger (default benchmark/out/results.json)

Prints every metric by name with its unit, then one JSON result line per
pass, and writes the ledger. Without --workload every (workload, pass) runs
in a process of its own, exactly as with it, and the ledgers are merged.";

#[derive(Debug, PartialEq)]
struct RunOptions {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(RunOptions),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, base, new] => Ok(Command::Compare(base.into(), new.into())),
            _ => Err("compare takes exactly two files".into()),
        };
    }
    let mut opts = RunOptions {
        workload: None,
        seed: 7,
        seconds: 15.0,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--out" => opts.out = Some(value.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(opts))
}

/// Runs one pass; a panic anywhere in it fails all of the workload's
/// requests instead of taking the other workloads down.
fn guarded_pass(w: &'static Workload, opts: &RunOptions, traced: bool, out: &Path) -> PassResult {
    let run = AssertUnwindSafe(|| {
        if traced {
            phases::per_layer_pass(w, opts.seed, opts.seconds, out)
        } else {
            phases::end_to_end_pass(w, opts.seed, opts.seconds)
        }
    });
    catch_unwind(run).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        // The trace may be what panicked, so count requests without it.
        let requests = catch_unwind(|| w.generate(opts.seed).trace.len() as u64).unwrap_or(1);
        PassResult {
            workload: w.name,
            traced,
            phases: vec![(
                "panicked",
                check::Tally {
                    replays: 0,
                    requests_attempted: requests,
                    requests_failed: requests,
                    fingerprint_mismatches: 0,
                },
            )],
            metrics: ledger::Metrics::default(),
            faults: vec![format!("panic: {what}")],
            notes: vec![],
        }
    })
}

fn write_ledger(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => eprintln!("ledger written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The passes `--trace` asks for: `false` = untraced, `true` = traced.
fn requested_passes(trace: Option<bool>) -> &'static [bool] {
    match trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    }
}

/// One workload, in this process.
fn run(w: &'static Workload, opts: &RunOptions, out_dir: &Path, ledger: &Path) -> ExitCode {
    let mut passes = Vec::new();
    for &traced in requested_passes(opts.trace) {
        let pass = guarded_pass(w, opts, traced, out_dir);
        pass.print();
        println!("{}", pass.result_line());
        passes.push(pass);
    }
    write_ledger(
        ledger,
        &ledger::results_json(opts.seed, opts.seconds, &passes),
    );
    if passes.iter().all(PassResult::correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one pass is incorrect (see FAULT lines)");
        ExitCode::FAILURE
    }
}

/// Every workload: each (workload, pass) in a child process of its own, so
/// that it meets the fresh heap `cache_rss_mb` needs and a crash costs one
/// pass, not the run. The children print as they go; their ledgers are merged.
fn run_all(opts: &RunOptions, out_dir: &Path, ledger: &Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program to start its passes: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut parts = Vec::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        for traced in requested_passes(opts.trace)
            .iter()
            .map(|&t| if t { "1" } else { "0" })
        {
            let part = out_dir.join(format!("part.{}.{traced}.json", w.name));
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", traced])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .status();
            all_ok &= matches!(&status, Ok(s) if s.success());
            match std::fs::read_to_string(&part) {
                Ok(text) => parts.push(text),
                Err(e) => eprintln!("{} pass {traced} left no ledger ({status:?}): {e}", w.name),
            }
            let _ = std::fs::remove_file(&part);
        }
    }
    match ledger::merged_json(opts.seed, opts.seconds, &parts) {
        Ok(text) => write_ledger(ledger, &text),
        Err(e) => {
            eprintln!("could not merge the passes' ledgers: {e}");
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one pass is incorrect or did not finish");
        ExitCode::FAILURE
    }
}

fn compare(base: &Path, new: &Path) -> ExitCode {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let outcome = read(base)
        .and_then(|a| read(new).map(|b| (a, b)))
        .and_then(|(a, b)| ledger::compare(&a, &b));
    match outcome {
        Ok((table, any_worse)) => {
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(opts)) => {
            let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let ledger = opts
                .out
                .clone()
                .unwrap_or_else(|| out_dir.join("results.json"));
            match opts.workload {
                Some(w) => run(w, &opts, &out_dir, &ledger),
                None => run_all(&opts, &out_dir, &ledger),
            }
        }
        Ok(Command::Compare(base, new)) => compare(&base, &new),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse(&args(
            "--workload resident_10k --seed 11 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunOptions {
                workload: Workload::by_name("resident_10k"),
                seed: 11,
                seconds: 5.0,
                trace: Some(true),
                out: None,
            })
        );
        let Command::Run(defaults) = parse(&[]).unwrap() else {
            panic!("no arguments means run everything");
        };
        assert_eq!(
            (defaults.workload, defaults.seed, defaults.trace),
            (None, 7, None)
        );
        assert_eq!(
            parse(&args("compare a.json b.json")).unwrap(),
            Command::Compare("a.json".into(), "b.json".into())
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--frobnicate 1",
            "compare a.json",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
