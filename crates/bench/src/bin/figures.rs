//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p marconi-bench --bin figures -- all
//! cargo run --release -p marconi-bench --bin figures -- table1 fig7 fig12b
//! cargo run --release -p marconi-bench --bin figures -- list
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "wall-clock progress timing of each experiment, printed to stderr; no reported number reads it"
)]

use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig3a",
    "fig3b",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "fig14",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "help") {
        eprintln!("usage: figures <experiment>... | all | list");
        eprintln!("experiments: {}", EXPERIMENTS.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "list") {
        for e in EXPERIMENTS {
            println!("{e}");
        }
        return;
    }
    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        let mut chosen = Vec::new();
        for a in &args {
            if EXPERIMENTS.contains(&a.as_str()) {
                chosen.push(a.as_str());
            } else {
                eprintln!("unknown experiment '{a}'; see `figures list`");
                std::process::exit(2);
            }
        }
        chosen
    };

    // Fig. 7/8/9 share one sweep; run it once if any of them is selected.
    let needs_sweep = selected
        .iter()
        .any(|e| matches!(*e, "fig7" | "fig8" | "fig9"));
    let sweep = needs_sweep.then(|| {
        let t = Instant::now();
        eprintln!(
            "[sweep] running the fig7/8/9 config grid (3 datasets × 9 configs × 4 systems)..."
        );
        let s = marconi_bench::end_to_end::run_all();
        eprintln!("[sweep] done in {:.1?}", t.elapsed());
        s
    });

    for exp in selected {
        let t = Instant::now();
        let output = match exp {
            "table1" => marconi_bench::analytic::table1(),
            "fig3a" => marconi_bench::reuse::fig3a(),
            "fig3b" => marconi_bench::analytic::fig3b(),
            "fig5" => marconi_bench::analytic::fig5(),
            "fig6" => marconi_bench::distributions::fig6(),
            "fig7" => marconi_bench::end_to_end::fig7(sweep.as_ref().expect("sweep ran")),
            "fig8" => marconi_bench::end_to_end::fig8(sweep.as_ref().expect("sweep ran")),
            "fig9" => marconi_bench::end_to_end::fig9(sweep.as_ref().expect("sweep ran")),
            "fig10" => marconi_bench::fine_grained::fig10(),
            "fig11" => marconi_bench::contention::fig11(),
            "fig12a" => marconi_bench::architecture::fig12a(),
            "fig12b" => marconi_bench::architecture::fig12b(),
            "fig13a" => marconi_bench::arrivals::fig13a(),
            "fig13b" => marconi_bench::arrivals::fig13b(),
            "fig14" => marconi_bench::analytic::fig14(),
            "ablations" => marconi_bench::ablations::ablations(),
            other => unreachable!("validated above: {other}"),
        };
        println!("{output}");
        eprintln!("[{exp}] finished in {:.1?}\n", t.elapsed());
    }
}
