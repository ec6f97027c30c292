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

use marconi_bench::{
    ablations, analytic, architecture, arrivals, contention, distributions, end_to_end,
    fine_grained, reuse,
};
use std::time::Instant;

/// How an experiment renders: on its own, or from the shared Fig. 7/8/9
/// sweep.
enum Figure {
    Plain(fn() -> String),
    Swept(fn(&[end_to_end::DatasetSweep]) -> String),
}
use Figure::{Plain, Swept};

/// Every experiment, by name, in `all` order.
const FIGURES: &[(&str, Figure)] = &[
    ("table1", Plain(analytic::table1)),
    ("fig3a", Plain(reuse::fig3a)),
    ("fig3b", Plain(analytic::fig3b)),
    ("fig5", Plain(analytic::fig5)),
    ("fig6", Plain(distributions::fig6)),
    ("fig7", Swept(end_to_end::fig7)),
    ("fig8", Swept(end_to_end::fig8)),
    ("fig9", Swept(end_to_end::fig9)),
    ("fig10", Plain(fine_grained::fig10)),
    ("fig11", Plain(contention::fig11)),
    ("fig12a", Plain(architecture::fig12a)),
    ("fig12b", Plain(architecture::fig12b)),
    ("fig13a", Plain(arrivals::fig13a)),
    ("fig13b", Plain(arrivals::fig13b)),
    ("fig14", Plain(analytic::fig14)),
    ("ablations", Plain(ablations::ablations)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "help") {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: figures <experiment>... | all | list");
        eprintln!("experiments: {}", names.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "list") {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return;
    }
    let find = |a: &String| FIGURES.iter().find(|(name, _)| name == a);
    let selected: Vec<&(&str, Figure)> = if args.iter().any(|a| a == "all") {
        FIGURES.iter().collect()
    } else if let Some(unknown) = args.iter().find(|a| find(a).is_none()) {
        eprintln!("unknown experiment '{unknown}'; see `figures list`");
        std::process::exit(2);
    } else {
        args.iter().filter_map(find).collect()
    };

    // Fig. 7/8/9 share one sweep; run it once if any of them is selected.
    let needs_sweep = selected.iter().any(|(_, f)| matches!(f, Swept(_)));
    let sweep = needs_sweep.then(|| {
        let t = Instant::now();
        eprintln!(
            "[sweep] running the fig7/8/9 config grid (3 datasets × 9 configs × 4 systems)..."
        );
        let s = end_to_end::run_all();
        eprintln!("[sweep] done in {:.1?}", t.elapsed());
        s
    });

    for (name, figure) in selected {
        let t = Instant::now();
        let output = match figure {
            Plain(render) => render(),
            Swept(render) => render(sweep.as_deref().expect("sweep ran")),
        };
        println!("{output}");
        eprintln!("[{name}] finished in {:.1?}\n", t.elapsed());
    }
}
