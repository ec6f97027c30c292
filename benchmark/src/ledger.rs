//! The ledger: which metrics exist, what one run recorded for them, and how
//! two ledgers compare.

use crate::check::Tally;
use crate::json::{self, Value};
use crate::stats::Quartiles;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see. `BENCHMARK.json` repeats this
/// table; a unit test keeps the two equal.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
    /// A pure function of trace and configuration: at equal seeds `compare`
    /// allows no worsening at all.
    pub exact: bool,
    pub phase: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    phase: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
        phase,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25, false, "setup"),
    e2e("replay_req_per_s", "req/s", Higher, 0.25, false, "replay"),
    e2e(
        "replay_prompt_tok_per_s",
        "tok/s",
        Higher,
        0.25,
        false,
        "replay",
    ),
    e2e("request_us_p50", "us", Lower, 0.25, false, "embed"),
    e2e("request_us_p99", "us", Lower, 0.25, false, "embed"),
    e2e("cache_rss_mb", "MB", Lower, 0.25, false, "setup"),
    e2e("sim_token_hit_rate", "ratio", Higher, 0.15, true, "replay"),
    e2e("sim_ttft_p95_ms", "sim_ms", Lower, 0.2, true, "replay"),
    e2e(
        "sim_flops_saved_share",
        "ratio",
        Higher,
        0.15,
        true,
        "replay",
    ),
];

/// A metric of a single layer (layer = crate name, before the dot).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 61] = [
    layer("workload.generate_s", "s", Lower),
    layer("workload.generate_mtok_per_s", "Mtok/s", Higher),
    layer("workload.requests", "count", Higher),
    layer("workload.prompt_tokens", "count", Higher),
    layer("model.prefill_flops_ns_per_call", "ns", Lower),
    layer("radix.match_ns_per_token", "ns", Lower),
    layer("radix.speculate_ns_per_token", "ns", Lower),
    layer("radix.insert_ns_per_token", "ns", Lower),
    layer("radix.cursor_match_ns_per_new_token", "ns", Lower),
    layer("radix.remove_ns_per_op", "ns", Lower),
    layer("radix.nodes_live", "count", Lower),
    layer("radix.arena_capacity", "count", Lower),
    layer("radix.store_tokens_per_live_token", "ratio", Lower),
    layer("radix.busy_share_est", "ratio", Lower),
    layer("core.lookup_us_p50", "us", Lower),
    layer("core.lookup_us_p99", "us", Lower),
    layer("core.lookup_ns_per_token", "ns", Lower),
    layer("core.insert_us_p50", "us", Lower),
    layer("core.insert_us_p99", "us", Lower),
    layer("core.insert_ns_per_token", "ns", Lower),
    layer("core.insert_evicting_share", "ratio", Lower),
    layer("core.victims_per_episode", "count", Lower),
    layer("core.evict_us_per_victim", "us", Lower),
    layer("core.pin_ns_per_call", "ns", Lower),
    layer("core.unpin_ns_per_call", "ns", Lower),
    layer("core.busy_share", "ratio", Lower),
    layer("core.lookups", "count", Higher),
    layer("core.hit_token_share", "ratio", Higher),
    layer("core.request_hit_share", "ratio", Higher),
    layer("core.host_hit_token_share", "ratio", Lower),
    layer("core.evictions", "count", Lower),
    layer("core.demotions", "count", Lower),
    layer("core.host_evictions", "count", Lower),
    layer("core.ssm_states_admitted", "count", Lower),
    layer("core.nodes_live", "count", Lower),
    layer("core.device_fill", "ratio", Higher),
    layer("core.peak_usage_bytes", "bytes", Lower),
    layer("core.cursor_resumes", "count", Higher),
    layer("core.cursor_fallbacks", "count", Lower),
    layer("core.tuner_retune_ms", "ms", Lower),
    layer("sim.engine_self_ns_per_req", "ns", Lower),
    layer("sim.engine_self_share", "ratio", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.iterations", "count", Lower),
    layer("sim.executor_self_ns_per_event", "ns", Lower),
    layer("sim.route_us_per_request", "us", Lower),
    layer("sim.route_share", "ratio", Lower),
    layer("sim.route_best_prefix_share", "ratio", Higher),
    layer("sim.queue_ms_p95", "sim_ms", Lower),
    layer("sim.utilization_mean", "ratio", Lower),
    layer("sim.load_imbalance", "ratio", Lower),
    layer("sim.reload_ms_total", "sim_ms", Lower),
    layer("metrics.report_summary_ms", "ms", Lower),
    layer("trace.null_sink_overhead_pct", "%", Lower),
    layer("trace.ring_overhead_pct", "%", Lower),
    layer("trace.ring_ns_per_event", "ns", Lower),
    layer("trace.events_per_request", "count", Lower),
    layer("trace.ring_dropped", "count", Lower),
    layer("harness.timer_pair_ns", "ns", Lower),
    layer("harness.traced_overhead_pct", "%", Lower),
    layer("harness.replay_wall_iqr_pct", "%", Lower),
];

/// Metrics recorded by one pass, in recording order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, Quartiles)>);

impl Metrics {
    /// Records a value read once, or exact by construction.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, Quartiles::exact(value, 1)));
    }

    /// Records a median with the quartiles and sample count it came from.
    pub fn put_quartiles(&mut self, name: &'static str, q: Quartiles) {
        self.0.push((name, q));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, q)| q.median)
    }
}

/// One pass (untraced or traced) of one workload.
#[derive(Debug)]
pub struct PassResult {
    pub workload: &'static str,
    pub traced: bool,
    pub phases: Vec<(&'static str, Tally)>,
    pub metrics: Metrics,
    /// Regime violations, missing metrics, panics: anything that makes the
    /// pass incorrect besides failed requests.
    pub faults: Vec<String>,
    /// Lines for the human reader only.
    pub notes: Vec<String>,
}

impl PassResult {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|(_, t)| t.requests_attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|(_, t)| t.requests_failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.faults.is_empty() && self.phases.iter().all(|(_, t)| t.clean())
    }

    /// The metrics this pass must report: (name, unit, how it is judged).
    fn defs(&self) -> Vec<(&'static str, &'static str, String)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, format!("{} is better", m.better.label())))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let rule = format!(
                        "{} is better, bound {:.0}%, phase {}",
                        m.better.label(),
                        m.bound * 100.0,
                        m.phase
                    );
                    (m.name, m.unit, rule)
                })
                .collect()
        }
    }

    /// Adds a fault for every metric of this pass's set that is missing, not
    /// finite, or recorded twice, so the last line is complete or the pass is
    /// marked incorrect.
    pub fn validate(&mut self) {
        for (name, _, _) in self.defs() {
            let found: Vec<f64> = self
                .metrics
                .0
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, q)| q.median)
                .collect();
            match found.as_slice() {
                // An end-to-end metric is never 0: a 0 is a reading that
                // failed (an RSS delta taken on a warm heap, say).
                [v] if v.is_finite() && (self.traced || *v > 0.0) => {}
                [] => self.faults.push(format!("metric {name} was not recorded")),
                _ => self
                    .faults
                    .push(format!("metric {name} is not one finite, usable value")),
            }
        }
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, on one line.
    pub fn result_line(&self) -> String {
        let metrics = self.defs().into_iter().filter_map(|(name, unit, _)| {
            let value = self.metrics.get(name)?;
            Some((
                name,
                json::object([("value", value.into()), ("unit", unit.into())]),
            ))
        });
        json::write(&json::object([
            ("correct", self.correct().into()),
            ("attempted", self.attempted().max(1).into()),
            ("failed", self.failed().into()),
            ("metrics", json::object(metrics)),
        ]))
    }

    /// The human-readable block: phases with their failure accounting, then
    /// every metric by name with unit, sample count and quartiles.
    pub fn print(&self) {
        let pass = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        println!("== {} :: {pass} ==", self.workload);
        if let Some(w) = crate::workloads::Workload::by_name(self.workload) {
            println!("   why: {}", w.why);
        }
        for note in &self.notes {
            println!("   {note}");
        }
        println!(
            "   {:<10} {:>8} {:>20} {:>16}",
            "phase", "replays", "requests_attempted", "requests_failed"
        );
        for (phase, t) in &self.phases {
            println!(
                "   {phase:<10} {:>8} {:>20} {:>16}{}",
                t.replays,
                t.requests_attempted,
                t.requests_failed,
                if t.fingerprint_mismatches > 0 {
                    format!("   {} FINGERPRINT MISMATCHES", t.fingerprint_mismatches)
                } else {
                    String::new()
                }
            );
        }
        let defs = self.defs();
        for (name, q) in &self.metrics.0 {
            let (unit, rule) = defs
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(("", ""), |(_, u, r)| (u, r.as_str()));
            let spread = if q.n > 1 {
                format!(
                    "   min {:.6} q1 {:.6} q3 {:.6} max {:.6}",
                    q.min, q.q1, q.q3, q.max
                )
            } else {
                String::new()
            };
            println!(
                "   {name:<38} {:>16.6} {unit:<7} n={}{spread}   [{rule}]",
                q.median, q.n
            );
        }
        for fault in &self.faults {
            println!("   FAULT: {fault}");
        }
    }

    /// This pass as one object of the ledger's `passes` list.
    fn to_json(&self) -> Value {
        let phases = self.phases.iter().map(|(phase, t)| {
            json::object([
                ("name", (*phase).into()),
                ("replays", t.replays.into()),
                ("requests_attempted", t.requests_attempted.into()),
                ("requests_failed", t.requests_failed.into()),
                ("fingerprint_mismatches", t.fingerprint_mismatches.into()),
            ])
        });
        let defs = self.defs();
        let metrics = self.metrics.0.iter().map(|(name, q)| {
            let unit = defs
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or("", |(_, u, _)| u);
            let summary = json::object([
                ("value", q.median.into()),
                ("unit", unit.into()),
                ("n", (q.n as u64).into()),
                ("min", q.min.into()),
                ("q1", q.q1.into()),
                ("q3", q.q3.into()),
                ("max", q.max.into()),
            ]);
            (*name, summary)
        });
        json::object([
            ("workload", self.workload.into()),
            ("traced", self.traced.into()),
            ("correct", self.correct().into()),
            ("phases", Value::Arr(phases.collect())),
            (
                "faults",
                Value::Arr(self.faults.iter().map(|f| f.as_str().into()).collect()),
            ),
            ("metrics", json::object(metrics)),
        ])
    }
}

/// The ledger file: a header line, then one line per pass.
fn ledger_text(seed: u64, seconds: f64, passes: &[Value]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = json::write(&json::object([
        ("schema", "marconi-perf-ledger/1".into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("cores", (cores as u64).into()),
        ("load_threads", 1u64.into()),
    ]));
    let lines: Vec<String> = passes.iter().map(json::write).collect();
    format!(
        "{}, \"passes\": [\n{}\n]}}\n",
        header.trim_end_matches('}'),
        lines.join(",\n")
    )
}

/// The ledger of one invocation.
pub fn results_json(seed: u64, seconds: f64, passes: &[PassResult]) -> String {
    let passes: Vec<Value> = passes.iter().map(PassResult::to_json).collect();
    ledger_text(seed, seconds, &passes)
}

/// One ledger from the ledgers the per-pass child processes wrote, in the
/// order given. Fails on a part that does not parse.
pub fn merged_json(seed: u64, seconds: f64, parts: &[String]) -> Result<String, String> {
    let mut passes = Vec::new();
    for part in parts {
        let ledger = json::parse(part)?;
        let listed = ledger.get("passes").ok_or("a part has no passes")?;
        passes.extend(listed.as_array().iter().cloned());
    }
    Ok(ledger_text(seed, seconds, &passes))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges `new` against `base` for one metric on one workload.
///
/// `worse` when the new median is worse than the base's by more than the
/// bound; otherwise `unresolved` when either side's own spread (quartile
/// distance over median) is wider than the bound, because then "no worse"
/// cannot be told from noise; otherwise `ok`.
pub fn judge(m: &EndToEnd, same_seed: bool, base: &Quartiles, new: &Quartiles) -> (f64, Verdict) {
    let bound = if m.exact && same_seed { 0.0 } else { m.bound };
    let change = crate::stats::ratio(new.median - base.median, base.median.abs());
    let worsening = match m.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if base.spread() > m.bound || new.spread() > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (change, verdict)
}

fn quartiles_of(metric: &Value) -> Option<Quartiles> {
    let num = |k: &str| metric.get(k).and_then(Value::as_f64);
    Some(Quartiles {
        n: num("n")? as usize,
        min: num("min")?,
        q1: num("q1")?,
        median: num("value")?,
        q3: num("q3")?,
        max: num("max")?,
    })
}

/// `compare a.json b.json`: one row per (workload, end-to-end metric).
/// Returns the printed table and whether any row was `worse`.
pub fn compare(base_text: &str, new_text: &str) -> Result<(String, bool), String> {
    let base = json::parse(base_text)?;
    let new = json::parse(new_text)?;
    let seed = |v: &Value| v.get("seed").and_then(Value::as_f64);
    let same_seed = seed(&base).is_some() && seed(&base) == seed(&new);
    let end_to_end = |file: &Value, workload: &str, metric: &str| {
        file.get("passes")?
            .as_array()
            .iter()
            .find(|p| {
                p.get("workload").and_then(Value::as_str) == Some(workload)
                    && p.get("traced") == Some(&Value::Bool(false))
            })?
            .get("metrics")?
            .get(metric)
            .and_then(quartiles_of)
    };
    let mut out = format!(
        "{:<16} {:<24} {:>14} {:>14} {:>9}  {:<6} {}\n",
        "workload", "metric", "base", "new", "change", "bound", "verdict"
    );
    let mut any_worse = false;
    let mut rows = 0;
    for w in &crate::workloads::WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                end_to_end(&base, w.name, m.name),
                end_to_end(&new, w.name, m.name),
            ) else {
                continue;
            };
            let (change, verdict) = judge(m, same_seed, &a, &b);
            any_worse |= verdict == Verdict::Worse;
            rows += 1;
            let bound = if m.exact && same_seed { 0.0 } else { m.bound };
            let _ = writeln!(
                out,
                "{:<16} {:<24} {:>14.6} {:>14.6} {:>+8.2}%  {:<6} {}",
                w.name,
                m.name,
                a.median,
                b.median,
                change * 100.0,
                format!("{:.0}%", bound * 100.0),
                match verdict {
                    Verdict::Ok => "ok".to_owned(),
                    Verdict::Worse => format!("worse (base {:.6} {})", a.median, m.unit),
                    Verdict::Unresolved => format!(
                        "unresolved (spread {:.1}% / {:.1}%)",
                        a.spread() * 100.0,
                        b.spread() * 100.0
                    ),
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric) row".into());
    }
    let _ = writeln!(
        out,
        "{rows} rows; change is (new - base) / base; seeds {}",
        if same_seed {
            "equal: exact metrics may not worsen at all"
        } else {
            "differ"
        }
    );
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A metric with a bound of 10%, whatever the ledger's table says today.
    fn metric(better: Better, exact: bool) -> EndToEnd {
        e2e("m", "unit", better, 0.10, exact, "replay")
    }

    fn q(median: f64, spread: f64) -> Quartiles {
        Quartiles {
            n: 9,
            min: median * (1.0 - spread),
            q1: median * (1.0 - spread / 2.0),
            median,
            q3: median * (1.0 + spread / 2.0),
            max: median * (1.0 + spread),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = &metric(Higher, false);
        assert_eq!(
            judge(rate, true, &q(100.0, 0.01), &q(95.0, 0.01)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(rate, true, &q(100.0, 0.01), &q(85.0, 0.01)).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, true, &q(100.0, 0.01), &q(140.0, 0.01)).1,
            Verdict::Ok
        );
        // Noise wider than the bound: "no worse" is not established ...
        assert_eq!(
            judge(rate, true, &q(100.0, 0.3), &q(99.0, 0.01)).1,
            Verdict::Unresolved
        );
        // ... but a median beyond the bound is still reported as worse.
        assert_eq!(
            judge(rate, true, &q(100.0, 0.3), &q(50.0, 0.01)).1,
            Verdict::Worse
        );

        let p50 = &metric(Lower, false);
        let (change, verdict) = judge(p50, false, &q(2.0, 0.0), &q(2.5, 0.0));
        assert!((change - 0.25).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Worse);
    }

    #[test]
    fn exact_metrics_may_not_worsen_at_equal_seeds() {
        let hit = &metric(Higher, true);
        let base = Quartiles::exact(0.626, 1);
        let lower = Quartiles::exact(0.625, 1);
        assert_eq!(judge(hit, true, &base, &lower).1, Verdict::Worse);
        assert_eq!(judge(hit, false, &base, &lower).1, Verdict::Ok);
        assert_eq!(judge(hit, true, &base, &base).1, Verdict::Ok);
    }

    #[test]
    fn compare_reads_back_what_results_json_writes() {
        let pass = |value: f64| {
            let mut metrics = Metrics::default();
            for m in &END_TO_END {
                metrics.put_quartiles(m.name, q(value, 0.02));
            }
            PassResult {
                workload: "chat_fit",
                traced: false,
                phases: vec![("replay", Tally::default())],
                metrics,
                faults: vec![],
                notes: vec![],
            }
        };
        let a = results_json(7, 10.0, &[pass(100.0)]);
        let b = results_json(7, 10.0, &[pass(50.0)]);
        let (table, worse) = compare(&a, &a).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.matches(" ok").count(), 9, "{table}");
        // Halving worsens every higher-is-better metric past any bound.
        let higher = END_TO_END.iter().filter(|m| m.better == Higher).count();
        let (table, worse) = compare(&a, &b).unwrap();
        assert!(worse);
        assert_eq!(table.matches("worse (base").count(), higher, "{table}");
        assert!(compare(&a, "{}").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut pass = PassResult {
            workload: "chat_fit",
            traced: false,
            phases: vec![(
                "replay",
                Tally {
                    replays: 2,
                    requests_attempted: 10,
                    requests_failed: 0,
                    fingerprint_mismatches: 0,
                },
            )],
            metrics: Metrics::default(),
            faults: vec![],
            notes: vec![],
        };
        for m in &END_TO_END {
            pass.metrics.put(m.name, 1.5);
        }
        pass.validate();
        assert!(pass.correct());
        let line = json::parse(&pass.result_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().fields().len(),
            END_TO_END.len()
        );

        pass.metrics.0.pop();
        pass.validate();
        assert!(!pass.correct(), "a missing metric makes the pass incorrect");
    }

    /// `BENCHMARK.json` is the copy the driver reads; it must say what this
    /// table says.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file = json::parse(&text).unwrap();
        let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_owned();

        let listed = file.get("end_to_end").unwrap().as_array();
        assert_eq!(listed.len(), END_TO_END.len());
        for (got, want) in listed.iter().zip(&END_TO_END) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(str_of(got, "better"), want.better.label(), "{}", want.name);
            assert_eq!(
                got.get("bound").unwrap().as_f64(),
                Some(want.bound),
                "{}",
                want.name
            );
        }
        let listed = file.get("per_layer").unwrap().as_array();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (got, want) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(str_of(got, "better"), want.better.label(), "{}", want.name);
        }
        let listed = file.get("workloads").unwrap().as_array();
        assert_eq!(listed.len(), crate::workloads::WORKLOADS.len());
        for (got, want) in listed.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "why"), want.why);
            assert!(want.why.len() <= 200 && !want.why.contains('\n'));
        }
        let names: BTreeSet<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are used once"
        );
    }
}
