//! The two passes over a workload: the untraced one that yields the
//! end-to-end metrics (`setup` → `replay` → `embed`) and the traced one that
//! yields the per-layer metrics.

use crate::check::{fingerprint, Reference, Tally};
use crate::drive::{embed_replay, radix_alone};
use crate::ledger::{Metrics, PassResult};
use crate::spans::{self, LayerSelf, SharedLog, Span, SpanLog, SpanName};
use crate::stats::{
    highest_supported_percentile, median, median_per_request, quantile_sorted, ratio, Quartiles,
};
use crate::timed::{RouteCounts, TimedCache, TimedRouter};
use crate::workloads::{rss_kb, Load, Replay, ShardRun, Workload, MISSING};
use marconi_core::{HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_trace::{NullSink, RingRecorder, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Set-ups per untraced pass; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest replays a timed phase takes its median over, however short
/// `--seconds` is.
const MIN_REPLAYS: usize = 3;
const MAX_REPLAYS: usize = 400;
/// Events the ring keeps. Above every Engine workload's event count, so the
/// cursor counts read from it are exact there; `trace.ring_dropped` says
/// when they are not.
const RING_CAPACITY: usize = 1 << 21;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

struct Setup {
    load: Load,
    warmups: Vec<Replay>,
    setup_s: f64,
    /// `VmRSS` after the first warm-up replay, its serving object alive,
    /// minus `VmRSS` before that object was built.
    rss_mb: f64,
}

/// Generates the trace from the seed, validates it and runs the workload's
/// warm-up replays.
fn setup(w: &Workload, seed: u64) -> Setup {
    let start = Instant::now();
    let load = w.generate(seed);
    load.trace.assert_well_formed();
    let rss_before = rss_kb();
    let warmups: Vec<Replay> = (0..w.warmups).map(|_| w.replay(&load)).collect();
    let setup_s = start.elapsed().as_secs_f64();
    let rss_mb = warmups[0].gauges.rss_kb.saturating_sub(rss_before) as f64 / 1024.0;
    Setup {
        load,
        warmups,
        setup_s,
        rss_mb,
    }
}

fn load_note(load: &Load, seed: u64) -> String {
    format!(
        "seed {seed}: {} requests, {} prompt tokens{}, one load-generating thread, {} cores",
        load.trace.len(),
        load.trace.total_input_tokens(),
        load.warm.as_ref().map_or(String::new(), |warm| format!(
            " (after {} untimed requests that fill the cache)",
            warm.len()
        )),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

/// `setup` → `replay` → `embed`, tracer off everywhere.
pub fn end_to_end_pass(w: &'static Workload, seed: u64, seconds: f64) -> PassResult {
    let mut metrics = Metrics::default();
    let mut faults = Vec::new();

    // setup: the first one supplies the trace, the reference and the RSS
    // reading (later ones would find the allocator warm).
    let first = setup(w, seed);
    let load = &first.load;
    let trace = &load.trace;
    let (reference, mut setup_tally) = Reference::of_report(trace, &first.warmups[0].report);
    faults.extend(w.regime_violations(trace, &first.warmups[0]));
    let mut setup_walls = vec![first.setup_s];
    for warm in &first.warmups[1..] {
        setup_tally.add(reference.check(trace, &warm.report));
    }
    for _ in 1..SETUPS {
        let again = setup(w, seed);
        setup_walls.push(again.setup_s);
        for warm in &again.warmups {
            setup_tally.add(reference.check(&again.load.trace, &warm.report));
        }
    }
    metrics.put_quartiles("setup_s", Quartiles::of(&setup_walls));

    // replay: whole-trace calls of the serving object's `run`, fresh caches
    // each, for half of `--seconds`.
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let mut replay_tally = Tally::default();
    let mut walls = Vec::new();
    let phase = Instant::now();
    while walls.len() < MIN_REPLAYS || (phase.elapsed() < budget && walls.len() < MAX_REPLAYS) {
        let replay = w.replay(load);
        walls.push(secs(replay.wall_ns));
        replay_tally.add(reference.check(trace, &replay.report));
    }
    let wall = Quartiles::of(&walls);
    let (requests, tokens) = (trace.len() as f64, trace.total_input_tokens() as f64);
    metrics.put_quartiles("replay_req_per_s", wall.map(|s| requests / s));
    metrics.put_quartiles("replay_prompt_tok_per_s", wall.map(|s| tokens / s));

    // embed: the benchmark plays the engine against one cache holding the
    // whole budget, for the other half.
    let mut embed_tally = Tally::default();
    let mut embed_reference: Option<Reference> = None;
    let mut per_replay: Vec<Vec<u32>> = Vec::new();
    let phase = Instant::now();
    while per_replay.len() < MIN_REPLAYS
        || (phase.elapsed() < budget && per_replay.len() < MAX_REPLAYS)
    {
        let mut cache = w.cache();
        for req in load.warm.iter().flat_map(|warm| &warm.requests) {
            black_box(cache.lookup_at(&req.input, req.arrival));
            black_box(cache.insert_at(&req.input, &req.output, req.arrival));
        }
        let before = *cache.stats();
        let mut request_ns = vec![0u32; trace.len()];
        let mut hits = vec![MISSING; trace.len()];
        embed_replay(&mut cache, trace, &mut request_ns, &mut hits);
        let stats = cache.stats().delta_since(&before);
        embed_tally.add(match &embed_reference {
            None => {
                let (r, tally) = Reference::new(trace, hits, &stats);
                embed_reference = Some(r);
                tally
            }
            Some(r) => r.check_hits(trace, &hits, fingerprint(&hits, &stats)),
        });
        per_replay.push(request_ns);
    }
    let tail = highest_supported_percentile(trace.len()).unwrap_or(0.0);
    if tail < 0.99 {
        faults.push(format!(
            "{} requests support p{} at most, not the p99 the ledger names",
            trace.len(),
            tail * 100.0
        ));
    }
    // The value is the percentile over each request's median across replays;
    // the quartiles beside it are those of the same percentile taken replay
    // by replay, which is the run-to-run noise `compare` needs.
    let mut latency_us: Vec<f64> = median_per_request(&per_replay)
        .into_iter()
        .map(|ns| ns / 1e3)
        .collect();
    latency_us.sort_by(f64::total_cmp);
    let sorted_replays: Vec<Vec<f64>> = per_replay
        .iter()
        .map(|times| {
            let mut us: Vec<f64> = times.iter().map(|&ns| f64::from(ns) / 1e3).collect();
            us.sort_by(f64::total_cmp);
            us
        })
        .collect();
    for (name, q) in [("request_us_p50", 0.5), ("request_us_p99", 0.99)] {
        let by_replay: Vec<f64> = sorted_replays
            .iter()
            .map(|us| quantile_sorted(us, q))
            .collect();
        let mut summary = Quartiles::of(&by_replay);
        summary.median = quantile_sorted(&latency_us, q);
        metrics.put_quartiles(name, summary);
    }

    metrics.put("cache_rss_mb", first.rss_mb);
    let report = &first.warmups[0].report;
    metrics.put("sim_token_hit_rate", report.token_hit_rate());
    metrics.put("sim_ttft_p95_ms", report.ttft_quantile_ms(0.95));
    metrics.put("sim_flops_saved_share", report.flops_saved_share());

    let notes = vec![
        load_note(load, seed),
        format!(
            "replay wall s: median {:.6} min {:.6} q1 {:.6} q3 {:.6} (n={}); \
             request latency over {} requests, tail = p99 (highest supported: p{})",
            wall.median,
            wall.min,
            wall.q1,
            wall.q3,
            wall.n,
            trace.len(),
            tail * 100.0
        ),
        format!("report fingerprint {:016x}", reference.fingerprint),
    ];
    let mut pass = PassResult {
        workload: w.name,
        traced: false,
        phases: vec![
            ("setup", setup_tally),
            ("replay", replay_tally),
            ("embed", embed_tally),
        ],
        metrics,
        faults,
        notes,
    };
    pass.validate();
    pass
}

/// Per-round samples of one metric; the ledger takes their median.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    fn drain_into(self, metrics: &mut Metrics) {
        for (name, values) in self.0 {
            metrics.put_quartiles(name, Quartiles::of(&values));
        }
    }
}

/// Every span of one name: durations in µs, ascending, and tokens handed in.
struct Calls {
    us: Vec<f64>,
    tokens: f64,
}

impl Calls {
    fn of(spans: &[Span], name: SpanName) -> Calls {
        let named = || spans.iter().filter(move |s| s.name == name);
        let mut us: Vec<f64> = named().map(|s| s.dur_ns() as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        Calls {
            us,
            tokens: named().map(|s| f64::from(s.tokens)).sum(),
        }
    }

    fn total_ns(&self) -> f64 {
        self.us.iter().sum::<f64>() * 1e3
    }

    fn ns_per_call(&self) -> f64 {
        ratio(self.total_ns(), self.us.len() as f64)
    }

    fn ns_per_token(&self) -> f64 {
        ratio(self.total_ns(), self.tokens)
    }
}

/// Σ layer self times against the wall measured by the run's own clock
/// pair, as a share of that wall; a gap above 5% is a fault.
fn closure_gap(what: &str, spans: &[Span], wall_ns: u64, faults: &mut Vec<String>) -> f64 {
    let closed = LayerSelf::of(spans).total_ns() as f64;
    let gap = ratio((closed - wall_ns as f64).abs(), wall_ns as f64);
    if gap > 0.05 {
        faults.push(format!("{what} trace closes to {:.1}% only", gap * 100.0));
    }
    gap
}

/// A shard's cache with the recorder attached, as the serving loop gets it.
fn traced_cache(w: &Workload, tracer: &Tracer) -> HybridPrefixCache {
    let mut cache = w.shard_cache();
    cache.set_tracer(tracer.clone());
    cache
}

/// The `core.*` timing metrics and the serving loop's self time, from one
/// traced replay of the workload's caches under `Engine` / `EventSim`.
/// Returns the time inside `core` spans, in ns.
fn core_sample(w: &Workload, spans: &[Span], run: &ShardRun, out: &mut Samples) -> f64 {
    let wall_ns = run.wall_ns as f64;
    let lookups = Calls::of(spans, SpanName::Lookup);
    let inserts = Calls::of(spans, SpanName::Insert);
    out.add("core.lookup_us_p50", quantile_sorted(&lookups.us, 0.5));
    out.add("core.lookup_us_p99", quantile_sorted(&lookups.us, 0.99));
    out.add("core.lookup_ns_per_token", lookups.ns_per_token());
    out.add("core.insert_us_p50", quantile_sorted(&inserts.us, 0.5));
    out.add("core.insert_us_p99", quantile_sorted(&inserts.us, 0.99));
    out.add("core.insert_ns_per_token", inserts.ns_per_token());

    // An insert that evicted or demoted costs a plain insert plus its
    // victims; price the victims by subtracting the median plain insert.
    let (mut evicting_ns, mut episodes, mut victims) = (0.0, 0.0, 0.0);
    let mut plain_us = Vec::new();
    for s in spans.iter().filter(|s| s.name == SpanName::Insert) {
        if s.victims > 0 {
            evicting_ns += s.dur_ns() as f64;
            episodes += 1.0;
            victims += f64::from(s.victims);
        } else {
            plain_us.push(s.dur_ns() as f64 / 1e3);
        }
    }
    let plain_ns = median(&plain_us) * 1e3;
    out.add(
        "core.insert_evicting_share",
        ratio(episodes, inserts.us.len() as f64),
    );
    out.add("core.victims_per_episode", ratio(victims, episodes));
    out.add(
        "core.evict_us_per_victim",
        ratio((evicting_ns - episodes * plain_ns).max(0.0), victims) / 1e3,
    );
    out.add(
        "core.pin_ns_per_call",
        Calls::of(spans, SpanName::Pin).ns_per_call(),
    );
    out.add(
        "core.unpin_ns_per_call",
        Calls::of(spans, SpanName::Unpin).ns_per_call(),
    );

    let layers = LayerSelf::of(spans);
    out.add("core.busy_share", ratio(layers.core_ns as f64, wall_ns));
    let sim_self = layers.sim_ns as f64;
    if w.replicas > 1 {
        out.add(
            "sim.executor_self_ns_per_event",
            ratio(sim_self, run.iterations as f64),
        );
    } else {
        out.add(
            "sim.engine_self_ns_per_req",
            ratio(sim_self, lookups.us.len() as f64),
        );
        out.add("sim.engine_self_share", ratio(sim_self, wall_ns));
    }
    layers.core_ns as f64
}

/// Times `f` over `batches` batches of `per_batch` calls; ns per call, median
/// over batches.
fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            (0..per_batch).for_each(&mut f);
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

fn write_trace(out_dir: &Path, file: &str, log: &SharedLog, notes: &mut Vec<String>) {
    let path = out_dir.join(file);
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, spans::to_chrome_trace(&log.borrow().spans)));
    notes.push(match written {
        Ok(()) => format!("{} spans -> {}", log.borrow().spans.len(), path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    });
}

/// One generated trace, then rounds of interleaved replays — untraced, traced
/// (spans from `TimedCache` / `TimedRouter`), `NullSink`, `RingRecorder`, and
/// the bare radix tree — for `--seconds`, at least one round.
pub fn per_layer_pass(w: &'static Workload, seed: u64, seconds: f64, out_dir: &Path) -> PassResult {
    let mut metrics = Metrics::default();
    let mut faults = Vec::new();
    let mut notes = Vec::new();
    let cluster = w.replicas > 1;

    let start = Instant::now();
    let load = w.generate(seed);
    let generate_s = start.elapsed().as_secs_f64();
    load.trace.assert_well_formed();
    let (load, trace, warm) = (&load, &load.trace, load.warm.as_ref());
    let requests = trace.len() as f64;
    let prompt_tokens = trace.total_input_tokens() as f64;
    metrics.put("workload.generate_s", generate_s);
    metrics.put(
        "workload.generate_mtok_per_s",
        ratio(prompt_tokens / 1e6, generate_s),
    );
    metrics.put("workload.requests", requests);
    metrics.put("workload.prompt_tokens", prompt_tokens);
    notes.push(load_note(load, seed));

    // The untraced reference, and what each of the workload's caches saw of
    // the trace: everything under `Engine`, its routed share under a cluster.
    let primary = w.replay(load);
    let (reference, setup_tally) = Reference::of_report(trace, &primary.report);
    faults.extend(w.regime_violations(trace, &primary));
    let shards = w.shards(trace, &primary.report);
    let check_shards =
        |run: &ShardRun| reference.check_hits(trace, &run.hits, fingerprint(&run.hits, &run.stats));

    let mut samples = Samples::default();
    // Per-round readings that feed notes and derived metrics, not the ledger.
    let (mut gaps, mut core_busy_ns, mut radix_busy_ns, mut alone_shares) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut walls_off = Vec::new();
    let mut traced_tally = Tally::default();
    let mut tracer_tally = Tally::default();
    let mut last_logs: Vec<(&str, SharedLog)> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || (phase.elapsed() < budget && rounds < MAX_REPLAYS) {
        rounds += 1;
        last_logs.clear();

        let off = w.replay(load);
        traced_tally.add(reference.check(trace, &off.report));
        walls_off.push(secs(off.wall_ns));

        // The cluster again behind a TimedRouter, then — untraced — replica
        // by replica: the base the cache-level arms below compare against.
        let base_ns = if cluster {
            let log = SpanLog::shared(2 * trace.len() + 1);
            let counts = Rc::new(RouteCounts::default());
            let router = TimedRouter::new(log.clone(), counts.clone());
            let traced = w.replay_cluster(trace, Box::new(router), Some(&log));
            traced_tally.add(reference.check(trace, &traced.report));
            {
                let spans = &log.borrow().spans;
                closure_gap("router", spans, traced.wall_ns, &mut faults);
                let route_ns = Calls::of(spans, SpanName::Route).total_ns();
                // The probe the harness adds is no part of the program's wall.
                let harness_ns = LayerSelf::of(spans).harness_ns;
                let own_wall = traced.wall_ns.saturating_sub(harness_ns) as f64;
                samples.add("sim.route_us_per_request", ratio(route_ns / 1e3, requests));
                samples.add("sim.route_share", ratio(route_ns, own_wall));
            }
            samples.add(
                "sim.route_best_prefix_share",
                ratio(counts.best_prefix.get() as f64, counts.routed.get() as f64),
            );
            samples.add(
                "sim.events_per_s",
                ratio(off.report.iterations() as f64, secs(off.wall_ns)),
            );
            last_logs.push(("router", log));

            let plain = || w.shard_cache();
            let alone = w.replay_shards(&shards, warm, plain, &Tracer::off(), None);
            traced_tally.add(check_shards(&alone));
            alone.wall_ns
        } else {
            off.wall_ns
        };
        let base = secs(base_ns);

        // The same caches inside TimedCache.
        let log = SpanLog::shared(4 * trace.len() + shards.len());
        let timed = w.replay_shards(
            &shards,
            warm,
            || TimedCache::new(w.shard_cache(), log.clone()),
            &Tracer::off(),
            Some(&log),
        );
        traced_tally.add(check_shards(&timed));
        log.borrow_mut()
            .resolve_requests(shards.iter().flat_map(|s| &s.requests));
        {
            let spans = &log.borrow().spans;
            gaps.push(closure_gap("cache", spans, timed.wall_ns, &mut faults));
            core_busy_ns.push(core_sample(w, spans, &timed, &mut samples));
        }
        samples.add(
            "harness.traced_overhead_pct",
            ratio(secs(timed.wall_ns) - base, base) * 100.0,
        );
        alone_shares.push(ratio(base, secs(off.wall_ns)));
        last_logs.push(("cache", log));

        // The flight recorder's three states on the same replays.
        let (tracer, _sink) = Tracer::to_sink(NullSink);
        let null = w.replay_shards(&shards, warm, || traced_cache(w, &tracer), &tracer, None);
        tracer_tally.add(check_shards(&null));
        let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(RING_CAPACITY));
        let ring = w.replay_shards(&shards, warm, || traced_cache(w, &tracer), &tracer, None);
        tracer_tally.add(check_shards(&ring));
        samples.add(
            "trace.null_sink_overhead_pct",
            ratio(secs(null.wall_ns) - base, base) * 100.0,
        );
        samples.add(
            "trace.ring_overhead_pct",
            ratio(secs(ring.wall_ns) - base, base) * 100.0,
        );
        {
            let rec = recorder
                .lock()
                .expect("the recorder's lock is not poisoned");
            let kind = |k: &str| rec.events().filter(|e| e.event.kind() == k).count() as f64;
            let recorded = rec.recorded() as f64;
            samples.add(
                "trace.ring_ns_per_event",
                ratio((ring.wall_ns as f64 - base_ns as f64).max(0.0), recorded),
            );
            // The recorder is attached from the start, so it saw a prefill too.
            let seen = requests + warm.map_or(0.0, |warm| warm.len() as f64);
            samples.add("trace.events_per_request", ratio(recorded, seen));
            samples.add("trace.ring_dropped", rec.dropped() as f64);
            samples.add("core.cursor_resumes", kind("cursor-resumed"));
            samples.add("core.cursor_fallbacks", kind("cursor-fallback"));
        }

        // radix sits below a concrete cache: drive it alone.
        let radix = radix_alone(warm, trace, primary.gauges.nodes_live as usize);
        if radix.failed_removes > 0 {
            faults.push(format!("radix refused {} removals", radix.failed_removes));
        }
        samples.add("radix.match_ns_per_token", radix.match_ns_per_token);
        samples.add("radix.speculate_ns_per_token", radix.speculate_ns_per_token);
        samples.add("radix.insert_ns_per_token", radix.insert_ns_per_token);
        samples.add(
            "radix.cursor_match_ns_per_new_token",
            radix.cursor_match_ns_per_new_token,
        );
        samples.add("radix.remove_ns_per_op", radix.remove_ns_per_op);
        samples.add("radix.nodes_live", radix.nodes_live);
        samples.add("radix.arena_capacity", radix.arena_capacity);
        samples.add(
            "radix.store_tokens_per_live_token",
            radix.store_tokens_per_live_token,
        );
        radix_busy_ns.push(radix.busy_ns);
    }

    let radix_share = ratio(median(&radix_busy_ns), median(&core_busy_ns));
    metrics.put("radix.busy_share_est", radix_share);
    let off_walls = Quartiles::of(&walls_off);
    metrics.put_quartiles(
        "harness.replay_wall_iqr_pct",
        Quartiles::exact(off_walls.spread() * 100.0, off_walls.n),
    );
    notes.push(format!(
        "{rounds} rounds; untraced run wall s: median {:.6} q1 {:.6} q3 {:.6}; \
         traced run closes to {:.3}% of its wall",
        off_walls.median,
        off_walls.q1,
        off_walls.q3,
        median(&gaps) * 100.0,
    ));
    // Who owns the untraced run's wall. Under a cluster the replicas' own
    // share is what they take replayed alone; the rest, less the router, is
    // the cluster's event loop.
    let core = samples.median("core.busy_share");
    if cluster {
        let (alone, route) = (median(&alone_shares), samples.median("sim.route_share"));
        notes.push(format!(
            "share of run wall: sim {:.3} (router {route:.3}, executor self {:.3}, cluster \
             loop {:.3}), core {:.3}",
            1.0 - alone * core,
            alone * (1.0 - core),
            (1.0 - alone - route).max(0.0),
            alone * core,
        ));
    } else {
        notes.push(format!(
            "share of run wall: sim self {:.3}, core {core:.3} (radix alone ~{radix_share:.3} \
             of core)",
            samples.median("sim.engine_self_share"),
        ));
    }
    for (what, log) in &last_logs {
        write_trace(
            out_dir,
            &format!("{}.{what}.trace.json", w.name),
            log,
            &mut notes,
        );
    }
    samples.drain_into(&mut metrics);

    // Exact counts and simulated outcomes, from the workload's own report.
    let stats = primary.report.stats();
    let g = primary.gauges;
    metrics.put("core.lookups", stats.lookups as f64);
    metrics.put("core.hit_token_share", stats.token_hit_rate());
    metrics.put("core.request_hit_share", stats.request_hit_rate());
    metrics.put("core.host_hit_token_share", stats.host_hit_fraction());
    metrics.put("core.evictions", stats.evictions as f64);
    metrics.put("core.demotions", stats.demotions as f64);
    metrics.put("core.host_evictions", stats.host_evictions as f64);
    metrics.put("core.ssm_states_admitted", stats.ssm_states_admitted as f64);
    metrics.put("core.nodes_live", g.nodes_live as f64);
    metrics.put(
        "core.device_fill",
        ratio(g.usage_bytes as f64, g.capacity_bytes as f64),
    );
    metrics.put("core.peak_usage_bytes", stats.peak_usage_bytes as f64);
    metrics.put("sim.iterations", primary.report.iterations() as f64);
    metrics.put("sim.queue_ms_p95", primary.report.queue_ms_p95());
    metrics.put("sim.utilization_mean", primary.report.utilization_mean());
    metrics.put("sim.load_imbalance", primary.report.load_imbalance());
    metrics.put("sim.reload_ms_total", primary.report.reload_ms_total());

    // Metrics that exist on one side of the Engine / cluster split read 0 on
    // the other, so every workload reports the whole set.
    let absent: &[&'static str] = if cluster {
        &["sim.engine_self_ns_per_req", "sim.engine_self_share"]
    } else {
        &[
            "sim.executor_self_ns_per_event",
            "sim.events_per_s",
            "sim.route_us_per_request",
            "sim.route_share",
            "sim.route_best_prefix_share",
        ]
    };
    absent.iter().for_each(|name| metrics.put(name, 0.0));

    // The auto-tuner's one grid search: the longest single insert of a
    // replay under `EvictionPolicy::default()`. Priced where it fires within
    // a short replay; elsewhere it reads 0.
    let retune_ms = if w.name == "agent_pressure" {
        let log = SpanLog::shared(4 * trace.len() + shards.len());
        let cache = || TimedCache::new(w.auto_tuned_cache(), log.clone());
        black_box(w.replay_shards(&shards, warm, cache, &Tracer::off(), Some(&log)));
        let inserts = Calls::of(&log.borrow().spans, SpanName::Insert);
        inserts.us.last().copied().unwrap_or(0.0) / 1e3
    } else {
        0.0
    };
    metrics.put("core.tuner_retune_ms", retune_ms);

    let summary_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(primary.report.summarize());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.put_quartiles("metrics.report_summary_ms", Quartiles::of(&summary_ms));

    let model = ModelConfig::hybrid_7b();
    let lens: Vec<u64> = trace.requests.iter().map(|r| r.input_len()).collect();
    metrics.put(
        "model.prefill_flops_ns_per_call",
        ns_per_call(9, 20_000, |i| {
            let len = lens[i % lens.len()];
            black_box(model.prefill_flops_with_prefix(black_box(len), len / 2));
        }),
    );
    metrics.put(
        "harness.timer_pair_ns",
        ns_per_call(9, 20_000, |_| {
            let start = Instant::now();
            black_box(start.elapsed());
        }),
    );

    let mut pass = PassResult {
        workload: w.name,
        traced: true,
        phases: vec![
            ("setup", setup_tally),
            ("traced", traced_tally),
            ("tracer", tracer_tally),
        ],
        metrics,
        faults,
        notes,
    };
    pass.validate();
    pass
}
