//! Multi-threaded throughput of the sharded concurrent cache front-end.
//!
//! Two measurements, each swept over 1–32 threads against one
//! [`ShardedCache`]:
//!
//! * `read_probe` — router-style non-mutating probes
//!   (`longest_cached_prefix_len`) through shard *read* locks: the path
//!   that must scale with reader count, since read locks on distinct (and
//!   even the same) shard never exclude each other.
//! * `mixed_insert` — executor-style write traffic (`lookup_at` +
//!   `insert_at`) with each thread driving its own sessions; distinct
//!   sessions hash to distinct shards, so writers serialize only within a
//!   shard.
//!
//! Results print as `ops/sec` lines, followed by the read-side scaling
//! factor from 1→8 threads and the core count: on a single-core host the
//! curve is flat by construction (threads add no parallelism, only
//! scheduling overhead), so the factor means nothing without `cores`.
//! Nothing is written to disk and nothing is gated; end-to-end and
//! per-layer costs live in the perf ledger under `benchmark/`.
//!
//! ```sh
//! cargo bench -p marconi-bench --bench concurrent_throughput
//! ```

use marconi_core::{EvictionPolicy, HybridPrefixCache, ShardedCache};
use marconi_model::ModelConfig;
use marconi_radix::Token;
use std::hint::black_box;
use std::time::Instant;

const THREAD_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const SHARDS: usize = 16;
const SESSIONS: u32 = 512;
/// Tokens per cached session chain (input + first-turn output).
const SESSION_TOKENS: u32 = 64;

fn session_input(s: u32) -> Vec<Token> {
    let base = s * 10_000;
    (base..base + SESSION_TOKENS - 16).collect()
}

fn session_output(s: u32) -> Vec<Token> {
    let base = s * 10_000 + 5_000;
    (base..base + 16).collect()
}

/// A sharded cache prewarmed with every session's first turn. Pure
/// Transformer so the per-node footprint is token KVs only, which keeps
/// the working set at `SESSIONS` live chains.
fn prewarmed() -> ShardedCache {
    let builder = HybridPrefixCache::builder(ModelConfig::transformer_7b())
        .capacity_bytes(1 << 40)
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 });
    let cache = ShardedCache::new(builder, SHARDS);
    for s in 0..SESSIONS {
        cache.insert_at(&session_input(s), &session_output(s), f64::from(s));
    }
    cache
}

/// Cheap deterministic per-thread sequence of session ids.
fn next_session(state: &mut u64) -> u32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) % u64::from(SESSIONS)) as u32
}

/// Total ops/sec of `threads` readers probing cached prefixes.
fn read_probe_ops_per_sec(cache: &ShardedCache, threads: usize, ops_per_thread: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut rng = t as u64 + 0x5EED;
                let mut acc = 0u64;
                for _ in 0..ops_per_thread {
                    let s = next_session(&mut rng);
                    acc += cache.longest_cached_prefix_len(&session_input(s));
                }
                black_box(acc);
            });
        }
    });
    (threads * ops_per_thread) as f64 / start.elapsed().as_secs_f64()
}

/// Total ops/sec of `threads` writers each running lookup+insert turns on
/// its own session range (one op = one lookup + one insert).
fn mixed_insert_ops_per_sec(cache: &ShardedCache, threads: usize, ops_per_thread: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..ops_per_thread as u32 {
                    let s = (t as u32 * 4_096 + i) % SESSIONS;
                    let mut turn = session_input(s);
                    turn.extend_from_slice(&session_output(s));
                    turn.extend([1_000_000 + t as u32 * 1_000 + i]);
                    black_box(cache.lookup_at(&turn, f64::from(i)));
                    cache.insert_at(&turn, &[2_000_000 + i], f64::from(i));
                }
            });
        }
    });
    (threads * ops_per_thread) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cache = prewarmed();

    let mut read_curve = Vec::new();
    for &t in &THREAD_COUNTS {
        // Fixed total work per configuration so wall time stays flat as
        // threads grow.
        let ops_per_sec = black_box(read_probe_ops_per_sec(&cache, t, 200_000 / t));
        println!("concurrent_throughput/read_probe threads={t}: {ops_per_sec:.0} ops/sec");
        read_curve.push((t, ops_per_sec));
    }
    for &t in &THREAD_COUNTS {
        let ops_per_sec = black_box(mixed_insert_ops_per_sec(&cache, t, 8_000 / t));
        println!("concurrent_throughput/mixed_insert threads={t}: {ops_per_sec:.0} ops/sec");
    }
    let at = |t: usize| {
        read_curve
            .iter()
            .find(|(n, _)| *n == t)
            .map_or(0.0, |(_, ops)| *ops)
    };
    let read_scaling = at(8) / at(1).max(f64::MIN_POSITIVE);
    println!(
        "concurrent_throughput/[scaling] read_probe 1->8 threads: {read_scaling:.2}x on {cores} core(s)"
    );
}
