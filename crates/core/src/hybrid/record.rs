//! Flight-recorder emit helpers. Everything here is read-only with respect
//! to cache decisions and runs only while the tracer is enabled (the
//! off-is-free contract).

use super::hint::HintOutcome;
use super::HybridPrefixCache;
use crate::result::LookupResult;
use crate::tier::Tier;
use marconi_radix::{InsertOutcome, NodeId, Token};
use marconi_trace::{
    MissCause, PressureCause, StatCounters, TraceEvent, TraceTier, VictimAction, VictimRecord,
};

impl HybridPrefixCache {
    /// Emits a [`TraceEvent::Gauges`] telemetry snapshot (occupancy per
    /// tier, pinned nodes, cumulative counters) at virtual time `now`.
    /// Called automatically after every admission; serving layers may also
    /// call it on their own cadence. No-op while the tracer is disabled.
    pub fn emit_gauges(&self, now: f64) {
        self.tracer.emit(|| TraceEvent::Gauges {
            ts: now,
            cache: self.name.clone(),
            usage_bytes: self.usage(),
            host_usage_bytes: self.host_usage(),
            pinned_nodes: self.tree.pinned_count() as u64,
            counters: StatCounters {
                lookups: self.stats.lookups,
                hits: self.stats.hits,
                input_tokens: self.stats.input_tokens,
                hit_tokens: self.stats.hit_tokens,
                host_hit_tokens: self.stats.host_hit_tokens,
                evictions: self.stats.evictions,
                demotions: self.stats.demotions,
            },
        });
    }

    /// Emits the one cursor telemetry event a hinted operation produces
    /// (nothing for unhinted operations). Inside `emit(|| ...)` closures,
    /// so off stays free.
    pub(super) fn emit_cursor_outcome(&self, outcome: &HintOutcome, query_len: usize, now: f64) {
        match *outcome {
            HintOutcome::Cold => {}
            HintOutcome::Resumed { node, resumed_len } => {
                self.tracer.emit(|| TraceEvent::CursorResumed {
                    ts: now,
                    cache: self.name.clone(),
                    node: node.index() as u64,
                    resumed_len,
                    delta_tokens: query_len as u64 - resumed_len,
                });
            }
            HintOutcome::Fallback(cause) => {
                self.tracer.emit(|| TraceEvent::CursorFallback {
                    ts: now,
                    cache: self.name.clone(),
                    cause,
                });
            }
        }
    }

    /// Miss-attribution taxonomy for one resolved lookup: `None` for a
    /// clean full-length device hit, otherwise the dominant cause —
    /// a raw match forfeited by the SSM all-or-nothing rule, a prefix the
    /// miss ledger remembers deleting (capacity pressure, or squeezed out
    /// while other paths were pinned), a degraded host-tier hit, or plain
    /// cold.
    pub(super) fn classify_lookup(
        &self,
        input: &[Token],
        result: &LookupResult,
    ) -> Option<MissCause> {
        let input_len = input.len() as u64;
        if result.tokens_matched == input_len && result.host_tokens == 0 {
            return None;
        }
        if result.raw_matched > result.tokens_matched {
            return Some(MissCause::NeverCheckpointedSsm);
        }
        if let Some(cause) = self
            .miss_ledger
            .deepest_match(input, result.tokens_matched as usize)
        {
            return Some(cause);
        }
        if result.host_tokens > 0 {
            return Some(MissCause::DemotedHostHit);
        }
        if result.tokens_matched < input_len {
            return Some(MissCause::Cold);
        }
        None
    }

    /// Assembles the per-victim score breakdown for an eviction-episode
    /// event, from the victim's own inputs at the moment it was picked.
    pub(super) fn victim_record(&self, victim: NodeId, action: VictimAction) -> VictimRecord {
        let bytes = match action {
            VictimAction::Evicted => self.freed_bytes(victim),
            VictimAction::Demoted => self.node_bytes(victim),
        };
        VictimRecord {
            node: victim.index() as u64,
            depth: self.tree.depth(victim),
            last_access: self.last_access(victim),
            flop_efficiency: self.node_flop_efficiency(victim),
            bytes,
            action,
        }
    }

    /// Emits an [`TraceEvent::EdgeSplit`] if `outcome` split an edge.
    pub(super) fn emit_split(&self, outcome: &InsertOutcome, now: f64) {
        if let Some(mid) = outcome.split_node {
            self.tracer.emit(|| TraceEvent::EdgeSplit {
                ts: now,
                cache: self.name.clone(),
                node: mid.index() as u64,
                new_leaf: outcome.new_leaf.map(|l| l.index() as u64),
            });
        }
    }

    /// Emits one [`TraceEvent::EvictionEpisode`] for the victims an
    /// episode took (no-op for an empty episode).
    pub(super) fn emit_episode(
        &self,
        now: f64,
        tier: Tier,
        cause: PressureCause,
        pool_len: usize,
        victims: Vec<VictimRecord>,
    ) {
        if victims.is_empty() {
            return;
        }
        self.tracer.emit(|| TraceEvent::EvictionEpisode {
            ts: now,
            cache: self.name.clone(),
            tier: match tier {
                Tier::Device => TraceTier::Device,
                Tier::Host => TraceTier::Host,
            },
            cause,
            pool_len: pool_len as u64,
            alpha: self.effective_alpha,
            victims,
        });
    }
}
