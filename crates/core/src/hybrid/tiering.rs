//! Residency on the device and host tiers: what each tier holds, demotion,
//! promotion on admission, and the host-tier share of a hit.

use super::{HybridPrefixCache, NodeMeta};
use crate::result::AdmissionReport;
use crate::tier::Tier;
use marconi_radix::{NodeId, PrefixMatch, Removed, TIER_BIT};

/// The class bit that files a node under `tier`'s bands of the candidate
/// index.
pub(super) fn tier_bit(tier: Tier) -> u16 {
    match tier {
        Tier::Device => 0,
        Tier::Host => TIER_BIT,
    }
}

impl HybridPrefixCache {
    /// Device-resident bytes (the quantity the device capacity bounds).
    /// With `host_capacity = 0` no node is ever host-resident, so this is
    /// exactly the pre-tiering total.
    pub(super) fn usage(&self) -> u64 {
        (self.tree.token_count() - self.host_tokens) * self.model.kv_bytes_per_token()
            + (self.ssm_states - self.host_ssm_states) * self.model.ssm_checkpoint_bytes()
    }

    /// Host-resident bytes (the quantity the host capacity bounds).
    pub(super) fn host_usage(&self) -> u64 {
        self.host_tokens * self.model.kv_bytes_per_token()
            + self.host_ssm_states * self.model.ssm_checkpoint_bytes()
    }

    /// Bytes a node's state occupies on its tier: its edge KVs plus its
    /// checkpoint. (Unlike [`freed_bytes`](Self::freed_bytes) this counts
    /// the edge KVs of intermediate nodes too — demotion moves the whole
    /// node's state, whereas deletion hands intermediate edges to the
    /// child.)
    pub(super) fn node_bytes(&self, id: NodeId) -> u64 {
        let ssm = if self.tree.data(id).has_ssm_state {
            self.model.ssm_checkpoint_bytes()
        } else {
            0
        };
        self.tree.edge_len(id) * self.model.kv_bytes_per_token() + ssm
    }

    /// Where `id`'s state (edge KVs + checkpoint) physically lives: the
    /// tier bit of its class in the tree, the one place residency is
    /// stored. Demotion sets it; re-insertion through the node clears it;
    /// the tree keeps it across every structure change and copies it to
    /// the new node of an edge split. Always [`Tier::Device`] when
    /// `host_capacity = 0`.
    pub(super) fn tier(&self, id: NodeId) -> Tier {
        if self.tree.class(id) & TIER_BIT == 0 {
            Tier::Device
        } else {
            Tier::Host
        }
    }

    /// Moves `id` to `tier`'s bands of the candidate index (one O(log n)
    /// re-key), keeping its efficiency class: efficiency does not depend
    /// on residency.
    fn set_tier(&mut self, id: NodeId, tier: Tier) {
        let class = self.tree.class(id);
        self.tree
            .set_class(id, (class & !TIER_BIT) | tier_bit(tier));
    }

    /// Moves a device-resident node's state to the host tier; returns the
    /// bytes moved. Tree structure (and therefore every memoized score) is
    /// untouched — only residency accounting and the node's band change.
    fn demote(&mut self, id: NodeId) -> u64 {
        debug_assert_eq!(self.tier(id), Tier::Device, "double demotion of {id}");
        let bytes = self.node_bytes(id);
        self.host_tokens += self.tree.edge_len(id);
        if self.tree.data(id).has_ssm_state {
            self.host_ssm_states += 1;
        }
        self.set_tier(id, Tier::Host);
        bytes
    }

    /// Promotes every host-resident node on the path ending at `end` back
    /// to the device tier. Called after admission with the admitted
    /// sequence's end node: prefilling (or reloading) the sequence
    /// materialized those states on the device, so the path is
    /// device-resident again and the following pressure episode re-decides
    /// what to demote. Walks the parent chain (O(path nodes)) rather than
    /// re-matching from the root (O(prompt tokens)) — the node set is
    /// identical because the admitted sequence's fully-matched path *is*
    /// the end node's root path. No-op on a host-empty cache — in
    /// particular, byte-identical behavior when `host_capacity = 0`.
    /// Returns the tokens whose state moved host → device (trace
    /// telemetry only).
    pub(super) fn promote_resident_path(&mut self, end: Option<NodeId>) -> u64 {
        if self.host_tokens == 0 {
            return 0;
        }
        let Some(end) = end else {
            return 0;
        };
        let mut promoted = 0u64;
        let mut cur = end;
        // The loop visits every node on the path except the root (which
        // carries no edge or payload).
        while let Some(parent) = self.tree.parent(cur) {
            if self.tier(cur) == Tier::Host {
                let edge = self.tree.edge_len(cur);
                self.host_tokens -= edge;
                promoted += edge;
                if self.tree.data(cur).has_ssm_state {
                    self.host_ssm_states -= 1;
                }
                self.set_tier(cur, Tier::Device);
            }
            cur = parent;
        }
        promoted
    }

    /// Host-resident share of a hit of `tokens_matched` tokens along `m`:
    /// `(host tokens, bytes to transfer, FLOPs to recompute)`.
    ///
    /// Walks the matched nodes once, up from the deepest by parent
    /// pointers; each host-tier node within the hit contributes its
    /// edge KV bytes and its span's incremental prefill FLOPs, and the hit
    /// node's SSM checkpoint contributes its bytes when host-resident. The
    /// recompute arm is idealized roll-forward accounting: a span `[a, b)`
    /// costs `prefill_flops(b) − prefill_flops(a)`, exact for attention KVs
    /// and an optimistic bound for interior SSM spans (demotion targets
    /// ≤ 1-child chains, so host spans are suffixes of the matched path in
    /// practice).
    pub(super) fn host_share(&self, m: &PrefixMatch, tokens_matched: u64) -> (u64, u64, u128) {
        if self.host_tokens == 0 || tokens_matched == 0 {
            return (0, 0, 0);
        }
        let kv = self.model.kv_bytes_per_token();
        let mut h_tokens = 0u64;
        let mut h_bytes = 0u64;
        let mut h_flops = 0u128;
        for id in self.matched_nodes(m) {
            let depth = self.tree.depth(id);
            if depth > tokens_matched {
                continue;
            }
            if self.tier(id) == Tier::Host {
                let edge = self.tree.edge_len(id);
                h_tokens += edge;
                h_bytes += edge * kv;
                h_flops += self.model.prefill_flops(depth).total()
                    - self.model.prefill_flops(depth - edge).total();
                if self.tree.data(id).has_ssm_state
                    && depth == tokens_matched
                    && self.model.has_ssm()
                {
                    h_bytes += self.model.ssm_checkpoint_bytes();
                }
            }
        }
        // A pure-Transformer match may end inside an edge: the partial
        // tokens live in the containing child.
        if let Some(child) = m.mid_edge_child {
            let start = self.tree.depth(child) - self.tree.edge_len(child);
            if tokens_matched > start && self.tier(child) == Tier::Host {
                let part = tokens_matched - start;
                h_tokens += part;
                h_bytes += part * kv;
                h_flops += self.model.prefill_flops(tokens_matched).total()
                    - self.model.prefill_flops(start).total();
            }
        }
        (h_tokens, h_bytes, h_flops)
    }

    /// Debug/test-only: the incremental host counters must equal a
    /// from-scratch recount over every node whose class carries the host
    /// tier bit — so a demotion or promotion that skipped its re-key, or a
    /// tree that dropped the bit, drifts here.
    #[cfg(any(debug_assertions, test))]
    pub(super) fn assert_tier_accounting(&self) {
        let mut tokens = 0u64;
        let mut ssm = 0u64;
        for id in self.tree.node_ids() {
            if self.tree.class(id) & TIER_BIT != 0 {
                tokens += self.tree.edge_len(id);
                ssm += u64::from(self.tree.data(id).has_ssm_state);
            }
        }
        assert_eq!(tokens, self.host_tokens, "host_tokens drift");
        assert_eq!(ssm, self.host_ssm_states, "host_ssm_states drift");
    }

    /// `true` while `tier` holds more bytes than its budget.
    pub(super) fn over(&self, tier: Tier) -> bool {
        match tier {
            Tier::Device => self.usage() > self.capacity,
            Tier::Host => self.host_usage() > self.host_capacity,
        }
    }

    /// Demotes `victim` and records the move in stats and the admission
    /// report.
    pub(super) fn demote_victim(&mut self, victim: NodeId, report: &mut AdmissionReport) {
        let moved = self.demote(victim);
        self.stats.demotions += 1;
        self.stats.bytes_demoted += moved;
        report.entries_demoted += 1;
        report.bytes_demoted += moved;
    }

    /// Updates the host counters for a `victim_edge`-token node removed
    /// from `tier`. A leaf's edge leaves the tree; a merged intermediate's
    /// edge is absorbed by the child and re-homed on the *child's* tier
    /// (the cross-tier flow that can push the device tier back over
    /// capacity and re-trigger phase 1).
    pub(super) fn apply_removed_accounting(
        &mut self,
        victim_edge: u64,
        removed: &Removed<NodeMeta>,
        tier: Tier,
    ) {
        match tier {
            Tier::Device => {
                // A device leaf's tokens were device-resident; only a merge
                // into a host-resident child moves tokens across tiers.
                if let Some(child) = removed.merged_into {
                    if self.tier(child) == Tier::Host {
                        self.host_tokens += victim_edge;
                    }
                }
            }
            Tier::Host => {
                if removed.data.has_ssm_state {
                    self.host_ssm_states -= 1;
                }
                match removed.merged_into {
                    // Host leaf deleted outright.
                    None => self.host_tokens -= victim_edge,
                    Some(child) => {
                        if self.tier(child) == Tier::Device {
                            // The absorbed edge re-homes on the device
                            // child.
                            self.host_tokens -= victim_edge;
                        }
                    }
                }
            }
        }
    }
}
