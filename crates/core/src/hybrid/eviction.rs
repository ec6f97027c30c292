//! Victim selection and the pressure loop (paper §4.3).

use super::tiering::tier_bit;
use super::{CheckpointMode, HybridPrefixCache};
use crate::policy::{
    class_lower_edge, efficiency_class, pick_victim_banded, pick_victim_index, Candidate,
    EvictionPolicy,
};
use crate::result::AdmissionReport;
use crate::tier::Tier;
use marconi_radix::{recency_time, NodeId, TIER_BIT};
use marconi_trace::{Fingerprint, MissCause, PressureCause, TraceEvent, VictimAction};
use std::cell::Cell;

/// Where a pressure episode draws its victims from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The tree's candidate index — non-root nodes with ≤ 1 child, oldest
    /// first — restricted to one tier. Victims are demoted or deleted.
    Candidates(Tier),
    /// Every device-resident node that holds bytes, whatever its child
    /// count, in arena order: the demotion-only pass for device bytes
    /// stranded on branch nodes once the candidates have drained.
    DeviceFallback,
}

impl Source {
    /// The tier whose budget the episode enforces.
    fn tier(self) -> Tier {
        match self {
            Source::Candidates(tier) => tier,
            Source::DeviceFallback => Tier::Device,
        }
    }

    /// The episode's label in the trace.
    fn cause(self) -> PressureCause {
        match self {
            Source::Candidates(Tier::Device) => PressureCause::DeviceCapacity,
            Source::Candidates(Tier::Host) => PressureCause::HostCapacity,
            Source::DeviceFallback => PressureCause::DeviceFallback,
        }
    }
}

impl HybridPrefixCache {
    /// Bytes that evicting `id` would free: a leaf releases its edge KVs
    /// and checkpoint ([`node_bytes`](Self::node_bytes)); an intermediate
    /// node only its checkpoint (the child absorbs the edge KVs, §4.3).
    pub(super) fn freed_bytes(&self, id: NodeId) -> u64 {
        if self.tree.is_leaf(id) {
            self.node_bytes(id)
        } else if self.tree.data(id).has_ssm_state {
            self.charges().1
        } else {
            0
        }
    }

    /// FLOPs a hit at `id` saves relative to its parent, per byte freed by
    /// evicting `id` (infinite when eviction frees nothing).
    pub(super) fn node_flop_efficiency(&self, id: NodeId) -> f64 {
        let freed = self.freed_bytes(id);
        if freed == 0 {
            return f64::INFINITY;
        }
        let parent_depth = self
            .tree
            .parent(id)
            .map(|p| self.tree.depth(p))
            .unwrap_or(0);
        let delta =
            self.model.flops_saved(self.tree.depth(id)) - self.model.flops_saved(parent_depth);
        delta as f64 / freed as f64
    }

    /// Refreshes a node's GDSF priority `H = L + F·C/S` after an access.
    ///
    /// No-op unless the active policy is [`EvictionPolicy::Gdsf`]: the
    /// other policies never read `frequency`/`gdsf_priority`, so paying a
    /// parent lookup plus two FLOP evaluations per inserted node for them
    /// was pure overhead.
    pub(super) fn refresh_gdsf(&mut self, id: NodeId, bump_frequency: bool) {
        if !matches!(self.policy, EvictionPolicy::Gdsf) {
            return;
        }
        let cost_per_byte = self.node_flop_efficiency(id);
        let clock = self.gdsf_clock;
        let meta = self.tree.data_mut(id);
        if bump_frequency {
            meta.frequency = meta.frequency.saturating_add(1);
        } else if meta.frequency == 0 {
            meta.frequency = 1;
        }
        meta.gdsf_priority = clock + f64::from(meta.frequency) * cost_per_byte;
    }

    /// GDSF's victim order: minimum priority, ties toward older nodes, then
    /// lower ids — a strict total order, so the minimum is independent of
    /// iteration order.
    fn gdsf_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        let priority = |id| self.tree.data(id).gdsf_priority;
        priority(a)
            .total_cmp(&priority(b))
            .then(self.last_access(a).total_cmp(&self.last_access(b)))
            .then(a.cmp(&b))
    }

    /// Resolves memory pressure on both tiers.
    ///
    /// Phase 1 (*device pressure*): while device usage exceeds the device
    /// capacity, pick the lowest-utility device-resident candidate. With a
    /// host tier (`host_capacity > 0`) the victim is **demoted** — its
    /// whole state moves to host DRAM, the tree is untouched; without one
    /// (or for zero-byte structural nodes) it is deleted, so
    /// `host_capacity = 0` is byte-identical to the single-tier cache.
    ///
    /// Demotion of the ≤ 1-child candidates can strand device bytes: a
    /// branch node whose children were all *demoted* (not deleted) keeps
    /// its 2+ children forever, never becomes a candidate, and its edge
    /// KVs pin the device tier. Deletion never had this problem (removing
    /// leaves cascades candidacy up). Demotion, however — unlike deletion
    /// — is structurally safe for *any* node, so when the candidates drain
    /// with the device tier still over its (hard, physical) capacity, the
    /// same loop runs over [`Source::DeviceFallback`] and demotes the
    /// remaining device-resident nodes by the same score until it fits.
    /// Only reachable with a host tier (single-tier deletion always
    /// cascades down to fit), so its O(arena) scan never touches the
    /// single-tier path.
    ///
    /// Phase 2 (*host pressure*): while host usage exceeds the host budget,
    /// the same loop runs over the host-resident candidates and **deletes**
    /// them (host is the last tier). Deleting a host-resident intermediate
    /// node hands its edge to the absorbing child, re-homing those KVs on
    /// the child's tier. Host-resident nodes that grew extra children since
    /// demotion are not candidates (deleting a shared prefix is
    /// structurally impossible); when only those remain the host tier stays
    /// (softly) over budget until their descendants go.
    ///
    /// The phases repeat until both tiers fit or neither can make progress
    /// (a merge into a device child can push the device tier back over).
    ///
    /// There is one loop ([`tier_pressure`](Self::tier_pressure)) and one
    /// selector ([`pick`](Self::pick)), and the selector reads the tree's
    /// candidate index live for every victim — nothing is snapshotted, so
    /// nothing needs repair after a deletion promotes a parent or a
    /// demotion flips a tier. Every pick equals what re-collecting and
    /// re-scoring every candidate by arena scan would choose, which is
    /// exactly what debug builds re-derive next to it.
    pub(super) fn evict_until_fits(&mut self, report: &mut AdmissionReport) {
        #[cfg(debug_assertions)]
        self.assert_tier_accounting();
        loop {
            let work_before = self.stats.evictions + self.stats.demotions;
            self.tier_pressure(Source::Candidates(Tier::Device), report);
            if self.host_capacity > 0 {
                self.tier_pressure(Source::DeviceFallback, report);
                // In-flight pins are the one legitimate way the fallback
                // can come up short: pinned bytes are unreclaimable until
                // their requests complete, so the device tier spills over
                // its budget rather than corrupting an in-flight path
                // (graceful admit-while-over-budget, not a livelock — the
                // no-progress check below terminates the episode).
                debug_assert!(
                    !self.over(Tier::Device)
                        || self
                            .tree
                            .pinned_ids()
                            .any(|id| self.tier(id) == Tier::Device),
                    "every unpinned device byte is demotable, so the fallback must fit"
                );
            }
            self.tier_pressure(Source::Candidates(Tier::Host), report);
            let fits = !self.over(Tier::Device) && !self.over(Tier::Host);
            if fits || self.stats.evictions + self.stats.demotions == work_before {
                break;
            }
        }
    }

    /// `true` if `id` may be taken from `source` right now: resident on
    /// the source's tier, not protected by an in-flight pin, and — for the
    /// fallback — actually holding bytes to move.
    ///
    /// The tier condition is met by construction for the candidate index:
    /// the tier is the top bit of the band key, and a pick reads only its
    /// source tier's bands. So is the leaf-only ablation's: its tree files
    /// leaves alone
    /// ([`with_leaf_candidates`](marconi_radix::RadixTree::with_leaf_candidates)).
    /// Every read of the index therefore tests the pin alone
    /// ([`unpinned_or_skip`](Self::unpinned_or_skip)); this full test is
    /// for the arena, which the fallback and debug
    /// [`scan_pick`](Self::scan_pick) read.
    /// Pins are filtered here, at pick time, rather than by pulling pinned
    /// nodes out of the candidate index: the index
    /// is an ordered set, so a pin has no order to perturb, and leaving
    /// membership alone keeps `pin`/`unpin` free of two B-tree operations
    /// per single-child ancestor per request.
    fn eligible(&self, id: NodeId, source: Source) -> bool {
        self.tier(id) == source.tier()
            && !self.tree.is_pinned(id)
            && (source != Source::DeviceFallback || self.node_bytes(id) > 0)
    }

    /// The candidate index's filter: [`eligible`](Self::eligible) for an
    /// entry of the source tier's bands, which is on that tier by its band
    /// key (debug [`scan_pick`](Self::scan_pick) asserts it), so only the
    /// pin is left to test — one bit of the tree's pinned bitmap, no node
    /// read. Adds 1 to `skipped` for a pinned entry — what
    /// [`entries_skipped`](Self::entries_skipped) counts.
    fn unpinned_or_skip(&self, id: NodeId, skipped: &Cell<u64>) -> bool {
        let pinned = self.tree.pinned_bit(id);
        if pinned {
            skipped.set(skipped.get() + 1);
        }
        !pinned
    }

    /// How many nodes are [`eligible`](Self::eligible) for `source`: the
    /// pool a traced episode reports. With no pin in the tree every entry
    /// of the source tier's bands is eligible, so it is their summed
    /// lengths, O(bands); otherwise a count over the eligible nodes.
    fn pool_len(&self, source: Source) -> usize {
        match source {
            Source::Candidates(tier) if self.tree.pinned_count() == 0 => self
                .tree
                .tier_bands(tier_bit(tier))
                .map(|(_, band)| band.len())
                .sum(),
            _ => self.eligible_ids(source, &Cell::new(0)).count(),
        }
    }

    /// The nodes [`eligible`](Self::eligible) for `source` at the live tree
    /// state: the source tier's bands of the candidate index band by band,
    /// each in ascending `(stamp, id)` order, or the arena in slot order.
    /// Rejected index entries are added to `skipped`.
    fn eligible_ids<'a>(
        &'a self,
        source: Source,
        skipped: &'a Cell<u64>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let (index, arena) = match source {
            Source::Candidates(tier) => (
                Some(
                    self.tree
                        .tier_bands(tier_bit(tier))
                        .flat_map(|(_, band)| band),
                ),
                None,
            ),
            Source::DeviceFallback => (None, Some(self.tree.node_ids())),
        };
        index
            .into_iter()
            .flatten()
            .map(|(_, id)| id)
            .filter(move |&id| self.unpinned_or_skip(id, skipped))
            .chain(
                arena
                    .into_iter()
                    .flatten()
                    .filter(move |&id| self.eligible(id, source)),
            )
    }

    /// One pressure episode: while the source's tier is over budget, pick
    /// a victim and demote it (device tier, host tier present, bytes to
    /// move) or delete it. Zero-byte structural device nodes (no
    /// checkpoint, zero-width KVs) still merge away under tiering so the
    /// loop always progresses; host episodes (the last tier) always
    /// delete; fallback victims hold bytes by eligibility, so they are
    /// always demoted.
    fn tier_pressure(&mut self, source: Source, report: &mut AdmissionReport) {
        let tier = source.tier();
        if !self.over(tier) {
            return;
        }
        let mut episode = self
            .tracer
            .is_enabled()
            .then(|| (self.pool_len(source), Vec::new()));
        while self.over(tier) {
            let Some(victim) = self.pick(source) else {
                break;
            };
            let action =
                if tier == Tier::Device && self.host_capacity > 0 && self.node_bytes(victim) > 0 {
                    VictimAction::Demoted
                } else {
                    VictimAction::Evicted
                };
            if let Some((_, victims)) = episode.as_mut() {
                victims.push(self.victim_record(victim, action));
            }
            #[cfg(test)]
            self.eviction_log
                .push((action, self.tree.path_tokens(victim), victim));
            match action {
                VictimAction::Demoted => self.demote_victim(victim, report),
                VictimAction::Evicted => self.delete_victim(victim, report, tier),
            }
        }
        if let Some((pool_len, victims)) = episode {
            self.emit_episode(self.clock, tier, source.cause(), pool_len, victims);
        }
    }

    /// The victim selector: the lowest-utility node
    /// [`eligible`](Self::eligible) for `source` at the live tree state, or
    /// `None` when nothing is. Two arms over the candidate index:
    ///
    /// * GDSF — minimum `(H, last_access, id)` over the source, advancing
    ///   the inflation clock to the victim's priority;
    /// * everything else — `S(n) = recency + α · flop_efficiency` by the
    ///   exact banded walk (`pick_victim_banded`, which states the
    ///   argument). The tier is the top bit of the band key, so the walk
    ///   reads only the source tier's bands and never meets an entry of the
    ///   other tier. When `α ≠ 0` every candidate still in that tier's
    ///   band 0 is first filed under the band of its efficiency
    ///   ([`classify_candidates`](Self::classify_candidates)), so the tier
    ///   holds two oldest-first bands per efficiency octave; the walk takes
    ///   the stamp range from the band ends and the efficiency range from
    ///   the two extreme bands, then visits bands from least efficient up
    ///   and leaves each as soon as no later entry can score below the best
    ///   so far. Floating-point scoring is monotone in stamp and
    ///   efficiency, so the victim is the one a full pass would pick, bit
    ///   for bit, at O(bands + visited) per victim. At `α = 0` nothing is
    ///   ever classed, the tier's band 0 is all of its candidates and its
    ///   first eligible entry is the victim: O(log n + skipped), where
    ///   skipped counts only the pinned entries older than it
    ///   ([`entries_skipped`](Self::entries_skipped)). The walk reads no
    ///   node: an entry's recency is decoded from its stamp, its pin from
    ///   the tree's pinned bitmap and its efficiency from the
    ///   `filed_efficiency` column ([`banded_candidate`](Self::banded_candidate)).
    ///
    /// The fallback source is the arena, which has no bands and no recency
    /// order: there the same score is minimised by a full pass
    /// (`pick_victim_index`).
    fn pick(&mut self, source: Source) -> Option<NodeId> {
        let alpha = self.effective_alpha;
        let mut read = 0u64;
        let skipped = Cell::new(0);
        let victim = if matches!(self.policy, EvictionPolicy::Gdsf) {
            let victim = self
                .eligible_ids(source, &skipped)
                .inspect(|_| read += 1)
                .min_by(|&a, &b| self.gdsf_order(a, b));
            if let Some(v) = victim {
                let h = self.tree.data(v).gdsf_priority;
                if h.is_finite() {
                    self.gdsf_clock = self.gdsf_clock.max(h);
                }
            }
            victim
        } else if source == Source::DeviceFallback {
            let ids: Vec<NodeId> = self.eligible_ids(source, &skipped).collect();
            read += ids.len() as u64;
            let scored: Vec<Candidate<NodeId>> = ids
                .into_iter()
                .map(|id| Candidate {
                    id,
                    last_access: self.last_access(id),
                    flop_efficiency: self.node_flop_efficiency(id),
                })
                .collect();
            pick_victim_index(&scored, alpha).map(|i| scored[i].id)
        } else {
            let tier = tier_bit(source.tier());
            if alpha != 0.0 {
                self.classify_candidates(tier);
            }
            let (this, skipped) = (&*self, &skipped);
            let bands = this.tree.tier_bands(tier).map(move |(class, band)| {
                let candidates = band
                    .filter(move |&(_, id)| this.unpinned_or_skip(id, skipped))
                    .map(move |(stamp, id)| this.banded_candidate(stamp, id, alpha != 0.0));
                (class_lower_edge(class & !TIER_BIT), candidates)
            });
            pick_victim_banded(bands, alpha, &mut read)
        };
        self.candidates_scored += read;
        self.entries_skipped += skipped.get();
        #[cfg(debug_assertions)]
        assert_eq!(
            victim,
            self.scan_pick(source),
            "victim selection diverged from the index-free, column-free arena scan"
        );
        victim
    }

    /// An index entry `(stamp, id)` as the banded walk scores it, read
    /// without touching the node: `last_access` is the stamp decoded, as
    /// [`last_access`](Self::last_access) decodes it, and the efficiency is
    /// the one
    /// [`classify_candidates`](Self::classify_candidates) filed the node
    /// under, from the `filed_efficiency` column. `scored` is off at
    /// `α = 0`, where nothing need be classed and no efficiency is read.
    fn banded_candidate(&self, stamp: u64, id: NodeId, scored: bool) -> Candidate<NodeId> {
        let flop_efficiency = if scored {
            self.filed_efficiency[id.index()]
        } else {
            0.0
        };
        Candidate {
            id,
            last_access: recency_time(stamp),
            flop_efficiency,
        }
    }

    /// Files every still-unclassed candidate of one tier (`tier` is that
    /// tier's class bit, so its band 0 is class `tier`) under the band of
    /// its efficiency, so the scored walk finds the tier fully banded, and
    /// writes the efficiency to the node's slot of the `filed_efficiency`
    /// column, where the walk reads it. Band 0 of a tier holds exactly its
    /// candidates created or structurally changed since its last scored
    /// pick — the tree returns a node there on every change to its leaf
    /// status or edge length and [`checkpoint`](Self::checkpoint) does on
    /// a new SSM state, the two events that change a node's efficiency —
    /// so a classed node's column entry is always its live efficiency. A change of tier
    /// keeps the efficiency, so it keeps the class and the entry.
    fn classify_candidates(&mut self, tier: u16) {
        loop {
            let unclassed = self
                .tree
                .tier_bands(tier)
                .next()
                .filter(|&(class, _)| class == tier)
                .and_then(|(_, mut band)| band.next());
            let Some((_, id)) = unclassed else {
                break;
            };
            let efficiency = self.node_flop_efficiency(id);
            let slot = id.index();
            if slot >= self.filed_efficiency.len() {
                self.filed_efficiency
                    .resize(self.tree.arena_capacity(), f64::NAN);
            }
            self.filed_efficiency[slot] = efficiency;
            self.tree.set_class(id, tier | efficiency_class(efficiency));
        }
    }

    /// Debug-only cross-check of [`pick`](Self::pick): re-derives the
    /// victim from nothing but the arena — candidacy from each node's child
    /// count (no index), efficiencies from the model (no column), one
    /// policy switch. Also what keeps the bands and the column the walk
    /// reads instead of nodes honest: a candidate filed under a band its
    /// efficiency does not belong to fails the class assert, one filed
    /// under the other tier's bands fails the band-bit assert, and a
    /// classed node whose column entry is not its live efficiency fails
    /// the column assert. Recency has one home, the stamp, so there is no
    /// second copy to compare it with here; the differential harness
    /// checks it against the spec's own per-node times.
    #[cfg(debug_assertions)]
    fn scan_pick(&self, source: Source) -> Option<NodeId> {
        if let Source::Candidates(tier) = source {
            // The walk read the tier's bands alone: they must hold every
            // candidate of the tier and nothing else.
            let mut filed = 0usize;
            for (class, band) in self.tree.tier_bands(tier_bit(tier)) {
                for (_, id) in band {
                    assert_eq!(
                        self.tier(id),
                        tier,
                        "invariant: a candidate's band bit equals its tier ({id} in band {class:#x})"
                    );
                    filed += 1;
                }
            }
            let resident = self
                .tree
                .node_ids()
                .filter(|&id| self.tree.is_candidate(id) && self.tier(id) == tier)
                .count();
            assert_eq!(
                filed, resident,
                "invariant: every {tier} candidate is filed under the {tier} bands"
            );
        }
        let ids = self.tree.node_ids().filter(|&id| {
            (self.tree.is_candidate(id) || source == Source::DeviceFallback)
                && self.eligible(id, source)
        });
        if matches!(self.policy, EvictionPolicy::Gdsf) {
            return ids.min_by(|&a, &b| self.gdsf_order(a, b));
        }
        let candidates: Vec<Candidate<NodeId>> = ids
            .map(|id| {
                let flop_efficiency = self.node_flop_efficiency(id);
                let class = self.tree.class(id) & !TIER_BIT;
                if class != 0 {
                    assert!(
                        class == efficiency_class(flop_efficiency),
                        "invariant: a classed candidate sits in the band of its efficiency \
                         ({id}: class {class}, lower edge {}, efficiency {flop_efficiency})",
                        class_lower_edge(class)
                    );
                    assert_eq!(
                        self.filed_efficiency.get(id.index()).map(|e| e.to_bits()),
                        Some(flop_efficiency.to_bits()),
                        "invariant: the efficiency column holds a classed node's efficiency ({id})"
                    );
                }
                Candidate {
                    id,
                    last_access: self.last_access(id),
                    flop_efficiency,
                }
            })
            .collect();
        pick_victim_index(&candidates, self.effective_alpha).map(|i| candidates[i].id)
    }

    /// Deletes `victim` from `tier`: removes it from the tree (a leaf
    /// victim's parent may thereby become a candidate — the tree's index
    /// picks that up; a merge victim changes no candidacies), updates the
    /// cross-tier accounting, and books the eviction — unless the victim is
    /// a [`CheckpointMode::EveryBlock`] node without a checkpoint, a split
    /// point that is no block and frees nothing. The one deletion body both
    /// pressure phases share, so their victim handling can never drift.
    fn delete_victim(&mut self, victim: NodeId, report: &mut AdmissionReport, tier: Tier) {
        let freed = self.freed_bytes(victim);
        let victim_edge = self.tree.edge_len(victim);
        if self.tracer.is_enabled() {
            // Ledger first, while the path still exists: a later
            // short-matching lookup turns this entry into its attribution.
            // Stream the path's fingerprint edge-by-edge — materializing
            // the token vector per victim dominates recording cost.
            let mut chain = Vec::new();
            let mut cur = Some(victim);
            while let Some(c) = cur {
                chain.push(c);
                cur = self.tree.parent(c);
            }
            let mut fp = Fingerprint::new();
            for &id in chain.iter().rev() {
                for part in self.tree.edge_parts(id) {
                    fp.update(part);
                }
            }
            let cause = if self.tree.pinned_count() > 0 {
                MissCause::PinnedBystander
            } else {
                MissCause::CapacityEvicted
            };
            self.miss_ledger
                .record_fingerprint(fp.finish(), fp.len(), cause);
        }
        let removed = self
            .tree
            .remove(victim)
            .expect("invariant: eviction candidates are unpinned leaves, hence removable");
        if let Some(child) = removed.merged_into {
            let victim_id = victim.index() as u64;
            self.tracer.emit(|| TraceEvent::EdgeMerge {
                ts: self.clock,
                cache: self.name.clone(),
                removed: victim_id,
                merged_into: child.index() as u64,
            });
        }
        self.apply_removed_accounting(victim_edge, &removed, tier);
        if removed.data.has_ssm_state {
            self.ssm_states -= 1;
        } else if let CheckpointMode::EveryBlock { .. } = self.checkpoint_mode {
            return;
        }
        self.stats.evictions += 1;
        self.stats.bytes_evicted += freed;
        if tier == Tier::Host {
            self.stats.host_evictions += 1;
            self.stats.bytes_host_evicted += freed;
        }
        report.entries_evicted += 1;
        report.bytes_evicted += freed;
    }
}
