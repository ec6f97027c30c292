//! Differential harness: cursor-resumed walks vs root walks.
//!
//! PR 8's harness replayed op streams through the arena engine and the
//! verbatim pre-refactor oracle; after two parity-holding PRs the oracle
//! was retired (ROADMAP item 4) and the harness now guards the session
//! fast path instead. Two arena trees replay an identical op stream: the
//! *hinted* side resumes matches/inserts/speculations from
//! [`MatchCursor`]s wherever one is available (falling back to the root
//! walk exactly as `marconi-core` does when validation rejects), the
//! *plain* side always walks from the root. Because the hinted path must
//! be byte-identical to the unhinted one, every op outcome and the full
//! observable state — ids included, since identical histories allocate
//! identical arena slots — must stay equal after every op. The op-stream
//! profiles also check, after every op, that each node live both before
//! and after it kept its depth and root path: the one fact a cursor's
//! validation rests on (`docs/session-fastpath.md`).
//!
//! The harness itself is validated by seeded-mutation self-tests:
//! [`RadixTree::debug_set_split_off_by_one`] injects an off-by-one into
//! the hinted side's edge splitting,
//! [`RadixTree::debug_set_seam_short`] makes its compares stop one token
//! short of a label seam, and [`RadixTree::debug_set_page_count_short`]
//! lowers a page's live count one token short on every release; the
//! harness must (and does) catch each — while the same streams pass with
//! the faults off.

use marconi_radix::{
    CursorFault, InsertOutcome, MatchCursor, NodeId, PrefixMatch, RadixTree, Resumed, Token,
};
use proptest::prelude::*;
use std::cell::Cell;

/// Per-node payload: distinguishable values prove payloads ride along
/// correctly through splits, merges, and slot reuse.
type Payload = u32;

/// Tokens per store page (mirrors the engine's private constant; the
/// store bound it enters is part of the engine's documented contract).
const PAGE_TOKENS: usize = 1024;

/// One operation replayed against both sides.
#[derive(Debug, Clone)]
enum Op {
    /// Root `insert(seq)` on both; outcomes compared field-by-field.
    Insert(Vec<Token>),
    /// Extend the `k % tracked`-th tracked sequence by `suffix` and insert:
    /// the hinted side resumes from the tracked cursor (root-walk fallback
    /// on any fault), the plain side walks from the root.
    Extend(u32, Vec<Token>),
    /// Match the `k % tracked`-th tracked sequence extended by `suffix`:
    /// resumed vs root walk, results compared structurally.
    MatchExtend(u32, Vec<Token>),
    /// Speculate the same extension: resumed vs root walk, non-mutating.
    SpeculateExtend(u32, Vec<Token>),
    /// The admission shape, validated once: resume the `k % tracked`-th
    /// cursor against `input = tracked ‖ suffix`, then from that one
    /// [`Resumed`] point match `input`, insert a checkpoint-length prefix
    /// (shorter than, equal to or longer than the resume depth, picked by
    /// `ck`) and insert `input ‖ output`. A prefix shorter than the depth
    /// root-walks, and may split the resume node's own edge before the
    /// main insert reuses the point.
    Admit(u32, Vec<Token>, Vec<Token>, u32),
    /// Match `tracked ‖ suffix` (resumed when the cursor validates), then
    /// anchor the branch checkpoint and the `input ‖ output` insert at the
    /// match's deepest fully-matched node, as `marconi-core` admits.
    AnchoredInsert(u32, Vec<Token>, Vec<Token>),
    /// `match_prefix(seq)` from the root on both; must not mutate.
    Match(Vec<Token>),
    /// Remove the `k % live`-th live non-root node on both sides.
    Remove(u32),
    /// Pin the `k % live`-th live non-root node on both sides.
    Pin(u32),
    /// Unpin the most recently pinned still-held node.
    Unpin,
    /// `touch(id, stamp)` on both sides.
    Touch(u32, u64),
    /// Remove the `k % n`-th live unpinned single-child node whose child's
    /// label already has several ranges (any single-child node when none
    /// has), so a merged label is merged again.
    ChainMerge(u32),
    /// Insert the root path of the `k % n`-th chained node cut `delta`
    /// tokens past one of its label's seams (−1, 0 or +1), then `fresh`:
    /// an edge split exactly on a seam or one token to either side.
    SeamSplit(u32, i8, Token),
    /// Take a fresh cursor at the `k % n`-th chained node and track it, so
    /// later extension ops resume onto a chained edge; first check, on
    /// both sides, that it resumes against its own root path and that a
    /// path changed at a seam token is [`CursorFault::EdgeDivergence`].
    ResumeChained(u32),
}

/// The fault the hinted side runs with, for the harness's self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    SplitOffByOne,
    SeamShort,
    PageCountShort,
}

/// Returns `Err` on the first observable divergence.
macro_rules! check {
    ($label:expr, $hinted:expr, $plain:expr) => {
        let h_v = $hinted;
        let p_v = $plain;
        if h_v != p_v {
            return Err(format!(
                "{}: hinted side = {:?}, plain side = {:?}",
                $label, h_v, p_v
            ));
        }
    };
}

/// Both sides plus the harness's cursor-tracking state.
struct Pair {
    hinted: RadixTree<Payload>,
    plain: RadixTree<Payload>,
    /// Tracked `(sequence, cursor)` pairs on the hinted side; cursors may
    /// go stale (eviction, splits) — resumption then falls back, which is
    /// itself part of the contract under test.
    tracked: Vec<(Vec<Token>, MatchCursor)>,
    /// Pinned ids, released LIFO by [`Op::Unpin`] (same id both sides).
    pins: Vec<NodeId>,
    /// Ids of removed nodes: generation tags must keep reporting them dead.
    dead: Vec<NodeId>,
    /// Monotone payload tag written to each insert's end node.
    next_payload: Payload,
    /// Monotone stamp fallback so `Touch` ops always move recency forward.
    next_stamp: u64,
    /// Observed resumes/fallbacks, asserted >0 by the stream profiles so
    /// the suite can't silently stop exercising the fast path.
    resumes: u64,
    fallbacks: u64,
    /// Coverage of the chain ops, asserted by the store-churn profile.
    chains: ChainCoverage,
    /// Seams of labels one insert wrote across pages that are not
    /// neighbours, as `(node, root depth)`: page boundaries, all of them.
    page_seams: Vec<(NodeId, usize)>,
    /// The largest `live + 2 × PAGE_TOKENS × live ranges` after any op:
    /// what the store bound allows.
    store_bound: Cell<usize>,
}

/// What the chain ops reached, so a profile can assert they did.
#[derive(Debug, Default)]
struct ChainCoverage {
    /// Most ranges seen on one label.
    max_ranges: usize,
    /// Splits made on a seam's position −1, 0 and +1.
    seam_splits: [u64; 3],
    /// Cursors resumed against a chained label's own path.
    chained_resumes: u64,
    /// Inserts whose label landed on recycled pages as a chain.
    paged_labels: u64,
    /// Of `seam_splits`, the ones on a page boundary.
    page_seam_splits: [u64; 3],
    /// Of `chained_resumes`, the ones onto a label with a page seam.
    paged_resumes: u64,
}

impl Pair {
    fn new(fault: Fault) -> Self {
        let mut hinted = RadixTree::new();
        hinted.debug_set_split_off_by_one(fault == Fault::SplitOffByOne);
        hinted.debug_set_seam_short(fault == Fault::SeamShort);
        hinted.debug_set_page_count_short(fault == Fault::PageCountShort);
        Pair {
            hinted,
            plain: RadixTree::new(),
            tracked: Vec::new(),
            pins: Vec::new(),
            dead: Vec::new(),
            next_payload: 1,
            next_stamp: 1,
            resumes: 0,
            fallbacks: 0,
            chains: ChainCoverage::default(),
            page_seams: Vec::new(),
            store_bound: Cell::new(0),
        }
    }

    /// Whether `id`'s label has a seam at root depth `seam` that an insert
    /// made on a page boundary.
    fn is_page_seam(&self, id: NodeId, seam: usize) -> bool {
        self.page_seams.contains(&(id, seam))
    }

    /// Live nodes whose label is more than one store range, by index.
    fn chained(&self) -> Vec<NodeId> {
        self.live_ids()
            .into_iter()
            .filter(|&id| self.hinted.edge_parts(id).nth(1).is_some())
            .collect()
    }

    /// Root depths at which `id`'s label passes from one range to the next.
    fn seams(&self, id: NodeId) -> Vec<usize> {
        let mut at = (self.hinted.depth(id) - self.hinted.edge_len(id)) as usize;
        let mut parts = self.hinted.edge_parts(id).peekable();
        let mut seams = Vec::new();
        while let Some(part) = parts.next() {
            at += part.len();
            if parts.peek().is_some() {
                seams.push(at);
            }
        }
        seams
    }

    /// Tracks `cur` for `seq`, replacing slot `k % 64` once 64 are tracked.
    fn track(&mut self, k: usize, seq: Vec<Token>, cur: MatchCursor) {
        if self.tracked.len() < 64 {
            self.tracked.push((seq, cur));
        } else {
            self.tracked[k % 64] = (seq, cur);
        }
    }

    /// Live non-root ids, ascending by arena index (identical on both
    /// sides as long as the engines agree, which `check_state` enforces).
    fn live_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.hinted.node_ids().collect();
        v.sort_unstable_by_key(|id| id.index());
        v
    }

    /// The extended sequence for extension ops, or a plain copy of
    /// `suffix` when nothing is tracked yet.
    fn extended(&self, k: u32, suffix: &[Token]) -> (Option<MatchCursor>, Vec<Token>) {
        if self.tracked.is_empty() {
            return (None, suffix.to_vec());
        }
        let (base, cur) = &self.tracked[k as usize % self.tracked.len()];
        let mut seq = base.clone();
        seq.extend_from_slice(suffix);
        (Some(*cur), seq)
    }

    fn do_insert(&mut self, hint: Option<MatchCursor>, seq: &[Token]) -> Result<(), String> {
        let h = match hint.and_then(|c| {
            self.hinted
                .insert_parts_from(&c, seq, &[])
                .inspect(|_| self.resumes += 1)
                .inspect_err(|_| self.fallbacks += 1)
                .ok()
        }) {
            Some(outcome) => outcome,
            None => self.hinted.insert(seq),
        };
        let p = self.plain.insert(seq);
        self.record_insert(&h, &p, seq)
    }

    /// Compares one insert's outcomes, tags the end node, and tracks a
    /// cursor at it for `seq`.
    fn record_insert(
        &mut self,
        h: &InsertOutcome,
        p: &InsertOutcome,
        seq: &[Token],
    ) -> Result<(), String> {
        check!("insert outcome", h, p);
        if let Some(leaf) = h.new_leaf {
            let seams = self.seams(leaf);
            self.chains.paged_labels += u64::from(!seams.is_empty());
            self.page_seams
                .extend(seams.into_iter().map(|at| (leaf, at)));
        }
        // Tag the end node so payloads are distinguishable when the state
        // check compares them across splits and slot reuse.
        *self.hinted.data_mut(h.end_node) = self.next_payload;
        *self.plain.data_mut(p.end_node) = self.next_payload;
        self.next_payload += 1;
        if let Some(cur) = self.hinted.cursor_at(h.end_node) {
            self.track(self.next_payload as usize, seq.to_vec(), cur);
        }
        Ok(())
    }

    /// Inserts `head ‖ tail` on both sides, the hinted one walking from
    /// `at` when given, then records it like any insert.
    fn insert_from_point(
        &mut self,
        at: Option<Resumed>,
        head: &[Token],
        tail: &[Token],
    ) -> Result<(), String> {
        let h = match at {
            Some(at) => self.hinted.insert_parts_at(&at, head, tail),
            None => self.hinted.insert_parts(head, tail),
        };
        let p = self.plain.insert_parts(head, tail);
        let seq: Vec<Token> = head.iter().chain(tail).copied().collect();
        self.record_insert(&h, &p, &seq)
    }

    /// Validates `hint` against `seq` once, counting the outcome.
    fn resume_once(&mut self, hint: Option<MatchCursor>, seq: &[Token]) -> Option<Resumed> {
        let c = hint?;
        self.hinted
            .resume(&c, seq)
            .inspect(|_| self.resumes += 1)
            .inspect_err(|_| self.fallbacks += 1)
            .ok()
    }

    /// `match_prefix(seq)` on both sides, the hinted one from `at`.
    fn match_from_point(&self, at: Option<Resumed>, seq: &[Token]) -> Result<PrefixMatch, String> {
        let h = match at {
            Some(at) => self.hinted.match_prefix_at(&at, seq),
            None => self.hinted.match_prefix(seq),
        };
        let p = self.plain.match_prefix(seq);
        check!("match from a resume point", &h, &p);
        Ok(h)
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Insert(seq) => {
                let seq = seq.clone();
                self.do_insert(None, &seq)?;
            }
            Op::Extend(k, suffix) => {
                let (hint, seq) = self.extended(*k, suffix);
                self.do_insert(hint, &seq)?;
            }
            Op::MatchExtend(k, suffix) => {
                let (hint, seq) = self.extended(*k, suffix);
                let h = match hint.and_then(|c| {
                    self.hinted
                        .match_prefix_from(&c, &seq)
                        .inspect(|_| self.resumes += 1)
                        .inspect_err(|_| self.fallbacks += 1)
                        .ok()
                }) {
                    Some(m) => m,
                    None => self.hinted.match_prefix(&seq),
                };
                let p = self.plain.match_prefix(&seq);
                check!("resumed match", &h, &p);
            }
            Op::SpeculateExtend(k, suffix) => {
                let (hint, seq) = self.extended(*k, suffix);
                let h = match hint.and_then(|c| self.hinted.speculate_insert_from(&c, &seq).ok()) {
                    Some(s) => s,
                    None => self.hinted.speculate_insert(&seq),
                };
                let p = self.plain.speculate_insert(&seq);
                check!("resumed speculation", h, p);
            }
            Op::Admit(k, suffix, output, ck) => {
                let (hint, input) = self.extended(*k, suffix);
                let at = self.resume_once(hint, &input);
                self.match_from_point(at, &input)?;
                let depth = at.map_or(0, |a| a.depth() as usize);
                let r = (*ck / 3) as usize;
                let ck_len = match ck % 3 {
                    0 => depth.saturating_sub(1 + r),
                    1 => depth,
                    _ => (depth + 1 + r).min(input.len()),
                };
                if ck_len > 0 {
                    // Only a prefix at least as deep as the point may start
                    // there; a shorter one root-walks, as the cache does.
                    let ck_at = at.filter(|a| a.depth() as usize <= ck_len);
                    self.insert_from_point(ck_at, &input[..ck_len], &[])?;
                    self.check_state()?;
                }
                self.insert_from_point(at, &input, output)?;
            }
            Op::AnchoredInsert(k, suffix, output) => {
                let (hint, input) = self.extended(*k, suffix);
                let at = self.resume_once(hint, &input);
                let m = self.match_from_point(at, &input)?;
                let deepest = m.resume_point();
                if let Some(branch) = m.speculation().creates_branch_at {
                    self.insert_from_point(Some(deepest), &input[..branch as usize], &[])?;
                    self.check_state()?;
                }
                self.insert_from_point(Some(deepest), &input, output)?;
            }
            Op::Match(seq) => {
                let h = self.hinted.match_prefix(seq);
                let p = self.plain.match_prefix(seq);
                check!("root match", &h, &p);
            }
            Op::Remove(k) => {
                let live = self.live_ids();
                if live.is_empty() {
                    return Ok(());
                }
                let id = live[*k as usize % live.len()];
                let h = self.hinted.remove(id);
                let p = self.plain.remove(id);
                check!("remove outcome", format!("{h:?}"), format!("{p:?}"));
                if h.is_ok() {
                    self.dead.push(id);
                }
            }
            Op::Pin(k) => {
                let live = self.live_ids();
                if live.is_empty() {
                    return Ok(());
                }
                let id = live[*k as usize % live.len()];
                self.hinted.pin(id);
                self.plain.pin(id);
                self.pins.push(id);
            }
            Op::Unpin => {
                if let Some(id) = self.pins.pop() {
                    self.hinted.unpin(id);
                    self.plain.unpin(id);
                }
            }
            Op::Touch(k, stamp) => {
                let live = self.live_ids();
                if live.is_empty() {
                    return Ok(());
                }
                let id = live[*k as usize % live.len()];
                // Mix a monotone component in so repeated touches keep
                // re-keying the recency index rather than hitting the
                // equal-stamp fast path every time.
                self.hinted.touch(id, stamp + self.next_stamp);
                self.plain.touch(id, stamp + self.next_stamp);
                self.next_stamp += 1;
            }
            Op::ChainMerge(k) => {
                let merging: Vec<NodeId> = self
                    .live_ids()
                    .into_iter()
                    .filter(|&id| self.hinted.child_count(id) == 1 && !self.hinted.is_pinned(id))
                    .collect();
                let onto_chain: Vec<NodeId> = merging
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let child = self.hinted.children(id).next().expect("one child");
                        self.hinted.edge_parts(child).nth(1).is_some()
                    })
                    .collect();
                let pool = if onto_chain.is_empty() {
                    merging
                } else {
                    onto_chain
                };
                if pool.is_empty() {
                    return self.check_state();
                }
                let id = pool[*k as usize % pool.len()];
                let h = self.hinted.remove(id);
                let p = self.plain.remove(id);
                check!("chain merge", format!("{h:?}"), format!("{p:?}"));
                self.dead.push(id);
                let child = h.map_err(|e| e.to_string())?.merged_into;
                let ranges = child.map_or(0, |c| self.hinted.edge_parts(c).count());
                self.chains.max_ranges = self.chains.max_ranges.max(ranges);
            }
            Op::SeamSplit(k, delta, fresh) => {
                let chained = self.chained();
                if chained.is_empty() {
                    return self.check_state();
                }
                let id = chained[*k as usize % chained.len()];
                let seams = self.seams(id);
                let seam = seams[(*k as usize / chained.len()) % seams.len()];
                let cut = seam
                    .checked_add_signed(isize::from(*delta))
                    .expect("seams are deeper than 0");
                let mut seq = self.hinted.path_tokens(id);
                seq.truncate(cut);
                seq.push(*fresh);
                let h = self.hinted.insert(&seq);
                let p = self.plain.insert(&seq);
                if h.split_node
                    .is_some_and(|mid| self.hinted.depth(mid) == cut as u64)
                {
                    self.chains.seam_splits[(*delta + 1) as usize] += 1;
                    if self.is_page_seam(id, seam) {
                        self.chains.page_seam_splits[(*delta + 1) as usize] += 1;
                    }
                }
                self.record_insert(&h, &p, &seq)?;
            }
            Op::ResumeChained(k) => {
                let chained = self.chained();
                if chained.is_empty() {
                    return self.check_state();
                }
                let id = chained[*k as usize % chained.len()];
                let path = self.hinted.path_tokens(id);
                let (h_cur, p_cur) = (
                    self.hinted.cursor_at(id).expect("live"),
                    self.plain.cursor_at(id).expect("live"),
                );
                let resumed =
                    |t: &RadixTree<Payload>, c, q: &[Token]| t.resume(c, q).map(|at| at.node());
                check!(
                    "resume on a chained edge",
                    resumed(&self.hinted, &h_cur, &path),
                    resumed(&self.plain, &p_cur, &path)
                );
                for seam in self.seams(id) {
                    // The first token past the seam, and the last before it.
                    for at in [seam, seam - 1] {
                        let mut q = path.clone();
                        q[at] = q[at].wrapping_add(1);
                        let h = resumed(&self.hinted, &h_cur, &q);
                        check!(
                            "resume diverging at a seam",
                            h,
                            resumed(&self.plain, &p_cur, &q)
                        );
                        check!("seam divergence fault", h, Err(CursorFault::EdgeDivergence));
                    }
                }
                self.chains.chained_resumes += 1;
                if self.seams(id).iter().any(|&at| self.is_page_seam(id, at)) {
                    self.chains.paged_resumes += 1;
                }
                self.track(*k as usize, path, h_cur);
            }
        }
        self.check_state()
    }

    /// Compares every piece of observable state; `Err` on first divergence.
    fn check_state(&self) -> Result<(), String> {
        check!("len", self.hinted.len(), self.plain.len());
        check!("is_empty", self.hinted.is_empty(), self.plain.is_empty());
        check!(
            "token_count",
            self.hinted.token_count(),
            self.plain.token_count()
        );
        check!(
            "candidate_count",
            self.hinted.eviction_candidate_count(),
            self.plain.eviction_candidate_count()
        );
        check!(
            "pinned_count",
            self.hinted.pinned_count(),
            self.plain.pinned_count()
        );
        check!(
            "arena_capacity",
            self.hinted.arena_capacity(),
            self.plain.arena_capacity()
        );
        // Identical histories write — and free — the same pages, so the
        // two sides must reuse, and grow, at the very same op.
        check!(
            "token_store_len",
            self.hinted.token_store_len(),
            self.plain.token_store_len()
        );
        check!(
            "store_counters",
            self.hinted.store_counters(),
            self.plain.store_counters()
        );

        let ids = self.live_ids();
        // The store bound: the store grows only when every page holds a
        // live token, and `r` live ranges overlap at most
        // `live / PAGE_TOKENS + 2r` pages.
        let ranges: usize = ids
            .iter()
            .map(|&id| self.hinted.edge_parts(id).count())
            .sum();
        let bound = (self.store_bound.get())
            .max(self.hinted.token_count() as usize + 2 * PAGE_TOKENS * ranges);
        self.store_bound.set(bound);
        if self.hinted.token_store_len() > bound {
            return Err(format!(
                "store bound broken: {} stored tokens, bound {bound}",
                self.hinted.token_store_len(),
            ));
        }

        let plain_ids: Vec<NodeId> = {
            let mut v: Vec<NodeId> = self.plain.node_ids().collect();
            v.sort_unstable_by_key(|id| id.index());
            v
        };
        check!("live id set", &ids, &plain_ids);

        for &id in &ids {
            let at = |what: &str| format!("node {id} {what}");
            check!(at("parent"), self.hinted.parent(id), self.plain.parent(id));
            check!(at("depth"), self.hinted.depth(id), self.plain.depth(id));
            check!(
                at("edge_len"),
                self.hinted.edge_len(id),
                self.plain.edge_len(id)
            );
            check!(
                at("child_count"),
                self.hinted.child_count(id),
                self.plain.child_count(id)
            );
            check!(
                at("is_pinned"),
                self.hinted.is_pinned(id),
                self.plain.is_pinned(id)
            );
            check!(at("stamp"), self.hinted.stamp(id), self.plain.stamp(id));
            check!(at("data"), self.hinted.data(id), self.plain.data(id));
            check!(
                at("children"),
                self.hinted.children(id).collect::<Vec<_>>(),
                self.plain.children(id).collect::<Vec<_>>()
            );
            check!(
                at("path_tokens"),
                self.hinted.path_tokens(id),
                self.plain.path_tokens(id)
            );
        }

        let sorted = |mut v: Vec<NodeId>| {
            v.sort_unstable_by_key(|id| id.index());
            v
        };
        check!(
            "candidate set",
            sorted(self.hinted.eviction_candidates().collect()),
            sorted(self.plain.eviction_candidates().collect())
        );
        check!(
            "pinned set",
            sorted(self.hinted.pinned_ids().collect()),
            sorted(self.plain.pinned_ids().collect())
        );
        check!(
            "lru stream",
            self.hinted.lru_candidates().collect::<Vec<_>>(),
            self.plain.lru_candidates().collect::<Vec<_>>()
        );

        // Generation tags: ids of removed nodes stay dead forever, even
        // after their arena slots are reused by later inserts.
        for &d in &self.dead {
            if self.hinted.contains(d) || self.plain.contains(d) {
                return Err(format!(
                    "removed id {d} (gen {}) reports live again",
                    d.generation()
                ));
            }
        }

        // The internal checks (page accounting among them) fail by
        // panicking; a faulted side reports it like a divergence.
        for (side, tree) in [("hinted", &self.hinted), ("plain", &self.plain)] {
            std::panic::catch_unwind(|| tree.assert_invariants()).map_err(|panic| {
                let why = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("?");
                format!("invariants of the {side} tree: {why}")
            })?;
        }
        Ok(())
    }

    /// Every live non-root node's id, depth and root path (hinted side).
    fn paths(&self) -> Vec<(NodeId, u64, Vec<Token>)> {
        self.live_ids()
            .into_iter()
            .map(|id| (id, self.hinted.depth(id), self.hinted.path_tokens(id)))
            .collect()
    }

    /// The fact cursor validation rests on: every node of `before` still
    /// live kept its depth and its root path.
    fn check_paths_kept(&self, before: &[(NodeId, u64, Vec<Token>)]) -> Result<(), String> {
        for (id, depth, path) in before {
            if !self.hinted.contains(*id) {
                continue;
            }
            let now = (self.hinted.depth(*id), self.hinted.path_tokens(*id));
            if now != (*depth, path.clone()) {
                return Err(format!(
                    "live node {id} moved: depth {depth} -> {}, path {path:?} -> {:?}",
                    now.0, now.1
                ));
            }
        }
        Ok(())
    }

    /// Releases held pins and runs a final state check.
    fn finish(mut self) -> Result<(), String> {
        while let Some(id) = self.pins.pop() {
            if self.hinted.contains(id) {
                self.hinted.unpin(id);
                self.plain.unpin(id);
            }
        }
        check!("final pinned_count", self.hinted.pinned_count(), 0);
        self.check_state()
    }
}

/// Replays `ops` through both sides, checking after every op, and that
/// the op moved no live node's depth or root path. Returns the
/// resume/fallback counts on success so callers can assert coverage.
fn run_stream(ops: &[Op], fault: Fault) -> Result<(u64, u64), String> {
    let mut pair = Pair::new(fault);
    pair.check_state()?;
    for (i, op) in ops.iter().enumerate() {
        let before = pair.paths();
        pair.apply(op)
            .and_then(|()| pair.check_paths_kept(&before))
            .map_err(|e| format!("after op {i} {op:?}: {e}"))?;
    }
    let counts = (pair.resumes, pair.fallbacks);
    pair.finish()?;
    Ok(counts)
}

// ---------------------------------------------------------------------------
// Random-stream property tests (10k cases across the four profiles).
// ---------------------------------------------------------------------------

/// Weighted op from a dense token alphabet. `alphabet`/`max_len` shape the
/// sequence pool; `weights[i]` is the relative frequency of op kind `i` in
/// [insert, extend, match-extend, speculate-extend, match, remove, pin,
/// unpin, touch, admit, anchored-insert] order.
fn op_strategy(alphabet: u32, max_len: usize, weights: [u32; 11]) -> impl Strategy<Value = Op> {
    let total: u32 = weights.iter().sum();
    (
        0u32..total,
        prop::collection::vec(0u32..alphabet, 0..max_len),
        0u32..1 << 30,
        0u64..1 << 40,
        prop::collection::vec(0u32..alphabet, 0..max_len),
    )
        .prop_map(move |(mut roll, seq, k, stamp, output)| {
            let mut kind = 0;
            for (i, w) in weights.iter().enumerate() {
                if roll < *w {
                    kind = i;
                    break;
                }
                roll -= w;
            }
            match kind {
                0 => Op::Insert(seq),
                1 => Op::Extend(k, seq),
                2 => Op::MatchExtend(k, seq),
                3 => Op::SpeculateExtend(k, seq),
                4 => Op::Match(seq),
                5 => Op::Remove(k),
                6 => Op::Pin(k),
                7 => Op::Unpin,
                8 => Op::Touch(k, stamp),
                9 => Op::Admit(k, seq, output, (stamp % 7) as u32),
                _ => Op::AnchoredInsert(k, seq, output),
            }
        })
}

/// Panics (failing the proptest case) on any divergence.
fn assert_stream_agrees(ops: &[Op]) {
    if let Err(e) = run_stream(ops, Fault::None) {
        panic!("hinted and plain sides diverged: {e}\nstream: {ops:#?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2500))]

    /// Dense alphabet, short sequences: maximal prefix sharing, constant
    /// edge splitting and re-branching under live cursors.
    #[test]
    fn differential_dense_streams(
        ops in prop::collection::vec(op_strategy(4, 10, [3, 3, 2, 1, 1, 2, 1, 1, 2, 2, 1]), 1..32)
    ) {
        assert_stream_agrees(&ops);
    }

    /// Longer sequences over a wider alphabet: deeper paths, mid-edge
    /// matches, multi-token absorbs on removal.
    #[test]
    fn differential_long_streams(
        ops in prop::collection::vec(op_strategy(8, 24, [3, 3, 2, 1, 1, 2, 1, 1, 2, 2, 1]), 1..24)
    ) {
        assert_stream_agrees(&ops);
    }

    /// Removal-heavy: drives slot reuse, generation bumps, stale-cursor
    /// fallbacks, and edge merges (including rejected-removal paths).
    #[test]
    fn differential_removal_heavy_streams(
        ops in prop::collection::vec(op_strategy(4, 12, [2, 3, 1, 0, 1, 6, 1, 1, 1, 2, 1]), 1..40)
    ) {
        assert_stream_agrees(&ops);
    }

    /// Pin-heavy: long-held pins across splits and rejected removals, with
    /// recency churn and interleaved cursor reuse on the pinned set.
    #[test]
    fn differential_pin_heavy_streams(
        ops in prop::collection::vec(op_strategy(5, 12, [2, 3, 1, 1, 1, 3, 4, 3, 3, 1, 1]), 1..40)
    ) {
        assert_stream_agrees(&ops);
    }
}

// ---------------------------------------------------------------------------
// Seeded-mutation self-test.
// ---------------------------------------------------------------------------

/// The harness must catch a real divergence: with the injected off-by-one
/// split fault on the hinted side only, its edges are cut one token too
/// deep. The same stream passes with the fault off, proving it is the
/// *differential comparison* (not an internal panic) doing the catching —
/// the faulted tree is still internally consistent, just wrong.
#[test]
fn harness_catches_injected_split_fault() {
    // [1,2,3,4,5] then [1,2,9]: shared = 2 on a 5-token edge, so the fault
    // cuts at 3 instead of 2 and the branch lands one token too deep.
    let ops = vec![
        Op::Insert(vec![1, 2, 3, 4, 5]),
        Op::Insert(vec![1, 2, 9]),
        Op::Match(vec![1, 2, 9]),
    ];
    run_stream(&ops, Fault::None).expect("clean sides must agree on the stream");
    let err = run_stream(&ops, Fault::SplitOffByOne)
        .expect_err("harness failed to catch the injected split off-by-one");
    // The divergence must be caught by the mid-stream differential
    // comparison (the faulted tree is internally consistent, so invariant
    // checks alone would miss it).
    assert!(
        err.contains("after op") && err.contains("hinted side"),
        "divergence should surface as a structural mismatch, got: {err}"
    );
}

/// The stream profiles must actually exercise the fast path: a seeded
/// extension-heavy stream produces both genuine resumes and genuine
/// fallbacks (stale cursors after removals).
#[test]
fn streams_cover_resumes_and_fallbacks() {
    let mut ops = vec![Op::Insert(vec![1, 2, 3])];
    for turn in 0..24u32 {
        ops.push(Op::Extend(turn, vec![7 + turn, 8 + turn]));
        ops.push(Op::MatchExtend(turn, vec![7 + turn]));
        if turn % 5 == 4 {
            ops.push(Op::Remove(turn));
        }
    }
    let (resumes, fallbacks) = run_stream(&ops, Fault::None).expect("stream must agree");
    assert!(resumes > 0, "no cursor resume was exercised");
    assert!(fallbacks > 0, "no stale-cursor fallback was exercised");
}

/// One validation serves every walk of an admission, including when the
/// checkpoint insert between validation and the main insert splits the
/// resume node's own edge; checkpoint prefixes shorter than, equal to and
/// longer than the resume depth, then an insert anchored at a match's
/// deepest node. The injected split fault is still caught on this stream.
#[test]
fn one_resume_point_serves_a_whole_admission() {
    let ops = vec![
        Op::Insert(vec![1, 2, 3, 4, 5, 6, 7, 8]),
        // Resume depth 8, checkpoint at 8 − 2 = 6: root-walked, it splits
        // the resume node's own edge before the main insert reuses it.
        Op::Admit(0, vec![20], vec![21], 3),
        // Resume at the new depth-6 node, checkpoint exactly there.
        Op::Admit(1, vec![30, 31], vec![32], 1),
        // Resume at depth 10, checkpoint two tokens deeper.
        Op::Admit(2, vec![40, 41, 42], vec![], 5),
        // Diverges inside [7, 8]: branch checkpoint + insert from the
        // match's deepest node (the depth-6 node).
        Op::AnchoredInsert(1, vec![7, 9], vec![60]),
    ];
    let (resumes, fallbacks) = run_stream(&ops, Fault::None).expect("clean sides must agree");
    assert_eq!(
        (resumes, fallbacks),
        (4, 0),
        "every admission validated once"
    );
    let err =
        run_stream(&ops, Fault::SplitOffByOne).expect_err("injected split fault went uncaught");
    assert!(err.contains("hinted side"), "got: {err}");
}

// ---------------------------------------------------------------------------
// Scale replay: 100k live nodes.
// ---------------------------------------------------------------------------

/// splitmix64: deterministic, seedable, no external dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What one store-churn stream reached.
#[derive(Debug)]
struct Churn {
    /// Free pages the stream's inserts wrote again.
    pages_reused: u64,
    chains: ChainCoverage,
}

/// Long-label churn: sequences of thousands of tokens through a tree held
/// to about a dozen live nodes, so the pages that removals free are
/// written again and again, and a label that lands on recycled pages that
/// are not neighbours is a chain. Merges chain labels further (a merged
/// label merged again gains a third range), inserts split them on and
/// beside their seams — page boundaries among them — and fresh cursors
/// are resumed onto them. Every op runs the full hinted ≡ plain state
/// check — which includes the store bound, equal store counters and both
/// trees' page accounting — so a page freed early or late, or a label
/// written wrongly across pages, fails at the op that did it.
fn store_churn_stream(seed: u64, ops: usize, fault: Fault) -> Result<Churn, String> {
    let mut rng = Rng(seed);
    let mut pair = Pair::new(fault);
    let mut next_fresh: Token = 1 << 20; // globally unique label tokens
    let mut fresh = |n: u64| -> Vec<Token> {
        let start = next_fresh;
        next_fresh += n as Token;
        (start..next_fresh).collect()
    };

    for i in 0..ops {
        let live = pair.hinted.len();
        let roll = rng.below(100);
        let k = rng.next() as u32;
        // Extensions compound; past this the per-op path comparison, not
        // the engine, would dominate the run.
        let extendable = pair
            .tracked
            .get(k as usize % pair.tracked.len().max(1))
            .is_some_and(|(base, _)| base.len() < 16_000);
        let chain_roll = rng.below(100);
        let op = if chain_roll < 10 {
            Op::ChainMerge(k)
        } else if chain_roll < 16 {
            Op::SeamSplit(k, (k % 3) as i8 - 1, fresh(1)[0])
        } else if chain_roll < 20 {
            Op::ResumeChained(k)
        } else if live > 12 && roll < 20 {
            Op::Unpin
        } else if live > 12 || (live > 4 && roll < 35) {
            Op::Remove(k)
        } else if roll < 55 || (roll < 75 && !extendable) {
            // One of three stems, shared to a random depth (so inserts
            // split each other's edges mid-label), then a fresh tail.
            let stem = rng.below(3) as Token * 10_000;
            let mut seq: Vec<Token> = (stem..stem + rng.below(1_500) as Token).collect();
            seq.extend(fresh(1_000 + rng.below(4_000)));
            Op::Insert(seq)
        } else if roll < 75 {
            Op::Extend(k, fresh(500 + rng.below(2_500)))
        } else if roll < 82 {
            Op::MatchExtend(k, fresh(rng.below(8)))
        } else if roll < 87 {
            Op::SpeculateExtend(k, fresh(rng.below(8)))
        } else if roll < 91 {
            Op::Pin(k)
        } else if roll < 95 {
            Op::Unpin
        } else {
            Op::Touch(k, rng.below(1 << 40))
        };
        pair.apply(&op)
            .map_err(|e| format!("store churn (seed {seed:#x}) diverged at op {i} {op:?}: {e}"))?;
    }
    let (resumes, fallbacks) = (pair.resumes, pair.fallbacks);
    let pages_reused = pair.hinted.store_counters().pages_reused;
    let chains = std::mem::take(&mut pair.chains);
    pair.finish()
        .map_err(|e| format!("store churn (seed {seed:#x}) diverged at the end: {e}"))?;
    assert!(
        resumes > 0 && fallbacks > 0,
        "cursor paths went unexercised"
    );
    Ok(Churn {
        pages_reused,
        chains,
    })
}

/// Every seed must write freed pages again many times, with the store
/// bound and full-state parity asserted after every single op; and every
/// chain op must have reached what it is there for: labels of three
/// ranges and more, labels written across recycled pages, splits on a
/// seam and one token to either side (page boundaries included), and
/// cursors resumed onto chained edges (paged ones included).
#[test]
fn differential_store_churn_reuses_pages_repeatedly() {
    for seed in [0x5709E, 0xC0FFEE, 0xDEAD_10CC, 0x1234] {
        let churn = store_churn_stream(seed, 600, Fault::None).unwrap_or_else(|e| panic!("{e}"));
        let Churn {
            pages_reused,
            chains,
        } = &churn;
        assert!(
            *pages_reused >= 100,
            "seed {seed:#x}: only {pages_reused} pages reused in 600 ops"
        );
        assert!(
            chains.max_ranges >= 3
                && chains.paged_labels > 0
                && chains.seam_splits.iter().all(|&n| n > 0)
                && chains.page_seam_splits.iter().all(|&n| n > 0)
                && chains.chained_resumes > 0
                && chains.paged_resumes > 0,
            "seed {seed:#x}: chain ops under-covered: {churn:?}"
        );
    }
}

/// The seam fault — a compare that stops one token short of a label
/// seam — is caught: on a hand-built three-range label, and on a store
/// churn stream, while both pass with the fault off.
#[test]
fn harness_catches_injected_seam_fault() {
    let ops = vec![
        // `[0] → [1, 2] → [3, 4]`, each label apart from the next in the
        // store, then merged bottom-up into one label of three ranges.
        Op::Insert(vec![0]),
        Op::Insert(vec![90]),
        Op::Insert(vec![0, 1, 2]),
        Op::Insert(vec![91]),
        Op::Insert(vec![0, 1, 2, 3, 4]),
        Op::ChainMerge(0),
        Op::ChainMerge(0),
        Op::Match(vec![0, 1, 2, 3, 4]),
    ];
    run_stream(&ops, Fault::None).expect("clean sides must agree");
    let err = run_stream(&ops, Fault::SeamShort).expect_err("seam fault went uncaught");
    assert!(err.contains("hinted side"), "got: {err}");
    store_churn_stream(0x5709E, 600, Fault::None).expect("clean churn must agree");
    let err = store_churn_stream(0x5709E, 600, Fault::SeamShort)
        .expect_err("seam fault went uncaught on the churn stream");
    assert!(err.contains("hinted side"), "got: {err}");
}

/// The page-count fault — a release that lowers each page's live count
/// one token short, so an emptied page never rejoins the free list — is
/// caught: at the removal that empties page 0 of a hand-built tree, and
/// on a store churn stream, while both pass with the fault off.
#[test]
fn harness_catches_injected_page_count_fault() {
    let ops = vec![
        // Page 0 and half of page 1, then freed: page 0 joins the free
        // list, and the next label is written on it.
        Op::Insert((1..=1500).collect()),
        Op::Remove(0),
        Op::Insert((3000..4000).collect()),
    ];
    run_stream(&ops, Fault::None).expect("clean sides must agree");
    let err = run_stream(&ops, Fault::PageCountShort).expect_err("page-count fault went uncaught");
    assert!(
        err.contains("after op 1") && err.contains("invariants of the hinted tree"),
        "got: {err}"
    );
    let err = store_churn_stream(0x5709E, 600, Fault::PageCountShort)
        .expect_err("page-count fault went uncaught on the churn stream");
    assert!(err.contains("hinted"), "got: {err}");
}

/// Grows both sides to `target` live nodes with a fork-and-extend trace
/// (every fork is a mid-edge split; interleaved removals drive edge merges,
/// slot reuse, and stale-cursor fallbacks), resuming from session cursors
/// on the hinted side, checking outcome equality on every op and full
/// state equality at the end.
fn scale_replay(seed: u64, target: usize) {
    let mut rng = Rng(seed);
    let mut pair = Pair::new(Fault::None);
    // Recently-created end nodes: fork sources and remove/touch targets.
    type Recent = (Vec<Token>, NodeId, Option<MatchCursor>);
    let mut recent: Vec<Recent> = Vec::new();
    let mut fresh: Token = 1 << 20; // globally unique suffix tokens
    let mut ops: u64 = 0;

    while pair.hinted.len() < target {
        ops += 1;
        let roll = rng.below(100);
        if roll < 70 || recent.is_empty() {
            // Fork a prior sequence mid-edge (or extend it whole, driving
            // the cursor fast path) and append globally-unique tokens so
            // forks never re-merge.
            let (mut seq, hint) = if recent.is_empty() || rng.below(8) == 0 {
                (vec![(rng.below(64) + 1) as Token], None)
            } else {
                let (base, _, cur) = &recent[rng.below(recent.len() as u64) as usize];
                if rng.below(2) == 0 {
                    // Whole-sequence extension: the cursor resume case.
                    (base.clone(), *cur)
                } else {
                    // Mid-edge fork: no cursor applies.
                    let cut = 1 + rng.below(base.len() as u64) as usize;
                    (base[..cut].to_vec(), None)
                }
            };
            let extend = 8 + rng.below(56);
            for _ in 0..extend {
                seq.push(fresh);
                fresh += 1;
            }
            let h = match hint.and_then(|c| pair.hinted.insert_parts_from(&c, &seq, &[]).ok()) {
                Some(outcome) => outcome,
                None => pair.hinted.insert(&seq),
            };
            let p = pair.plain.insert(&seq);
            assert_eq!(h, p, "insert outcome @ op {ops}");
            pair.hinted.touch(h.end_node, ops);
            pair.plain.touch(h.end_node, ops);
            let cur = pair.hinted.cursor_at(h.end_node);
            if recent.len() < 512 {
                recent.push((seq, h.end_node, cur));
            } else {
                recent[rng.below(512) as usize] = (seq, h.end_node, cur);
            }
        } else if roll < 90 {
            // Remove a recent end node if it is still live; its tracked
            // cursor then becomes a stale-generation fallback source.
            let slot = rng.below(recent.len() as u64) as usize;
            let (_, id, _) = recent[slot];
            if pair.hinted.contains(id) {
                let h = pair.hinted.remove(id);
                let p = pair.plain.remove(id);
                assert_eq!(
                    h.as_ref()
                        .map(|r| (r.freed_tokens, r.merged_into))
                        .map_err(|e| *e),
                    p.as_ref()
                        .map(|r| (r.freed_tokens, r.merged_into))
                        .map_err(|e| *e),
                    "remove @ op {ops}"
                );
            }
        } else {
            // Probe: longest prefix of a recent sequence, resumed when the
            // probe covers the whole tracked sequence.
            let slot = rng.below(recent.len() as u64) as usize;
            let (seq, _, cur) = &recent[slot];
            let whole = rng.below(2) == 0;
            let cut = if whole {
                seq.len()
            } else {
                1 + rng.below(seq.len() as u64) as usize
            };
            let h = match cur
                .filter(|_| whole)
                .and_then(|c| pair.hinted.match_prefix_from(&c, &seq[..cut]).ok())
            {
                Some(m) => m,
                None => pair.hinted.match_prefix(&seq[..cut]),
            };
            let p = pair.plain.match_prefix(&seq[..cut]);
            assert_eq!(h, p, "match @ op {ops}");
        }
        assert_eq!(pair.hinted.len(), pair.plain.len(), "len @ op {ops}");
        assert_eq!(
            pair.hinted.token_count(),
            pair.plain.token_count(),
            "token_count @ op {ops}"
        );
        assert_eq!(
            pair.hinted.eviction_candidate_count(),
            pair.plain.eviction_candidate_count(),
            "candidate_count @ op {ops}"
        );
    }

    assert!(pair.hinted.len() >= target);
    pair.check_state()
        .unwrap_or_else(|e| panic!("scale replay diverged at {target} live nodes: {e}"));
}

/// 100k live nodes. Both sides stay O(depth) per op (the hinted side
/// better).
#[test]
fn scale_replay_with_cursors_matches_root_walks() {
    scale_replay(0xD1FF8, 100_000);
}
