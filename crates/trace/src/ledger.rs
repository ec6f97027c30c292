//! The miss-attribution ledger.
//!
//! When an eviction episode deletes a node, the cache (only while a
//! tracer is enabled) records a 64-bit fingerprint of the node's full
//! token path together with why it was deleted. A later lookup that
//! matched fewer tokens than its input can then ask whether some longer
//! prefix of that input was *previously cached and deleted* — turning an
//! anonymous miss into `capacity-evicted` or `pinned-bystander`.
//!
//! The ledger lives on the serving hot path (every delete records, every
//! traced lookup probes), so its costs are bounded twice over:
//!
//! * hashing touches at most [`FINGERPRINT_DEPTH`] tokens per sequence —
//!   deeper paths are keyed by (truncated hash, exact length), so two
//!   entries alias only when they share their first `FINGERPRINT_DEPTH`
//!   tokens *and* their total length;
//! * probing checks at most [`PROBE_BUDGET`] recorded lengths per lookup,
//!   deepest first.
//!
//! A re-admitted prefix needs no ledger cleanup: the next lookup hits at
//! (or beyond) the fingerprinted depth, so the stale entry is never
//! consulted.

use crate::event::MissCause;
use std::collections::{BTreeMap, VecDeque};

/// Default bound on remembered evictions.
pub const DEFAULT_LEDGER_CAP: usize = 4096;

/// Tokens hashed per fingerprint before truncation. Sequences longer than
/// this are disambiguated by their exact length in the ledger key, so the
/// per-event hashing cost is O(min(len, depth)) while attribution stays
/// exact for any two prefixes that differ within the window.
pub const FINGERPRINT_DEPTH: usize = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-style mix, one step per token (the whole `u32` is one symbol —
/// byte-granular FNV costs 4× on a path-hashing hot path).
fn fnv_step(hash: u64, token: u32) -> u64 {
    (hash ^ u64::from(token)).wrapping_mul(FNV_PRIME)
}

/// Fingerprint of a token sequence: FNV-1a-style over the first
/// [`FINGERPRINT_DEPTH`] tokens. Prefix-sensitive within that window
/// (every length hashes differently); the ledger pairs it with the exact
/// sequence length to tell deeper sequences apart.
#[must_use]
pub fn fingerprint(tokens: &[u32]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update(tokens);
    fp.finish()
}

/// Streaming [`fingerprint`] builder: hashing the concatenation of every
/// `update` slice yields the same value as one call over the whole
/// sequence (including the [`FINGERPRINT_DEPTH`] truncation). Lets the
/// cache hash a radix path edge-by-edge on the eviction hot path without
/// materializing the token vector.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    hash: u64,
    len: usize,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// An empty-sequence fingerprint.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint {
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    /// Absorbs the next run of tokens (tokens past the
    /// [`FINGERPRINT_DEPTH`] window count toward [`len`](Fingerprint::len)
    /// but no longer stir the hash).
    pub fn update(&mut self, tokens: &[u32]) {
        let hashed = tokens.len().min(FINGERPRINT_DEPTH.saturating_sub(self.len));
        self.hash = tokens[..hashed]
            .iter()
            .fold(self.hash, |h, &t| fnv_step(h, t));
        self.len += tokens.len();
    }

    /// Tokens absorbed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` before any token is absorbed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fingerprint of everything absorbed.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Bound on map probes per [`MissLedger::deepest_match`] call: only the
/// deepest this-many recorded path lengths beyond the match are checked,
/// keeping classification cheap even when the ledger holds thousands of
/// distinct depths. A miss whose only ledger evidence sits below the
/// probed window falls back to `cold` — deterministically, since the
/// window depends only on ledger contents.
pub const PROBE_BUDGET: usize = 64;

/// The ledger key: truncated-prefix hash disambiguated by exact length.
fn entry_key(fp: u64, len: usize) -> u64 {
    fp ^ (len as u64).wrapping_mul(FNV_PRIME)
}

/// Bounded map from evicted-prefix fingerprints to their eviction cause.
///
/// Deterministic by construction: insertion order is the cache's eviction
/// order, the bound drops oldest-first, and probes walk a `BTreeMap`.
#[derive(Debug, Clone)]
pub struct MissLedger {
    entries: BTreeMap<u64, MissCause>,
    /// Live entry count per recorded path length — the probe schedule for
    /// [`MissLedger::deepest_match`].
    lengths: BTreeMap<usize, usize>,
    order: VecDeque<(u64, usize)>,
    cap: usize,
}

impl Default for MissLedger {
    fn default() -> Self {
        MissLedger::new(DEFAULT_LEDGER_CAP)
    }
}

impl MissLedger {
    /// A ledger remembering at most `cap` evicted prefixes (oldest
    /// dropped first).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        MissLedger {
            entries: BTreeMap::new(),
            lengths: BTreeMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Records that a `path_len`-token prefix with fingerprint `fp` (see
    /// [`Fingerprint`]) was deleted for `cause` (re-recording an
    /// already-known prefix just updates its cause).
    pub fn record_fingerprint(&mut self, fp: u64, path_len: usize, cause: MissCause) {
        let key = entry_key(fp, path_len);
        if self.entries.insert(key, cause).is_none() {
            *self.lengths.entry(path_len).or_insert(0) += 1;
            self.order.push_back((key, path_len));
            if self.order.len() > self.cap {
                if let Some((old, old_len)) = self.order.pop_front() {
                    self.entries.remove(&old);
                    if let Some(n) = self.lengths.get_mut(&old_len) {
                        *n -= 1;
                        if *n == 0 {
                            self.lengths.remove(&old_len);
                        }
                    }
                }
            }
        }
    }

    /// The cause recorded for the *deepest* prefix of `input` strictly
    /// longer than `matched` tokens, if any — i.e. "had it not been
    /// evicted, the lookup would have matched at least this far". Probes
    /// the deepest [`PROBE_BUDGET`] recorded lengths beyond the match.
    #[must_use]
    pub fn deepest_match(&self, input: &[u32], matched: usize) -> Option<MissCause> {
        if self.entries.is_empty() || matched >= input.len() {
            return None;
        }
        // Probe only at lengths the ledger actually holds, capped at the
        // PROBE_BUDGET deepest; collect them ascending for the hash walk.
        let mut lens: Vec<usize> = self
            .lengths
            .range(matched + 1..=input.len())
            .rev()
            .map(|(&len, _)| len)
            .take(PROBE_BUDGET)
            .collect();
        lens.reverse();
        // One progressive walk records the prefix hash at each candidate
        // length (lengths past the truncation window all reuse the
        // depth-capped hash), then the probes run deepest-first so the
        // first hit wins.
        let mut keys = Vec::with_capacity(lens.len());
        let mut hash = FNV_OFFSET;
        let mut pos = 0usize;
        for &len in &lens {
            let target = len.min(FINGERPRINT_DEPTH);
            while pos < target {
                hash = fnv_step(hash, input[pos]);
                pos += 1;
            }
            keys.push(entry_key(hash, len));
        }
        keys.iter().rev().find_map(|k| self.entries.get(k).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The path the cache streams, materialized.
    fn record(l: &mut MissLedger, path: &[u32], cause: MissCause) {
        l.record_fingerprint(fingerprint(path), path.len(), cause);
    }

    #[test]
    fn fingerprint_is_prefix_sensitive() {
        assert_ne!(fingerprint(&[1, 2]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
        assert_eq!(fingerprint(&[7, 8, 9]), fingerprint(&[7, 8, 9]));
    }

    #[test]
    fn streamed_fingerprint_matches_whole_sequence() {
        let tokens: Vec<u32> = (0..2000).collect();
        let mut fp = Fingerprint::new();
        for chunk in tokens.chunks(7) {
            fp.update(chunk);
        }
        assert_eq!(fp.finish(), fingerprint(&tokens));
        assert_eq!(fp.len(), tokens.len());
    }

    #[test]
    fn truncated_sequences_disambiguate_by_length() {
        // Beyond FINGERPRINT_DEPTH the hash stops stirring…
        let a: Vec<u32> = (0..FINGERPRINT_DEPTH as u32 + 8).collect();
        let mut b = a.clone();
        *b.last_mut().expect("invariant: non-empty") = 999_999;
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // …but the ledger still tells different *lengths* apart.
        let mut l = MissLedger::new(16);
        record(&mut l, &a[..a.len() - 4], MissCause::CapacityEvicted);
        record(&mut l, &a, MissCause::PinnedBystander);
        assert_eq!(l.entries.len(), 2);
        assert_eq!(l.deepest_match(&a, 0), Some(MissCause::PinnedBystander));
        assert_eq!(
            l.deepest_match(&a[..a.len() - 4], 0),
            Some(MissCause::CapacityEvicted)
        );
    }

    #[test]
    fn deepest_match_beyond_matched_only() {
        let mut l = MissLedger::new(16);
        record(&mut l, &[1, 2], MissCause::CapacityEvicted);
        record(&mut l, &[1, 2, 3, 4], MissCause::PinnedBystander);
        // Matched 2 tokens: only the depth-4 entry is beyond the match.
        assert_eq!(
            l.deepest_match(&[1, 2, 3, 4, 5], 2),
            Some(MissCause::PinnedBystander)
        );
        // Matched 0: the deepest of both wins.
        assert_eq!(
            l.deepest_match(&[1, 2, 3, 4], 0),
            Some(MissCause::PinnedBystander)
        );
        // A fully-matched input has nothing beyond it.
        assert_eq!(l.deepest_match(&[1, 2], 2), None);
        // Unrelated input: no match.
        assert_eq!(l.deepest_match(&[9, 9, 9], 0), None);
    }

    #[test]
    fn cap_drops_oldest_first() {
        let mut l = MissLedger::new(2);
        record(&mut l, &[1], MissCause::CapacityEvicted);
        record(&mut l, &[2], MissCause::CapacityEvicted);
        record(&mut l, &[3], MissCause::CapacityEvicted);
        assert_eq!(l.entries.len(), 2);
        assert_eq!(l.deepest_match(&[1], 0), None);
        assert_eq!(l.deepest_match(&[3], 0), Some(MissCause::CapacityEvicted));
    }

    #[test]
    fn re_recording_updates_cause_without_duplicating() {
        let mut l = MissLedger::new(2);
        record(&mut l, &[1], MissCause::CapacityEvicted);
        record(&mut l, &[1], MissCause::PinnedBystander);
        assert_eq!(l.entries.len(), 1);
        assert_eq!(l.deepest_match(&[1], 0), Some(MissCause::PinnedBystander));
    }
}
