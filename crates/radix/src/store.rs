//! The token store: every edge label's tokens, in fixed-size pages.
//!
//! One `Vec<Token>` addressed by the `u32` offsets an [`EdgeRef`] holds,
//! cut into pages of [`PAGE_TOKENS`] tokens. Each page keeps a count of
//! its live tokens: a write raises it, the death of a label lowers it over
//! the label's ranges, and a page at 0 joins a free list. Writes fill the
//! current page, then free pages (lowest first), then fresh pages at the
//! end, so the store never compacts and never moves a token: it grows only
//! when no page is free, and a label whose tokens land on two pages that
//! are not neighbours becomes a chain of ranges ([`Links`]).
//!
//! A fresh page extends the store where the last one ended, so a tree
//! that never removes (or never frees a whole page) writes every label as
//! one range, exactly as an append-only store would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, Range};

use crate::label::{Label, Links};
use crate::node::EdgeRef;
use crate::Token;

/// Tokens per page (4 KiB of `u32`s). A constant, not a knob: swept from
/// 64 to 4 096 on the four ledger workloads at seed 7, 1 024 is the
/// largest page that holds the store's peak within 1.25× of its peak live
/// tokens on every one (1.19× on `tenants_cluster`, 1.05× on
/// `agent_pressure`, against 1.30× and 1.17× at 2 048), and the smallest
/// that keeps `agent_pressure`'s labels under four ranges on average (3.9,
/// against 6.0 at 512). `docs/radix-engine.md` ("Sizing the pages") has
/// the table.
pub(crate) const PAGE_TOKENS: usize = 1024;

/// The paged token store ([module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenStore {
    tokens: Vec<Token>,
    /// Live tokens on each page, by page index (`offset / PAGE_TOKENS`).
    live: Vec<u32>,
    /// Pages with no live token, other than the current one; lowest first.
    free: BinaryHeap<Reverse<u32>>,
    /// Where the next token goes.
    cursor: usize,
    /// The end of the current page (0 before the first write).
    page_end: usize,
    /// Tokens written.
    pub appended: u64,
    /// Pages taken back off the free list.
    pub pages_reused: u64,
    /// Fault-injection knob for the differential harness's self-test: when
    /// set, a release lowers each page's count one token short. Compiled
    /// only into test builds.
    #[cfg(any(test, feature = "fault-injection"))]
    pub count_short: bool,
}

impl TokenStore {
    /// Tokens the store holds, live or dead: a high-water mark, since it
    /// never shrinks.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Pages the store holds.
    pub fn pages(&self) -> usize {
        self.live.len()
    }

    /// Writes the suffix of the virtual sequence `head ‖ tail` from `pos`
    /// and returns its label: one range per run of neighbouring pages it
    /// landed on, chained through `links`.
    pub fn push(&mut self, links: &mut Links, head: &[Token], tail: &[Token], pos: usize) -> Label {
        let (head, tail) = if pos < head.len() {
            (&head[pos..], tail)
        } else {
            (&tail[pos - head.len()..], &[][..])
        };
        let mut label = Label::EMPTY;
        for mut src in [head, tail] {
            while !src.is_empty() {
                if self.cursor == self.page_end {
                    self.next_page();
                }
                let n = src.len().min(self.page_end - self.cursor);
                let (now, rest) = src.split_at(n);
                if self.cursor == self.tokens.len() {
                    self.tokens.extend_from_slice(now);
                } else {
                    self.tokens[self.cursor..self.cursor + n].copy_from_slice(now);
                }
                self.live[self.cursor / PAGE_TOKENS] += n as u32;
                let piece = Label::single(EdgeRef::new(self.cursor, n));
                label = if label.len == 0 {
                    piece
                } else {
                    links.join(label, piece)
                };
                self.cursor += n;
                src = rest;
            }
        }
        self.appended += u64::from(label.len);
        label
    }

    /// Leaves the full current page (freeing it if every token on it has
    /// died) for the lowest free page, or a fresh one.
    fn next_page(&mut self) {
        if let Some(current) = self.current_page() {
            if self.live[current] == 0 {
                self.free.push(Reverse(current as u32));
            }
        }
        self.cursor = match self.free.pop() {
            Some(Reverse(page)) => {
                self.pages_reused += 1;
                page as usize * PAGE_TOKENS
            }
            None => {
                // Only the current page can be partly written, and it is
                // full, so the store ends on a page boundary.
                debug_assert_eq!(self.tokens.len(), self.live.len() * PAGE_TOKENS);
                self.live.push(0);
                self.tokens.len()
            }
        };
        self.page_end = self.cursor + PAGE_TOKENS;
    }

    /// The page writes go to (`None` before the first write).
    fn current_page(&self) -> Option<usize> {
        (self.page_end > 0).then(|| self.page_end / PAGE_TOKENS - 1)
    }

    /// Lowers the live counts of the pages under a dead label's `ranges`;
    /// a page other than the current one that reaches 0 joins the free
    /// list.
    pub fn release(&mut self, ranges: impl Iterator<Item = EdgeRef>) {
        let current = self.current_page();
        for range in ranges {
            let Range { mut start, end } = range.range();
            while start < end {
                let page = start / PAGE_TOKENS;
                let upto = end.min((page + 1) * PAGE_TOKENS);
                let dead = (upto - start) as u32;
                #[cfg(any(test, feature = "fault-injection"))]
                let dead = dead - u32::from(self.count_short);
                let live = &mut self.live[page];
                *live = live
                    .checked_sub(dead)
                    .expect("invariant: a page's live count covers the labels on it");
                if *live == 0 && Some(page) != current {
                    self.free.push(Reverse(page as u32));
                }
                start = upto;
            }
        }
    }

    /// Checks the page accounting against the ranges of every live label:
    /// each page's count is the live tokens on it, and a page is on the
    /// free list exactly when it holds none and is not the current page.
    pub fn assert_accounting(&self, ranges: impl Iterator<Item = EdgeRef>) {
        let mut recount = vec![0u32; self.live.len()];
        for range in ranges {
            for at in range.range() {
                recount[at / PAGE_TOKENS] += 1;
            }
        }
        assert_eq!(recount, self.live, "page live counts drift");
        let mut free = vec![false; self.live.len()];
        for &Reverse(page) in &self.free {
            let page = page as usize;
            assert!(!free[page], "page {page} is on the free list twice");
            free[page] = true;
        }
        for (page, (&live, &free)) in self.live.iter().zip(&free).enumerate() {
            let idle = live == 0 && Some(page) != self.current_page();
            assert_eq!(idle, free, "page {page} ({live} live) free-list drift");
        }
        assert!(self.cursor <= self.page_end && self.page_end <= self.live.len() * PAGE_TOKENS);
    }
}

impl Index<usize> for TokenStore {
    type Output = Token;

    #[inline]
    fn index(&self, at: usize) -> &Token {
        &self.tokens[at]
    }
}

impl Index<Range<usize>> for TokenStore {
    type Output = [Token];

    #[inline]
    fn index(&self, range: Range<usize>) -> &[Token] {
        &self.tokens[range]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(links: &Links, label: Label) -> Vec<(u32, u32)> {
        links.parts(label).map(|e| (e.off, e.len)).collect()
    }

    fn tokens(n: usize) -> Vec<Token> {
        (0..n as Token).collect()
    }

    #[test]
    fn fresh_pages_extend_one_range() {
        let (mut store, mut links) = (TokenStore::default(), Links::default());
        let a = store.push(&mut links, &tokens(1000), &tokens(100), 0);
        let b = store.push(&mut links, &tokens(3000), &[], 0);
        assert_eq!(ranges(&links, a), [(0, 1100)]);
        assert_eq!(ranges(&links, b), [(1100, 3000)]);
        assert_eq!(
            (store.len(), store.pages(), store.pages_reused),
            (4100, 5, 0)
        );
        store.assert_accounting(links.parts(a).chain(links.parts(b)));
    }

    #[test]
    fn freed_pages_are_reused_lowest_first() {
        let (mut store, mut links) = (TokenStore::default(), Links::default());
        let labels: Vec<Label> = (0..4)
            .map(|_| store.push(&mut links, &tokens(PAGE_TOKENS), &[], 0))
            .collect();
        // Pages 2 and 0 die; page 3 is current and keeps its tokens.
        for &i in &[2, 0] {
            store.release(links.parts(labels[i]));
            links.release(labels[i]);
        }
        // Page 3 is full: the write moves on to page 0, then page 2 (not
        // a neighbour: a second range), then a fresh page 4 (a third).
        let p = PAGE_TOKENS as u32;
        let c = store.push(&mut links, &tokens(2 * PAGE_TOKENS + 10), &[], 0);
        assert_eq!(ranges(&links, c), [(0, p), (2 * p, p), (4 * p, 10)]);
        assert_eq!((store.pages(), store.pages_reused), (5, 2));
        let live = [labels[1], labels[3], c];
        store.assert_accounting(live.iter().flat_map(|&l| links.parts(l)));
    }

    #[test]
    fn a_dead_current_page_is_freed_when_left() {
        let (mut store, mut links) = (TokenStore::default(), Links::default());
        let a = store.push(&mut links, &tokens(PAGE_TOKENS), &[], 0);
        store.release(links.parts(a));
        // Page 0 is empty but current, so not free; the next write finds
        // it full, leaves it and takes it straight back.
        store.assert_accounting(std::iter::empty());
        let b = store.push(&mut links, &tokens(8), &[], 0);
        assert_eq!(ranges(&links, b), [(0, 8)]);
        assert_eq!((store.pages(), store.pages_reused), (1, 1));
        store.assert_accounting(links.parts(b));
    }
}
