//! Edge labels as chains of token-store ranges.
//!
//! A label's first range lives inline in its node; any further ranges are
//! links in one shared range arena ([`Links`]), kept as a circular list
//! reached through the label's *last* link. That one handle gives O(1)
//! access to both ends of the chain: a merge appends one chain to another
//! by swapping two `next` fields, and the seam it creates (the front
//! label's last range against the back label's first) coalesces when the
//! two ranges are adjacent in the store. A one-range label has no link at
//! all, so a walk pays one predictable branch for the chain.

use crate::node::EdgeRef;

/// "No link": the `last` of a one-range label and the end of the free list.
pub(crate) const NO_LINK: u32 = u32::MAX;

/// An edge label: `first`, then the ranges of the circular list that ends
/// at `last`, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Label {
    /// The first range, inline: the label's first token (its child key)
    /// and, for a one-range label, all of it.
    pub first: EdgeRef,
    /// Tokens on the whole label.
    pub len: u32,
    /// The chain's last link ([`NO_LINK`] for a one-range label); its
    /// `next` is the chain's first link.
    pub last: u32,
}

impl Label {
    /// The root's label.
    pub const EMPTY: Label = Label::single(EdgeRef::EMPTY);

    /// A label of one range.
    pub const fn single(range: EdgeRef) -> Label {
        Label {
            first: range,
            len: range.len,
            last: NO_LINK,
        }
    }

    pub fn is_single(self) -> bool {
        self.last == NO_LINK
    }

    pub fn len(self) -> usize {
        self.len as usize
    }
}

/// One range past a label's first, and the next link of its chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    range: EdgeRef,
    next: u32,
}

/// The range arena behind every chained label: a free-list slab of links,
/// so it holds at most the links live labels use (plus freed ones it will
/// hand out again).
#[derive(Debug, Clone)]
pub(crate) struct Links {
    slots: Vec<Link>,
    /// Head of the free list, threaded through `next`.
    free: u32,
    /// Links in use by live labels.
    live: usize,
}

impl Default for Links {
    fn default() -> Self {
        Links {
            slots: Vec::new(),
            free: NO_LINK,
            live: 0,
        }
    }
}

impl Links {
    /// Links in use by live labels.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots, live or free: the arena's high-water mark.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// A new one-link circle holding `range`.
    fn alloc(&mut self, range: EdgeRef) -> u32 {
        self.live += 1;
        if self.free != NO_LINK {
            let at = self.free;
            self.free = self.slots[at as usize].next;
            self.slots[at as usize] = Link { range, next: at };
            return at;
        }
        let at = u32::try_from(self.slots.len())
            .ok()
            .filter(|&at| at != NO_LINK)
            .expect("invariant: fewer than 2^32 - 1 label ranges are live");
        self.slots.push(Link { range, next: at });
        at
    }

    fn free_one(&mut self, at: u32) {
        self.slots[at as usize].next = self.free;
        self.free = at;
        self.live -= 1;
    }

    /// Returns every link of a dead label to the free list.
    pub fn release(&mut self, label: Label) {
        if label.is_single() {
            return;
        }
        let mut at = self.slots[label.last as usize].next;
        loop {
            let next = self.slots[at as usize].next;
            self.free_one(at);
            if at == label.last {
                return;
            }
            at = next;
        }
    }

    /// Joins two circles given by their last links (either may be
    /// [`NO_LINK`]) into one, `a`'s links first; returns its last link.
    fn concat(&mut self, a: u32, b: u32) -> u32 {
        if a == NO_LINK {
            return b;
        }
        if b == NO_LINK {
            return a;
        }
        let a_first = self.slots[a as usize].next;
        self.slots[a as usize].next = self.slots[b as usize].next;
        self.slots[b as usize].next = a_first;
        b
    }

    /// The label `front ‖ back`, in O(1): no token moves. Where `front`'s
    /// last range ends exactly where `back`'s first begins in the store —
    /// a split pair, or two pieces one insert wrote back to back — the
    /// two become one range.
    pub fn join(&mut self, front: Label, back: Label) -> Label {
        let len = front.len + back.len;
        let seam = if front.is_single() {
            front.first
        } else {
            self.slots[front.last as usize].range
        };
        if seam.off + seam.len == back.first.off {
            let grown = EdgeRef {
                off: seam.off,
                len: seam.len + back.first.len,
            };
            if front.is_single() {
                return Label {
                    first: grown,
                    len,
                    last: back.last,
                };
            }
            self.slots[front.last as usize].range = grown;
            let last = self.concat(front.last, back.last);
            return Label {
                first: front.first,
                len,
                last,
            };
        }
        let back_first = self.alloc(back.first);
        let back_links = self.concat(back_first, back.last);
        let last = self.concat(front.last, back_links);
        Label {
            first: front.first,
            len,
            last,
        }
    }

    /// Cuts `label` after `at` tokens (`0 < at < len`) into its head and
    /// tail. A cut inside a range splits that range; a cut on a seam hands
    /// whole ranges to each side. O(ranges before the cut); no token moves.
    /// Inlined into the insert walk's split, as the one-range cut was.
    #[inline]
    pub fn cut(&mut self, label: Label, at: u32) -> (Label, Label) {
        debug_assert!(0 < at && at < label.len, "cut {at} of {}", label.len);
        let first = label.first;
        if at < first.len {
            let head = Label::single(EdgeRef {
                off: first.off,
                len: at,
            });
            let tail = Label {
                first: EdgeRef {
                    off: first.off + at,
                    len: first.len - at,
                },
                len: label.len - at,
                last: label.last,
            };
            return (head, tail);
        }
        // Past the first range, so the label has links.
        let first_link = self.slots[label.last as usize].next;
        let mut prev = NO_LINK;
        let mut cur = first_link;
        let mut pos = first.len;
        loop {
            let Link { range, next } = self.slots[cur as usize];
            if at >= pos + range.len {
                pos += range.len;
                prev = cur;
                cur = next;
                continue;
            }
            // The tail keeps the links after `cur`, closed into a circle.
            let tail_last = if cur == label.last {
                NO_LINK
            } else {
                self.slots[label.last as usize].next = next;
                label.last
            };
            let into = at - pos;
            let (head_last, tail_first) = if into == 0 {
                // On the seam in front of `cur`: its range opens the tail.
                self.free_one(cur);
                if prev != NO_LINK {
                    self.slots[prev as usize].next = first_link;
                }
                (prev, range)
            } else {
                // Inside `cur`: its front stays the head's last link.
                self.slots[cur as usize] = Link {
                    range: EdgeRef {
                        off: range.off,
                        len: into,
                    },
                    next: first_link,
                };
                let rest = EdgeRef {
                    off: range.off + into,
                    len: range.len - into,
                };
                (cur, rest)
            };
            let head = Label {
                first,
                len: at,
                last: head_last,
            };
            let tail = Label {
                first: tail_first,
                len: label.len - at,
                last: tail_last,
            };
            return (head, tail);
        }
    }

    /// The label's ranges in order (none for the root's empty label).
    pub fn parts(&self, label: Label) -> Parts<'_> {
        Parts {
            slots: &self.slots,
            next: (label.len > 0).then_some(label.first),
            at: self.first_link(label),
            last: label.last,
        }
    }

    fn first_link(&self, label: Label) -> u32 {
        if label.is_single() {
            NO_LINK
        } else {
            self.slots[label.last as usize].next
        }
    }

    /// Checks the arena against the `reached` links that live labels
    /// chain through: equal to the live count, and every other slot on
    /// the free list.
    pub fn assert_accounting(&self, reached: usize) {
        assert_eq!(reached, self.live, "label links leaked or shared");
        let mut free = 0usize;
        let mut at = self.free;
        while at != NO_LINK {
            free += 1;
            assert!(free <= self.slots.len(), "free list of label links cycles");
            at = self.slots[at as usize].next;
        }
        assert_eq!(
            free + self.live,
            self.slots.len(),
            "label links neither live nor free"
        );
    }
}

/// The ranges of one label, in order ([`Links::parts`]).
pub(crate) struct Parts<'a> {
    slots: &'a [Link],
    next: Option<EdgeRef>,
    at: u32,
    last: u32,
}

impl Iterator for Parts<'_> {
    type Item = EdgeRef;

    fn next(&mut self) -> Option<EdgeRef> {
        let out = self.next.take()?;
        if self.at != NO_LINK {
            let link = self.slots[self.at as usize];
            self.next = Some(link.range);
            self.at = if self.at == self.last {
                NO_LINK
            } else {
                link.next
            };
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(off: u32, len: u32) -> EdgeRef {
        EdgeRef { off, len }
    }

    fn ranges(links: &Links, label: Label) -> Vec<(u32, u32)> {
        links.parts(label).map(|e| (e.off, e.len)).collect()
    }

    /// `[0,2) [10,13) [20,24)` as one chain of three ranges.
    fn three(links: &mut Links) -> Label {
        let a = links.join(Label::single(r(0, 2)), Label::single(r(10, 3)));
        links.join(a, Label::single(r(20, 4)))
    }

    #[test]
    fn join_chains_and_coalesces_adjacent_ranges() {
        let mut links = Links::default();
        let l = three(&mut links);
        assert_eq!(ranges(&links, l), [(0, 2), (10, 3), (20, 4)]);
        assert_eq!((l.len, links.live), (9, 2));
        // `[24,26)` continues the last range: no new link.
        let l = links.join(l, Label::single(r(24, 2)));
        assert_eq!(ranges(&links, l), [(0, 2), (10, 3), (20, 6)]);
        assert_eq!(links.live, 2);
        // Two chains: the back one's first range becomes a link.
        let back = links.join(Label::single(r(40, 1)), Label::single(r(50, 1)));
        let l = links.join(l, back);
        assert_eq!(
            ranges(&links, l),
            [(0, 2), (10, 3), (20, 6), (40, 1), (50, 1)]
        );
        assert_eq!(links.live, 4);
        links.release(l);
        links.assert_accounting(0);
    }

    #[test]
    fn cut_inside_a_range_and_on_every_seam() {
        for at in 1..9 {
            let mut links = Links::default();
            let l = three(&mut links);
            let (head, tail) = links.cut(l, at);
            let mut joined = ranges(&links, head);
            joined.extend(ranges(&links, tail));
            let tokens: Vec<u32> = joined.iter().flat_map(|&(o, n)| o..o + n).collect();
            assert_eq!(tokens, [0, 1, 10, 11, 12, 20, 21, 22, 23], "cut {at}");
            assert_eq!((head.len, tail.len), (at, 9 - at));
            let parts = |l: Label| links.parts(l).count();
            // A seam cut (at 2 and 5) splits no range: 3 ranges in all.
            let want = if at == 2 || at == 5 { 3 } else { 4 };
            assert_eq!(parts(head) + parts(tail), want, "cut {at}");
            links.release(head);
            links.release(tail);
            links.assert_accounting(0);
        }
    }

    #[test]
    fn freed_links_are_reused() {
        let mut links = Links::default();
        let l = three(&mut links);
        links.release(l);
        let l = three(&mut links);
        assert_eq!(links.slots.len(), 2);
        links.assert_accounting(2);
        assert_eq!(links.parts(l).count(), 3);
    }
}
