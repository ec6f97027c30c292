//! Arena allocator properties: free-list reuse bounds slab growth, and
//! generation tags make stale [`NodeId`]s harmless.
//!
//! These are the safety arguments for replacing the pre-refactor engine's
//! plain slab with the generation-tagged arena: (1) churn cannot grow the
//! arena past its live high-water mark (plus one retired slot per 2^32
//! frees of a single slot — the unit test
//! `a_slot_whose_generation_would_wrap_is_retired_not_reused` in
//! `tree.rs` covers that end), and (2) an id that outlives its node can
//! never silently alias the slot's next tenant.

use marconi_radix::{NodeId, RadixTree, RemoveError, Token};
use proptest::prelude::*;

/// One churn operation.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Token>),
    /// Remove the `k % live`-th live node (by arena index); rejections
    /// (multi-child, root) are fine — they just don't free a slot.
    Remove(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..10,
        prop::collection::vec(0u32..6, 0..16),
        0u32..1 << 30,
    )
        .prop_map(|(roll, seq, k)| {
            if roll < 5 {
                Op::Insert(seq)
            } else {
                Op::Remove(k)
            }
        })
}

fn kth_live(tree: &RadixTree<()>, k: u32) -> Option<NodeId> {
    let mut ids: Vec<NodeId> = tree.node_ids().collect();
    if ids.is_empty() {
        return None;
    }
    ids.sort_unstable();
    Some(ids[k as usize % ids.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The slab only grows when the live count exceeds every previous live
    /// count: `arena_capacity() == 1 + high_water(len()) + retired` (the
    /// `1` is the root's permanent slot; a slot retires on its 2^32-th
    /// free, when its generation would wrap, so `retired` is 0 here). Any
    /// churn pattern that removes nodes must recycle their slots via the
    /// free list before new slots are carved.
    #[test]
    fn free_list_reuse_bounds_arena_growth(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let mut tree: RadixTree<()> = RadixTree::new();
        let mut high_water = 0usize;
        let mut live_model = 0usize;
        for op in &ops {
            match op {
                Op::Insert(seq) => {
                    let outcome = tree.insert(seq);
                    live_model += usize::from(outcome.split_node.is_some());
                    live_model += usize::from(outcome.new_leaf.is_some());
                }
                Op::Remove(k) => {
                    if let Some(id) = kth_live(&tree, *k) {
                        if tree.remove(id).is_ok() {
                            live_model -= 1;
                        }
                    }
                }
            }
            prop_assert_eq!(tree.len(), live_model);
            high_water = high_water.max(tree.len());
            prop_assert_eq!(tree.arena_capacity(), 1 + high_water);
        }
        tree.assert_invariants();
    }

    /// Ids of removed nodes stay dead forever: the slot's bumped generation
    /// makes every later tenant a different id, so `contains` is false and
    /// `remove` reports `NotFound` no matter how often the slot is reused.
    #[test]
    fn generation_tags_keep_stale_ids_dead(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let mut tree: RadixTree<()> = RadixTree::new();
        let mut dead: Vec<NodeId> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(seq) => {
                    tree.insert(seq);
                }
                Op::Remove(k) => {
                    if let Some(id) = kth_live(&tree, *k) {
                        if tree.remove(id).is_ok() {
                            dead.push(id);
                        }
                    }
                }
            }
            for &d in &dead {
                prop_assert!(!tree.contains(d), "removed id {} reports live", d);
                prop_assert!(
                    tree.remove(d).is_err(),
                    "removed id {} was removable twice",
                    d
                );
            }
        }
    }
}

/// Deterministic churn: the same slot is reused across rounds (LIFO free
/// list), each occupancy gets a fresh generation, and every prior
/// occupancy's id is dead while sharing the arena index.
#[test]
fn slot_reuse_bumps_generation() {
    let mut tree: RadixTree<()> = RadixTree::new();
    tree.insert(&[1, 2, 3]);
    let mut prior: Vec<NodeId> = Vec::new();
    for round in 0..8u32 {
        let leaf = tree
            .insert(&[1, 2, 3, 100 + round])
            .new_leaf
            .expect("fresh suffix always creates a leaf");
        if let Some(&prev) = prior.last() {
            assert_eq!(
                leaf.index(),
                prev.index(),
                "LIFO free list must hand back the slot just freed"
            );
            assert_ne!(
                leaf.generation(),
                prev.generation(),
                "slot reuse must mint a fresh generation"
            );
        }
        for &stale in &prior {
            assert!(!tree.contains(stale));
            assert_eq!(tree.remove(stale).unwrap_err(), RemoveError::NotFound);
        }
        assert!(tree.contains(leaf));
        tree.remove(leaf).expect("leaf is removable");
        prior.push(leaf);
    }
    // Eight occupancies of one slot: eight distinct generations.
    let mut gens: Vec<u32> = prior.iter().map(|id| id.generation()).collect();
    gens.sort_unstable();
    gens.dedup();
    assert_eq!(gens.len(), 8, "every occupancy gets a distinct generation");
    // Churn never grew the arena past its high-water mark.
    assert_eq!(tree.arena_capacity(), 1 + 2);
}
