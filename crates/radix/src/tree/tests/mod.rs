//! The tree's unit tests, one file per topic.
//!
//! The topic files are `include!`d, not declared as modules, so every test
//! keeps its `tree::tests::` path, by which the recorded test lists name
//! it. The shared helper and imports below are in scope in every topic
//! file. `cargo fmt` does not follow `include!`; CI runs `rustfmt --check`
//! on the topic files by name.

use super::*;

fn tree() -> RadixTree<u32> {
    RadixTree::new()
}

include!("structure.rs");
include!("speculation.rs");
include!("pins.rs");
include!("store.rs");
include!("candidates.rs");
include!("removal.rs");
include!("cursors.rs");
include!("compare.rs");
