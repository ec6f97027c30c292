//! Cached-state memory footprints (Table 1 state sizes, Fig. 3b).

use crate::ModelConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign};

/// Bytes of cached model state, split into rollback-able KV bytes and
/// all-or-nothing SSM checkpoint bytes.
///
/// # Examples
///
/// ```
/// use marconi_model::ModelConfig;
///
/// let m = ModelConfig::hybrid_7b();
/// let fp = m.state_footprint(4096);
/// // KV bytes grow with sequence length; SSM bytes do not.
/// assert_eq!(fp.ssm_bytes, m.state_footprint(8192).ssm_bytes);
/// assert!(fp.kv_bytes < m.state_footprint(8192).kv_bytes);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct StateFootprint {
    /// Attention KV bytes (linear in token count; can be sliced per token).
    pub kv_bytes: u64,
    /// SSM recurrent + conv state bytes (constant per checkpoint; cannot be
    /// rolled back).
    pub ssm_bytes: u64,
}

impl StateFootprint {
    /// Total bytes across both state kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.kv_bytes + self.ssm_bytes
    }
}

impl Add for StateFootprint {
    type Output = StateFootprint;

    fn add(self, rhs: StateFootprint) -> StateFootprint {
        StateFootprint {
            kv_bytes: self.kv_bytes + rhs.kv_bytes,
            ssm_bytes: self.ssm_bytes + rhs.ssm_bytes,
        }
    }
}

impl AddAssign for StateFootprint {
    fn add_assign(&mut self, rhs: StateFootprint) {
        *self = *self + rhs;
    }
}

impl fmt::Display for StateFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} MiB (kv {:.2} MiB, ssm {:.2} MiB)",
            self.total() as f64 / (1 << 20) as f64,
            self.kv_bytes as f64 / (1 << 20) as f64,
            self.ssm_bytes as f64 / (1 << 20) as f64
        )
    }
}

/// Total bytes of cache entries generated by *fine-grained* checkpointing of
/// a single `seq_len`-token sequence with the given token-block size
/// (paper Fig. 3b).
///
/// Fine-grained checkpointing (the vLLM+ strategy) stores, for every block
/// of `block_size` tokens, the KVs of that block *plus* one full-model SSM
/// checkpoint representing all tokens up to the block boundary. KV bytes are
/// therefore linear in `seq_len`, while SSM bytes scale with the *number of
/// blocks* — the source of the memory blow-up motivating Marconi.
///
/// # Panics
///
/// Panics if `block_size` is zero.
///
/// # Examples
///
/// ```
/// use marconi_model::{sequence_cache_bytes, ModelConfig};
///
/// let m = ModelConfig::hybrid_7b();
/// // Fig. 3b: ~17 GB for a single 10K-token sequence at block size 16.
/// let bytes = sequence_cache_bytes(&m, 10_000, 16);
/// let gb = bytes as f64 / 1e9;
/// assert!(gb > 14.0 && gb < 20.0, "got {gb} GB");
/// ```
#[must_use]
pub fn sequence_cache_bytes(model: &ModelConfig, seq_len: u64, block_size: u64) -> u64 {
    assert!(block_size > 0, "block_size must be positive");
    let num_blocks = seq_len.div_ceil(block_size);
    model.kv_bytes(seq_len) + num_blocks * model.ssm_checkpoint_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_total_and_add() {
        let a = StateFootprint {
            kv_bytes: 10,
            ssm_bytes: 5,
        };
        let b = StateFootprint {
            kv_bytes: 1,
            ssm_bytes: 2,
        };
        assert_eq!(a.total(), 15);
        assert_eq!((a + b).total(), 18);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn fig3b_scaling_shape() {
        // Smaller blocks => more SSM checkpoints => more bytes.
        let m = ModelConfig::hybrid_7b();
        let b8 = sequence_cache_bytes(&m, 10_000, 8);
        let b16 = sequence_cache_bytes(&m, 10_000, 16);
        let b32 = sequence_cache_bytes(&m, 10_000, 32);
        assert!(b8 > b16 && b16 > b32);
    }

    #[test]
    fn fig3b_headline_number() {
        // Paper: "for a 7B model, a single sequence of 10K tokens consumes
        // 17.4 GB" at block size 16. Our conv-state approximation lands in
        // the same range.
        let m = ModelConfig::hybrid_7b();
        let gb = sequence_cache_bytes(&m, 10_000, 16) as f64 / 1e9;
        assert!((15.0..19.0).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn fig3b_hybrid_vs_transformer() {
        // Paper: the 10K-token hybrid footprint is ~3.3x a Transformer of
        // the same size (whose cache is KVs only).
        let h = ModelConfig::hybrid_7b();
        let t = ModelConfig::transformer_7b();
        let hybrid = sequence_cache_bytes(&h, 10_000, 16) as f64;
        let transformer = sequence_cache_bytes(&t, 10_000, 16) as f64;
        let ratio = hybrid / transformer;
        assert!((2.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn partial_last_block_rounds_up() {
        let m = ModelConfig::hybrid_7b();
        let exact = sequence_cache_bytes(&m, 64, 32);
        let ragged = sequence_cache_bytes(&m, 65, 32);
        // 65 tokens need 3 blocks of SSM state vs 2.
        assert_eq!(
            ragged - exact,
            m.ssm_checkpoint_bytes() + m.kv_bytes_per_token()
        );
    }

    #[test]
    #[should_panic(expected = "block_size")]
    fn zero_block_size_panics() {
        let m = ModelConfig::hybrid_7b();
        let _ = sequence_cache_bytes(&m, 100, 0);
    }

    #[test]
    fn display_shows_mib() {
        let m = ModelConfig::hybrid_7b();
        assert!(m.state_footprint(100).to_string().contains("MiB"));
    }
}
