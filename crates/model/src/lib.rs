//! Layer, FLOP, and memory accounting for hybrid (Attention + SSM) LLMs.
//!
//! This crate is the quantitative foundation of the Marconi reproduction: it
//! implements the per-layer prefill FLOP counts and model-state sizes from
//! Table 1 of the paper, the *FLOP efficiency* metric (Eq. 1), and a preset
//! zoo of model architectures used throughout the evaluation (the 7B hybrid
//! with `{4, 24, 28}` `{Attention, SSM, MLP}` layers, pure-Mamba and
//! pure-Transformer 7B variants, and the layer-composition / state-dimension
//! sweeps of Fig. 12).
//!
//! All formulas assume half-precision (2 bytes/parameter) by default and are
//! exact integer computations in `u128`, with `f64` conveniences for ratios.
//!
//! | layer | prefill FLOPs (length `L`) | state bytes |
//! |---|---|---|
//! | Attention | `8·L·D² + 4·L²·D` | `4·L·D` (K and V, fp16) |
//! | MLP | `16·L·D²` | — |
//! | SSM | `12·L·D² + 16·L·D·N + 10·L` | `2·D·N` + conv `2·(e·D)·k` |
//!
//! where `D = d_model`, `N = d_state`, `e` = expansion factor, `k` = conv
//! kernel width.
//!
//! # Examples
//!
//! ```
//! use marconi_model::ModelConfig;
//!
//! let model = ModelConfig::hybrid_7b();
//! // A 1024-token prefill costs about 2.4e12 FLOPs on this model...
//! let flops = model.prefill_flops(1024);
//! assert!(flops.total() > 0);
//! // ...and its cached states occupy KVs plus one SSM checkpoint.
//! let footprint = model.state_footprint(1024);
//! assert_eq!(
//!     footprint.total(),
//!     footprint.kv_bytes + footprint.ssm_bytes
//! );
//! ```

mod bandwidth;
mod config;
mod efficiency;
mod flops;
mod layer;
mod memory;
mod presets;

pub use bandwidth::{MemoryBandwidths, A100_HBM_BYTES_PER_S, A100_PCIE_BYTES_PER_S};
pub use config::{ConfigError, ModelConfig, ModelConfigBuilder};
pub use efficiency::FlopEfficiency;
pub use flops::FlopBreakdown;
pub use layer::LayerKind;
pub use memory::{sequence_cache_bytes, StateFootprint};
