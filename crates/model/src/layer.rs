//! Layer taxonomy for hybrid models.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a model layer, following the paper's three-way taxonomy.
///
/// Hybrid models interleave a small number of [`Attention`] layers with many
/// [`Ssm`] layers (commonly 1 Attention per 6–10 SSM layers) plus [`Mlp`]
/// blocks. The three kinds differ in both prefill compute and in the shape
/// of the inference-time state they carry:
///
/// * [`Attention`] — quadratic compute, per-token KV state (rollback-able).
/// * [`Ssm`] — linear compute, constant-size in-place-updated state
///   (**not** rollback-able; the root cause of Marconi's design).
/// * [`Mlp`] — linear compute, stateless.
///
/// [`Attention`]: LayerKind::Attention
/// [`Ssm`]: LayerKind::Ssm
/// [`Mlp`]: LayerKind::Mlp
///
/// # Examples
///
/// ```
/// use marconi_model::LayerKind;
///
/// assert_eq!(LayerKind::Ssm.to_string(), "SSM");
/// assert_eq!(LayerKind::ALL.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LayerKind {
    /// Full self-attention: `O(L²)` prefill compute, `O(L)` KV state.
    Attention,
    /// State space model (Mamba-style): `O(L)` compute, `O(1)` state that is
    /// updated in place and cannot represent a prefix of the sequence it has
    /// consumed.
    Ssm,
    /// Feed-forward block: `O(L)` compute, no inference-time state.
    Mlp,
}

impl LayerKind {
    /// All layer kinds, in display order.
    pub const ALL: [LayerKind; 3] = [LayerKind::Attention, LayerKind::Ssm, LayerKind::Mlp];
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LayerKind::Attention => "Attention",
            LayerKind::Ssm => "SSM",
            LayerKind::Mlp => "MLP",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(LayerKind::Attention.to_string(), "Attention");
        assert_eq!(LayerKind::Ssm.to_string(), "SSM");
        assert_eq!(LayerKind::Mlp.to_string(), "MLP");
    }

    #[test]
    fn all_covers_every_variant() {
        assert_eq!(LayerKind::ALL.len(), 3);
        for kind in LayerKind::ALL {
            // Round-trips through serde.
            let json = serde_json_like(kind);
            assert!(!json.is_empty());
        }
    }

    fn serde_json_like(kind: LayerKind) -> String {
        format!("{kind:?}")
    }
}
