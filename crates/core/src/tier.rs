//! Memory tiers and reload policy for the device/host cache hierarchy.
//!
//! Marconi's original design treats eviction as deletion. Real deployments
//! instead *demote* cold KV/SSM state from device HBM to host DRAM and
//! reload it over PCIe when that is cheaper than recomputing it — the
//! "compute or load?" question. These types name the two tiers and the
//! reload decision rule; the tiered storage itself lives in
//! [`HybridPrefixCache`](crate::HybridPrefixCache).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a cache entry's bytes physically live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Device HBM: hits are free of transfer cost.
    #[default]
    Device,
    /// Host DRAM: hits require a PCIe transfer (or a recompute) before the
    /// state is usable on the device.
    Host,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Device => "device",
            Tier::Host => "host",
        })
    }
}

/// How a host-tier hit is brought back onto the device.
///
/// The serving layer charges latency for the host-resident share of a hit;
/// this knob picks between loading the bytes over PCIe and re-running the
/// prefill FLOPs that produced them. It is a behavioral knob of the cache
/// (mirrored by the tuner's replay replicas, like `checkpoint_mode`), even
/// though the *timing* is applied by the simulator's `GpuModel`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReloadPolicy {
    /// Per request, take whichever of the PCIe transfer and the recompute
    /// is faster (the "compute or load? why not both" rule). Default.
    #[default]
    ComputeOrLoad,
    /// Always transfer host-resident bytes over PCIe.
    AlwaysReload,
    /// Always recompute the host-resident spans on the device; the host
    /// tier then only serves to preserve *hit accounting* (the bandwidth-
    /// free baseline the compute-or-load rule is measured against).
    AlwaysRecompute,
}

impl fmt::Display for ReloadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReloadPolicy::ComputeOrLoad => "compute-or-load",
            ReloadPolicy::AlwaysReload => "always-reload",
            ReloadPolicy::AlwaysRecompute => "always-recompute",
        })
    }
}

/// Tier-split result of a non-mutating prefix probe: how much of the
/// longest reusable cached prefix is resident on each tier.
///
/// Returned by `HybridPrefixCache::probe_tiers`; cluster routers use it to
/// weigh a host-resident hit below an equally deep device-resident one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TieredPrefix {
    /// Total reusable prefix length in tokens (equals
    /// [`longest_cached_prefix_len`](crate::PrefixCache::longest_cached_prefix_len)).
    pub tokens: u64,
    /// Tokens of that prefix whose state is host-resident (requires a
    /// transfer or recompute before serving).
    pub host_tokens: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_tier_compatible() {
        assert_eq!(Tier::default(), Tier::Device);
        assert_eq!(ReloadPolicy::default(), ReloadPolicy::ComputeOrLoad);
        let p = TieredPrefix::default();
        assert_eq!((p.tokens, p.host_tokens), (0, 0));
    }

    #[test]
    fn display_names() {
        assert_eq!(Tier::Device.to_string(), "device");
        assert_eq!(Tier::Host.to_string(), "host");
        assert_eq!(ReloadPolicy::ComputeOrLoad.to_string(), "compute-or-load");
        assert_eq!(ReloadPolicy::AlwaysReload.to_string(), "always-reload");
        assert_eq!(
            ReloadPolicy::AlwaysRecompute.to_string(),
            "always-recompute"
        );
    }
}
