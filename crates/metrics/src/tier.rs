//! Two-way tier breakdown of a counter (device vs host).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A counter split across the device and host memory tiers — e.g. hit
/// tokens served from HBM vs hit tokens that had to cross PCIe. Reports
/// use it to show how much of the cache's value survives demotion.
///
/// # Examples
///
/// ```
/// use marconi_metrics::TierSplit;
///
/// let hits = TierSplit { device: 750, host: 250 };
/// assert_eq!(hits.total(), 1000);
/// assert!((hits.host_fraction() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierSplit {
    /// Device-tier (HBM-resident) share.
    pub device: u64,
    /// Host-tier (DRAM-resident) share.
    pub host: u64,
}

impl TierSplit {
    /// Sum of both tiers.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.device + self.host
    }

    /// Host share as a fraction of the total, in `[0, 1]` (0.0 for an
    /// empty split).
    #[must_use]
    pub fn host_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.host as f64 / total as f64
    }
}

impl fmt::Display for TierSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} device / {} host ({:.1}% host)",
            self.device,
            self.host,
            self.host_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_split_is_safe() {
        let s = TierSplit::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s.host_fraction(), 0.0);
    }

    #[test]
    fn display_shows_percentage() {
        let s = TierSplit { device: 3, host: 1 };
        assert!(s.to_string().contains("25.0% host"));
    }
}
