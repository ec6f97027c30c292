//! Per-dataset session specifications.

use crate::dist::LenDist;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The workload families of the paper's evaluation (§5.1, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// LMSys-Chat-1M-like conversations: outputs often reach thousands of
    /// tokens; contexts grow toward ~30K.
    Lmsys,
    /// ShareGPT-like conversations: succinct outputs (tens to hundreds of
    /// tokens); sequences predominantly under 2K.
    ShareGpt,
    /// SWE-Agent-on-SWE-Bench-like agentic trajectories: a long shared
    /// instruction prompt, large environment observations, short actions,
    /// many steps; the widest input-length distribution.
    SweBench,
}

impl DatasetKind {
    /// All dataset kinds, in the paper's presentation order.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::Lmsys,
        DatasetKind::ShareGpt,
        DatasetKind::SweBench,
    ];

    /// The session specification for this dataset family.
    #[must_use]
    pub fn spec(self) -> SessionSpec {
        match self {
            DatasetKind::Lmsys => SessionSpec {
                prompt_pool: 16,
                no_prompt_prob: 0.35,
                prompt_len: LenDist::log_normal(220.0, 0.6, 30, 900),
                first_input_len: LenDist::log_normal(180.0, 1.0, 10, 4_000),
                turn_input_len: LenDist::log_normal(120.0, 1.0, 8, 3_000),
                output_len: LenDist::log_normal(950.0, 0.8, 40, 6_000),
                turns: LenDist::log_normal(3.0, 0.9, 1, 12),
                max_context: 32_000,
            },
            DatasetKind::ShareGpt => SessionSpec {
                prompt_pool: 16,
                no_prompt_prob: 0.5,
                prompt_len: LenDist::log_normal(120.0, 0.5, 20, 400),
                first_input_len: LenDist::log_normal(120.0, 0.9, 8, 1_500),
                turn_input_len: LenDist::log_normal(90.0, 0.9, 5, 1_000),
                output_len: LenDist::log_normal(140.0, 0.8, 10, 900),
                turns: LenDist::log_normal(4.0, 0.6, 1, 14),
                max_context: 5_000,
            },
            DatasetKind::SweBench => SessionSpec {
                prompt_pool: 3,
                no_prompt_prob: 0.0,
                prompt_len: LenDist::log_normal(1_600.0, 0.15, 900, 2_600),
                first_input_len: LenDist::log_normal(650.0, 0.8, 60, 6_000),
                turn_input_len: LenDist::log_normal(850.0, 1.2, 40, 9_000),
                output_len: LenDist::log_normal(160.0, 0.6, 20, 600),
                turns: LenDist::log_normal(11.0, 0.5, 2, 30),
                max_context: 40_000,
            },
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DatasetKind::Lmsys => "lmsys",
            DatasetKind::ShareGpt => "sharegpt",
            DatasetKind::SweBench => "swebench",
        };
        f.write_str(name)
    }
}

/// Shape of a session: how prompts, turns, and lengths are drawn.
///
/// The per-dataset presets come from [`DatasetKind::spec`]; custom
/// workloads can construct their own.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Number of distinct system prompts shared across sessions (the
    /// source of purely-input prefix reuse).
    pub prompt_pool: usize,
    /// Probability that a session carries no system prompt.
    pub no_prompt_prob: f64,
    /// Length of each pooled system prompt.
    pub prompt_len: LenDist,
    /// User/task tokens appended in the first turn (e.g. the question or
    /// the GitHub issue statement).
    pub first_input_len: LenDist,
    /// New tokens appended per subsequent turn (user message or
    /// environment observation).
    pub turn_input_len: LenDist,
    /// Decoded output tokens per turn (assistant message or agent action).
    pub output_len: LenDist,
    /// Turns per session.
    pub turns: LenDist,
    /// Sessions stop growing past this many context tokens.
    pub max_context: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_reflect_fig6_contrasts() {
        let lmsys = DatasetKind::Lmsys.spec();
        let sharegpt = DatasetKind::ShareGpt.spec();
        let swebench = DatasetKind::SweBench.spec();

        // LMSys outputs are much longer than ShareGPT's.
        assert!(lmsys.output_len.mean() > 4.0 * sharegpt.output_len.mean());
        // ShareGPT contexts are short.
        assert!(sharegpt.max_context <= 5_000);
        // SWE-Bench trajectories are the longest and always share a prompt.
        assert!(swebench.max_context > lmsys.max_context);
        assert_eq!(swebench.no_prompt_prob, 0.0);
        assert!(swebench.turns.mean() > lmsys.turns.mean());
    }

    #[test]
    fn display_names() {
        assert_eq!(DatasetKind::Lmsys.to_string(), "lmsys");
        assert_eq!(DatasetKind::ShareGpt.to_string(), "sharegpt");
        assert_eq!(DatasetKind::SweBench.to_string(), "swebench");
    }
}
