//! The trace generator.

use crate::arrival::ArrivalConfig;
use crate::spec::{DatasetKind, SessionSpec};
use crate::trace::{Request, Trace};
use crate::Token;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Token-id block reserved per fresh segment so distinct segments never
/// accidentally share prefixes (real tokenized text essentially never
/// repeats hundreds of tokens by chance).
const VOCAB: u32 = 50_000;

/// Generates deterministic synthetic traces for a dataset family.
///
/// See the [crate docs](crate) for what the generator reproduces and why.
///
/// # Examples
///
/// ```
/// use marconi_workload::{ArrivalConfig, DatasetKind, TraceGenerator};
///
/// let trace = TraceGenerator::new(DatasetKind::SweBench)
///     .sessions(5)
///     .arrival(ArrivalConfig::new(0.5, 5.0))
///     .seed(42)
///     .generate();
/// trace.assert_well_formed();
/// // Agentic turns carry the full trajectory: inputs grow monotonically
/// // within a session.
/// let s0: Vec<_> = trace
///     .requests
///     .iter()
///     .filter(|r| r.session_id == 0)
///     .collect();
/// for pair in s0.windows(2) {
///     assert!(pair[1].input_len() > pair[0].input_len());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    kind: DatasetKind,
    spec: SessionSpec,
    sessions: usize,
    tenants: usize,
    arrival: ArrivalConfig,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator for the dataset family with its default spec,
    /// 50 sessions, one tenant, default arrivals, and seed 0.
    #[must_use]
    pub fn new(kind: DatasetKind) -> Self {
        TraceGenerator {
            kind,
            spec: kind.spec(),
            sessions: 50,
            tenants: 1,
            arrival: ArrivalConfig::default(),
            seed: 0,
        }
    }

    /// Overrides the session spec (defaults to [`DatasetKind::spec`]).
    #[must_use]
    pub fn spec(mut self, spec: SessionSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the number of sessions.
    #[must_use]
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Sets the number of tenants (default 1), enabling the multi-tenant
    /// trace mode.
    ///
    /// Each tenant draws from its **own** pool of `prompt_pool` system
    /// prompts, and sessions are interleaved across tenants round-robin
    /// (`tenant = session_id % tenants`). Prefix reuse across sessions
    /// therefore only exists *within* a tenant — the workload structure
    /// under which cluster routing policies (`marconi-sim`'s `cluster`
    /// module) actually differ: a router that co-locates a tenant's
    /// sessions on one replica preserves cross-session prompt reuse that
    /// scattering destroys.
    ///
    /// With `tenants == 1` the generator is byte-identical to the
    /// single-tenant mode (same RNG stream, same trace name), so every
    /// seeded trace predating this knob is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    #[must_use]
    pub fn tenants(mut self, tenants: usize) -> Self {
        assert!(tenants > 0, "at least one tenant is required");
        self.tenants = tenants;
        self
    }

    /// Sets the arrival dynamics.
    #[must_use]
    pub fn arrival(mut self, arrival: ArrivalConfig) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the RNG seed (every seed produces one fixed trace).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the trace.
    #[must_use]
    pub fn generate(&self) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4d61_7263_6f6e_6931);
        let spec = &self.spec;

        // Shared system prompts: the cross-session, purely-input prefixes.
        // One pool per tenant, drawn sequentially so the single-tenant case
        // consumes the RNG stream exactly as it always has (the seeded
        // traces every downstream test is calibrated against must not
        // shift).
        let pools: Vec<Vec<Vec<Token>>> = (0..self.tenants)
            .map(|_| {
                (0..spec.prompt_pool)
                    .map(|_| {
                        let len = spec.prompt_len.sample(&mut rng);
                        fresh_segment(&mut rng, len)
                    })
                    .collect()
            })
            .collect();

        let mut requests = Vec::new();
        let mut session_start = 0.0f64;
        for session_id in 0..self.sessions as u64 {
            let tenant_id = session_id % self.tenants as u64;
            let prompts = &pools[tenant_id as usize];
            session_start += self.arrival.next_session_gap(&mut rng);
            let turns = spec.turns.sample(&mut rng).max(1) as u32;

            // Conversation state.
            let mut history: Vec<Token> = if rng.gen::<f64>() < spec.no_prompt_prob {
                Vec::new()
            } else {
                prompts[rng.gen_range(0..prompts.len().max(1))].clone()
            };
            let mut at = session_start;
            for turn in 0..turns {
                let new_len = if turn == 0 {
                    spec.first_input_len.sample(&mut rng)
                } else {
                    spec.turn_input_len.sample(&mut rng)
                };
                let mut input = history.clone();
                input.extend(fresh_segment(&mut rng, new_len));
                let output_len = spec.output_len.sample(&mut rng);
                let output = fresh_segment(&mut rng, output_len);
                requests.push(Request {
                    id: 0, // assigned after the arrival sort
                    session_id,
                    tenant_id,
                    turn,
                    arrival: at,
                    input: input.clone(),
                    output: output.clone(),
                });
                history = input;
                history.extend_from_slice(&output);
                if history.len() as u64 >= spec.max_context {
                    break;
                }
                at += self.arrival.next_turn_gap(&mut rng);
            }
        }

        requests.sort_by(|a, b| {
            a.arrival
                .total_cmp(&b.arrival)
                .then(a.session_id.cmp(&b.session_id))
        });
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = i as u64;
        }
        // The tenant tag appears only in multi-tenant mode, so single-tenant
        // trace names (keys into golden expectations) are unchanged.
        let tenant_tag = if self.tenants > 1 {
            format!("-x{}", self.tenants)
        } else {
            String::new()
        };
        Trace {
            name: format!(
                "{}-s{}{}-r{:.2}-t{:.1}-seed{}",
                self.kind,
                self.sessions,
                tenant_tag,
                self.arrival.sessions_per_second,
                self.arrival.mean_response_time,
                self.seed
            ),
            requests,
        }
    }
}

/// A run of random token ids: models freshly tokenized novel text.
fn fresh_segment(rng: &mut StdRng, len: u64) -> Vec<Token> {
    (0..len).map(|_| rng.gen_range(0..VOCAB)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: DatasetKind) -> Trace {
        TraceGenerator::new(kind).sessions(20).seed(11).generate()
    }

    #[test]
    fn traces_are_well_formed() {
        for kind in DatasetKind::ALL {
            let t = small(kind);
            t.assert_well_formed();
            assert!(t.len() >= 20, "{kind}: at least one request per session");
            assert_eq!(t.session_count(), 20);
        }
    }

    #[test]
    fn same_seed_same_trace_different_seed_different() {
        let a = small(DatasetKind::Lmsys);
        let b = small(DatasetKind::Lmsys);
        assert_eq!(a, b);
        let c = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(20)
            .seed(12)
            .generate();
        assert_ne!(a.requests[0].input, c.requests[0].input);
    }

    #[test]
    fn turns_carry_full_history() {
        let t = small(DatasetKind::ShareGpt);
        let mut by_session: std::collections::HashMap<u64, Vec<&Request>> = Default::default();
        for r in &t.requests {
            by_session.entry(r.session_id).or_default().push(r);
        }
        for reqs in by_session.values() {
            let mut reqs = reqs.clone();
            reqs.sort_by_key(|r| r.turn);
            for pair in reqs.windows(2) {
                let (prev, next) = (pair[0], pair[1]);
                let mut expected = prev.input.clone();
                expected.extend_from_slice(&prev.output);
                assert!(
                    next.input.starts_with(&expected),
                    "turn {} must start with turn {}'s full sequence",
                    next.turn,
                    prev.turn
                );
            }
        }
    }

    #[test]
    fn system_prompts_are_shared_across_sessions() {
        let t = TraceGenerator::new(DatasetKind::SweBench)
            .sessions(30)
            .seed(3)
            .generate();
        // With a pool of 3 prompts and 30 sessions, some pair of sessions
        // must share a long common prefix.
        let firsts: Vec<&Request> = t.requests.iter().filter(|r| r.turn == 0).collect();
        let mut shared = 0;
        for i in 0..firsts.len() {
            for j in i + 1..firsts.len() {
                let common = firsts[i]
                    .input
                    .iter()
                    .zip(firsts[j].input.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                if common >= 900 {
                    shared += 1;
                }
            }
        }
        assert!(shared > 0, "expected shared system prompts");
    }

    #[test]
    fn fig6_length_contrasts_hold() {
        let lmsys = small(DatasetKind::Lmsys);
        let sharegpt = small(DatasetKind::ShareGpt);
        let swebench = small(DatasetKind::SweBench);

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // ShareGPT outputs are succinct; LMSys outputs are long.
        assert!(mean(&lmsys.output_lengths()) > 3.0 * mean(&sharegpt.output_lengths()));
        // ShareGPT sequences stay short.
        let sharegpt_max = sharegpt
            .requests
            .iter()
            .map(Request::total_len)
            .max()
            .unwrap();
        assert!(sharegpt_max <= 5_500, "got {sharegpt_max}");
        // SWE-Bench inputs have the widest spread.
        let spread = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            s[(s.len() * 95) / 100] - s[(s.len() * 5) / 100]
        };
        assert!(spread(&swebench.input_lengths()) > spread(&sharegpt.input_lengths()));
    }

    #[test]
    fn context_cap_is_respected() {
        for kind in DatasetKind::ALL {
            let spec = kind.spec();
            let t = small(kind);
            for r in &t.requests {
                // A request may exceed max_context by at most one turn's
                // growth (the cap stops *further* turns).
                assert!(
                    r.total_len() < spec.max_context + 16_000,
                    "{kind}: runaway context {}",
                    r.total_len()
                );
            }
        }
    }

    #[test]
    fn arrival_rate_scales_session_density() {
        let slow = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(50)
            .arrival(ArrivalConfig::new(0.5, 5.0))
            .seed(1)
            .generate();
        let fast = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(50)
            .arrival(ArrivalConfig::new(2.0, 5.0))
            .seed(1)
            .generate();
        // Same sessions arrive in a quarter of the wall-clock span.
        assert!(fast.duration() < slow.duration());
    }

    /// Longest common prefix of two token sequences.
    fn lcp(a: &[Token], b: &[Token]) -> usize {
        a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
    }

    #[test]
    fn multi_tenant_interleaves_sessions_round_robin() {
        let t = TraceGenerator::new(DatasetKind::SweBench)
            .sessions(12)
            .tenants(4)
            .seed(5)
            .generate();
        assert_eq!(t.tenant_count(), 4);
        for r in &t.requests {
            assert_eq!(r.tenant_id, r.session_id % 4);
        }
    }

    #[test]
    fn tenant_prompts_are_shared_within_but_not_across_tenants() {
        // SWE-Bench always carries a prompt (no_prompt_prob = 0), so every
        // session's first input starts with one of its tenant's prompts.
        let t = TraceGenerator::new(DatasetKind::SweBench)
            .sessions(24)
            .tenants(4)
            .seed(8)
            .generate();
        let firsts: Vec<&Request> = t.requests.iter().filter(|r| r.turn == 0).collect();
        let mut within = 0usize;
        for i in 0..firsts.len() {
            for j in i + 1..firsts.len() {
                let common = lcp(&firsts[i].input, &firsts[j].input);
                if firsts[i].tenant_id == firsts[j].tenant_id {
                    within += usize::from(common >= 900);
                } else {
                    // Fresh segments draw from a 50k vocabulary: any long
                    // shared run across tenants would mean pools leaked.
                    assert!(
                        common < 30,
                        "tenants {} and {} share a {}-token prefix",
                        firsts[i].tenant_id,
                        firsts[j].tenant_id,
                        common
                    );
                }
            }
        }
        assert!(within > 0, "same-tenant sessions must share prompts");
    }

    #[test]
    fn single_tenant_mode_is_byte_identical_to_default() {
        // `.tenants(1)` must not disturb the RNG stream: every seeded trace
        // generated before this knob existed is pinned by downstream tests.
        let default = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(15)
            .seed(4)
            .generate();
        let explicit = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(15)
            .tenants(1)
            .seed(4)
            .generate();
        assert_eq!(default, explicit);
        assert_eq!(default.name, explicit.name);
        assert!(default.requests.iter().all(|r| r.tenant_id == 0));
    }

    #[test]
    fn multi_tenant_trace_name_carries_the_tenant_tag() {
        let t = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(8)
            .tenants(4)
            .seed(2)
            .generate();
        assert!(t.name.contains("-x4"), "got {}", t.name);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_rejected() {
        let _ = TraceGenerator::new(DatasetKind::ShareGpt).tenants(0);
    }

    #[test]
    fn arrivals_keep_their_golden_rng_stream() {
        // Golden pin (same discipline as `tenants == 1`): these arrival bit
        // patterns are captured values. The generator must keep reproducing
        // them forever — any drift means the RNG stream moved.
        let sharegpt = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(6)
            .arrival(ArrivalConfig::new(1.0, 5.0))
            .seed(13)
            .generate();
        assert_eq!(sharegpt.name, "sharegpt-s6-r1.00-t5.0-seed13");
        let golden_sharegpt: [u64; 8] = [
            0x3ff3_5e8e_8fa4_352b,
            0x3ff5_fa10_e4ef_7a12,
            0x4011_6cb7_4c4c_9612,
            0x4012_634a_18df_33ba,
            0x4013_1812_fe66_dc86,
            0x4014_9cc9_707a_2828,
            0x4016_6c02_96c3_5c5d,
            0x4020_c236_d6e3_bd53,
        ];
        for (r, &bits) in sharegpt.requests.iter().zip(&golden_sharegpt) {
            assert_eq!(r.arrival.to_bits(), bits, "request {}", r.id);
        }

        let lmsys = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(6)
            .arrival(ArrivalConfig::new(2.0, 8.0))
            .seed(4)
            .generate();
        assert_eq!(lmsys.name, "lmsys-s6-r2.00-t8.0-seed4");
        let golden_lmsys: [u64; 8] = [
            0x3fd6_b5cc_cdd4_888e,
            0x3fe5_4ac4_d5aa_0bf0,
            0x3fe8_7704_d151_21a1,
            0x3fea_431f_d1ff_1ebe,
            0x3ffa_68da_ea0e_c55d,
            0x3ffe_ade3_1298_bf90,
            0x400c_5ff7_7693_97c8,
            0x4020_9629_ceea_87b4,
        ];
        for (r, &bits) in lmsys.requests.iter().zip(&golden_lmsys) {
            assert_eq!(r.arrival.to_bits(), bits, "request {}", r.id);
        }
    }

    #[test]
    fn trace_name_encodes_parameters() {
        let t = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(5)
            .seed(9)
            .generate();
        assert!(t.name.contains("lmsys"));
        assert!(t.name.contains("seed9"));
    }
}
