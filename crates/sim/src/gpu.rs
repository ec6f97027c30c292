//! Analytic GPU timing model.

use marconi_core::ReloadPolicy;
use marconi_model::{MemoryBandwidths, ModelConfig};
use marconi_trace::ReloadDecision;
use serde::{Deserialize, Serialize};

/// Roofline-style device model: prefill is compute-bound, so latency is
/// FLOPs over sustained throughput, plus a fixed per-request overhead
/// (scheduling, tokenization, kernel launch).
///
/// The absolute numbers are calibrated to land in the paper's TTFT range
/// (hundreds of milliseconds to ~1.8 s on SWE-Bench-scale contexts); every
/// cross-system *comparison* cancels the constants, so conclusions depend
/// only on FLOPs skipped.
///
/// # Examples
///
/// ```
/// use marconi_model::ModelConfig;
/// use marconi_sim::GpuModel;
///
/// let gpu = GpuModel::a100_x4();
/// let m = ModelConfig::hybrid_7b();
/// let cold = gpu.ttft_ms(&m, 8192, 0);
/// let warm = gpu.ttft_ms(&m, 8192, 8000);
/// assert!(warm < cold);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    name: String,
    /// Sustained FLOP/s across the serving devices.
    effective_flops: f64,
    /// Fixed per-request overhead in seconds.
    overhead_s: f64,
    /// Memory-hierarchy bandwidths: HBM (on-device) and PCIe (host-tier
    /// reloads).
    bandwidths: MemoryBandwidths,
}

impl GpuModel {
    /// Creates a custom device model with single-A100 default bandwidths
    /// (override with [`with_bandwidths`](GpuModel::with_bandwidths)).
    ///
    /// # Panics
    ///
    /// Panics if `effective_flops` is not positive or `overhead_s` is
    /// negative.
    #[must_use]
    pub fn new(name: impl Into<String>, effective_flops: f64, overhead_s: f64) -> Self {
        assert!(
            effective_flops > 0.0 && effective_flops.is_finite(),
            "effective_flops must be positive"
        );
        assert!(
            overhead_s >= 0.0 && overhead_s.is_finite(),
            "overhead_s must be non-negative"
        );
        GpuModel {
            name: name.into(),
            effective_flops,
            overhead_s,
            bandwidths: MemoryBandwidths::a100(1),
        }
    }

    /// Overrides the memory-hierarchy bandwidths.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not positive and finite: the check
    /// [`MemoryBandwidths::new`] makes, which a struct literal skips. A
    /// zero, negative or NaN bandwidth would price reloads at ∞ or NaN.
    #[must_use]
    pub fn with_bandwidths(mut self, bandwidths: MemoryBandwidths) -> Self {
        self.bandwidths =
            MemoryBandwidths::new(bandwidths.hbm_bytes_per_s, bandwidths.pcie_bytes_per_s);
        self
    }

    /// Four A100-40GB at ~40% model FLOPs utilization — the paper's TTFT
    /// testbed for Jamba-1.5-Mini. HBM2e + PCIe 4.0 ×16 per GPU.
    #[must_use]
    pub fn a100_x4() -> Self {
        GpuModel::new("4xA100-40GB", 4.0 * 312e12 * 0.4, 0.015)
            .with_bandwidths(MemoryBandwidths::a100(4))
    }

    /// The infinite-throughput limit: infinite FLOP/s and PCIe bandwidth,
    /// no per-request overhead. For any finite count x, x / ∞ is exactly
    /// +0.0, so every duration, TTFT and reload price this device gives is
    /// +0.0 — the zero-load limit in which the event drivers reproduce the
    /// analytic [`Engine`](crate::Engine) byte for byte. A struct literal,
    /// because [`new`](GpuModel::new) rejects infinite throughput.
    pub(crate) fn unbounded() -> Self {
        GpuModel {
            name: "unbounded".into(),
            effective_flops: f64::INFINITY,
            overhead_s: 0.0,
            bandwidths: MemoryBandwidths {
                hbm_bytes_per_s: f64::INFINITY,
                pcie_bytes_per_s: f64::INFINITY,
            },
        }
    }

    /// Device name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sustained throughput in FLOP/s.
    #[must_use]
    pub fn effective_flops(&self) -> f64 {
        self.effective_flops
    }

    /// Fixed per-request overhead in seconds (scheduling, tokenization,
    /// kernel launch).
    #[must_use]
    pub fn overhead_s(&self) -> f64 {
        self.overhead_s
    }

    /// The host's memory-hierarchy bandwidths.
    #[must_use]
    pub fn bandwidths(&self) -> MemoryBandwidths {
        self.bandwidths
    }

    /// Seconds to move `bytes` of demoted cache state from host DRAM back
    /// to device HBM over PCIe — the "load" arm of the compute-or-load
    /// decision.
    ///
    /// # Examples
    ///
    /// ```
    /// use marconi_sim::GpuModel;
    ///
    /// let gpu = GpuModel::a100_x4();
    /// // A 26 MB SSM checkpoint crosses 4 PCIe links in ~0.26 ms...
    /// let t = gpu.transfer_secs(26 << 20);
    /// assert!((0.0002..0.0004).contains(&t), "{t}");
    /// // ...and 1 GiB of demoted KVs in ~10.7 ms.
    /// assert!(gpu.transfer_secs(1 << 30) < 0.011);
    /// ```
    #[must_use]
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidths.pcie_bytes_per_s
    }

    /// Latency charged for the host-resident share of a hit, together with
    /// the arm that produced it: the PCIe transfer of `host_bytes`, the
    /// recompute of `host_reload_flops`, or — under
    /// [`ReloadPolicy::ComputeOrLoad`] — whichever is faster. `(0.0,
    /// None)` when the hit has no host share.
    ///
    /// # Examples
    ///
    /// A fully host-resident 8000-token hit is still far cheaper to load
    /// over PCIe than to prefill from scratch — the tiered cache's raison
    /// d'être — while compute-or-load never does worse than either arm:
    ///
    /// ```
    /// use marconi_core::ReloadPolicy;
    /// use marconi_model::ModelConfig;
    /// use marconi_sim::GpuModel;
    ///
    /// let gpu = GpuModel::a100_x4();
    /// let m = ModelConfig::hybrid_7b();
    /// let bytes = 8000 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
    /// let flops = m.prefill_flops(8000).total();
    /// let (reload, _) = gpu.reload_secs(ReloadPolicy::ComputeOrLoad, bytes, flops);
    /// let (recompute, _) = gpu.reload_secs(ReloadPolicy::AlwaysRecompute, bytes, flops);
    /// let cold = gpu.ttft_s(&m, 8192, 0);
    /// assert!(gpu.ttft_s(&m, 8192, 8000) + reload < cold, "reloading beats a cold prefill");
    /// assert!(reload <= recompute, "compute-or-load never loses");
    /// ```
    #[must_use]
    pub fn reload_secs(
        &self,
        policy: ReloadPolicy,
        host_bytes: u64,
        host_reload_flops: u128,
    ) -> (f64, Option<ReloadDecision>) {
        if host_bytes == 0 && host_reload_flops == 0 {
            return (0.0, None);
        }
        let load = self.transfer_secs(host_bytes);
        let recompute = self.secs_for_flops(host_reload_flops);
        let (secs, decision) = match policy {
            ReloadPolicy::AlwaysReload => (load, ReloadDecision::Load),
            ReloadPolicy::AlwaysRecompute => (recompute, ReloadDecision::Recompute),
            ReloadPolicy::ComputeOrLoad if load <= recompute => (load, ReloadDecision::Load),
            ReloadPolicy::ComputeOrLoad => (recompute, ReloadDecision::Recompute),
        };
        (secs, Some(decision))
    }

    /// Seconds to execute `flops` at sustained throughput (no overhead) —
    /// the unit the continuous-batching executor charges per iteration.
    #[must_use]
    pub fn secs_for_flops(&self, flops: u128) -> f64 {
        flops as f64 / self.effective_flops
    }

    /// [`secs_for_flops`](GpuModel::secs_for_flops) for a count that fits
    /// in `u64`: the executor's per-iteration unit inside a segment. Both
    /// casts round the same integer to the nearest `f64`, so the result is
    /// bit-equal; the `u64` cast takes a few instructions, the `u128` one
    /// a longer software conversion (no 128-bit conversion in hardware).
    #[must_use]
    pub(crate) fn secs_for_segment_flops(&self, flops: u64) -> f64 {
        flops as f64 / self.effective_flops
    }

    /// Seconds for one decode step of a request whose context (input plus
    /// already-decoded tokens) is `context_len` tokens: the incremental
    /// FLOPs of token `context_len + 1`. The continuous-batching executor
    /// charges exactly [`decode_token_flops`] per decoding request per
    /// iteration, so this is the single-request decode latency it models.
    #[must_use]
    pub fn decode_step_s(&self, model: &ModelConfig, context_len: u64) -> f64 {
        self.secs_for_flops(decode_token_flops(model, context_len))
    }

    /// Time to first token in seconds for an `input_len`-token prefill of
    /// which `cached_prefix` tokens are served from cache.
    ///
    /// # Panics
    ///
    /// Panics if `cached_prefix > input_len`.
    #[must_use]
    pub fn ttft_s(&self, model: &ModelConfig, input_len: u64, cached_prefix: u64) -> f64 {
        let flops = model.prefill_flops_with_prefix(input_len, cached_prefix);
        self.overhead_s + flops as f64 / self.effective_flops
    }

    /// [`ttft_s`](GpuModel::ttft_s) in milliseconds.
    #[must_use]
    pub fn ttft_ms(&self, model: &ModelConfig, input_len: u64, cached_prefix: u64) -> f64 {
        self.ttft_s(model, input_len, cached_prefix) * 1e3
    }
}

/// FLOPs of decoding one token at context length `context_len` — the
/// incremental prefill cost of token `context_len + 1`. The one decode
/// formula shared by [`GpuModel::decode_step_s`] and the
/// continuous-batching executor's per-iteration accounting.
#[must_use]
pub fn decode_token_flops(model: &ModelConfig, context_len: u64) -> u128 {
    model.prefill_flops(context_len + 1).total() - model.prefill_flops(context_len).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttft_scale_matches_paper_range() {
        // The paper's TTFTs run from tens of ms (short prefills) to
        // ~1.8 s (30K-token agentic contexts).
        let gpu = GpuModel::a100_x4();
        let m = ModelConfig::jamba_mini_like();
        let short = gpu.ttft_ms(&m, 512, 0);
        let long = gpu.ttft_ms(&m, 30_000, 0);
        assert!(short < 100.0, "short prefill {short} ms");
        assert!((400.0..3000.0).contains(&long), "long prefill {long} ms");
    }

    #[test]
    fn full_hit_leaves_only_overhead() {
        let gpu = GpuModel::a100_x4();
        let m = ModelConfig::hybrid_7b();
        assert_eq!(gpu.ttft_s(&m, 1000, 1000), 0.015);
    }

    #[test]
    fn hits_monotonically_reduce_ttft() {
        let gpu = GpuModel::a100_x4();
        let m = ModelConfig::hybrid_7b();
        let mut last = f64::INFINITY;
        for prefix in [0, 1000, 4000, 8000] {
            let t = gpu.ttft_ms(&m, 8192, prefix);
            assert!(t < last);
            last = t;
        }
    }

    #[test]
    fn hybrid_prefills_faster_than_transformer_at_length() {
        // §2.1: hybrid models are up to ~8x faster than Transformers on
        // long contexts.
        let gpu = GpuModel::a100_x4();
        let h = ModelConfig::hybrid_7b();
        let t = ModelConfig::transformer_7b();
        let len = 30_000;
        assert!(gpu.ttft_s(&h, len, 0) < gpu.ttft_s(&t, len, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_throughput_panics() {
        let _ = GpuModel::new("bad", 0.0, 0.0);
    }

    /// A struct literal skips `MemoryBandwidths::new`; `with_bandwidths`
    /// makes its check.
    fn literal(hbm_bytes_per_s: f64, pcie_bytes_per_s: f64) -> GpuModel {
        GpuModel::a100_x4().with_bandwidths(MemoryBandwidths {
            hbm_bytes_per_s,
            pcie_bytes_per_s,
        })
    }

    #[test]
    #[should_panic(expected = "pcie bandwidth must be positive")]
    fn zero_pcie_bandwidth_panics() {
        let _ = literal(1e12, 0.0);
    }

    #[test]
    #[should_panic(expected = "hbm bandwidth must be positive")]
    fn negative_hbm_bandwidth_panics() {
        let _ = literal(-1e12, 1e10);
    }

    #[test]
    #[should_panic(expected = "pcie bandwidth must be positive")]
    fn nan_pcie_bandwidth_panics() {
        let _ = literal(1e12, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "hbm bandwidth must be positive")]
    fn infinite_hbm_bandwidth_panics() {
        let _ = literal(f64::INFINITY, 1e10);
    }

    #[test]
    fn ttft_decomposes_into_overhead_plus_flop_time() {
        let gpu = GpuModel::a100_x4();
        let m = ModelConfig::hybrid_7b();
        let flops = m.prefill_flops_with_prefix(2000, 500);
        let composed = gpu.overhead_s() + gpu.secs_for_flops(flops);
        assert!((gpu.ttft_s(&m, 2000, 500) - composed).abs() < 1e-12);
    }

    #[test]
    fn compute_or_load_takes_the_minimum_arm() {
        let gpu = GpuModel::a100_x4();
        // Cheap transfer, expensive recompute: load wins.
        let (t, d) = gpu.reload_secs(ReloadPolicy::ComputeOrLoad, 1 << 20, 1 << 50);
        assert_eq!(d, Some(ReloadDecision::Load));
        assert!((t - gpu.transfer_secs(1 << 20)).abs() < 1e-15);
        // Expensive transfer, cheap recompute: compute wins.
        let (t, d) = gpu.reload_secs(ReloadPolicy::ComputeOrLoad, 1 << 33, 1 << 20);
        assert_eq!(d, Some(ReloadDecision::Recompute));
        assert!((t - gpu.secs_for_flops(1 << 20)).abs() < 1e-15);
        // Forced arms.
        let (_, d) = gpu.reload_secs(ReloadPolicy::AlwaysReload, 1 << 33, 1 << 20);
        assert_eq!(d, Some(ReloadDecision::Load));
        let (_, d) = gpu.reload_secs(ReloadPolicy::AlwaysRecompute, 1 << 20, 1 << 50);
        assert_eq!(d, Some(ReloadDecision::Recompute));
        // No host share: free.
        assert_eq!(
            gpu.reload_secs(ReloadPolicy::ComputeOrLoad, 0, 0),
            (0.0, None)
        );
    }

    /// Every price the unbounded device gives is exactly +0.0, even for
    /// the largest counts, and the reload arm is still each policy's own.
    #[test]
    fn the_unbounded_device_prices_everything_at_positive_zero() {
        let gpu = GpuModel::unbounded();
        let m = ModelConfig::hybrid_7b();
        let zero = 0.0f64.to_bits();
        assert_eq!(gpu.secs_for_flops(u128::MAX).to_bits(), zero);
        assert_eq!(gpu.secs_for_segment_flops(u64::MAX).to_bits(), zero);
        assert_eq!(gpu.transfer_secs(u64::MAX).to_bits(), zero);
        assert_eq!(gpu.ttft_s(&m, 1 << 20, 0).to_bits(), zero);
        for policy in [
            ReloadPolicy::AlwaysReload,
            ReloadPolicy::AlwaysRecompute,
            ReloadPolicy::ComputeOrLoad,
        ] {
            assert_eq!(gpu.reload_secs(policy, 0, 0), (0.0, None), "{policy:?}");
            let (secs, decision) = gpu.reload_secs(policy, u64::MAX, u128::MAX);
            assert_eq!(secs.to_bits(), zero, "{policy:?}");
            let arm = match policy {
                ReloadPolicy::AlwaysRecompute => ReloadDecision::Recompute,
                // Compute-or-load ties at 0 ≤ 0 and loads.
                ReloadPolicy::AlwaysReload | ReloadPolicy::ComputeOrLoad => ReloadDecision::Load,
            };
            assert_eq!(decision, Some(arm), "{policy:?}");
        }
    }

    #[test]
    fn bandwidths_scale_between_presets() {
        let x4 = GpuModel::a100_x4();
        let x8 = GpuModel::new("8xA100-40GB", 8.0 * 312e12 * 0.4, 0.015)
            .with_bandwidths(MemoryBandwidths::a100(8));
        assert!(x8.bandwidths().pcie_bytes_per_s > x4.bandwidths().pcie_bytes_per_s);
        // Same bytes, twice the links: half the transfer time.
        let bytes = 1 << 28;
        assert!((x4.transfer_secs(bytes) / x8.transfer_secs(bytes) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pcie_reload_beats_recompute_for_long_hybrid_prefixes() {
        // The crossover motivating compute-or-load: hybrid prefill FLOPs
        // grow superlinearly in bytes-of-state, so long prefixes are
        // cheaper to load, short ones can be cheaper to recompute.
        let gpu = GpuModel::a100_x4();
        let m = ModelConfig::hybrid_7b();
        let len = 8000u64;
        let bytes = len * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes();
        let load = gpu.transfer_secs(bytes);
        let recompute = gpu.secs_for_flops(m.prefill_flops(len).total());
        assert!(
            load < recompute,
            "8000-token reload {load} s vs recompute {recompute} s"
        );
    }

    /// The executor prices iteration `j` of a decode segment as
    /// `F(c) + j·(F(c+1) − F(c))`, which is exact only while
    /// `decode_token_flops` is affine in the context length.
    #[test]
    fn decode_flops_are_exactly_affine_in_the_context() {
        let mut presets = vec![
            ModelConfig::hybrid_7b(),
            ModelConfig::mamba_7b(),
            ModelConfig::transformer_7b(),
            ModelConfig::jamba_mini_like(),
        ];
        presets.extend(
            [(32, 4), (30, 5), (28, 7), (24, 12), (0, 36)]
                .map(|(ssm, attn)| ModelConfig::with_layer_composition(ssm, attn)),
        );
        presets.extend([16, 32, 64, 128].map(ModelConfig::with_state_dim));
        const TOP: u64 = 1 << 20;
        let contexts = [0, 1, 2, 63, 4095, 4096, 30_000, 65_537, TOP / 2, TOP - 1];
        for m in &presets {
            for c in contexts {
                let f = |x| decode_token_flops(m, x);
                let slope = f(c + 1) - f(c);
                for j in [0, 1, 2, 17, 1000, TOP - c] {
                    assert_eq!(
                        f(c + j),
                        f(c) + u128::from(j) * slope,
                        "{}: context {c} + {j}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn decode_steps_sum_to_the_suffix_prefill_time() {
        // Decoding tokens one at a time costs exactly what prefilling the
        // same span would: the executor's token-level accounting conserves
        // FLOPs.
        let gpu = GpuModel::a100_x4();
        let m = ModelConfig::hybrid_7b();
        let stepped: f64 = (1000..1032).map(|ctx| gpu.decode_step_s(&m, ctx)).sum();
        let bulk = gpu.secs_for_flops(m.prefill_flops_with_prefix(1032, 1000));
        assert!((stepped - bulk).abs() < 1e-9 * bulk.max(1e-9));
    }
}
