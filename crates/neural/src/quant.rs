//! Opt-in int8 fixed-point quantized inference for the serving hot path.
//!
//! The serving runtime's decision latency is one `forward_batch` per batch
//! window. This module trades the f64 GEMM for an int8 one: weights are
//! quantized **once** per layer (symmetric per-tensor, `w ≈ q · w_scale`
//! with `q ∈ [-127, 127]`), activations are quantized per layer against a
//! scale **calibrated offline** from a representative corpus, and each
//! pre-activation is recovered as
//!
//! ```text
//! z[u] = Σ_k qx[k]·qw[u,k]  ·  (in_scale · w_scale)  +  bias[u]
//! ```
//!
//! with the sum accumulated in i32 and the dequantization, bias add, and
//! activation kept in f64. Between hidden layers the dequantize →
//! activate → requantize sequence is **fused into one pass** (no f64
//! intermediate buffer, vectorized for ReLU); only the output layer
//! materializes f64 values.
//!
//! # Determinism
//!
//! Integer addition is associative and exact, so the i32 accumulator is
//! bit-identical across SIMD tiers, summation orders, thread counts, and
//! pool sizes — *trivially*, unlike the f64 kernels which must fix their
//! reduction order. The dequantization arithmetic is a fixed per-element
//! f64 expression. `tests/determinism.rs` sweeps seeds and thread settings
//! over this path.
//!
//! Non-finite activations quantize deterministically too: `NaN` saturates
//! to `0` and `±∞` to `±127` (Rust's saturating float→int cast), so a
//! poisoned input yields a well-defined — if meaningless — decision
//! instead of UB or a panic.
//!
//! # Accuracy gate
//!
//! Quantization is lossy, so it is **opt-in** and gated: callers (the
//! serving runtime, the bench suite) compare the quantized network's
//! Q-value argmax/ranking against the f32 reference on an eval corpus via
//! [`QuantizedNetwork::argmax_agreement`] and refuse to serve when the
//! agreement falls below their threshold. `verify.sh --quick` enforces
//! the gate recorded in `BENCH_neural.json`.

use crate::error::NeuralError;
use crate::gemm::{Parallelism, SimdTier};
use crate::matrix::Matrix;
use crate::network::Network;
use crate::activation::Activation;

/// Quantize one value against a scale: `round(v · scale⁻¹)` (ties to
/// even) clamped to the symmetric int8 range. `NaN` saturates to 0, `±∞`
/// to `±127` (saturating cast semantics) — total and deterministic for
/// every f64 input. The reciprocal multiply (instead of a divide) and the
/// ties-to-even rounding are deliberate: they are what the vectorized
/// requantization bridge computes (`divpd` would be several times slower
/// on the hot path, and `roundpd` rounds ties to even), and the scalar
/// and SIMD paths must agree bit for bit.
#[must_use]
pub fn quantize_value(v: f64, scale: f64) -> i8 {
    (v * scale.recip()).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// Exact int8 dot product at the given [`SimdTier`]. The scalar and SSE2
/// tiers share the widening scalar kernel (there is no profitable 128-bit
/// int8 path for these widths); AVX2 tiers use the `pmaddwd` kernel.
/// Integer sums are order-independent, so every tier returns the **same**
/// i32 — asserted by the conformance battery.
///
/// # Panics
///
/// Panics when `x` and `w` have different lengths.
#[must_use]
pub fn dot_i8(x: &[i8], w: &[i8], tier: SimdTier) -> i32 {
    assert_eq!(x.len(), w.len(), "dot_i8 operand lengths");
    match tier {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        SimdTier::Avx2 | SimdTier::Avx2Fma if tier.is_available() => {
            // SAFETY: guarded by the runtime availability check above.
            unsafe { crate::simd::dot_i8_avx2(x, w) }
        }
        _ => crate::simd::dot_i8_scalar(x, w),
    }
}

/// Exact quantized GEMM at the given [`SimdTier`]: `x` is `batch × k`
/// row-major quantized activations, `w` is `units × k` row-major
/// quantized weights **pre-widened to i16** (int8-range values — the
/// widening happens once at quantize time so the GEMM inner loop loads
/// weight lanes directly instead of sign-extending per chunk), `out`
/// receives `batch × units` i32 accumulations. One tier dispatch per
/// **layer** — the AVX2 kernel register-tiles four output units per pass,
/// which is where the quantized path's speedup over the f64 kernels comes
/// from (a dot-per-output loop loses its lane advantage to per-output
/// fold and dispatch overhead at serving layer widths).
///
/// Integer accumulation is exact and order-independent, so every tier
/// writes the **same** bits — asserted by the conformance battery.
fn matmul_q8(x: &[i8], w: &[i16], out: &mut [i32], k: usize, units: usize, tier: SimdTier) {
    debug_assert_eq!(w.len(), units * k, "matmul_q8 weight layout");
    if k > 0 {
        debug_assert_eq!(x.len() % k, 0, "matmul_q8 activation layout");
        debug_assert_eq!(out.len(), x.len() / k * units, "matmul_q8 output layout");
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        SimdTier::Avx2 | SimdTier::Avx2Fma if tier.is_available() => {
            // SAFETY: guarded by the runtime availability check above.
            unsafe { crate::simd::gemm_q8_avx2(x, w, out, k, units) }
        }
        _ => crate::simd::gemm_q8_scalar(x, w, out, k, units),
    }
}

/// One quantized dense layer: int8 weights plus the scales needed to
/// recover f64 pre-activations.
#[derive(Debug, Clone, PartialEq)]
struct QuantLayer {
    /// `units × inputs`, row-major, symmetric per-tensor quantized to the
    /// int8 range `[-127, 127]`, stored pre-widened as i16 so the GEMM
    /// kernels load weight lanes without a per-chunk sign extension.
    qweights: Vec<i16>,
    inputs: usize,
    units: usize,
    /// Weight scale: `w ≈ qw · w_scale`.
    w_scale: f64,
    /// Calibrated input-activation scale: `x ≈ qx · in_scale`.
    in_scale: f64,
    /// Bias stays in f64 — it is added after dequantization.
    bias: Vec<f64>,
    activation: Activation,
}

/// An int8 snapshot of a [`Network`] for quantized batch inference (see
/// the module docs for scheme, determinism, and the accuracy gate).
///
/// The snapshot is immutable: training continues on the f64 network, and
/// callers re-quantize when they want a fresher policy.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    layers: Vec<QuantLayer>,
    input_size: usize,
}

/// Largest finite magnitude in a slice, or `None` when there is none.
fn max_abs_finite(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .map(f64::abs)
        .fold(None, |best, v| Some(best.map_or(v, |b: f64| b.max(v))))
}

/// Symmetric scale mapping `±maxabs` onto `±127`; degenerate (all-zero or
/// all-non-finite) tensors get scale 1.0 so quantization stays total.
fn scale_for(maxabs: Option<f64>) -> f64 {
    match maxabs {
        Some(m) if m > 0.0 => m / 127.0,
        _ => 1.0,
    }
}

impl QuantizedNetwork {
    /// Quantize `net` against a calibration corpus (rows of `input_size`
    /// f64 features, e.g. encoded observations from a served fleet). The
    /// corpus fixes each layer's activation scale: it is forwarded once
    /// through the f64 network and the largest finite magnitude feeding
    /// each layer becomes that layer's `in_scale`.
    ///
    /// # Errors
    ///
    /// [`NeuralError::EmptyNetwork`] for a layerless network,
    /// [`NeuralError::BadBatch`] for an empty calibration corpus, and the
    /// usual shape errors for ragged or mis-sized rows.
    pub fn quantize(net: &Network, calib: &[&[f64]]) -> Result<Self, NeuralError> {
        if net.layers().is_empty() {
            return Err(NeuralError::EmptyNetwork);
        }
        if calib.is_empty() {
            return Err(NeuralError::BadBatch { reason: "empty quantization calibration corpus" });
        }
        let mut acts = Matrix::from_rows(calib)?;
        if acts.cols() != net.input_size() {
            return Err(NeuralError::BadVectorLength {
                what: "calibration input",
                expected: net.input_size(),
                got: acts.cols(),
            });
        }
        let mut layers = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            let in_scale = scale_for(max_abs_finite(acts.as_slice()));
            let w_scale = scale_for(max_abs_finite(layer.weights().as_slice()));
            let qweights = layer
                .weights()
                .as_slice()
                .iter()
                .map(|&w| i16::from(quantize_value(w, w_scale)))
                .collect();
            layers.push(QuantLayer {
                qweights,
                inputs: layer.inputs(),
                units: layer.units(),
                w_scale,
                in_scale,
                bias: layer.bias().to_vec(),
                activation: layer.activation(),
            });
            acts = layer.forward(&acts, Parallelism::Single)?.a;
        }
        Ok(QuantizedNetwork { layers, input_size: net.input_size() })
    }

    /// Number of input features.
    #[must_use]
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of outputs (units of the last layer).
    #[must_use]
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, |l| l.units)
    }

    /// The `(in_scale, w_scale)` pair of every layer, input-side first —
    /// the error-bound tests derive their tolerances from these.
    #[must_use]
    pub fn layer_scales(&self) -> Vec<(f64, f64)> {
        self.layers.iter().map(|l| (l.in_scale, l.w_scale)).collect()
    }

    /// Quantized batch forward at the detected [`SimdTier`]; rows of
    /// Q-values out, one per input row.
    ///
    /// # Errors
    ///
    /// [`NeuralError::BadBatch`] for an empty or ragged batch,
    /// [`NeuralError::BadVectorLength`] for mis-sized rows.
    pub fn forward_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Vec<f64>>, NeuralError> {
        self.forward_batch_with_tier(inputs, SimdTier::detect())
    }

    /// [`Self::forward_batch`] pinned to one [`SimdTier`] — bit-identical
    /// across tiers (integer accumulation; module docs). Used by the
    /// conformance battery and the per-tier bench sweep.
    pub fn forward_batch_with_tier(
        &self,
        inputs: &[&[f64]],
        tier: SimdTier,
    ) -> Result<Vec<Vec<f64>>, NeuralError> {
        if inputs.is_empty() {
            return Err(NeuralError::BadBatch { reason: "empty batch" });
        }
        if let Some(row) = inputs.iter().find(|row| row.len() != self.input_size) {
            return Err(NeuralError::BadVectorLength {
                what: "input",
                expected: self.input_size,
                got: row.len(),
            });
        }
        Ok(self.forward_matrix_with_tier(&Matrix::from_rows(inputs)?, tier)?.to_rows())
    }

    /// Quantized forward of a packed `batch × input_size` matrix at the
    /// detected [`SimdTier`], returning the `batch × outputs` Q-value
    /// matrix — row `i` bit-identical to [`Self::forward_batch`]'s.
    ///
    /// # Errors
    ///
    /// [`NeuralError::BadBatch`] for an empty batch,
    /// [`NeuralError::BadVectorLength`] for the wrong width.
    pub fn forward_matrix(&self, x: &Matrix) -> Result<Matrix, NeuralError> {
        self.forward_matrix_with_tier(x, SimdTier::detect())
    }

    /// [`Self::forward_matrix`] pinned to one [`SimdTier`].
    ///
    /// # Errors
    ///
    /// As [`Self::forward_matrix`].
    pub fn forward_matrix_with_tier(
        &self,
        x: &Matrix,
        tier: SimdTier,
    ) -> Result<Matrix, NeuralError> {
        if x.rows() == 0 {
            return Err(NeuralError::BadBatch { reason: "empty batch" });
        }
        if x.cols() != self.input_size {
            return Err(NeuralError::BadVectorLength {
                what: "input",
                expected: self.input_size,
                got: x.cols(),
            });
        }
        let batch = x.rows();
        let mut width = self.input_size;
        let first_scale = self.layers[0].in_scale;
        let mut qx: Vec<i8> = x.as_slice().iter().map(|&v| quantize_value(v, first_scale)).collect();
        for (li, layer) in self.layers.iter().enumerate() {
            debug_assert_eq!(width, layer.inputs);
            let mut accs = vec![0i32; batch * layer.units];
            matmul_q8(&qx, &layer.qweights, &mut accs, width, layer.units, tier);
            let dequant = layer.in_scale * layer.w_scale;
            if let Some(next) = self.layers.get(li + 1) {
                // Hidden layer: the activations only exist to be quantized
                // against the next layer's scale, so dequantize, activate,
                // and requantize in one fused pass — no f64 intermediate.
                qx = requant_batch(
                    &accs,
                    &layer.bias,
                    dequant,
                    layer.activation,
                    next.in_scale,
                    tier,
                );
            } else {
                // Output layer: dequantize to the f64 Q-value rows.
                let q = accs
                    .chunks_exact(layer.units)
                    .flat_map(|acc_row| {
                        acc_row.iter().zip(&layer.bias).map(|(&acc, &bias)| {
                            layer.activation.apply(f64::from(acc) * dequant + bias)
                        })
                    })
                    .collect();
                return Matrix::from_vec(batch, layer.units, q);
            }
            width = layer.units;
        }
        unreachable!("quantize() rejects layerless networks")
    }

    /// The rank-ordering accuracy gate: the fraction of corpus rows whose
    /// **argmax** (first index of the maximum, the greedy-action rule used
    /// everywhere in `jarvis-rl`) agrees between this quantized network
    /// and the f64 reference. Callers refuse to serve below threshold.
    ///
    /// # Errors
    ///
    /// Propagates forward errors; the two networks must share shapes.
    pub fn argmax_agreement(&self, net: &Network, corpus: &[&[f64]]) -> Result<f64, NeuralError> {
        let quant = self.forward_batch(corpus)?;
        let exact = net.forward_batch(corpus)?;
        let mut agree = 0usize;
        for (q, e) in quant.iter().zip(&exact) {
            if argmax(q) == argmax(e) {
                agree += 1;
            }
        }
        // float-ok: corpus sizes are far below 2^53, the casts are exact
        Ok(agree as f64 / quant.len().max(1) as f64)
    }
}

/// The fused layer-to-layer bridge: dequantize the i32 accumulators,
/// apply the activation, and requantize against the next layer's scale in
/// one pass. ReLU — the serving networks' hidden activation — has a
/// vectorized AVX2 kernel with an exact scalar twin
/// (`simd::requant_relu_one`; see its NaN/±0 notes); every other
/// activation takes the generic scalar path on all tiers, so the result
/// is tier-invariant either way.
fn requant_batch(
    accs: &[i32],
    bias: &[f64],
    dequant: f64,
    activation: Activation,
    next_scale: f64,
    tier: SimdTier,
) -> Vec<i8> {
    let units = bias.len();
    let inv_next = next_scale.recip();
    let mut out = Vec::with_capacity(accs.len());
    match (activation, tier) {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        (Activation::Relu, SimdTier::Avx2 | SimdTier::Avx2Fma) if tier.is_available() => {
            // SAFETY: guarded by the runtime availability check above.
            unsafe { crate::simd::requant_relu_avx2(accs, bias, dequant, inv_next, &mut out) }
        }
        (Activation::Relu, _) => {
            for acc_row in accs.chunks_exact(units.max(1)) {
                for (&acc, &b) in acc_row.iter().zip(bias) {
                    out.push(crate::simd::requant_relu_one(acc, b, dequant, inv_next));
                }
            }
        }
        _ => {
            for acc_row in accs.chunks_exact(units.max(1)) {
                for (&acc, &b) in acc_row.iter().zip(bias) {
                    let a = activation.apply(f64::from(acc) * dequant + b);
                    out.push(quantize_value(a, next_scale));
                }
            }
        }
    }
    out
}

/// First index of the maximum value (ties break low, like
/// `jarvis_rl::policy::argmax`).
fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::optimizer::OptimizerKind;

    fn net(seed: u64) -> Network {
        Network::builder(6)
            .layer(8, Activation::Relu)
            .layer(4, Activation::Linear)
            .loss(Loss::Mse)
            .optimizer(OptimizerKind::adam(0.001))
            .seed(seed)
            .build()
            .unwrap()
    }

    fn corpus(n: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..n)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % 2_000) as f64 / 1000.0 - 1.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn quantize_value_is_total_and_saturating() {
        assert_eq!(quantize_value(0.0, 1.0), 0);
        assert_eq!(quantize_value(1.0, 1.0 / 127.0), 127);
        assert_eq!(quantize_value(-1.0, 1.0 / 127.0), -127);
        assert_eq!(quantize_value(1e300, 0.5), 127);
        assert_eq!(quantize_value(f64::INFINITY, 0.5), 127);
        assert_eq!(quantize_value(f64::NEG_INFINITY, 0.5), -127);
        assert_eq!(quantize_value(f64::NAN, 0.5), 0);
    }

    #[test]
    fn quantize_validates_inputs() {
        let n = net(3);
        assert!(matches!(
            QuantizedNetwork::quantize(&n, &[]),
            Err(NeuralError::BadBatch { .. })
        ));
        let bad = [0.0; 3];
        assert!(matches!(
            QuantizedNetwork::quantize(&n, &[&bad]),
            Err(NeuralError::BadVectorLength { .. })
        ));
    }

    #[test]
    fn forward_matches_f64_closely_on_calibrated_range() {
        let n = net(7);
        let cal = corpus(64, 6, 1);
        let cal_refs: Vec<&[f64]> = cal.iter().map(Vec::as_slice).collect();
        let q = QuantizedNetwork::quantize(&n, &cal_refs).unwrap();
        let exact = n.forward_batch(&cal_refs).unwrap();
        let approx = q.forward_batch(&cal_refs).unwrap();
        for (e_row, a_row) in exact.iter().zip(&approx) {
            for (e, a) in e_row.iter().zip(a_row) {
                assert!((e - a).abs() < 0.05, "quantized {a} too far from exact {e}");
            }
        }
        assert!(q.argmax_agreement(&n, &cal_refs).unwrap() >= 0.95);
    }

    #[test]
    fn tiers_are_bit_identical() {
        let n = net(11);
        let cal = corpus(32, 6, 2);
        let cal_refs: Vec<&[f64]> = cal.iter().map(Vec::as_slice).collect();
        let q = QuantizedNetwork::quantize(&n, &cal_refs).unwrap();
        let reference = q.forward_batch_with_tier(&cal_refs, SimdTier::Scalar).unwrap();
        for &tier in SimdTier::available() {
            let out = q.forward_batch_with_tier(&cal_refs, tier).unwrap();
            let same = reference
                .iter()
                .flatten()
                .zip(out.iter().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "tier {tier:?} diverged from scalar");
        }
    }

    #[test]
    fn dot_i8_tiers_agree_exactly() {
        let xs: Vec<i8> = (0..103).map(|i| ((i * 37 + 11) % 255 - 127) as i8).collect();
        let ws: Vec<i8> = (0..103).map(|i| ((i * 91 + 5) % 255 - 127) as i8).collect();
        let reference = dot_i8(&xs, &ws, SimdTier::Scalar);
        for &tier in SimdTier::available() {
            assert_eq!(dot_i8(&xs, &ws, tier), reference, "{tier:?}");
        }
    }
}
