//! Integration tests for int8 fixed-point quantization: round-trip error
//! bounds, rank preservation on an evaluation corpus, and bitwise
//! determinism across SIMD tiers and batch groupings.

use jarvis_neural::quant::{self, QuantizedNetwork};
use jarvis_neural::{Activation, Loss, Network, OptimizerKind, SimdTier};
use jarvis_stdkit::prop_assert;
use jarvis_stdkit::propcheck::Config;
use jarvis_stdkit::rng::{ChaCha8Rng, Rng, SeedableRng};

/// A small Q-network trained toward a known mapping so its outputs have
/// real structure (not just random initialization noise).
fn trained_net(seed: u64) -> Network {
    let mut net = Network::builder(3)
        .layer(16, Activation::Relu)
        .layer(4, Activation::Linear)
        .loss(Loss::Mse)
        .optimizer(OptimizerKind::adam(0.01))
        .seed(seed)
        .build()
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
    for _ in 0..200 {
        let xs: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..=1.0)).collect())
            .collect();
        // Target: each head prefers a different corner of the input cube.
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                vec![
                    x[0] + 0.5 * x[1],
                    -x[0] + x[2],
                    x[1] - x[2],
                    0.25 * (x[0] + x[1] + x[2]),
                ]
            })
            .collect();
        let xr: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let yr: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
        net.train_batch(&xr, &yr).unwrap();
    }
    net
}

fn corpus(seed: u64, rows: usize) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..rows).map(|_| (0..3).map(|_| rng.gen_range(-1.0..=1.0)).collect()).collect()
}

/// Symmetric int8 round trip: for every in-range value the dequantized
/// result is within half a quantization step, and out-of-range values
/// saturate to ±127 — never wrap, never produce non-finite garbage.
#[test]
fn round_trip_error_is_bounded_by_half_a_step() {
    Config::with_cases(96).run(|g| {
        let scale = g.f64_in(1e-6, 10.0);
        let v = g.f64_in(-127.0, 127.0) * scale;
        let q = quant::quantize_value(v, scale);
        let back = f64::from(q) * scale;
        prop_assert!(
            (back - v).abs() <= scale / 2.0 + 1e-12,
            "round trip error {} exceeds step/2 = {} (v={v}, scale={scale})",
            (back - v).abs(),
            scale / 2.0
        );
        // Saturation beyond the representable range.
        let big = g.f64_in(127.5, 1e6) * scale;
        prop_assert!(quant::quantize_value(big, scale) == 127);
        prop_assert!(quant::quantize_value(-big, scale) == -127);
        Ok(())
    });
}

/// Quantizing a trained network preserves the Q-value *ranking* that the
/// serving decision path consumes: greedy argmax agreement on the
/// evaluation corpus stays high, and the per-output absolute error stays
/// within the bound implied by the calibrated scales.
#[test]
fn rank_ordering_is_preserved_on_the_eval_corpus() {
    for seed in [3u64, 17, 29] {
        let net = trained_net(seed);
        let calib = corpus(seed.wrapping_mul(31), 64);
        let calib_refs: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
        let qnet = QuantizedNetwork::quantize(&net, &calib_refs).unwrap();

        // Held-out evaluation corpus, same input distribution.
        let eval = corpus(seed.wrapping_mul(131), 128);
        let eval_refs: Vec<&[f64]> = eval.iter().map(Vec::as_slice).collect();
        let agreement = qnet.argmax_agreement(&net, &eval_refs).unwrap();
        assert!(
            agreement >= 0.9,
            "seed {seed}: argmax agreement {agreement} below the 0.9 gate"
        );

        // Per-output error bound: activations were calibrated on the same
        // distribution, so dequantized outputs track f64 closely.
        let qout = qnet.forward_batch(&eval_refs).unwrap();
        let fout = net.forward_batch(&eval_refs).unwrap();
        let worst = qout
            .iter()
            .flatten()
            .zip(fout.iter().flatten())
            .map(|(q, f)| (q - f).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 0.25, "seed {seed}: worst |quant − f64| = {worst}");
    }
}

/// The quantized forward is a pure function of the weights and the input:
/// bit-identical across every available SIMD tier, across batch
/// groupings (row-at-a-time vs whole-corpus), and across repeated runs.
#[test]
fn quantized_forward_is_bitwise_deterministic() {
    let net = trained_net(7);
    let calib = corpus(99, 32);
    let calib_refs: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
    let qnet = QuantizedNetwork::quantize(&net, &calib_refs).unwrap();
    let eval = corpus(123, 48);
    let eval_refs: Vec<&[f64]> = eval.iter().map(Vec::as_slice).collect();

    let reference = qnet.forward_batch_with_tier(&eval_refs, SimdTier::Scalar).unwrap();
    for &tier in SimdTier::available() {
        let got = qnet.forward_batch_with_tier(&eval_refs, tier).unwrap();
        for (a, b) in reference.iter().flatten().zip(got.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits(), "tier {tier:?} diverged");
        }
        // Row-at-a-time equals the batched pass, bit for bit.
        for (i, row) in eval_refs.iter().enumerate() {
            let one = qnet.forward_batch_with_tier(&[row], tier).unwrap();
            for (a, b) in reference[i].iter().zip(&one[0]) {
                assert_eq!(a.to_bits(), b.to_bits(), "tier {tier:?} row {i} diverged");
            }
        }
    }

    // Re-quantizing from the same network and corpus reproduces the same
    // scales and the same outputs.
    let qnet2 = QuantizedNetwork::quantize(&net, &calib_refs).unwrap();
    assert_eq!(qnet.layer_scales(), qnet2.layer_scales());
    let again = qnet2.forward_batch(&eval_refs).unwrap();
    for (a, b) in reference.iter().flatten().zip(again.iter().flatten()) {
        assert_eq!(a.to_bits(), b.to_bits(), "re-quantization diverged");
    }
}

/// `dot_i8` agrees exactly across tiers on adversarial vectors: saturated
/// extremes, alternating signs, and lengths straddling the 32-lane AVX2
/// chunk boundary.
#[test]
fn dot_i8_conformance_across_lengths() {
    Config::with_cases(64).run(|g| {
        let len = g.usize_in(0, 100);
        let x: Vec<i8> = (0..len)
            .map(|_| if g.bool(0.2) { if g.bool(0.5) { 127 } else { -127 } } else { g.usize_in(0, 254) as i8 })
            .collect();
        let w: Vec<i8> = (0..len).map(|_| g.usize_in(0, 254).wrapping_sub(127) as i8).collect();
        let want = quant::dot_i8(&x, &w, SimdTier::Scalar);
        for &tier in SimdTier::available() {
            let got = quant::dot_i8(&x, &w, tier);
            prop_assert!(got == want, "dot_i8 len {len} diverged at {tier:?}: {got} != {want}");
        }
        Ok(())
    });
}

