//! Property-based tests for the neural substrate: linear-algebra laws,
//! loss-gradient consistency, and training invariants.

use jarvis_neural::*;
use jarvis_stdkit::prop_assert;
use jarvis_stdkit::prop_assert_eq;
use jarvis_stdkit::propcheck::{Config, Gen};

fn gen_matrix(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| g.f64_in(-10.0, 10.0)).collect();
    Matrix::from_vec(rows, cols, data).expect("sized")
}

/// (A·B)ᵀ = Bᵀ·Aᵀ.
#[test]
fn matmul_transpose_law() {
    Config::with_cases(48).run(|g| {
        let a = gen_matrix(g, 3, 4);
        let b = gen_matrix(g, 4, 2);
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        Ok(())
    });
}

/// Distribution: A·(B + C) = A·B + A·C.
#[test]
fn matmul_distributes() {
    Config::with_cases(48).run(|g| {
        let a = gen_matrix(g, 2, 3);
        let b = gen_matrix(g, 3, 2);
        let c = gen_matrix(g, 3, 2);
        let left = a.matmul(&b.add(&c).unwrap()).unwrap();
        let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        Ok(())
    });
}

/// `matmul_transpose(a, b)` equals the explicit `a · bᵀ`.
#[test]
fn fused_transpose_matches() {
    Config::with_cases(48).run(|g| {
        let a = gen_matrix(g, 3, 5);
        let b = gen_matrix(g, 4, 5);
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        Ok(())
    });
}

/// Activations are finite and monotone nondecreasing on every input.
#[test]
fn activations_are_monotone() {
    Config::with_cases(48).run(|g| {
        let z1 = g.f64_in(-20.0, 20.0);
        let z2 = g.f64_in(-20.0, 20.0);
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let (a, b) = (act.apply(lo), act.apply(hi));
            prop_assert!(a.is_finite() && b.is_finite());
            prop_assert!(a <= b + 1e-12, "{act:?} not monotone: f({lo})={a} f({hi})={b}");
            prop_assert!(act.derivative(lo) >= 0.0);
        }
        Ok(())
    });
}

/// Every loss is nonnegative and exactly zero on a perfect prediction
/// (up to BCE's clamp).
#[test]
fn losses_are_nonnegative() {
    Config::with_cases(48).run(|g| {
        let n = g.usize_in(1, 7);
        let p: Vec<f64> = (0..n).map(|_| g.f64_in(0.01, 0.99)).collect();
        let pred = Matrix::row_from_slice(&p);
        for loss in [Loss::Mse, Loss::BinaryCrossEntropy, Loss::Huber { delta: 1.0 }] {
            let v = loss.value(&pred, &pred).unwrap();
            prop_assert!(v >= 0.0);
            if loss == Loss::Mse {
                prop_assert!(v < 1e-12);
            }
        }
        Ok(())
    });
}

/// Network predictions are deterministic and shape-correct for any
/// (small) architecture.
#[test]
fn network_shapes() {
    Config::with_cases(48).run(|g| {
        let input_dim = g.usize_in(1, 5);
        let hidden = g.usize_in(1, 7);
        let output_dim = g.usize_in(1, 4);
        let seed = g.u64();
        let x: Vec<f64> = (0..6).map(|_| g.f64_in(-2.0, 2.0)).collect();
        let net = Network::builder(input_dim)
            .layer(hidden, Activation::Tanh)
            .layer(output_dim, Activation::Linear)
            .seed(seed)
            .build()
            .unwrap();
        prop_assert_eq!(net.output_size(), output_dim);
        let out = net.predict(&x[..input_dim]).unwrap();
        prop_assert_eq!(out.len(), output_dim);
        prop_assert!(out.iter().all(|v| v.is_finite()));
        prop_assert_eq!(&net.predict(&x[..input_dim]).unwrap(), &out);
        Ok(())
    });
}

/// One SGD step on a batch strictly reduces the loss on that batch for
/// a small-enough learning rate (descent property).
#[test]
fn training_descends() {
    Config::with_cases(48).run(|g| {
        let seed = g.u64();
        let target = g.f64_in(-2.0, 2.0);
        let mut net = Network::builder(2)
            .layer(4, Activation::Tanh)
            .layer(1, Activation::Linear)
            .loss(Loss::Mse)
            .optimizer(OptimizerKind::sgd(0.01))
            .seed(seed)
            .build()
            .unwrap();
        let x = [0.5, -0.3];
        let y = [target];
        let l1 = net.train_batch(&[&x], &[&y]).unwrap();
        let l2 = net.train_batch(&[&x], &[&y]).unwrap();
        if l1 <= 1e-9 {
            return Ok(()); // already converged
        }
        prop_assert!(l2 <= l1 + 1e-12, "loss rose: {l1} -> {l2}");
        Ok(())
    });
}

/// Shape generator for the kernel-equivalence suite: biased toward the
/// degenerate cases (empty, 1×N, N×1) the blocked kernels must still handle,
/// otherwise anything up to 40 so every register-tile edge path is hit.
fn gen_dim(g: &mut Gen) -> usize {
    if g.bool(0.25) {
        g.usize_in(0, 1)
    } else {
        g.usize_in(2, 40)
    }
}

/// Bitwise equality, modulo NaN payload: every non-NaN value must match
/// bit for bit (including ±0 and ±∞ signs), and NaN must meet NaN. NaN
/// *payloads* are the one thing the kernels cannot pin — which payload an
/// x86 add propagates depends on operand order, and LLVM picks `addsd`
/// operands by register allocation, differently across opt levels. NaN
/// *placement* is order-independent (the product multiset is fixed), so
/// NaN-class agreement is the exact provable contract.
fn value_bits_equal(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(&x, &y)| value_bits_equal(x, y))
}

/// The blocked `matmul` is bit-identical to the naive reference for random
/// shapes (including empty, 1×N, N×1).
#[test]
fn blocked_matmul_matches_naive_bitwise() {
    Config::with_cases(96).run(|g| {
        let (m, k, n) = (gen_dim(g), gen_dim(g), gen_dim(g));
        let a = gen_matrix(g, m, k);
        let b = gen_matrix(g, k, n);
        let reference = a.matmul_naive(&b).unwrap();
        let fast = a.matmul(&b).unwrap();
        prop_assert!(bits_equal(&fast, &reference), "matmul {m}x{k}x{n} diverged from naive");
        Ok(())
    });
}

/// Same bit-identity guarantee for the fused `matmul_transpose` kernel.
#[test]
fn blocked_matmul_transpose_matches_naive_bitwise() {
    Config::with_cases(96).run(|g| {
        let (m, k, p) = (gen_dim(g), gen_dim(g), gen_dim(g));
        let a = gen_matrix(g, m, k);
        let b = gen_matrix(g, p, k);
        let reference = a.matmul_transpose_naive(&b).unwrap();
        let fast = a.matmul_transpose(&b).unwrap();
        prop_assert!(
            bits_equal(&fast, &reference),
            "matmul_transpose {m}x{k} · {p}x{k}ᵀ diverged from naive"
        );
        Ok(())
    });
}

/// Shapes at and past the widest layer (64–96 on every side) stay
/// bit-identical to the naive reference at every available tier. The name
/// predates the removal of GEMM threading, when these were the shapes that
/// fanned out.
#[test]
fn parallel_kernels_match_naive_above_threshold() {
    use jarvis_neural::gemm;

    Config::with_cases(4).run(|g| {
        let m = g.usize_in(64, 96);
        let k = g.usize_in(64, 96);
        let n = g.usize_in(64, 96);
        let a = gen_matrix(g, m, k);
        let b = gen_matrix(g, k, n);
        let bt = b.transpose();
        let mm_ref = a.matmul_naive(&b).unwrap();
        let mt_ref = a.matmul_transpose_naive(&bt).unwrap();
        for &tier in SimdTier::available() {
            let mut out = vec![0.0; m * n];
            gemm::matmul_with_tier(a.as_slice(), b.as_slice(), &mut out, m, k, n, tier);
            prop_assert!(
                slice_bits_equal(&out, mm_ref.as_slice()),
                "matmul {m}x{k}x{n} diverged at {tier:?}"
            );
            let mut out = vec![0.0; m * n];
            gemm::matmul_transpose_with_tier(a.as_slice(), bt.as_slice(), &mut out, m, k, n, tier);
            prop_assert!(
                slice_bits_equal(&out, mt_ref.as_slice()),
                "matmul_transpose {m}x{k}x{n} diverged at {tier:?}"
            );
        }
        Ok(())
    });
}

/// Non-finite inputs (NaN, ±inf) propagate identically through the blocked
/// kernels and the naive reference — no zero-skip shortcuts.
#[test]
fn kernels_propagate_non_finite_bitwise() {
    Config::with_cases(48).run(|g| {
        let (m, k, n) = (g.usize_in(1, 12), g.usize_in(1, 12), g.usize_in(1, 12));
        let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let pick = |g: &mut Gen| {
            if g.bool(0.3) {
                special[g.usize_in(0, special.len() - 1)]
            } else {
                g.f64_in(-3.0, 3.0)
            }
        };
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| pick(g)).collect()).unwrap();
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| pick(g)).collect()).unwrap();
        let fast = a.matmul(&b).unwrap();
        let reference = a.matmul_naive(&b).unwrap();
        prop_assert!(
            bits_equal(&fast, &reference),
            "non-finite propagation diverged for {m}x{k}x{n}"
        );
        let bt = b.transpose();
        prop_assert!(
            bits_equal(
                &a.matmul_transpose(&bt).unwrap(),
                &a.matmul_transpose_naive(&bt).unwrap()
            ),
            "transpose non-finite propagation diverged for {m}x{k}x{n}"
        );
        Ok(())
    });
}

/// ROC/AUC: relabeling by flipping every label maps AUC to 1 − AUC.
#[test]
fn auc_flip_symmetry() {
    Config::with_cases(48).run(|g| {
        let n = g.usize_in(4, 63);
        let scores: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 1.0)).collect();
        let labels: Vec<bool> = (0..n).map(|_| g.bool(0.5)).collect();
        if !(labels.iter().any(|&l| l) && labels.iter().any(|&l| !l)) {
            return Ok(()); // need both classes present
        }
        let flipped: Vec<bool> = labels.iter().map(|&l| !l).collect();
        let a = metrics::auc(&scores, &labels);
        let b = metrics::auc(&scores, &flipped);
        prop_assert!((a + b - 1.0).abs() < 1e-9, "auc {a} + flipped {b} != 1");
        Ok(())
    });
}

fn slice_bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| value_bits_equal(x, y))
}

/// The kernel-conformance battery: naive == blocked == SIMD **bitwise**, at
/// every available [`SimdTier`] (`Scalar` pinned on AVX2 hosts too), over
/// random, degenerate (0×N, 1×1, non-multiple-of-tile), and non-finite
/// (NaN, ±∞, ±0) inputs — for both `matmul` and the fused
/// `matmul_transpose`. One divergent bit anywhere fails the property
/// (modulo NaN payload; see [`value_bits_equal`]). The name predates the
/// removal of GEMM threading, when the battery also swept pool sizes.
#[test]
fn conformance_battery_every_tier_and_pool_size() {
    use jarvis_neural::gemm;

    let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    Config::with_cases(24).run(|g| {
        let (m, k, n) = (gen_dim(g), gen_dim(g), gen_dim(g));
        let mut pick = |g: &mut Gen| {
            if g.bool(0.2) {
                special[g.usize_in(0, special.len() - 1)]
            } else {
                g.f64_in(-5.0, 5.0)
            }
        };
        let a: Vec<f64> = (0..m * k).map(|_| pick(g)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| pick(g)).collect();
        // Same logical operand, stored n×k for the fused-transpose kernel.
        let bt: Vec<f64> = (0..n * k).map(|_| pick(g)).collect();

        let mut mm_ref = vec![0.0; m * n];
        gemm::matmul_naive(&a, &b, &mut mm_ref, k, n);
        let mut mt_ref = vec![0.0; m * n];
        gemm::matmul_transpose_naive(&a, &bt, &mut mt_ref, k, n);

        for &tier in SimdTier::available() {
            let mut out = vec![0.0; m * n];
            gemm::matmul_with_tier(&a, &b, &mut out, m, k, n, tier);
            prop_assert!(slice_bits_equal(&out, &mm_ref), "matmul {m}x{k}x{n} diverged at {tier:?}");
            let mut out = vec![0.0; m * n];
            gemm::matmul_transpose_with_tier(&a, &bt, &mut out, m, k, n, tier);
            prop_assert!(
                slice_bits_equal(&out, &mt_ref),
                "matmul_transpose {m}x{k}·{n}x{k}ᵀ diverged at {tier:?}"
            );
        }
        Ok(())
    });
}

