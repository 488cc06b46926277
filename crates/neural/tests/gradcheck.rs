//! Central finite-difference gradient checks for every layer/activation/loss
//! combination, guarding the backward pass against drift from the blocked
//! GEMM kernels (or any future kernel change).
//!
//! Method: for a small seeded network and batch, the analytic gradient of
//! the batch loss with respect to every parameter is recovered from one
//! plain-SGD step at learning rate 1 (`grad = w_before − w_after`), and
//! compared against the central difference `(L(w+ε) − L(w−ε)) / 2ε` computed
//! by perturbing that parameter through the JSON model snapshot. Tolerance
//! is 1e-4 on the absolute-or-relative error.

use jarvis_neural::{Activation, Loss, Matrix, Network, OptimizerKind};
use jarvis_stdkit::json::Json;
use jarvis_stdkit::rng::{ChaCha8Rng, Rng, SeedableRng};

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-4;

/// Flatten every trainable parameter (per layer: weights row-major, then
/// bias) out of a model's JSON snapshot.
fn flatten_params(model: &Json) -> Vec<f64> {
    let mut out = Vec::new();
    let layers = model.get("layers").and_then(Json::as_array).expect("layers");
    for layer in layers {
        let data = layer
            .get("weights")
            .and_then(|w| w.get("data"))
            .and_then(Json::as_array)
            .expect("weights.data");
        out.extend(data.iter().map(|v| v.as_f64().expect("weight")));
        let bias = layer.get("bias").and_then(Json::as_array).expect("bias");
        out.extend(bias.iter().map(|v| v.as_f64().expect("bias")));
    }
    out
}

/// Rebuild the model with flat parameter `idx` (in [`flatten_params`] order)
/// set to `value`.
fn with_param(model: &Json, idx: usize, value: f64) -> Network {
    let mut tree = model.clone();
    let mut remaining = idx;
    let Json::Obj(fields) = &mut tree else { panic!("model must be an object") };
    let layers = fields
        .iter_mut()
        .find(|(k, _)| k == "layers")
        .map(|(_, v)| v)
        .expect("layers");
    let Json::Arr(layers) = layers else { panic!("layers must be an array") };
    'search: for layer in layers {
        let Json::Obj(layer_fields) = layer else { panic!("layer must be an object") };
        // Weights first, then bias — must mirror flatten_params.
        for key in ["weights", "bias"] {
            let slot = layer_fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .expect("layer field");
            let arr = if key == "weights" {
                let Json::Obj(w) = slot else { panic!("weights must be an object") };
                w.iter_mut().find(|(k, _)| k == "data").map(|(_, v)| v).expect("data")
            } else {
                slot
            };
            let Json::Arr(vals) = arr else { panic!("parameter list expected") };
            if remaining < vals.len() {
                vals[remaining] = Json::Float(value);
                break 'search;
            }
            remaining -= vals.len();
        }
    }
    Network::from_json(&tree.to_string()).expect("perturbed model parses")
}

/// Batch loss of `net` on `(xs, ys)` under `loss`, optionally masked.
fn batch_loss(net: &Network, xs: &Matrix, ys: &Matrix, loss: Loss, mask: Option<&Matrix>) -> f64 {
    let pred = net.predict_batch(xs).expect("shapes fixed by caller");
    match mask {
        None => loss.value(&pred, ys).expect("shapes match"),
        Some(m) => {
            // Masked training zeroes the gradient where the mask is 0; the
            // equivalent scalar objective replaces masked-off predictions
            // with their targets so those elements contribute no loss.
            let masked_pred = Matrix::from_fn(pred.rows(), pred.cols(), |r, c| {
                if m.get(r, c) == 0.0 { ys.get(r, c) } else { pred.get(r, c) }
            });
            loss.value(&masked_pred, ys).expect("shapes match")
        }
    }
}

struct Case {
    hidden_act: Activation,
    head_act: Activation,
    loss: Loss,
    seed: u64,
}

/// Run one gradient check: analytic (via an SGD step at lr = 1) vs central
/// finite differences over every parameter of a 2-hidden-layer network.
fn check_case(case: &Case, mask: Option<&Matrix>) {
    let (n_in, n_hidden, n_out, batch) = (3, 4, 2, 5);
    let net = Network::builder(n_in)
        .layer(n_hidden, case.hidden_act)
        .layer(n_hidden, case.hidden_act)
        .layer(n_out, case.head_act)
        .loss(case.loss)
        .optimizer(OptimizerKind::sgd(1.0))
        .seed(case.seed)
        .build()
        .expect("valid network");

    let mut rng = ChaCha8Rng::seed_from_u64(case.seed.wrapping_add(17));
    let xs = Matrix::from_fn(batch, n_in, |_, _| rng.gen_range(-1.5..1.5));
    let in_unit = matches!(case.loss, Loss::BinaryCrossEntropy);
    let ys = Matrix::from_fn(batch, n_out, |_, _| {
        if in_unit { rng.gen_range(0.1..0.9) } else { rng.gen_range(-1.0..1.0) }
    });
    let x_rows: Vec<&[f64]> = (0..batch).map(|r| xs.row(r)).collect();
    let y_rows: Vec<&[f64]> = (0..batch).map(|r| ys.row(r)).collect();
    let mask_rows: Option<Vec<&[f64]>> = mask.map(|m| (0..batch).map(|r| m.row(r)).collect());

    let before =
        Json::parse(&net.to_json().expect("serializes")).expect("model JSON parses");
    let w_before = flatten_params(&before);

    let mut stepped = net.clone();
    stepped
        .train_batch_masked(&x_rows, &y_rows, mask_rows.as_deref())
        .expect("training step");
    let after =
        Json::parse(&stepped.to_json().expect("serializes")).expect("model JSON parses");
    let w_after = flatten_params(&after);
    assert_eq!(w_before.len(), w_after.len());

    for idx in 0..w_before.len() {
        let analytic = w_before[idx] - w_after[idx]; // sgd at lr=1: Δw = −g
        let up = with_param(&before, idx, w_before[idx] + EPS);
        let down = with_param(&before, idx, w_before[idx] - EPS);
        let numeric = (batch_loss(&up, &xs, &ys, case.loss, mask)
            - batch_loss(&down, &xs, &ys, case.loss, mask))
            / (2.0 * EPS);
        let err = (numeric - analytic).abs() / numeric.abs().max(analytic.abs()).max(1.0);
        assert!(
            err < TOL,
            "{:?}/{:?}/{:?} param {idx}: numeric {numeric} vs analytic {analytic}",
            case.hidden_act,
            case.head_act,
            case.loss,
        );
    }
}

/// Every hidden activation × every loss (head matched to the loss's range).
#[test]
fn hidden_activation_loss_grid() {
    let activations = [
        Activation::Linear,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];
    let losses = [Loss::Mse, Loss::BinaryCrossEntropy, Loss::Huber { delta: 1.0 }];
    for (ai, &hidden_act) in activations.iter().enumerate() {
        for (li, &loss) in losses.iter().enumerate() {
            let head_act = if matches!(loss, Loss::BinaryCrossEntropy) {
                Activation::Sigmoid
            } else {
                Activation::Linear
            };
            let case = Case {
                hidden_act,
                head_act,
                loss,
                seed: 100 + (ai * 10 + li) as u64,
            };
            check_case(&case, None);
        }
    }
}

/// Every activation as the output head (MSE objective).
#[test]
fn head_activation_grid() {
    let activations = [
        Activation::Linear,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];
    for (ai, &head_act) in activations.iter().enumerate() {
        let case = Case {
            hidden_act: Activation::Tanh,
            head_act,
            loss: Loss::Mse,
            seed: 300 + ai as u64,
        };
        check_case(&case, None);
    }
}

/// A Huber loss with a small delta exercises both its quadratic and linear
/// regimes inside one batch.
#[test]
fn huber_small_delta() {
    let case = Case {
        hidden_act: Activation::Relu,
        head_act: Activation::Linear,
        loss: Loss::Huber { delta: 0.25 },
        seed: 41,
    };
    check_case(&case, None);
}

/// The DQN's masked-head objective: only unmasked outputs carry gradient.
/// (Tanh hidden layers keep the objective smooth, so the finite difference
/// is valid at every parameter; the ReLU kink is exercised by the grid.)
#[test]
fn masked_training_gradients() {
    let mask = Matrix::from_fn(5, 2, |r, c| f64::from((r + c) % 2 == 0));
    let case = Case {
        hidden_act: Activation::Tanh,
        head_act: Activation::Linear,
        loss: Loss::Mse,
        seed: 57,
    };
    check_case(&case, Some(&mask));
}

/// Tanh hidden layers under MSE, seed 71. The name predates the removal of
/// GEMM threading, when this case ran on four kernel threads.
#[test]
fn gradients_hold_under_parallelism() {
    let case = Case {
        hidden_act: Activation::Tanh,
        head_act: Activation::Linear,
        loss: Loss::Mse,
        seed: 71,
    };
    check_case(&case, None);
}

/// The grids above run through whatever tier [`SimdTier::detect`] picks —
/// on an AVX2 host that is the AVX2 tier, so the analytic-vs-numeric
/// comparison exercises the vectorized kernels, not just scalar. This test
/// pins that assumption (it would silently weaken if detection ever
/// regressed to scalar) and runs one more case.
#[test]
fn gradcheck_exercises_the_simd_path() {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        use jarvis_neural::SimdTier;
        assert_eq!(
            SimdTier::detect(),
            SimdTier::Avx2,
            "this host has AVX2; gradcheck must cover the AVX2 tier"
        );
    }
    let case = Case {
        hidden_act: Activation::LeakyRelu,
        head_act: Activation::Linear,
        loss: Loss::Huber { delta: 0.5 },
        seed: 83,
    };
    check_case(&case, None);
}
