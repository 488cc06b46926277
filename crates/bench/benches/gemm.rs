//! Neural kernel benchmark with a recorded baseline (schema v2).
//!
//! Sweeps three layers of the decision-path stack:
//!
//! * **GEMM tiers** — the naive reference vs the blocked kernels pinned to
//!   every available [`SimdTier`] (scalar, AVX2), for `matmul` and the
//!   fused `matmul_transpose` at 64/128/256.
//! * **Batched forward** — a serving-shaped MLP (32 → 64 → 64 → 9) at batch
//!   sizes 16/32/64/128: f64 pinned to scalar (the pre-SIMD kernels), f64
//!   at the detected tier, and the int8 quantized forward at both scalar
//!   and the detected tier.
//! * **Worker pool** — `run_scoped` fork/join overhead vs a fresh
//!   `thread::scope` spawn for the same task set.
//! * **Training step** — one DQN `Replay(BSize)` (`train/dqn_replay/32`)
//!   at the paper's default agent shape on the evaluation home: 64×64
//!   hidden layers, batch 32, a full replay memory of 10 000 transitions.
//!
//! Beyond printing a table, this bench is the acceptance gate for the SIMD
//! + quantization work. `--check` enforces, **fresh from this run's own
//! measurements** (not the recorded file):
//!
//! * quantized forward ≥ [`QUANT_SPEEDUP_GATE`]× over the scalar-tier f64
//!   forward at batches 16/32/64;
//! * quantized argmax agreement ≥ [`AGREEMENT_GATE`] on the eval corpus;
//!
//! The first is a *performance* gate calibrated on the AVX2 baseline box;
//! when the detected SIMD tier is below AVX2 it prints warnings instead of
//! failing (see [`gate_failures`]). The agreement gate and the baseline
//! regression check are enforced on every tier.
//!
//! plus the v1-style ≤2× regression check of every gated kernel (GEMM,
//! forward and training-step rows) against the recorded minima in
//! `BENCH_neural.json`.
//!
//! * `--json <path>`  — write the measurements as a JSON baseline.
//! * `--check <path>` — enforce the gates above and exit non-zero on fail.
//! * `--quick`        — 10× shorter budgets (used by `scripts/verify.sh`).

use std::time::{Duration, Instant};

use jarvis::{DayScenario, HomeRlEnv, RewardWeights, SmartReward};
use jarvis_neural::{
    gemm, Activation, Loss, Matrix, Network, OptimizerKind, QuantizedNetwork, SimdTier,
};
use jarvis_policy::TaBehavior;
use jarvis_rl::{DqnAgent, DqnConfig, Environment, Experience};
use jarvis_sim::HomeDataset;
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::json::Json;
use jarvis_stdkit::pool::WorkerPool;
use jarvis_stdkit::rng::{ChaCha8Rng, Rng, SeedableRng};

/// Sizes swept for square `m×k×n` products: 64 is the widest layer the
/// system runs, 128 its largest batch, 256 beyond both.
const SIZES: [usize; 3] = [64, 128, 256];

/// Batch sizes swept for the serving-shaped forward pass.
const BATCHES: [usize; 4] = [16, 32, 64, 128];

/// The quantized forward must beat the scalar-tier f64 forward by at least
/// this factor at batches 16/32/64 (the serving window sizes).
const QUANT_SPEEDUP_GATE: f64 = 3.0;

/// Minimum quantized/f64 greedy-argmax agreement on the eval corpus.
const AGREEMENT_GATE: f64 = 0.95;

/// Baselines only gate the kernels we ship; the naive reference is recorded
/// for the speedup column but never fails the regression check.
const CHECKED_PREFIXES: [&str; 4] = ["gemm/", "gemm_t/", "forward/", "train/"];

struct Measurement {
    name: String,
    median_ns: f64,
    min_ns: f64,
}

/// Everything `--check` gates on, computed fresh from one suite run.
struct Gates {
    /// batch → scalar-f64-min / quant-min (minima; see `run_suite`).
    quant_speedup: Vec<(usize, f64)>,
    /// Quantized greedy-argmax agreement with f64 on the eval corpus.
    argmax_agreement: f64,
}

/// Median/min per-call nanoseconds of `routine` over a wall-clock budget.
fn measure<O>(budget: Duration, mut routine: impl FnMut() -> O) -> (f64, f64) {
    // One untimed call to warm caches and page in buffers.
    std::hint::black_box(routine());
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 3 {
        let t0 = Instant::now();
        std::hint::black_box(routine());
        samples.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], samples[0])
}

fn random_matrix(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// The serving-shaped benchmark network: 32 observation features, two
/// 64-unit ReLU hidden layers (the paper's DNN shape), 9 Q heads. Briefly
/// trained toward a seeded linear target so the heads rank distinctly —
/// random initialization would make the agreement gate meaninglessly easy
/// or flaky.
fn bench_network() -> Network {
    let (inputs, outputs) = (32usize, 9usize);
    let mut net = Network::builder(inputs)
        .layer(64, Activation::Relu)
        .layer(64, Activation::Relu)
        .layer(outputs, Activation::Linear)
        .loss(Loss::Mse)
        .optimizer(OptimizerKind::adam(0.01))
        .seed(7)
        .build()
        .expect("bench network");
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for _ in 0..100 {
        let xs: Vec<Vec<f64>> = (0..16)
            .map(|_| (0..inputs).map(|_| rng.gen_range(-1.0..=1.0)).collect())
            .collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                (0..outputs)
                    .map(|h| x.iter().enumerate().map(|(i, v)| v * (((i + h) % 7) as f64 - 3.0)).sum::<f64>() / 8.0)
                    .collect()
            })
            .collect();
        let xr: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let yr: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
        net.train_batch(&xr, &yr).expect("bench training step");
    }
    net
}

fn corpus(seed: u64, rows: usize, width: usize) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..rows).map(|_| (0..width).map(|_| rng.gen_range(-1.0..=1.0)).collect()).collect()
}

/// Batched f64 forward pinned to one SIMD tier, composed from the layer
/// accessors — this is exactly what `Network::forward_batch` computes, but
/// with the kernel tier under bench control (`Scalar` reproduces the
/// pre-SIMD blocked kernels this PR's speedups are measured against).
fn forward_f64_tier(net: &Network, rows: &[Vec<f64>], tier: SimdTier) -> Vec<f64> {
    let batch = rows.len();
    let mut width = net.input_size();
    let mut act: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    for layer in net.layers() {
        let units = layer.units();
        let mut z = vec![0.0; batch * units];
        gemm::matmul_transpose_with_tier(
            &act,
            layer.weights().as_slice(),
            &mut z,
            batch,
            width,
            units,
            tier,
        );
        let bias = layer.bias();
        let activation = layer.activation();
        for row in z.chunks_exact_mut(units) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = activation.apply(*v + b);
            }
        }
        act = z;
        width = units;
    }
    act
}

/// A paper-default DQN agent (`DqnConfig::new` on the evaluation home's
/// observation and action sizes: 64×64 hidden, batch 32) whose replay
/// memory is filled to its 10 000-transition capacity by a seeded
/// random-action walk through the evaluation home's day.
fn replay_agent() -> DqnAgent {
    let home = SmartHome::evaluation_home();
    let data = HomeDataset::home_a(42);
    let scenario = DayScenario::from_dataset(&home, &data, 2);
    let reward = SmartReward::evaluation(
        RewardWeights::balanced(),
        scenario.peak_price(),
        TaBehavior::new(),
        scenario.config(),
        home.fsm().num_devices(),
    );
    let mut env = HomeRlEnv::new(&home, &scenario, &reward);
    let mut agent = DqnAgent::new(DqnConfig::new(env.state_dim(), env.num_actions()))
        .expect("paper-default agent");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut obs = env.reset();
    for _ in 0..agent.config().replay_capacity {
        let valid = env.valid_actions();
        let action = valid[rng.gen_range(0..valid.len())];
        let step = env.step(action);
        agent.remember(Experience {
            state: obs,
            action,
            reward: step.reward,
            next: step.obs.clone(),
            next_valid: env.valid_actions(),
            done: step.done,
        });
        obs = if step.done { env.reset() } else { step.obs };
    }
    agent
}

fn run_suite(budget: Duration) -> (Vec<Measurement>, Gates) {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut results = Vec::new();
    // Returns min_ns: the gates compare minima, not medians — on a busy
    // box interference only ever *inflates* a sample, so the min is the
    // noise-robust estimate of true kernel cost.
    let record = |results: &mut Vec<Measurement>, name: String, (median_ns, min_ns): (f64, f64)| {
        println!("{name:<34} median {:10.1} µs  min {:10.1} µs", median_ns / 1e3, min_ns / 1e3);
        results.push(Measurement { name, median_ns, min_ns });
        results.last().expect("just pushed").min_ns
    };

    let detected = SimdTier::detect();
    let tiers = SimdTier::available();
    println!(
        "simd tiers: {:?} (detected: {})",
        tiers.iter().map(|t| t.name()).collect::<Vec<_>>(),
        detected.name()
    );

    // --- GEMM per-tier sweep -------------------------------------------
    for n in SIZES {
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        let bt = b.transpose();
        let (am, bm, btm) = (a.as_slice(), b.as_slice(), bt.as_slice());

        let naive = measure(budget, || {
            let mut out = vec![0.0; n * n];
            gemm::matmul_naive(am, bm, &mut out, n, n);
            out
        });
        record(&mut results, format!("gemm/naive/{n}"), naive);
        for &tier in tiers {
            record(
                &mut results,
                format!("gemm/{}/{n}", tier.name()),
                measure(budget, || {
                    let mut out = vec![0.0; n * n];
                    gemm::matmul_with_tier(am, bm, &mut out, n, n, n, tier);
                    out
                }),
            );
        }
        for &tier in tiers {
            record(
                &mut results,
                format!("gemm_t/{}/{n}", tier.name()),
                measure(budget, || {
                    let mut out = vec![0.0; n * n];
                    gemm::matmul_transpose_with_tier(am, btm, &mut out, n, n, n, tier);
                    out
                }),
            );
        }
    }

    // --- Serving-shaped forward sweep ----------------------------------
    let net = bench_network();
    let calib = corpus(5, 64, net.input_size());
    let calib_refs: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
    let qnet = QuantizedNetwork::quantize(&net, &calib_refs).expect("quantize bench net");
    let eval = corpus(9, 256, net.input_size());
    let eval_refs: Vec<&[f64]> = eval.iter().map(Vec::as_slice).collect();
    let argmax_agreement = qnet.argmax_agreement(&net, &eval_refs).expect("agreement");
    println!("quantized argmax agreement on eval corpus: {argmax_agreement:.4}");

    let mut quant_speedup = Vec::new();
    for batch in BATCHES {
        let rows = corpus(100 + batch as u64, batch, net.input_size());
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();

        let scalar = record(
            &mut results,
            format!("forward/f64_scalar/{batch}"),
            measure(budget, || forward_f64_tier(&net, &rows, SimdTier::Scalar)),
        );
        record(
            &mut results,
            format!("forward/f64/{batch}"),
            measure(budget, || forward_f64_tier(&net, &rows, detected)),
        );
        record(
            &mut results,
            format!("forward/quant_scalar/{batch}"),
            measure(budget, || qnet.forward_batch_with_tier(&refs, SimdTier::Scalar).expect("quant")),
        );
        let quant = record(
            &mut results,
            format!("forward/quant/{batch}"),
            measure(budget, || qnet.forward_batch_with_tier(&refs, detected).expect("quant")),
        );
        let speedup = scalar / quant;
        println!("{:<34} quant {speedup:.2}x over f64-scalar", format!("forward/speedup/{batch}"));
        if batch <= 64 {
            quant_speedup.push((batch, speedup));
        }
    }

    // --- DQN training step --------------------------------------------
    let mut agent = replay_agent();
    record(
        &mut results,
        "train/dqn_replay/32".into(),
        measure(budget, || agent.replay().expect("replay").expect("memory is full")),
    );

    // --- Worker-pool fork/join overhead --------------------------------
    let pool = WorkerPool::with_workers(4);
    record(
        &mut results,
        "pool/run_scoped8".into(),
        measure(budget, || {
            let outs = [0u64; 8].map(std::hint::black_box);
            let tasks: Vec<jarvis_stdkit::pool::ScopedTask<'_>> = outs
                .iter()
                .map(|o| Box::new(move || { std::hint::black_box(o); }) as _)
                .collect();
            pool.run_scoped(tasks);
        }),
    );
    record(
        &mut results,
        "pool/thread_scope8".into(),
        measure(budget, || {
            let outs = [0u64; 8].map(std::hint::black_box);
            std::thread::scope(|s| {
                for o in &outs {
                    s.spawn(move || { std::hint::black_box(o); });
                }
            });
        }),
    );

    (results, Gates { quant_speedup, argmax_agreement })
}

fn to_json(results: &[Measurement], gates: &Gates) -> String {
    let entries: Vec<Json> = results
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.clone())),
                ("median_ns".into(), Json::Float(m.median_ns)),
                ("min_ns".into(), Json::Float(m.min_ns)),
            ])
        })
        .collect();
    let speedups: Vec<Json> = gates
        .quant_speedup
        .iter()
        .map(|&(b, s)| {
            Json::Obj(vec![
                ("batch".into(), Json::Int(b as i64)),
                ("speedup".into(), Json::Float(s)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("jarvis-neural-bench-v2".into())),
        (
            "simd_tiers".into(),
            Json::Arr(
                SimdTier::available().iter().map(|t| Json::Str(t.name().into())).collect(),
            ),
        ),
        ("detected_tier".into(), Json::Str(SimdTier::detect().name().into())),
        (
            "gates".into(),
            Json::Obj(vec![
                ("quant_speedup_gate".into(), Json::Float(QUANT_SPEEDUP_GATE)),
                ("quant_speedup".into(), Json::Arr(speedups)),
                ("argmax_agreement_gate".into(), Json::Float(AGREEMENT_GATE)),
                ("argmax_agreement".into(), Json::Float(gates.argmax_agreement)),
            ]),
        ),
        ("results".into(), Json::Arr(entries)),
    ])
    .to_string()
}

/// Enforce the acceptance gates from this run's own measurements. Returns
/// human-readable failures (empty = all gates pass).
///
/// The speedup target was set on the AVX2 baseline box; on a host whose
/// detected tier is below AVX2 the hardware cannot reach it no matter how
/// correct the code is, so there the *performance* gate is demoted to
/// printed warnings. The argmax-agreement gate is about
/// numerics, not speed — it stays a hard failure on every tier (as does
/// the bitwise-conformance battery in `crates/neural/tests/properties.rs`,
/// which this bench does not own).
fn gate_failures(gates: &Gates) -> Vec<String> {
    let mut failed = Vec::new();
    let perf_gates_enforced = SimdTier::detect() >= SimdTier::Avx2;
    let mut perf = |msg: String| {
        if perf_gates_enforced {
            failed.push(msg);
        } else {
            println!("warning (perf gate skipped below avx2): {msg}");
        }
    };
    for &(batch, speedup) in &gates.quant_speedup {
        if speedup < QUANT_SPEEDUP_GATE {
            perf(format!(
                "quantized forward at batch {batch} is only {speedup:.2}x over f64-scalar \
                 (gate: {QUANT_SPEEDUP_GATE}x)"
            ));
        }
    }
    if gates.argmax_agreement < AGREEMENT_GATE {
        failed.push(format!(
            "quantized argmax agreement {:.4} below the {AGREEMENT_GATE} gate",
            gates.argmax_agreement
        ));
    }
    failed
}

/// Compare `results` against a recorded baseline; returns the names of the
/// gated kernels that regressed more than 2×. Compares minima (see
/// `run_suite`: interference only inflates samples, so min-vs-min is the
/// stable regression signal).
fn regressions(results: &[Measurement], baseline: &Json) -> Vec<String> {
    if baseline.get("schema").and_then(Json::as_str) != Some("jarvis-neural-bench-v2") {
        println!("recorded baseline predates schema v2; skipping regression comparison");
        return Vec::new();
    }
    let recorded = baseline
        .get("results")
        .and_then(Json::as_array)
        .expect("baseline has a results array");
    // Entries measured at the *detected* tier (the detected-tier f64
    // forward, the detected-tier quantized forward, the training step) are
    // only comparable when this host detects the same tier the baseline
    // box recorded; on a weaker host they would report a phantom
    // regression of correct code. Tier-pinned entries (gemm/<tier>/,
    // forward/f64_scalar/, forward/quant_scalar/) stay checked.
    let current_tier = SimdTier::detect().name();
    let baseline_tier = baseline.get("detected_tier").and_then(Json::as_str);
    let tiers_match = baseline_tier.is_none_or(|t| t == current_tier);
    if !tiers_match {
        println!(
            "detected tier ({current_tier}) differs from the baseline's ({}); \
             skipping regression checks on detected-tier kernels",
            baseline_tier.unwrap_or("unknown")
        );
    }
    let tier_dependent = |name: &str| {
        name.starts_with("forward/f64/")
            || name.starts_with("forward/quant/")
            || name.starts_with("train/")
    };
    let mut failed = Vec::new();
    for m in results {
        if !CHECKED_PREFIXES.iter().any(|p| m.name.starts_with(p)) || m.name.contains("/naive/") {
            continue;
        }
        if !tiers_match && tier_dependent(&m.name) {
            continue;
        }
        let Some(old) = recorded.iter().find(|r| {
            r.get("name").and_then(Json::as_str) == Some(m.name.as_str())
        }) else {
            continue; // new benchmark, nothing recorded yet
        };
        let old_min = old.get("min_ns").and_then(Json::as_f64).expect("min_ns");
        if m.min_ns > 2.0 * old_min {
            failed.push(format!(
                "{}: {:.1} µs vs recorded {:.1} µs ({:.2}x)",
                m.name,
                m.min_ns / 1e3,
                old_min / 1e3,
                m.min_ns / old_min
            ));
        }
    }
    failed
}

fn main() {
    let mut quick = false;
    let mut json_out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_out = Some(args.next().expect("--json needs a path")),
            "--check" => check = Some(args.next().expect("--check needs a path")),
            // Ignore cargo-bench plumbing flags.
            "--bench" | "--test" => {}
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let budget = if quick { Duration::from_millis(30) } else { Duration::from_millis(300) };

    let (results, gates) = run_suite(budget);

    if let Some(path) = json_out {
        std::fs::write(&path, to_json(&results, &gates) + "\n").expect("write baseline");
        println!("wrote baseline to {path}");
    }
    if let Some(path) = check {
        let mut failed = gate_failures(&gates);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = Json::parse(&text).expect("baseline parses");
        failed.extend(regressions(&results, &baseline));
        if !failed.is_empty() {
            eprintln!("neural kernel gates failed vs {path}:");
            for f in &failed {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        let perf_scope = if SimdTier::detect() >= SimdTier::Avx2 {
            "enforced"
        } else {
            "warn-only below avx2"
        };
        println!(
            "all gates pass: quant >= {QUANT_SPEEDUP_GATE}x at batches 16-64 ({perf_scope}), \
             agreement >= {AGREEMENT_GATE}, kernels within 2x of {path}"
        );
    }
}
