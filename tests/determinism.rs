//! Determinism regression: with the in-tree PRNG, the entire pipeline is a
//! pure function of its seeds. Two independent Home A runs with the same
//! seed must produce bit-identical episode traces, learned tables, filter
//! weights, and day plans — any drift here means a generator changed its
//! stream and silently invalidated every recorded experiment.

use jarvis_repro::core::{Jarvis, JarvisConfig, OptimizerConfig, RewardWeights};
use jarvis_repro::policy::FilterConfig;
use jarvis_repro::rl::{DqnAgent, DqnConfig, QTable};
use jarvis_repro::sim::HomeDataset;
use jarvis_repro::smart_home::SmartHome;
use jarvis_stdkit::json::ToJson;
use jarvis_stdkit::rng::{ChaCha8Rng, Rng, SeedableRng};

fn fast_config(seed: u64) -> JarvisConfig {
    JarvisConfig {
        weights: RewardWeights::balanced(),
        anomaly_training_samples: 200,
        filter: Some(FilterConfig { epochs: 3, seed, ..FilterConfig::default() }),
        optimizer: OptimizerConfig {
            episodes: 3,
            hidden: vec![16],
            replay_every: 32,
            seed,
            ..OptimizerConfig::default()
        },
        ..JarvisConfig::default()
    }
}

/// One full Home A pipeline run, reduced to its serialized artifacts.
fn pipeline_artifacts(seed: u64) -> (String, String, String) {
    let data = HomeDataset::home_a(seed);
    let mut jarvis = Jarvis::new(SmartHome::evaluation_home(), fast_config(seed));
    jarvis.learning_phase(&data, 0..3).unwrap();
    jarvis.train_filter(seed).unwrap();
    jarvis.learn_policies().unwrap();
    let episodes_json = jarvis.episodes().to_vec().to_json();
    let policies_json = jarvis.save_policies().unwrap();
    let plan = jarvis.optimize_day(&data, 4).unwrap();
    let plan_json = format!(
        "{} {} {:?} {:?} {}",
        plan.normal.to_json(),
        plan.optimized.to_json(),
        plan.stats.episode_rewards,
        plan.stats.episode_losses,
        plan.stats.final_epsilon,
    );
    (episodes_json, policies_json, plan_json)
}

/// FNV-1a 64 of a serialized artifact.
fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a hashes of `pipeline_artifacts(11)` — episode traces, policy
/// snapshot, day plan — as recorded before the DQN replay was batched, so a
/// change that moves any bit of Algorithm 1, the ANN filter or Algorithm 2
/// fails here even though both runs of one build agree. A change that is
/// meant to alter training regenerates them by printing
/// `fnv1a(&artifact)` for each of the three artifacts of seed 11.
const SEED11_HASHES: (u64, u64, u64) =
    (0xb875_0e2f_f3b1_a626, 0xda73_6b9b_b2c7_be10, 0xff8a_4fab_5986_71ea);

/// Same seed → bit-identical episode traces, learned policies (including
/// the ANN filter's weights), and optimized day plans, equal to the
/// recorded hashes.
#[test]
fn pipeline_runs_are_bit_identical() {
    let (eps_a, pol_a, plan_a) = pipeline_artifacts(11);
    let (eps_b, pol_b, plan_b) = pipeline_artifacts(11);
    assert_eq!(eps_a, eps_b, "episode traces diverged");
    assert_eq!(pol_a, pol_b, "policy snapshots diverged");
    assert_eq!(plan_a, plan_b, "day plans diverged");
    let (eps_hash, pol_hash, plan_hash) = SEED11_HASHES;
    assert_eq!(fnv1a(&eps_a), eps_hash, "episode traces moved from the recorded run");
    assert_eq!(fnv1a(&pol_a), pol_hash, "policy snapshot moved from the recorded run");
    assert_eq!(fnv1a(&plan_a), plan_hash, "day plan moved from the recorded run");
}

/// Different seeds genuinely change the artifacts (the comparison above is
/// not vacuous).
#[test]
fn different_seeds_differ() {
    let (eps_a, _, _) = pipeline_artifacts(11);
    let (eps_b, _, _) = pipeline_artifacts(12);
    assert_ne!(eps_a, eps_b, "seed must matter");
}

/// Tabular Q-learning is bit-deterministic in (seed, update stream).
#[test]
fn qtable_training_is_deterministic() {
    let train = |seed: u64| {
        let mut q = QTable::new(4, 0.5, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut s = 0usize;
        for _ in 0..2_000 {
            let a = q.epsilon_greedy(s, &[0, 1, 2, 3], 0.3, &mut rng);
            let r = rng.gen_range(-1.0_f64..1.0);
            let s2 = (s + a + 1) % 8;
            q.update(s, a, r, s2, &[0, 1, 2, 3], false);
            s = s2;
        }
        let cells: Vec<f64> =
            (0..8).flat_map(|s| (0..4).map(move |a| (s, a))).map(|(s, a)| q.q(s, a)).collect();
        cells
    };
    let a = train(3);
    let b = train(3);
    // Bit-identical, not approximately equal.
    assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    assert_ne!(train(3), train(4));
}

/// The optimizer's checkpoint format captures *everything* that feeds the
/// training stream: a run interrupted mid-way and restored from JSON must
/// end with a byte-identical final checkpoint (network weights, target
/// network, replay buffer, epsilon schedule, and RNG state) to the run
/// that never stopped.
#[test]
fn optimizer_checkpoint_resume_is_bit_identical() {
    use jarvis_repro::core::{DayScenario, Optimizer, SmartReward};
    use jarvis_repro::policy::TaBehavior;

    let home = SmartHome::evaluation_home();
    let data = HomeDataset::home_a(31);
    let scenario = DayScenario::from_dataset(&home, &data, 2);
    let reward = SmartReward::evaluation(
        RewardWeights::emphasizing("energy", 0.8),
        scenario.peak_price(),
        TaBehavior::new(),
        scenario.config(),
        home.fsm().num_devices(),
    );
    let mut cfg = OptimizerConfig::fast();
    cfg.episodes = 4;
    cfg.seed = 17;

    // Straight-through run.
    let mut env = jarvis_repro::core::HomeRlEnv::new(&home, &scenario, &reward);
    let mut straight = Optimizer::new(&env, cfg.clone()).unwrap();
    let full = straight.train(&mut env).unwrap();
    let straight_cp = straight.checkpoint(4, &full);

    // Interrupted run: 2 episodes, serialize, "crash", restore, finish.
    let mut env2 = jarvis_repro::core::HomeRlEnv::new(&home, &scenario, &reward);
    let mut first = Optimizer::new(&env2, cfg.clone()).unwrap();
    let chunk = first.train_episodes(&mut env2, 2).unwrap();
    let mid_cp = first.checkpoint(2, &chunk);
    drop(first);
    let mut env3 = jarvis_repro::core::HomeRlEnv::new(&home, &scenario, &reward);
    let (mut resumed, done, mut stats) = Optimizer::restore(&env3, &mid_cp).unwrap();
    assert_eq!(done, 2);
    let rest = resumed.train_episodes(&mut env3, cfg.episodes - done).unwrap();
    stats.merge(&rest);
    let resumed_cp = resumed.checkpoint(4, &stats);

    assert_eq!(straight_cp, resumed_cp, "checkpoint JSON diverged after resume");
}

/// Fault injection is a pure function of `(seed, plan)`: sweeping
/// `JARVIS_THREADS` (which sizes `WorkerPool::global()`) must not change a
/// single byte of the injected stream, the parsed episodes, or the table
/// learned from them. The sweep runs serially inside one test so the env
/// mutation cannot race other tests.
#[test]
fn fault_injection_is_thread_count_invariant() {
    use jarvis_repro::sim::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use jarvis_repro::smart_home::EventLog;
    use jarvis_repro::model::EpisodeConfig;
    use jarvis_repro::policy::{learn_safe_transitions, SplConfig};

    let plan = FaultPlan {
        seed: 17,
        rules: vec![
            FaultRule::all_day(FaultKind::Drop { rate: 0.04 }),
            FaultRule::all_day(FaultKind::Delay { rate: 0.03, max_minutes: 5 }),
            FaultRule::for_device(FaultKind::Offline { windows: 1, max_minutes: 90 }, "lock"),
        ],
    };
    let run = || {
        let data = HomeDataset::home_a(17);
        let injector = FaultInjector::new(plan.clone()).unwrap();
        let home = SmartHome::evaluation_home();
        let mut log = EventLog::new();
        let mut faulted_json = String::new();
        for day in 0..3 {
            let fd = injector.inject(&data, day);
            faulted_json.push_str(&fd.to_json());
            log.record_faulted_activity(&home, &fd);
        }
        let eps = log.parse_episodes(&home, EpisodeConfig::DAILY_MINUTES).unwrap().episodes;
        let outcome = learn_safe_transitions(home.fsm(), &eps, None, &SplConfig::default());
        (faulted_json, eps.to_json(), outcome.table.to_json())
    };
    let mut baseline = None;
    for threads in ["1", "2", "4"] {
        std::env::set_var("JARVIS_THREADS", threads);
        let artifacts = run();
        match &baseline {
            None => baseline = Some(artifacts),
            Some(b) => assert_eq!(b, &artifacts, "injection drifted at JARVIS_THREADS={threads}"),
        }
    }
    std::env::remove_var("JARVIS_THREADS");
}

/// The work-stealing serving runtime is a pure function of its ingested
/// stream: one fleet day served through {deterministic, threaded} modes and
/// a `JARVIS_THREADS` sweep (which sizes `WorkerPool::global()`) must end
/// with byte-identical `RuntimeSnapshot` JSON, bit-identical outcome
/// streams, and identical rejection accounting. Stolen inference batches
/// are pure, so neither the steal timing nor the pool size may leak into
/// any serialized byte. The env sweep runs serially inside one test, like
/// the injection sweep above.
#[test]
fn work_stealing_serving_is_execution_mode_invariant() {
    use jarvis_repro::policy::SafeTransitionTable;
    use jarvis_repro::runtime::{RuntimeConfig, ServingRuntime};
    use jarvis_repro::sim::FleetGenerator;

    // A learned table + a policy agent sized for the evaluation home.
    let home = SmartHome::evaluation_home();
    let mut jarvis = Jarvis::new(home.clone(), fast_config(19));
    jarvis.learning_phase(&HomeDataset::home_a(3), 0..2).unwrap();
    jarvis.learn_policies().unwrap();
    let table: SafeTransitionTable = jarvis.outcome().unwrap().table.clone();
    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let mut dqn_cfg = DqnConfig::new(state_dim, num_actions);
    dqn_cfg.hidden = vec![16];
    dqn_cfg.seed = 19;
    let policy = DqnAgent::new(dqn_cfg).unwrap();

    let fleet = FleetGenerator::new(29, 6);
    let run = |deterministic: bool| {
        let mut config = RuntimeConfig::new(4);
        config.deterministic = deterministic;
        config.batch_window = 8;
        let mut rt = ServingRuntime::new(config, policy.clone()).unwrap();
        for id in 0..fleet.num_homes() {
            rt.register_home(u64::from(id), home.clone(), table.clone()).unwrap();
        }
        let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(45)).unwrap();
        let report = rt.serve(ingest.envelopes).unwrap();
        // Debug-format the outcomes: f64s print with shortest-round-trip
        // precision, so any bit difference shows.
        (rt.snapshot().to_json(), format!("{:?}", report.outcomes), report.rejected.len())
    };

    let baseline = run(true);
    for threads in ["1", "2", "4"] {
        std::env::set_var("JARVIS_THREADS", threads);
        let threaded = run(false);
        assert_eq!(
            baseline.0, threaded.0,
            "RuntimeSnapshot bytes drifted at JARVIS_THREADS={threads}"
        );
        assert_eq!(
            baseline.1, threaded.1,
            "outcome stream drifted at JARVIS_THREADS={threads}"
        );
        assert_eq!(baseline.2, 0, "deterministic mode never sheds");
        assert_eq!(threaded.2, 0, "Block backpressure never sheds");
    }
    std::env::remove_var("JARVIS_THREADS");
}

/// The int8 quantized serving path is as deterministic as the f64 one:
/// two independently constructed agents with the same seed quantize to
/// identical policies, and the quantized outcome stream is bit-identical
/// across execution modes and shard counts.
#[test]
fn quantized_serving_is_seed_and_execution_invariant() {
    use jarvis_repro::policy::SafeTransitionTable;
    use jarvis_repro::runtime::{RuntimeConfig, ServingRuntime};
    use jarvis_repro::sim::FleetGenerator;

    let home = SmartHome::evaluation_home();
    let mut jarvis = Jarvis::new(home.clone(), fast_config(23));
    jarvis.learning_phase(&HomeDataset::home_a(3), 0..2).unwrap();
    jarvis.learn_policies().unwrap();
    let table: SafeTransitionTable = jarvis.outcome().unwrap().table.clone();
    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let make_policy = || {
        let mut cfg = DqnConfig::new(state_dim, num_actions);
        cfg.hidden = vec![16];
        cfg.seed = 23;
        DqnAgent::new(cfg).unwrap()
    };

    let fleet = FleetGenerator::new(41, 4);
    let run = |policy: &DqnAgent, shards: usize, deterministic: bool| {
        let mut config = RuntimeConfig::new(shards);
        config.deterministic = deterministic;
        config.batch_window = 8;
        let mut rt = ServingRuntime::new(config, policy.clone()).unwrap();
        for id in 0..fleet.num_homes() {
            rt.register_home(u64::from(id), home.clone(), table.clone()).unwrap();
        }
        let calib = rt.calibration_observations();
        let rows: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
        let agreement = rt.quantize_policy(&rows, 0.0).unwrap();
        let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(45)).unwrap();
        let report = rt.serve(ingest.envelopes).unwrap();
        (format!("{:?}", report.outcomes), agreement.to_bits())
    };

    // Same seed, independently built agents: identical quantized agreement
    // and identical served bytes.
    let baseline = run(&make_policy(), 1, true);
    let policy = make_policy();
    for shards in [1usize, 4] {
        for deterministic in [true, false] {
            let got = run(&policy, shards, deterministic);
            assert_eq!(baseline.1, got.1, "quantized agreement drifted at {shards} shards");
            assert_eq!(
                baseline.0, got.0,
                "quantized outcomes drifted at {shards} shards, det={deterministic}"
            );
        }
    }
}
