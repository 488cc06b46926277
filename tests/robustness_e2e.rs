//! Fault-matrix robustness harness: sweep fault rates × seeds through the
//! whole pipeline and check that detection degrades *gracefully* — the
//! false-positive rate of the learned safe-transition table stays bounded
//! and (near-)monotone in the fault rate, known gaps never inflate it, and
//! no pipeline stage panics at any swept rate.
//!
//! The second half is the crash-recovery matrix: panics injected at every
//! k-th envelope × shard counts × seeds through the supervised serving
//! runtime, asserting the recovered run is *bitwise* equal to the
//! uninterrupted oracle — outcomes, snapshot bytes, and full detection of
//! engineered violations — plus a stall variant for the deadline watchdog.
//!
//! The degradation curves themselves are regenerated at larger scale by
//! `cargo run -p jarvis-bench --bin robustness` and recorded in
//! EXPERIMENTS.md.

use jarvis_repro::attacks::{build_corpus, evaluate_detection, inject_violation};
use jarvis_repro::core::{Jarvis, JarvisConfig, OptimizerConfig, Verdict};
use jarvis_repro::model::{Episode, EpisodeConfig, TimeStep};
use jarvis_repro::policy::{flag_violations, MatchMode, SafeTransitionTable};
use jarvis_repro::rl::{DqnAgent, DqnConfig};
use jarvis_repro::runtime::{
    Envelope, EventKind, Outcome, RuntimeConfig, ServingRuntime, SupervisorConfig,
};
use jarvis_repro::sim::{
    ChaosInjector, ChaosKind, ChaosPlan, ChaosRule, ChaosSchedule, FaultInjector, FaultKind,
    FaultPlan, FaultRule, FleetGenerator, HomeDataset,
};
use jarvis_repro::smart_home::{EventLog, SmartHome};
use jarvis_stdkit::json::ToJson;

const LEARN_DAYS: std::ops::Range<u32> = 0..3;

fn fast_config() -> JarvisConfig {
    JarvisConfig {
        filter: None,
        optimizer: OptimizerConfig::fast(),
        ..JarvisConfig::default()
    }
}

/// Learn the table from the clean stream.
fn clean_baseline(seed: u64) -> (Jarvis, HomeDataset) {
    let data = HomeDataset::home_a(seed);
    let mut jarvis = Jarvis::new(SmartHome::evaluation_home(), fast_config());
    jarvis.learning_phase(&data, LEARN_DAYS).unwrap();
    jarvis.learn_policies().unwrap();
    (jarvis, data)
}

/// Re-ingest the same days through a fault plan and return the episodes.
fn faulted_episodes(data: &HomeDataset, plan: FaultPlan) -> Vec<Episode> {
    let injector = FaultInjector::new(plan).unwrap();
    let home = SmartHome::evaluation_home();
    let mut log = EventLog::new();
    for day in LEARN_DAYS {
        log.record_faulted_activity(&home, &injector.inject(data, day));
    }
    log.parse_episodes(&home, EpisodeConfig::DAILY_MINUTES).unwrap().episodes
}

/// Fraction of active (non-idle, non-gap) transitions the table flags. With
/// no attacks injected, every flag is a false positive.
fn false_positive_rate(table: &SafeTransitionTable, episodes: &[Episode], mode: MatchMode) -> f64 {
    let mut flagged = 0usize;
    let mut active = 0usize;
    for ep in episodes {
        active += ep.transitions().iter().filter(|tr| !tr.is_idle() && !tr.gap).count();
        flagged += flag_violations(table, ep, mode).len();
    }
    flagged as f64 / active.max(1) as f64
}

#[test]
fn fp_degradation_is_bounded_and_monotone_in_drop_rate() {
    let rates = [0.0, 0.01, 0.03, 0.05];
    for seed in [7u64, 23] {
        let (jarvis, data) = clean_baseline(seed);
        let table = &jarvis.outcome().unwrap().table;
        let mut gen_curve = Vec::new();
        for &rate in &rates {
            let eps = faulted_episodes(&data, FaultPlan::uniform_drop(seed, rate));
            // Exact matching amplifies a single dropped event into a skewed
            // joint state; even so it must not blow up at ≤ 5% drop.
            let exact = false_positive_rate(table, &eps, MatchMode::Exact);
            assert!(
                exact <= 0.6,
                "seed {seed}: exact-mode FP rate {exact:.3} at drop rate {rate} blew up"
            );
            gen_curve.push(false_positive_rate(table, &eps, MatchMode::Generalized));
        }
        // Generalized triggers (the runtime constraint mode) are the
        // graceful-degradation headline: clean at rate 0, bounded at 5%.
        assert_eq!(
            gen_curve[0], 0.0,
            "seed {seed}: zero-fault replay of the training stream must be clean"
        );
        for (i, &fp) in gen_curve.iter().enumerate() {
            assert!(
                fp <= 0.35,
                "seed {seed}: FP rate {fp:.3} at drop rate {} not gracefully bounded",
                rates[i]
            );
        }
        // Drop sets nest across rates under one seed, so the curve is
        // monotone up to re-slotting noise.
        for w in gen_curve.windows(2) {
            assert!(
                w[1] + 0.02 >= w[0],
                "seed {seed}: FP curve not near-monotone: {gen_curve:?}"
            );
        }
    }
}

#[test]
fn known_gaps_do_not_inflate_false_positives() {
    let (jarvis, data) = clean_baseline(11);
    let table = &jarvis.outcome().unwrap().table;
    // Take the lock (a high-activity device) fully offline for two long
    // windows each day: every covered interval is flagged as a gap and
    // skipped by the detector.
    let plan = FaultPlan {
        seed: 11,
        rules: vec![FaultRule::for_device(
            FaultKind::Offline { windows: 2, max_minutes: 240 },
            "lock",
        )],
    };
    let eps = faulted_episodes(&data, plan);
    let gaps: usize = eps.iter().map(Episode::num_gaps).sum();
    assert!(gaps > 0, "offline windows must flag gaps");
    let fp = false_positive_rate(table, &eps, MatchMode::Generalized);
    assert!(
        fp <= 0.10,
        "FP rate {fp:.3}: known outages should be absorbed, not flagged"
    );
}

#[test]
fn combined_fault_kinds_never_panic_and_detection_survives() {
    // Every fault model at once, at aggressive rates, across seeds: the
    // pipeline must parse, learn, and still detect engineered violations.
    let corpus_steps = [TimeStep(400), TimeStep(900)];
    for seed in [3u64, 19] {
        let (jarvis, data) = clean_baseline(seed);
        let table = &jarvis.outcome().unwrap().table;
        let plan = FaultPlan {
            seed,
            rules: vec![
                FaultRule::all_day(FaultKind::Drop { rate: 0.05 }),
                FaultRule::all_day(FaultKind::Duplicate { rate: 0.05 }),
                FaultRule::all_day(FaultKind::Delay { rate: 0.05, max_minutes: 5 }),
                FaultRule::all_day(FaultKind::StuckAt { rate: 0.02, hold_minutes: 30 }),
                FaultRule::all_day(FaultKind::Offline { windows: 1, max_minutes: 60 }),
            ],
        };
        let eps = faulted_episodes(&data, plan);
        assert_eq!(eps.len(), LEARN_DAYS.len());
        for ep in &eps {
            assert_eq!(ep.len(), 1440);
        }
        // Engineered violations on the faulted bases are still caught: the
        // corpus transitions were never learned, faults or no faults.
        let home = jarvis.home();
        let corpus = build_corpus(home);
        let injected: Vec<_> = corpus
            .iter()
            .step_by(10)
            .flat_map(|v| {
                corpus_steps
                    .iter()
                    .filter_map(|&t| inject_violation(home, &eps[0], v, t).ok())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(!injected.is_empty());
        let report = evaluate_detection(table, &injected, MatchMode::Exact);
        assert_eq!(
            report.detected, report.total,
            "seed {seed}: faults must not mask engineered violations"
        );
    }
}

// ---------------------------------------------------------------------------
// Crash-recovery matrix: supervised serving under chaos injection
// ---------------------------------------------------------------------------

const FLEET_HOMES: u32 = 6;
const QUERY_EVERY: u32 = 45;

/// A serving fixture: the evaluation home, a table learned from a short
/// learning phase, and a policy net sized for that home.
struct ServeFixture {
    home: SmartHome,
    table: SafeTransitionTable,
    policy: DqnAgent,
}

fn serve_fixture() -> ServeFixture {
    let home = SmartHome::evaluation_home();
    let mut jarvis = Jarvis::new(home.clone(), fast_config());
    jarvis.learning_phase(&HomeDataset::home_a(3), 0..2).unwrap();
    jarvis.learn_policies().unwrap();
    let table = jarvis.outcome().unwrap().table.clone();
    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let mut cfg = DqnConfig::new(state_dim, num_actions);
    cfg.hidden = vec![16];
    cfg.seed = 7;
    let policy = DqnAgent::new(cfg).unwrap();
    ServeFixture { home, table, policy }
}

fn serving_runtime(f: &ServeFixture, shards: usize) -> ServingRuntime {
    let mut config = RuntimeConfig::new(shards);
    config.deterministic = true;
    config.batch_window = 8;
    let mut rt = ServingRuntime::new(config, f.policy.clone()).unwrap();
    for id in 0..FLEET_HOMES {
        rt.register_home(u64::from(id), f.home.clone(), f.table.clone()).unwrap();
    }
    rt
}

/// One fleet day of envelopes with engineered violations appended: a
/// never-learned action per home at the end of the day. Returns the stream
/// and the violating sequence numbers.
fn violating_stream(
    f: &ServeFixture,
    rt: &mut ServingRuntime,
    fleet: &FleetGenerator,
) -> (Vec<Envelope>, Vec<u64>) {
    let mut envelopes =
        rt.ingest_fleet_day(fleet, 1, None, Some(QUERY_EVERY)).unwrap().envelopes;
    let violation = f.home.mini_action("door_sensor", "power_off");
    let mut seq = envelopes.last().map_or(0, |e| e.seq + 1);
    let mut injected = Vec::new();
    for home in 0..u64::from(FLEET_HOMES) {
        envelopes.push(Envelope { seq, home, minute: 1439, kind: EventKind::Action(violation) });
        injected.push(seq);
        seq += 1;
    }
    (envelopes, injected)
}

/// Fraction of the injected violations the monitor flagged.
fn detection_rate(outcomes: &[Outcome], injected: &[u64]) -> f64 {
    let detected = injected
        .iter()
        .filter(|&&seq| {
            outcomes.iter().any(|o| {
                matches!(o, Outcome::Verdict { seq: s, verdict: Verdict::Violation, .. } if *s == seq)
            })
        })
        .count();
    detected as f64 / injected.len().max(1) as f64
}

/// Run oracle + supervised-under-chaos for one (shards, plan) cell and
/// assert the recovered run is bitwise indistinguishable.
fn assert_recovery_is_bitwise(
    f: &ServeFixture,
    fleet: &FleetGenerator,
    shards: usize,
    plan: &ChaosPlan,
    sup: &SupervisorConfig,
) -> jarvis_repro::runtime::RecoveryReport {
    let mut oracle_rt = serving_runtime(f, shards);
    let (stream, injected) = violating_stream(f, &mut oracle_rt, fleet);
    let want = oracle_rt.serve(stream.clone()).unwrap();
    let want_snap = oracle_rt.snapshot().to_json();
    assert_eq!(detection_rate(&want.outcomes, &injected), 1.0, "oracle must detect everything");

    let chaos: ChaosSchedule = ChaosInjector::new(plan.clone())
        .unwrap()
        .schedule(stream.iter().map(|e| e.seq).collect::<Vec<_>>());
    assert!(!chaos.is_empty(), "the plan must arm at least one envelope");
    let mut rt = serving_runtime(f, shards);
    // The supervised runtime re-ingests the same fleet day — bitwise the
    // same stream, and its sequence counter advances identically.
    let (stream2, _) = violating_stream(f, &mut rt, fleet);
    assert_eq!(stream, stream2, "ingest must be deterministic");
    let got = rt.serve_online_supervised(stream2, sup, Some(&chaos), &[]).unwrap();
    let got_snap = rt.snapshot().to_json();

    assert_eq!(want.outcomes, got.report.outcomes, "shards={shards}: outcomes diverged");
    assert_eq!(
        format!("{:?}", want.outcomes),
        format!("{:?}", got.report.outcomes),
        "shards={shards}: f64 bits diverged"
    );
    if want_snap != got_snap {
        let i = want_snap
            .bytes()
            .zip(got_snap.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(want_snap.len().min(got_snap.len()));
        let lo = i.saturating_sub(120);
        panic!(
            "shards={shards}: snapshot bytes diverged at byte {i}\n oracle: …{}…\n got:    …{}…",
            &want_snap[lo..(i + 120).min(want_snap.len())],
            &got_snap[lo..(i + 120).min(got_snap.len())]
        );
    }
    assert_eq!(
        detection_rate(&got.report.outcomes, &injected),
        1.0,
        "shards={shards}: recovery must not mask violations"
    );
    got.recovery
}

#[test]
fn crash_recovery_matrix_is_bitwise_equal_to_oracle() {
    let f = serve_fixture();
    let mut sup = SupervisorConfig::default();
    sup.restart_budget = u32::MAX;
    sup.checkpoint_every = 32;
    for seed in [11u64, 29] {
        let fleet = FleetGenerator::new(seed, FLEET_HOMES);
        for shards in [1usize, 2, 4] {
            let plan = ChaosPlan::periodic_panic(seed, 7, 1);
            let recovery = assert_recovery_is_bitwise(&f, &fleet, shards, &plan, &sup);
            assert!(!recovery.restarts.is_empty(), "panics must actually fire");
            assert!(recovery.quarantined.is_empty(), "single-attempt panics never quarantine");
            assert!(recovery.degraded_shards.is_empty());
            assert_eq!(recovery.fallback_decisions, 0);
        }
    }
}

#[test]
fn continual_learning_never_masks_detection() {
    use jarvis_repro::rl::DqnConfig;
    use jarvis_repro::runtime::{OnlineConfig, ShadowGates, SwapPoint};

    // Online learning on (short fold cadence so many folds fire mid-stream)
    // and a mid-stream policy swap: engineered violations sprayed across
    // the whole day — before, between, and after folds and the swap — must
    // every one be flagged. Injections are spaced wider than a fold window
    // per home, so no window ever supports the attack pairs and hysteresis
    // never admits them, even while the benign routine is being admitted.
    let f = serve_fixture();
    let mut rt = serving_runtime(&f, 2);
    rt.enable_online(
        OnlineConfig { fold_every: 64, ..OnlineConfig::default() },
        ShadowGates::default(),
    )
    .unwrap();
    let mut alt = DqnConfig::new(f.policy.config().state_dim, f.policy.config().num_actions);
    alt.hidden = vec![16];
    alt.seed = 99;
    let alt = jarvis_repro::rl::DqnAgent::new(alt).unwrap();
    let version = rt.policy_store_mut().unwrap().register(alt.checkpoint());

    let fleet = FleetGenerator::new(47, FLEET_HOMES);
    let base = rt.ingest_fleet_day(&fleet, 1, None, Some(QUERY_EVERY)).unwrap().envelopes;
    let violation = f.home.mini_action("door_sensor", "power_off");
    let mut stream = Vec::with_capacity(base.len() + base.len() / 150 + 1);
    let mut injected = Vec::new();
    for (i, env) in base.into_iter().enumerate() {
        stream.push(env);
        if i % 150 == 149 {
            let minute = stream.last().map_or(0, |e: &Envelope| e.minute);
            let home = (i / 150) as u64 % u64::from(FLEET_HOMES);
            injected.push(stream.len());
            stream.push(Envelope { seq: 0, home, minute, kind: EventKind::Action(violation) });
        }
    }
    for (seq, env) in stream.iter_mut().enumerate() {
        env.seq = seq as u64;
    }
    let injected: Vec<u64> = injected.into_iter().map(|pos| pos as u64).collect();
    let at_seq = stream.len() as u64 / 2;
    let report = rt.serve_online(stream, &[SwapPoint { at_seq, version }]).unwrap();

    assert_eq!(
        detection_rate(&report.outcomes, &injected),
        1.0,
        "folds and swaps must not mask engineered violations"
    );
    let pre = injected.iter().filter(|&&s| s < at_seq).count();
    assert!(pre > 0 && pre < injected.len(), "injections must span the swap point");
    let folds: u64 = (0..u64::from(FLEET_HOMES))
        .filter_map(|id| rt.slot(id).and_then(|s| s.online()).map(|o| o.folds))
        .sum();
    assert!(folds > 0, "folds must actually fire mid-stream");
    // The benign routine *does* get admitted over the day — the table
    // genuinely grows online — yet detection above stayed 1.0: had any
    // attack pair been admitted, a later injection of it would have been
    // served as Safe and detection would have dropped below 1.0.
    let admitted: u64 = (0..u64::from(FLEET_HOMES))
        .filter_map(|id| rt.slot(id).and_then(|s| s.online()).map(|o| o.admitted))
        .sum();
    assert!(admitted > 0, "the benign routine shift should clear hysteresis");
    assert_eq!(rt.policy_store().unwrap().active(), version, "the swap must have landed");
}

#[test]
fn stall_injection_exercises_the_deadline_watchdog() {
    let f = serve_fixture();
    let mut sup = SupervisorConfig::default();
    sup.restart_budget = u32::MAX;
    sup.deadline_ticks = 100;
    sup.checkpoint_every = 32;
    let fleet = FleetGenerator::new(17, FLEET_HOMES);
    let plan = ChaosPlan {
        seed: 17,
        rules: vec![ChaosRule::every_kth(ChaosKind::Stall { ticks: 300, attempts: 1 }, 19)],
    };
    let recovery = assert_recovery_is_bitwise(&f, &fleet, 2, &plan, &sup);
    assert!(!recovery.restarts.is_empty(), "over-deadline stalls must trip the watchdog");
    assert!(recovery
        .restarts
        .iter()
        .all(|r| r.cause == jarvis_repro::runtime::FailureCause::DeadlineOverrun));
}
