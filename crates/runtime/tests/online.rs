//! Continual-learning invariants (DESIGN.md §16): online serving is
//! bitwise identical across shard counts and execution modes, SPL fold
//! hysteresis admits persistent routine shifts but never a single bad day,
//! mid-stream policy swaps are reproducible from `(stream, plan)` alone,
//! shadow evaluation and promotion gates are deterministic both ways,
//! background fine-tuning is invariant across worker-pool sizes, and a
//! snapshot restore rolls the whole learning state back byte-for-byte.
//!
//! Sizes scale down under Miri (`cfg(miri)`) so the battery stays inside
//! the interpreter's time budget; the properties checked are identical.

use jarvis::{Jarvis, JarvisConfig, OptimizerCheckpoint, OptimizerConfig, TrainingStats, Verdict};
use jarvis_policy::SafeTransitionTable;
use jarvis_rl::{DqnAgent, DqnConfig};
use jarvis_runtime::{
    Envelope, EventKind, FineTuneConfig, OnlineConfig, Outcome, RuntimeConfig, ServingRuntime,
    ShadowGates, ShadowRow, SupervisorConfig, SwapPoint,
};
use jarvis_sim::{FleetGenerator, HomeDataset};
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::json::ToJson;
use jarvis_stdkit::pool::WorkerPool;

/// A home catalogue, a table learned from a short learning phase, and a
/// policy agent sized for that home.
struct Fixture {
    home: SmartHome,
    table: SafeTransitionTable,
    policy: DqnAgent,
}

fn fixture() -> Fixture {
    let home = SmartHome::evaluation_home();
    let config = JarvisConfig { optimizer: OptimizerConfig::fast(), ..JarvisConfig::default() };
    let mut jarvis = Jarvis::new(home.clone(), config);
    let learn_days = if cfg!(miri) { 0..1 } else { 0..2 };
    jarvis.learning_phase(&HomeDataset::home_a(3), learn_days).expect("learning phase");
    jarvis.learn_policies().expect("SPL");
    let table = jarvis.outcome().expect("outcome").table.clone();

    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let policy = DqnAgent::new(policy_cfg(state_dim, num_actions, 7)).expect("policy net");
    Fixture { home, table, policy }
}

fn policy_cfg(state_dim: usize, num_actions: usize, seed: u64) -> DqnConfig {
    let mut cfg = DqnConfig::new(state_dim, num_actions);
    cfg.hidden = vec![16];
    cfg.seed = seed;
    cfg
}

/// A second policy with different weights, sized like the fixture's.
fn alt_policy(f: &Fixture) -> DqnAgent {
    let cfg = f.policy.config();
    DqnAgent::new(policy_cfg(cfg.state_dim, cfg.num_actions, 99)).expect("alt policy net")
}

fn det_config(shards: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(shards);
    config.deterministic = true;
    config.batch_window = 8;
    config
}

/// A fold cadence short enough that a fleet day folds many times.
fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        fold_every: if cfg!(miri) { 16 } else { 24 },
        support_threshold: 3,
        hysteresis_folds: 2,
        replay_delta_cap: 64,
    }
}

fn fleet_size() -> u32 {
    if cfg!(miri) {
        2
    } else {
        6
    }
}

fn query_every() -> u32 {
    if cfg!(miri) {
        240
    } else {
        45
    }
}

fn build_runtime(f: &Fixture, config: RuntimeConfig, homes: u32) -> ServingRuntime {
    let mut rt = ServingRuntime::new(config, f.policy.clone()).expect("runtime");
    for id in 0..homes {
        rt.register_home(u64::from(id), f.home.clone(), f.table.clone()).expect("register");
    }
    rt
}

fn online_runtime(f: &Fixture, config: RuntimeConfig, homes: u32) -> ServingRuntime {
    let mut rt = build_runtime(f, config, homes);
    rt.enable_online(online_cfg(), ShadowGates::default()).expect("enable online");
    rt
}

/// Bitwise outcome comparison: `PartialEq` plus the Debug rendering, which
/// prints `f64`s with shortest-round-trip precision and so distinguishes
/// any bit difference.
fn assert_outcomes_bit_identical(a: &[Outcome], b: &[Outcome], what: &str) {
    assert_eq!(a, b, "{what}: outcome lists differ");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: f64 bits differ");
}

/// Snapshot bytes with the shard count pinned to 1: the partitioning is
/// deployment topology, not fleet state, and must not leak into the
/// cross-shard determinism comparison.
fn fleet_state(rt: &ServingRuntime) -> String {
    let mut snap = rt.snapshot();
    snap.shards = 1;
    snap.to_json()
}

fn total_folds(rt: &ServingRuntime) -> u64 {
    (0..rt.num_homes() as u64)
        .filter_map(|id| rt.slot(id).and_then(|s| s.online()).map(|o| o.folds))
        .sum()
}

// ---------------------------------------------------------------------------
// Layer 1+3: serving determinism with learning on
// ---------------------------------------------------------------------------

#[test]
fn online_serving_is_bitwise_invariant_across_shards_and_modes() {
    let f = fixture();
    let fleet = FleetGenerator::new(31, fleet_size());

    let mut oracle = online_runtime(&f, det_config(1), fleet.num_homes());
    let ingest = oracle.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let envelopes = ingest.envelopes;
    let want = oracle.serve(envelopes.clone()).expect("oracle serve").outcomes;
    let want_snap = fleet_state(&oracle);
    assert!(total_folds(&oracle) > 0, "the stream must be long enough to fold");

    for shards in [2usize, 4, 8] {
        for deterministic in [true, false] {
            let mut config = det_config(shards);
            config.deterministic = deterministic;
            let mut rt = online_runtime(&f, config, fleet.num_homes());
            let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
            assert_eq!(envelopes, ingest.envelopes, "ingest is shard-count independent");
            let report = rt.serve(ingest.envelopes).expect("serve");
            let what = format!("online, {shards} shards, deterministic={deterministic}");
            assert_outcomes_bit_identical(&want, &report.outcomes, &what);
            assert_eq!(want_snap, fleet_state(&rt), "{what}: snapshot bytes differ");
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 1: fold hysteresis
// ---------------------------------------------------------------------------

/// A violating action: never learned in the table, so the monitor flags it
/// and the shadow delta starts counting it.
fn violation(f: &Fixture) -> jarvis_iot_model::MiniAction {
    f.home.mini_action("door_sensor", "power_off")
}

/// One fold window (`fold_every` envelopes) of pure violating actions
/// against home 0, continuing at `seq`/`minute`.
fn violation_window(f: &Fixture, cfg: &OnlineConfig, seq: &mut u64, minute: &mut u32) -> Vec<Envelope> {
    let mini = violation(f);
    (0..cfg.fold_every)
        .map(|_| {
            let env = Envelope { seq: *seq, home: 0, minute: *minute, kind: EventKind::Action(mini) };
            *seq += 1;
            *minute += 1;
            env
        })
        .collect()
}

/// One fold window of idle decision queries: they advance the fold cadence
/// without observing any candidate pair, so a stale streak expires.
fn idle_window(cfg: &OnlineConfig, seq: &mut u64, minute: &mut u32) -> Vec<Envelope> {
    (0..cfg.fold_every)
        .map(|_| {
            let env = Envelope {
                seq: *seq,
                home: 0,
                minute: *minute,
                kind: EventKind::Query { indoor_c: 21.0, outdoor_c: 10.0, price_per_kwh: 0.15 },
            };
            *seq += 1;
            *minute += 1;
            env
        })
        .collect()
}

fn verdicts(outcomes: &[Outcome]) -> Vec<(u64, Verdict)> {
    outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Verdict { seq, verdict, .. } => Some((*seq, *verdict)),
            _ => None,
        })
        .collect()
}

#[test]
fn hysteresis_admits_a_persistent_shift_after_two_supported_folds() {
    let f = fixture();
    let cfg = online_cfg();
    let mut rt = online_runtime(&f, det_config(1), 1);
    let (mut seq, mut minute) = (0u64, 0u32);
    let mut stream = Vec::new();
    for _ in 0..3 {
        stream.extend(violation_window(&f, &cfg, &mut seq, &mut minute));
    }
    let report = rt.serve(stream).expect("serve");
    let verdicts = verdicts(&report.outcomes);

    // Window 1 folds at envelope `fold_every` with fold_every - 1
    // observations (>= support_threshold): streak 1. Window 2 folds one
    // window later: streak 2 == hysteresis_folds, pair admitted — the very
    // envelope that triggered that fold is checked against the grown table.
    let first_safe = verdicts.iter().position(|&(_, v)| v == Verdict::Safe);
    assert_eq!(
        first_safe,
        Some(2 * cfg.fold_every as usize - 1),
        "admission must land exactly at the second fold, not before"
    );
    assert_eq!(verdicts[0].1, Verdict::Violation, "the shift starts as a violation");
    let learner = rt.slot(0).unwrap().online().expect("learner");
    assert_eq!(learner.folds, 3);
    assert!(learner.admitted >= 1, "the persistent pair must be admitted");
}

#[test]
fn a_single_bad_day_is_never_admitted() {
    let f = fixture();
    let cfg = online_cfg();
    let mut rt = online_runtime(&f, det_config(1), 1);
    let (mut seq, mut minute) = (0u64, 0u32);
    // One anomalous window, two quiet ones, another anomalous one, one
    // quiet: support never spans two consecutive folds.
    let mut stream = violation_window(&f, &cfg, &mut seq, &mut minute);
    stream.extend(idle_window(&cfg, &mut seq, &mut minute));
    stream.extend(idle_window(&cfg, &mut seq, &mut minute));
    stream.extend(violation_window(&f, &cfg, &mut seq, &mut minute));
    stream.extend(idle_window(&cfg, &mut seq, &mut minute));
    let report = rt.serve(stream).expect("serve");

    assert!(
        verdicts(&report.outcomes).iter().all(|&(_, v)| v == Verdict::Violation),
        "an isolated anomalous window must stay a violation forever"
    );
    let learner = rt.slot(0).unwrap().online().expect("learner");
    assert_eq!(learner.folds, 5, "every window folded");
    assert_eq!(learner.admitted, 0, "hysteresis must reject the single bad day");
}

// ---------------------------------------------------------------------------
// Layer 3: scheduled mid-stream swaps
// ---------------------------------------------------------------------------

#[test]
fn mid_stream_swap_is_bitwise_reproducible_across_shards_and_modes() {
    let f = fixture();
    let fleet = FleetGenerator::new(43, fleet_size());
    let alt = alt_policy(&f);

    // Reference run: 1 shard, deterministic, swap half way through the day.
    let mut oracle = online_runtime(&f, det_config(1), fleet.num_homes());
    let version = oracle.policy_store_mut().expect("store").register(alt.checkpoint());
    let ingest = oracle.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let envelopes = ingest.envelopes;
    let at_seq = envelopes[envelopes.len() / 2].seq;
    let swaps = [SwapPoint { at_seq, version }];
    let want = oracle.serve_online(envelopes.clone(), &swaps).expect("oracle serve_online");
    let want_snap = fleet_state(&oracle);

    let store = oracle.policy_store().expect("store");
    assert_eq!(store.active(), version, "the swap target must end up active");
    assert_eq!(store.swaps().len(), 1);
    assert_eq!(store.swaps()[0].at_seq, at_seq);
    assert_eq!(store.swaps()[0].to, version);

    // The swap must actually change decisions after at_seq...
    let mut frozen = online_runtime(&f, det_config(1), fleet.num_homes());
    let ingest = frozen.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let base = frozen.serve(ingest.envelopes).expect("serve").outcomes;
    let split = |outs: &[Outcome]| -> (Vec<Outcome>, Vec<Outcome>) {
        outs.iter().cloned().partition(|o| o.seq() < at_seq)
    };
    let (want_pre, want_post) = split(&want.outcomes);
    let (base_pre, base_post) = split(&base);
    assert_outcomes_bit_identical(&want_pre, &base_pre, "pre-swap outcomes");
    assert_ne!(want_post, base_post, "the swapped-in policy must answer differently");

    // ...and be bitwise reproducible from (stream, plan) alone, whatever
    // the shard count or execution mode.
    for shards in [1usize, 2, 4, 8] {
        for deterministic in [true, false] {
            let mut config = det_config(shards);
            config.deterministic = deterministic;
            let mut rt = online_runtime(&f, config, fleet.num_homes());
            let v = rt.policy_store_mut().expect("store").register(alt.checkpoint());
            assert_eq!(v, version, "content addressing is runtime-independent");
            let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
            assert_eq!(envelopes, ingest.envelopes, "ingest is shard-count independent");
            let got = rt.serve_online(ingest.envelopes, &swaps).expect("serve_online");
            let what = format!("swap, {shards} shards, deterministic={deterministic}");
            assert_outcomes_bit_identical(&want.outcomes, &got.outcomes, &what);
            assert_eq!(want_snap, fleet_state(&rt), "{what}: snapshot bytes differ");
        }
    }
}

#[test]
fn swap_plans_are_validated() {
    let f = fixture();
    let fleet = FleetGenerator::new(5, 2);

    // No online learning: swaps are refused outright, by both entry points.
    let mut rt = build_runtime(&f, det_config(1), fleet.num_homes());
    let plan = [SwapPoint { at_seq: 0, version: 0 }];
    let sup = SupervisorConfig::default();
    assert!(rt.serve_online(Vec::new(), &plan).is_err());
    assert!(rt.serve_online_supervised(Vec::new(), &sup, None, &plan).is_err());
    // ...but an empty plan is plain serving and needs no store.
    let ingest = rt.ingest_fleet_day(&fleet, 0, None, Some(query_every())).expect("ingest");
    let served = rt.serve_online(ingest.envelopes, &[]).expect("empty plan, no store");
    assert!(served.decisions() > 0);
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let supervised =
        rt.serve_online_supervised(ingest.envelopes, &sup, None, &[]).expect("empty plan");
    assert!(supervised.report.decisions() > 0);
    assert!(rt.policy_store().is_none(), "serving must not create a store");

    let mut rt = online_runtime(&f, det_config(1), fleet.num_homes());
    let version = rt.policy_store_mut().expect("store").register(alt_policy(&f).checkpoint());
    // Unknown version.
    assert!(rt.serve_online(Vec::new(), &[SwapPoint { at_seq: 0, version: 77 }]).is_err());
    // Unordered plan.
    let unordered =
        [SwapPoint { at_seq: 9, version }, SwapPoint { at_seq: 9, version }];
    assert!(rt.serve_online(Vec::new(), &unordered).is_err());
    // A valid plan over an empty stream still commits the swap.
    rt.serve_online(Vec::new(), &[SwapPoint { at_seq: 0, version }]).expect("empty stream");
    assert_eq!(rt.policy_store().expect("store").active(), version);
}

// ---------------------------------------------------------------------------
// Layer 3: shadow evaluation and promotion gates
// ---------------------------------------------------------------------------

#[test]
fn shadow_scores_are_identical_across_shards_and_modes() {
    let f = fixture();
    let fleet = FleetGenerator::new(53, fleet_size());
    let alt = alt_policy(&f);

    let score_of = |shards: usize, deterministic: bool| {
        let mut config = det_config(shards);
        config.deterministic = deterministic;
        let mut rt = online_runtime(&f, config, fleet.num_homes());
        let store = rt.policy_store_mut().expect("store");
        let version = store.register(alt.checkpoint());
        store.stage(version).expect("stage");
        let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
        rt.serve(ingest.envelopes).expect("serve");
        rt.policy_store().expect("store").score().to_json()
    };

    let want = score_of(1, true);
    let decisions = want.contains("\"decisions\":0");
    assert!(!decisions, "the staged candidate must actually be shadow-scored: {want}");
    for (shards, deterministic) in [(1, true), (4, true), (4, false), (8, false)] {
        assert_eq!(
            want,
            score_of(shards, deterministic),
            "shadow score diverged at {shards} shards, deterministic={deterministic}"
        );
    }
}

/// `count` clean shadow rows (full agreement, no parity violations, zero
/// regret) starting at seq 0.
fn clean_rows(count: u64) -> Vec<ShadowRow> {
    (0..count).map(|seq| ShadowRow { seq, agree: true, parity_ok: true, regret: 0.0 }).collect()
}

#[test]
fn promotion_gates_hold_and_release_deterministically() {
    let f = fixture();
    let gates = ShadowGates::default();

    let staged = |f: &Fixture| -> (ServingRuntime, u64) {
        let mut rt = online_runtime(f, det_config(1), 1);
        let store = rt.policy_store_mut().expect("store");
        let version = store.register(alt_policy(f).checkpoint());
        store.stage(version).expect("stage");
        (rt, version)
    };

    // Not enough decisions: held back.
    let (mut rt, _) = staged(&f);
    rt.policy_store_mut().unwrap().absorb(&clean_rows(gates.min_decisions - 1));
    assert!(rt.try_promote().expect("try_promote").is_none());
    assert_eq!(rt.policy_store().unwrap().active(), 0);

    // One parity violation: held back no matter how clean the rest is.
    let (mut rt, _) = staged(&f);
    let mut rows = clean_rows(gates.min_decisions * 2);
    rows[3].parity_ok = false;
    rt.policy_store_mut().unwrap().absorb(&rows);
    assert!(rt.try_promote().expect("try_promote").is_none());

    // Agreement below the floor: held back.
    let (mut rt, _) = staged(&f);
    let mut rows = clean_rows(gates.min_decisions * 2);
    for row in rows.iter_mut().take(gates.min_decisions as usize) {
        row.agree = false;
    }
    rt.policy_store_mut().unwrap().absorb(&rows);
    assert!(rt.try_promote().expect("try_promote").is_none());

    // A clean record that clears every gate: promoted, installed, recorded.
    let (mut rt, version) = staged(&f);
    rt.policy_store_mut().unwrap().absorb(&clean_rows(gates.min_decisions));
    let record = rt.try_promote().expect("try_promote").expect("promotion");
    assert_eq!(record.from, 0);
    assert_eq!(record.to, version);
    let store = rt.policy_store().unwrap();
    assert_eq!(store.active(), version);
    assert_eq!(store.candidate(), None, "promotion consumes the staged candidate");
    assert_eq!(
        rt.policy().checkpoint().to_json(),
        store.version(version).unwrap().checkpoint.to_json(),
        "the promoted weights must be the stored bytes, exactly"
    );
    // Promoting again is a no-op until a new candidate is staged.
    assert!(rt.try_promote().expect("try_promote").is_none());
}

// ---------------------------------------------------------------------------
// Layer 2: background fine-tuning through the worker pool
// ---------------------------------------------------------------------------

/// A PR-3 style optimizer checkpoint wrapping the fixture policy, as a
/// home would carry after a training run.
fn optimizer_checkpoint(f: &Fixture) -> String {
    OptimizerCheckpoint {
        config: OptimizerConfig::fast(),
        agent: f.policy.checkpoint(),
        episodes_done: 1,
        stats: TrainingStats::default(),
    }
    .to_json()
}

/// Serve one fleet day with checkpoints attached, fine-tune through a pool
/// of `workers`, and return every observable artifact of the pass.
fn fine_tune_run(
    f: &Fixture,
    fleet: &FleetGenerator,
    workers: usize,
) -> (jarvis_runtime::FineTuneReport, Vec<String>, String, String) {
    let mut rt = online_runtime(f, det_config(1), fleet.num_homes());
    for id in 0..u64::from(fleet.num_homes()) {
        rt.attach_checkpoint(id, optimizer_checkpoint(f)).expect("attach");
    }
    let ingest = rt.ingest_fleet_day(fleet, 1, None, Some(query_every())).expect("ingest");
    rt.serve(ingest.envelopes).expect("serve");
    let replayed: usize = (0..u64::from(fleet.num_homes()))
        .filter_map(|id| rt.slot(id).and_then(|s| s.online()).map(|o| o.replay.len()))
        .sum();
    assert!(replayed > 0, "the served day must bank replay experiences");

    let pool = WorkerPool::with_workers(workers);
    let cfg = FineTuneConfig { replay_steps: 2, min_delta: 1 };
    let report = rt.fine_tune(&pool, &cfg).expect("fine_tune");
    let checkpoints = (0..u64::from(fleet.num_homes()))
        .map(|id| rt.slot(id).unwrap().checkpoint_json().expect("checkpoint").to_owned())
        .collect();
    let store_json = rt.policy_store().expect("store").to_json();
    (report, checkpoints, store_json, rt.snapshot().to_json())
}

#[test]
fn fine_tuning_is_invariant_across_pool_sizes() {
    let f = fixture();
    let fleet = FleetGenerator::new(61, fleet_size());
    let (want_report, want_cps, want_store, want_snap) = fine_tune_run(&f, &fleet, 1);
    assert!(want_report.homes_tuned > 0, "some home must be tuned");
    assert!(want_report.experiences > 0);
    let candidate = want_report.candidate.expect("pooled deltas must stage a candidate");
    assert!(candidate > 0, "the candidate is a fresh version, not the bootstrap");

    // 0 runs every home inline on the caller; more workers than homes
    // caps the helpers at one per task.
    let more_than_homes = fleet.num_homes() as usize + 3;
    for workers in [0usize, 2, 4, more_than_homes] {
        let (report, cps, store, snap) = fine_tune_run(&f, &fleet, workers);
        assert_eq!(want_report, report, "{workers} workers: report diverged");
        assert_eq!(want_cps, cps, "{workers} workers: tuned checkpoints diverged");
        assert_eq!(want_store, store, "{workers} workers: store bytes diverged");
        assert_eq!(want_snap, snap, "{workers} workers: snapshot bytes diverged");
    }
}

#[test]
fn fine_tuning_drains_replay_and_respects_min_delta() {
    let f = fixture();
    let fleet = FleetGenerator::new(61, fleet_size());
    let mut rt = online_runtime(&f, det_config(1), fleet.num_homes());
    for id in 0..u64::from(fleet.num_homes()) {
        rt.attach_checkpoint(id, optimizer_checkpoint(&f)).expect("attach");
    }
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    rt.serve(ingest.envelopes).expect("serve");

    // An impossible delta floor: nothing is tuned, nothing is drained.
    let pool = WorkerPool::with_workers(2);
    let high = FineTuneConfig { replay_steps: 1, min_delta: usize::MAX };
    let report = rt.fine_tune(&pool, &high).expect("fine_tune");
    assert_eq!(report.homes_tuned, 0);
    assert_eq!(report.candidate, None);
    assert_eq!(report.homes_skipped, fleet.num_homes() as usize);

    // A reachable floor drains every tuned slot's delta.
    let cfg = FineTuneConfig { replay_steps: 1, min_delta: 1 };
    let report = rt.fine_tune(&pool, &cfg).expect("fine_tune");
    assert!(report.homes_tuned > 0);
    for id in 0..u64::from(fleet.num_homes()) {
        assert!(
            rt.slot(id).unwrap().online().expect("learner").replay.is_empty(),
            "home {id}: the fine-tuner must drain the replay delta"
        );
    }
    // The staged candidate shadows subsequent serving.
    assert_eq!(rt.policy_store().unwrap().candidate(), report.candidate);
}

#[test]
fn fine_tuning_without_online_learning_is_refused() {
    let f = fixture();
    let mut rt = build_runtime(&f, det_config(1), 1);
    let pool = WorkerPool::with_workers(1);
    assert!(rt.fine_tune(&pool, &FineTuneConfig::default()).is_err());
    assert!(rt.try_promote().is_err());
}

// ---------------------------------------------------------------------------
// Rollback: snapshot restore undoes learning and swaps byte-for-byte
// ---------------------------------------------------------------------------

#[test]
fn rollback_restores_pre_swap_state_byte_for_byte() {
    let f = fixture();
    let fleet = FleetGenerator::new(71, fleet_size());
    let mut rt = online_runtime(&f, det_config(2), fleet.num_homes());
    let version = rt.policy_store_mut().expect("store").register(alt_policy(&f).checkpoint());

    // Serve a day, snapshot, then swap and serve another day on top.
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    rt.serve(ingest.envelopes).expect("serve");
    let checkpoint = rt.snapshot();
    let checkpoint_json = checkpoint.to_json();

    let ingest = rt.ingest_fleet_day(&fleet, 2, None, Some(query_every())).expect("ingest");
    let at_seq = ingest.envelopes[0].seq;
    rt.serve_online(ingest.envelopes, &[SwapPoint { at_seq, version }]).expect("serve_online");
    assert_eq!(rt.policy_store().unwrap().active(), version);
    assert_ne!(rt.snapshot().to_json(), checkpoint_json, "day 2 must move state");

    // Roll back: every byte of runtime state returns to the checkpoint.
    rt.restore(&checkpoint).expect("restore");
    assert_eq!(rt.snapshot().to_json(), checkpoint_json, "rollback must be byte-identical");
    assert_eq!(rt.policy_store().unwrap().active(), 0, "the swap is undone");
    assert_eq!(
        rt.policy().checkpoint().to_json(),
        f.policy.checkpoint().to_json(),
        "the pre-swap weights are back"
    );

    // And the rolled-back runtime serves day 2 exactly like a fresh replica
    // restored from the same snapshot.
    let mut replica = online_runtime(&f, det_config(2), fleet.num_homes());
    replica.restore(&checkpoint).expect("restore replica");
    let ingest_a = rt.ingest_fleet_day(&fleet, 2, None, Some(query_every())).expect("ingest");
    let ingest_b = replica.ingest_fleet_day(&fleet, 2, None, Some(query_every())).expect("ingest");
    assert_eq!(ingest_a.envelopes, ingest_b.envelopes);
    let a = rt.serve(ingest_a.envelopes).expect("serve").outcomes;
    let b = replica.serve(ingest_b.envelopes).expect("serve").outcomes;
    assert_outcomes_bit_identical(&a, &b, "rollback replay");
}
