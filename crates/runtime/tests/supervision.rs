//! Self-healing invariants: supervised serving equals plain serving when
//! nothing fails, crash recovery is bitwise invisible for transient chaos,
//! the deadline watchdog catches stalls, poison pills quarantine into the
//! safe-table fallback, exhausted budgets degrade without dropping
//! enforcement, and all recovery accounting is deterministic.
//!
//! Sizes scale down under Miri (`cfg(miri)`) so the battery stays inside
//! the interpreter's time budget; the properties checked are identical.

use jarvis::{Jarvis, JarvisConfig, OptimizerConfig};
use jarvis_policy::SafeTransitionTable;
use jarvis_rl::{DqnAgent, DqnConfig};
use jarvis_runtime::{
    DecisionSource, FailureCause, Outcome, RuntimeConfig, ServingRuntime, SupervisorConfig,
};
use jarvis_sim::{
    ChaosInjector, ChaosKind, ChaosPlan, ChaosRule, ChaosSchedule, FleetGenerator, HomeDataset,
};
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::json::ToJson;
use std::sync::atomic::{AtomicU64, Ordering};

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
    let mut cfg = DqnConfig::new(state_dim, num_actions);
    cfg.hidden = vec![16];
    cfg.seed = 7;
    let policy = DqnAgent::new(cfg).expect("policy net");
    Fixture { home, table, policy }
}

fn build_runtime(f: &Fixture, config: RuntimeConfig, homes: u32) -> ServingRuntime {
    let mut rt = ServingRuntime::new(config, f.policy.clone()).expect("runtime");
    for id in 0..homes {
        rt.register_home(u64::from(id), f.home.clone(), f.table.clone()).expect("register");
    }
    rt
}

fn det_config(shards: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(shards);
    config.deterministic = true;
    config.batch_window = 8;
    config
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

/// Bitwise comparison of outcome lists: `PartialEq` plus the Debug
/// rendering, which prints `f64`s with shortest-round-trip precision and so
/// distinguishes any bit difference (signed zero included).
fn assert_outcomes_bit_identical(a: &[Outcome], b: &[Outcome], what: &str) {
    assert_eq!(a, b, "{what}: outcome lists differ");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: f64 bits differ");
}

/// The uninterrupted oracle: plain deterministic serve plus final snapshot
/// bytes, from a fresh runtime.
fn oracle(f: &Fixture, shards: usize, fleet: &FleetGenerator) -> (Vec<Outcome>, String) {
    let mut rt = build_runtime(f, det_config(shards), fleet.num_homes());
    let ingest = rt.ingest_fleet_day(fleet, 1, None, Some(query_every())).expect("ingest");
    let report = rt.serve(ingest.envelopes).expect("serve");
    (report.outcomes, rt.snapshot().to_json())
}

fn supervised(
    f: &Fixture,
    shards: usize,
    fleet: &FleetGenerator,
    sup: &SupervisorConfig,
    chaos: Option<&ChaosSchedule>,
    deterministic: bool,
) -> (jarvis_runtime::SupervisedReport, String) {
    let mut config = det_config(shards);
    config.deterministic = deterministic;
    let mut rt = build_runtime(f, config, fleet.num_homes());
    let ingest = rt.ingest_fleet_day(fleet, 1, None, Some(query_every())).expect("ingest");
    let report =
        rt.serve_online_supervised(ingest.envelopes, sup, chaos, &[]).expect("supervised serve");
    let snap = rt.snapshot().to_json();
    (report, snap)
}

#[test]
fn supervised_without_chaos_equals_plain_serve() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, fleet_size());
    let sup = SupervisorConfig::default();
    for shards in [1usize, 3] {
        let (want, want_snap) = oracle(&f, shards, &fleet);
        let (got, got_snap) = supervised(&f, shards, &fleet, &sup, None, true);
        assert_outcomes_bit_identical(&want, &got.report.outcomes, "no-chaos supervised");
        assert_eq!(want_snap, got_snap, "snapshot bytes must match");
        assert!(got.recovery.restarts.is_empty());
        assert!(got.recovery.quarantined.is_empty());
        assert!(got.recovery.degraded_shards.is_empty());
        assert_eq!(got.recovery.fallback_decisions, 0);
        assert!(got.recovery.checkpoints > 0, "checkpoints should be taken");
    }
}

#[test]
fn transient_panic_recovery_is_bitwise_invisible() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, fleet_size());
    // attempts=2 < quarantine_after=3: every armed envelope fails twice and
    // then succeeds — pure transient faults.
    let plan = ChaosPlan::periodic_panic(5, if cfg!(miri) { 4 } else { 13 }, 2);
    let mut sup = SupervisorConfig::default();
    sup.restart_budget = u32::MAX;
    sup.checkpoint_every = 16;
    for shards in [1usize, 2] {
        let (want, want_snap) = oracle(&f, shards, &fleet);
        let chaos = build_schedule(&f, shards, &fleet, &plan);
        assert!(!chaos.is_empty(), "plan must arm something");
        let (got, got_snap) = supervised(&f, shards, &fleet, &sup, Some(&chaos), true);
        assert_outcomes_bit_identical(&want, &got.report.outcomes, "recovered run");
        assert_eq!(want_snap, got_snap, "snapshot bytes must survive recovery");
        assert!(!got.recovery.restarts.is_empty(), "panics must have been recovered");
        assert!(got.recovery.restarts.iter().all(|r| r.cause == FailureCause::Panic));
        assert!(got.recovery.quarantined.is_empty());
        assert_eq!(got.recovery.fallback_decisions, 0);
    }
}

/// Evaluate a plan against the exact seqs a fresh ingest would produce.
fn build_schedule(
    f: &Fixture,
    shards: usize,
    fleet: &FleetGenerator,
    plan: &ChaosPlan,
) -> ChaosSchedule {
    let mut rt = build_runtime(f, det_config(shards), fleet.num_homes());
    let ingest = rt.ingest_fleet_day(fleet, 1, None, Some(query_every())).expect("ingest");
    ChaosInjector::new(plan.clone())
        .expect("plan")
        .schedule(ingest.envelopes.iter().map(|e| e.seq).collect::<Vec<_>>())
}

#[test]
fn threaded_supervised_matches_deterministic_supervised() {
    let f = fixture();
    let fleet = FleetGenerator::new(23, fleet_size());
    let plan = ChaosPlan::periodic_panic(9, 11, 1);
    let mut sup = SupervisorConfig::default();
    sup.checkpoint_every = 16;
    let chaos = build_schedule(&f, 2, &fleet, &plan);
    let (det, det_snap) = supervised(&f, 2, &fleet, &sup, Some(&chaos), true);
    let (thr, thr_snap) = supervised(&f, 2, &fleet, &sup, Some(&chaos), false);
    assert_outcomes_bit_identical(
        &det.report.outcomes,
        &thr.report.outcomes,
        "threaded vs deterministic supervised",
    );
    assert_eq!(det_snap, thr_snap);
    assert_eq!(det.recovery, thr.recovery, "recovery accounting must be mode-invariant");

    // Batches under recovery: a hot home on a shard of its own, 4-query
    // windows, and 128-envelope checkpoints make each crash's replay
    // suffix span batches already answered, across two swaps with a
    // shadow candidate scored alongside.
    for shards in [2usize, 4] {
        let det = stolen_batch_run(&f, &fleet, &plan, shards, true);
        let thr = stolen_batch_run(&f, &fleet, &plan, shards, false);
        let what = format!("{shards} shards, stolen batches under recovery");
        assert!(!det.report.recovery.restarts.is_empty(), "{what}: panics must fire");
        let (want, got) = (&det.report.report.outcomes, &thr.report.report.outcomes);
        assert_outcomes_bit_identical(want, got, &what);
        assert_eq!(det.snap, thr.snap, "{what}: snapshot bytes differ");
        assert_eq!(det.report.recovery, thr.report.recovery, "{what}: recovery accounting differs");
        let wal_json = |run: &StolenBatchRun| -> Vec<String> {
            run.report.wals.iter().map(ToJson::to_json).collect()
        };
        assert_eq!(wal_json(&det), wal_json(&thr), "{what}: WALs differ");
        assert_eq!(det.score, thr.score, "{what}: shadow score differs");
        for run in [&det, &thr] {
            assert_eq!(run.report.report.total_accounted(), run.submitted, "{what}: lost events");
        }
    }
}

/// One supervised run of [`stolen_batch_run`] and what it is compared on.
struct StolenBatchRun {
    report: jarvis_runtime::SupervisedReport,
    snap: String,
    score: String,
    submitted: usize,
}

/// Serve the fleet day plus a hot home 0 (re-ingested with a query every
/// few minutes, so load-aware placement gives it a shard of its own) under
/// supervision: 4-query windows, a checkpoint every 128
/// envelopes, an unlimited restart budget, two swaps, a staged candidate.
fn stolen_batch_run(
    f: &Fixture,
    fleet: &FleetGenerator,
    plan: &ChaosPlan,
    shards: usize,
    deterministic: bool,
) -> StolenBatchRun {
    let mut config = det_config(shards);
    config.deterministic = deterministic;
    config.batch_window = 4;
    let (mut rt, alt) = online_runtime_on(f, config, OnlineConfig::default(), fleet.num_homes());
    let mut cfg = f.policy.config().clone();
    cfg.seed = 123;
    let candidate = DqnAgent::new(cfg).expect("candidate policy").checkpoint();
    let store = rt.policy_store_mut().expect("store");
    let candidate = store.register(candidate);
    store.stage(candidate).expect("stage candidate");

    let mut stream =
        rt.ingest_fleet_day(fleet, 1, None, Some(query_every())).expect("ingest").envelopes;
    let hot_every = if cfg!(miri) { 60 } else { 4 };
    let hot = rt.ingest_day(0, &fleet.dataset(0), 1, None, Some(hot_every)).expect("hot home");
    stream.extend(hot.envelopes);
    let queries: Vec<u64> = stream
        .iter()
        .filter(|env| matches!(env.kind, jarvis_runtime::EventKind::Query { .. }))
        .map(|env| env.seq)
        .collect();
    let swaps = [
        SwapPoint { at_seq: queries[queries.len() / 3], version: alt },
        SwapPoint { at_seq: queries[2 * queries.len() / 3], version: 0 },
    ];
    let chaos = ChaosInjector::new(plan.clone())
        .expect("plan")
        .schedule(stream.iter().map(|e| e.seq).collect::<Vec<_>>());
    let sup = SupervisorConfig {
        restart_budget: u32::MAX,
        checkpoint_every: 128,
        ..SupervisorConfig::default()
    };
    let submitted = stream.len();
    let report =
        rt.serve_online_supervised(stream, &sup, Some(&chaos), &swaps).expect("supervised serve");
    let score = rt.policy_store().expect("store").score();
    assert!(score.decisions > 0, "the candidate must be scored");
    StolenBatchRun { report, snap: rt.snapshot().to_json(), score: format!("{score:?}"), submitted }
}

/// A telemetry clock that counts its own calls, so a decision's latency is
/// the number of clock reads between its query parking and its answer.
fn counting_clock() -> u64 {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    CALLS.fetch_add(1, Ordering::Relaxed)
}

/// A supervised window closes as soon as it fills, as in every shard loop:
/// at `batch_window` 1 each query is answered right after it parks, so
/// every decision latency is one clock call, exactly as in plain serving.
#[test]
fn supervised_windows_close_when_full() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, fleet_size());
    let serve = |supervised: bool| {
        let mut config = det_config(1);
        config.batch_window = 1;
        config.telemetry = Some(counting_clock);
        let mut rt = build_runtime(&f, config, fleet.num_homes());
        let envelopes =
            rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest").envelopes;
        if supervised {
            let sup = SupervisorConfig::default();
            rt.serve_online_supervised(envelopes, &sup, None, &[]).expect("supervised").report
        } else {
            rt.serve(envelopes).expect("serve")
        }
    };
    let plain = serve(false);
    assert!(plain.decisions() > 0, "the stream must carry queries");
    assert!(plain.latencies_ns.iter().all(|&calls| calls == 1), "{:?}", plain.latencies_ns);
    let supervised = serve(true);
    assert_eq!(supervised.latencies_ns, plain.latencies_ns, "supervised windows close when full");
}

#[test]
fn stall_overrun_trips_the_watchdog_and_recovers() {
    let f = fixture();
    let fleet = FleetGenerator::new(29, fleet_size());
    let mut sup = SupervisorConfig::default();
    sup.restart_budget = u32::MAX;
    sup.deadline_ticks = 100;
    sup.checkpoint_every = 16;
    // One stall above the deadline (killed + recovered), one below
    // (tolerated), armed on different strides.
    let plan = ChaosPlan {
        seed: 3,
        rules: vec![
            ChaosRule::every_kth(ChaosKind::Stall { ticks: 500, attempts: 1 }, 17),
            ChaosRule::every_kth(ChaosKind::Stall { ticks: 40, attempts: 1 }, 23),
        ],
    };
    let (want, want_snap) = oracle(&f, 2, &fleet);
    let chaos = build_schedule(&f, 2, &fleet, &plan);
    let (got, got_snap) = supervised(&f, 2, &fleet, &sup, Some(&chaos), true);
    assert_outcomes_bit_identical(&want, &got.report.outcomes, "stall-recovered run");
    assert_eq!(want_snap, got_snap);
    assert!(!got.recovery.restarts.is_empty());
    assert!(got
        .recovery
        .restarts
        .iter()
        .all(|r| r.cause == FailureCause::DeadlineOverrun));
    assert!(got.recovery.tolerated_stall_ticks > 0, "sub-deadline stalls are tolerated");
}

#[test]
fn poison_pill_is_quarantined_into_safe_table_fallback() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, fleet_size());
    let mut rt = build_runtime(&f, det_config(1), fleet.num_homes());
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    // Find a query envelope and poison exactly it with more attempts than
    // the quarantine threshold.
    let victim = ingest
        .envelopes
        .iter()
        .find(|e| matches!(e.kind, jarvis_runtime::EventKind::Query { .. }))
        .expect("a query")
        .clone();
    let plan = ChaosPlan {
        seed: 0,
        rules: vec![ChaosRule::at_seq(ChaosKind::Panic { attempts: 100 }, victim.seq)],
    };
    let chaos = ChaosInjector::new(plan)
        .expect("plan")
        .schedule(ingest.envelopes.iter().map(|e| e.seq).collect::<Vec<_>>());
    let mut sup = SupervisorConfig::default();
    sup.quarantine_after = 3;
    let report = rt
        .serve_online_supervised(ingest.envelopes.clone(), &sup, Some(&chaos), &[])
        .expect("serve");

    assert_eq!(report.recovery.quarantined.len(), 1);
    let q = &report.recovery.quarantined[0];
    assert_eq!(q.seq, victim.seq);
    assert_eq!(q.home, victim.home);
    assert_eq!(q.failures, 3);
    // Two ordinary restarts preceded the quarantine.
    assert_eq!(report.recovery.restarts.len(), 2);
    assert_eq!(report.recovery.fallback_decisions, 1);
    // The poisoned query was answered by the fallback; every other outcome
    // matches the oracle bitwise.
    let (want, _) = oracle(&f, 1, &fleet);
    assert_eq!(want.len(), report.report.outcomes.len(), "nothing dropped");
    for (w, g) in want.iter().zip(&report.report.outcomes) {
        if w.seq() == victim.seq {
            match g {
                Outcome::Decision { action, flat, q_value, rank, source, .. } => {
                    assert_eq!(*source, DecisionSource::SafeTableFallback);
                    assert_eq!(*action, None);
                    assert_eq!(*flat, 0);
                    assert_eq!(*q_value, 0.0);
                    assert_eq!(*rank, 0);
                }
                other => panic!("expected a fallback decision, got {other:?}"),
            }
        } else {
            assert_eq!(w, g, "non-quarantined outcomes must match the oracle");
        }
    }
    // Accounting is itself deterministic: rerunning reproduces it bitwise.
    let mut rt2 = build_runtime(&f, det_config(1), fleet.num_homes());
    let ingest2 = rt2.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let report2 =
        rt2.serve_online_supervised(ingest2.envelopes, &sup, Some(&chaos), &[]).expect("serve");
    assert_eq!(report.recovery, report2.recovery);
    assert_eq!(report.recovery.to_json(), report2.recovery.to_json());
}

#[test]
fn exhausted_restart_budget_degrades_without_dropping_enforcement() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, fleet_size());
    // Panic on every query with huge attempt counts: the budget drains,
    // then the shard must serve the rest of the day degraded.
    let plan = ChaosPlan {
        seed: 1,
        rules: vec![ChaosRule::every_kth(ChaosKind::Panic { attempts: 1_000 }, 1)],
    };
    let mut sup = SupervisorConfig::default();
    sup.restart_budget = 2;
    sup.quarantine_after = u32::MAX; // force the budget path, not quarantine
    let mut rt = build_runtime(&f, det_config(1), fleet.num_homes());
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let queries = ingest
        .envelopes
        .iter()
        .filter(|e| matches!(e.kind, jarvis_runtime::EventKind::Query { .. }))
        .count();
    let chaos = ChaosInjector::new(plan)
        .expect("plan")
        .schedule(ingest.envelopes.iter().map(|e| e.seq).collect::<Vec<_>>());
    let total = ingest.envelopes.len();
    let report =
        rt.serve_online_supervised(ingest.envelopes, &sup, Some(&chaos), &[]).expect("serve");

    assert_eq!(report.recovery.degraded_shards, vec![0]);
    assert_eq!(report.recovery.restarts.len(), 2, "budget bounds the restarts");
    assert_eq!(report.report.outcomes.len(), total, "every event answered");
    // Enforcement never lapsed: all verdicts/sensor outcomes match the
    // oracle (the monitor path is policy-free); every query after the
    // degradation point got the safe-table fallback.
    let (want, _) = oracle(&f, 1, &fleet);
    let fallbacks = report
        .report
        .outcomes
        .iter()
        .filter(|o| {
            matches!(o, Outcome::Decision { source: DecisionSource::SafeTableFallback, .. })
        })
        .count();
    assert_eq!(fallbacks as u64, report.recovery.fallback_decisions);
    assert_eq!(fallbacks, queries, "all queries served by fallback after degradation");
    for (w, g) in want.iter().zip(&report.report.outcomes) {
        if !matches!(w, Outcome::Decision { .. }) {
            assert_eq!(w, g, "monitor-path outcomes must be unaffected");
        }
    }
}

#[test]
fn degraded_from_start_serves_every_query_by_fallback() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, fleet_size());
    let mut sup = SupervisorConfig::default();
    sup.policy_offline = true;
    let mut rt = build_runtime(&f, det_config(2), fleet.num_homes());
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let queries = ingest
        .envelopes
        .iter()
        .filter(|e| matches!(e.kind, jarvis_runtime::EventKind::Query { .. }))
        .count();
    let report = rt.serve_online_supervised(ingest.envelopes, &sup, None, &[]).expect("serve");
    assert_eq!(report.recovery.fallback_decisions as usize, queries);
    assert!(report
        .report
        .outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Decision { source, .. } => Some(*source),
            _ => None,
        })
        .all(|s| s == DecisionSource::SafeTableFallback));
}

#[test]
fn recovery_accounting_round_trips_through_json() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, fleet_size());
    let plan = ChaosPlan::periodic_panic(5, if cfg!(miri) { 4 } else { 13 }, 2);
    let mut sup = SupervisorConfig::default();
    sup.checkpoint_every = 16;
    let chaos = build_schedule(&f, 1, &fleet, &plan);
    let (got, _) = supervised(&f, 1, &fleet, &sup, Some(&chaos), true);
    let json = got.recovery.to_json();
    let back = jarvis_runtime::RecoveryReport::from_json_str(&json);
    assert_eq!(back, got.recovery);
}

/// Helper so the test reads naturally; `FromJson` is on the type already.
trait FromJsonStr: Sized {
    fn from_json_str(s: &str) -> Self;
}

impl FromJsonStr for jarvis_runtime::RecoveryReport {
    fn from_json_str(s: &str) -> Self {
        use jarvis_stdkit::json::FromJson;
        Self::from_json(s).expect("recovery report json")
    }
}

// ---------------------------------------------------------------------------
// Continual learning under supervision (DESIGN.md §16): the WAL audit
// trail and crash recovery through a mid-stream policy swap
// ---------------------------------------------------------------------------

use jarvis_runtime::{OnlineConfig, ShadowGates, SwapPoint, WalRecord};
use std::collections::BTreeMap;

/// A supervised runtime with online learning on (short fold cadence) and a
/// second policy version registered as a swap target.
fn online_runtime(f: &Fixture, shards: usize, homes: u32) -> (ServingRuntime, u64) {
    let online = OnlineConfig {
        fold_every: if cfg!(miri) { 16 } else { 24 },
        ..OnlineConfig::default()
    };
    online_runtime_on(f, det_config(shards), online, homes)
}

fn online_runtime_on(
    f: &Fixture,
    config: RuntimeConfig,
    online: OnlineConfig,
    homes: u32,
) -> (ServingRuntime, u64) {
    let mut rt = build_runtime(f, config, homes);
    rt.enable_online(online, ShadowGates::default()).expect("enable online");
    let cfg = f.policy.config();
    let mut alt = DqnConfig::new(cfg.state_dim, cfg.num_actions);
    alt.hidden = vec![16];
    alt.seed = 99;
    let alt = DqnAgent::new(alt).expect("alt policy");
    let version = rt.policy_store_mut().expect("store").register(alt.checkpoint());
    (rt, version)
}

#[test]
fn supervised_wal_records_the_learning_audit_trail() {
    let f = fixture();
    let fleet = FleetGenerator::new(37, fleet_size());
    let shards = 2;
    let (mut rt, version) = online_runtime(&f, shards, fleet.num_homes());
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let at_seq = ingest.envelopes[ingest.envelopes.len() / 2].seq;
    let swaps = [SwapPoint { at_seq, version }];
    let mut sup = SupervisorConfig::default();
    sup.checkpoint_every = 16;
    let report = rt.serve_online_supervised(ingest.envelopes, &sup, None, &swaps).expect("serve");
    assert!(report.recovery.checkpoints > 0, "checkpoints must be taken");
    assert_eq!(report.wals.len(), shards);

    // Fold records: per home, consecutive ordinals summing to exactly the
    // slot's lifetime counters — and they survived every checkpoint.
    let mut trail: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut swap_records = 0usize;
    for wal in &report.wals {
        for record in &wal.records {
            match record {
                WalRecord::Fold { home, fold, admitted } => {
                    let entry = trail.entry(*home).or_insert((0, 0));
                    assert_eq!(*fold, entry.0 + 1, "home {home}: fold ordinals must be consecutive");
                    entry.0 = *fold;
                    entry.1 += admitted;
                }
                WalRecord::Swap { at_seq: a, version: v } => {
                    assert_eq!((*a, *v), (at_seq, version), "unexpected swap record");
                    swap_records += 1;
                }
            }
        }
    }
    assert_eq!(swap_records, shards, "every shard crossing the swap logs it once");
    assert!(!trail.is_empty(), "the stream must be long enough to fold");
    for id in 0..u64::from(fleet.num_homes()) {
        let learner = rt.slot(id).expect("slot").online().expect("learner");
        let (folds, admitted) = trail.get(&id).copied().unwrap_or((0, 0));
        assert_eq!(folds, learner.folds, "home {id}: fold trail diverged from the slot");
        assert_eq!(admitted, learner.admitted, "home {id}: admitted trail diverged");
    }

    // The full WALs — checkpoint, suffix, and record trail — round-trip
    // byte-for-byte through the strict JSON codec.
    for wal in &report.wals {
        let json = wal.to_json();
        use jarvis_stdkit::json::FromJson;
        let back = jarvis_runtime::ShardWal::from_json(&json).expect("wal json");
        assert_eq!(&back, wal);
        assert_eq!(back.to_json(), json, "WAL serialization must be byte-stable");
    }
}

#[test]
fn recovery_through_a_swap_is_bitwise_and_lands_on_the_active_version() {
    let f = fixture();
    let fleet = FleetGenerator::new(41, fleet_size());
    let mut sup = SupervisorConfig::default();
    sup.restart_budget = u32::MAX;
    sup.checkpoint_every = 16;
    for shards in [1usize, 2] {
        // The uninterrupted oracle, and a plain serve_online cross-check:
        // the supervised and the sequential shard loop must agree bitwise.
        let (mut oracle_rt, version) = online_runtime(&f, shards, fleet.num_homes());
        let ingest = oracle_rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
        let envelopes = ingest.envelopes;
        let at_seq = envelopes[envelopes.len() / 2].seq;
        let swaps = [SwapPoint { at_seq, version }];
        let want =
            oracle_rt.serve_online_supervised(envelopes.clone(), &sup, None, &swaps).expect("oracle");
        let want_snap = oracle_rt.snapshot().to_json();

        let (mut plain_rt, _) = online_runtime(&f, shards, fleet.num_homes());
        let ingest = plain_rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
        let plain = plain_rt.serve_online(ingest.envelopes, &swaps).expect("serve_online");
        assert_outcomes_bit_identical(
            &want.report.outcomes,
            &plain.outcomes,
            "supervised swap vs plain serve_online",
        );
        assert_eq!(want_snap, plain_rt.snapshot().to_json());

        // Panics peppered across the whole stream — some fire before the
        // swap, some after — must recover bitwise onto the same timeline.
        let plan = ChaosPlan::periodic_panic(13, if cfg!(miri) { 5 } else { 11 }, 1);
        let chaos: ChaosSchedule = ChaosInjector::new(plan)
            .expect("plan")
            .schedule(envelopes.iter().map(|e| e.seq).collect::<Vec<_>>());
        let (mut rt, _) = online_runtime(&f, shards, fleet.num_homes());
        let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
        let got = rt
            .serve_online_supervised(ingest.envelopes, &sup, Some(&chaos), &swaps)
            .expect("chaos serve");
        assert_outcomes_bit_identical(
            &want.report.outcomes,
            &got.report.outcomes,
            &format!("{shards} shards: recovery through swap"),
        );
        assert_eq!(want_snap, rt.snapshot().to_json(), "{shards} shards: snapshot bytes diverged");
        assert!(!got.recovery.restarts.is_empty(), "panics must actually fire");
        assert!(
            got.recovery.restarts.iter().any(|r| r.seq < at_seq)
                && got.recovery.restarts.iter().any(|r| r.seq >= at_seq),
            "the chaos plan must span the swap point"
        );

        // The recovered runtime lands on the oracle's active version, with
        // the swap recorded and the stored bytes installed.
        let store = rt.policy_store().expect("store");
        assert_eq!(store.active(), version);
        assert_eq!(store.swaps().len(), 1);
        assert_eq!(store.swaps()[0].at_seq, at_seq);
        assert_eq!(
            rt.policy().checkpoint().to_json(),
            store.version(version).expect("version").checkpoint.to_json(),
            "active weights must be the stored bytes, exactly"
        );
    }
}

/// A crash on the very query that opens a new epoch, with a long replay
/// suffix of old-epoch queries behind it: the retried query must still be
/// answered by the policy its seq selects.
#[test]
fn a_crash_on_the_first_query_of_an_epoch_retries_under_that_epoch() {
    let f = fixture();
    let fleet = FleetGenerator::new(41, fleet_size());
    // One long WAL suffix, so the recovery replays queries.
    let sup = SupervisorConfig { checkpoint_every: 1 << 20, ..SupervisorConfig::default() };
    let (mut oracle_rt, version) = online_runtime(&f, 1, fleet.num_homes());
    let envelopes =
        oracle_rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest").envelopes;
    let queries: Vec<u64> = envelopes
        .iter()
        .filter(|env| matches!(env.kind, jarvis_runtime::EventKind::Query { .. }))
        .map(|env| env.seq)
        .collect();
    let at_seq = queries[queries.len() / 2];
    let swaps = [SwapPoint { at_seq, version }];
    let want =
        oracle_rt.serve_online_supervised(envelopes.clone(), &sup, None, &swaps).expect("oracle");

    let plan = ChaosPlan {
        seed: 3,
        rules: vec![ChaosRule::at_seq(ChaosKind::Panic { attempts: 1 }, at_seq)],
    };
    let chaos = ChaosInjector::new(plan)
        .expect("plan")
        .schedule(envelopes.iter().map(|e| e.seq).collect::<Vec<_>>());
    let (mut rt, _) = online_runtime(&f, 1, fleet.num_homes());
    rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let got = rt.serve_online_supervised(envelopes, &sup, Some(&chaos), &swaps).expect("serve");
    assert_eq!(got.recovery.restarts.len(), 1);
    assert!(got.recovery.restarts[0].replayed > 0, "the replay must re-park queries");
    assert_outcomes_bit_identical(&want.report.outcomes, &got.report.outcomes, "swap query crash");
    assert_eq!(oracle_rt.snapshot().to_json(), rt.snapshot().to_json());
}

// ---------------------------------------------------------------------------
// Dirty-home checkpoints and copy-on-write safe tables.
// ---------------------------------------------------------------------------

use jarvis_runtime::{Envelope, Placement};
use std::collections::BTreeSet;

/// An online runtime that admits any pair blocked once in a fold window,
/// so even the Miri-sized streams move the safe tables between checkpoints.
fn eager_online_runtime(f: &Fixture, config: RuntimeConfig, homes: u32) -> ServingRuntime {
    let online = OnlineConfig {
        fold_every: 16,
        support_threshold: 1,
        hysteresis_folds: 1,
        ..OnlineConfig::default()
    };
    online_runtime_on(f, config, online, homes).0
}

/// Keep each shard's first whole number of `every`-envelope windows, so
/// every shard's supervised run ends exactly on a checkpoint.
fn whole_checkpoint_windows(
    rt: &ServingRuntime,
    stream: Vec<Envelope>,
    every: u64,
) -> Vec<Envelope> {
    let mut per_shard = BTreeMap::<usize, u64>::new();
    for env in &stream {
        *per_shard.entry(rt.shard_of(env.home)).or_insert(0) += 1;
    }
    let mut keep: BTreeMap<usize, u64> =
        per_shard.into_iter().map(|(shard, n)| (shard, n - n % every)).collect();
    stream
        .into_iter()
        .filter(|env| match keep.get_mut(&rt.shard_of(env.home)) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        })
        .collect()
}

#[test]
fn incremental_checkpoints_equal_full_shard_snapshots() {
    let f = fixture();
    let fleet = FleetGenerator::new(43, fleet_size());
    let sup = SupervisorConfig {
        restart_budget: u32::MAX,
        checkpoint_every: 16,
        ..SupervisorConfig::default()
    };
    for shards in [1usize, 2, 3] {
        for chaotic in [false, true] {
            // Modulo placement: trimming the stream must not move homes.
            let mut config = det_config(shards);
            config.placement = Placement::Modulo;
            let mut rt = eager_online_runtime(&f, config, fleet.num_homes());
            let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
            let stream = whole_checkpoint_windows(&rt, ingest.envelopes, sup.checkpoint_every);
            let plan = ChaosPlan::periodic_panic(19, if cfg!(miri) { 5 } else { 11 }, 1);
            let chaos = ChaosInjector::new(plan)
                .expect("plan")
                .schedule(stream.iter().map(|e| e.seq).collect::<Vec<_>>());
            let report = rt
                .serve_online_supervised(stream, &sup, chaotic.then_some(&chaos), &[])
                .expect("serve");
            assert!(report.recovery.checkpoints > 0, "checkpoints must be taken");
            assert_eq!(chaotic, !report.recovery.restarts.is_empty());
            let admitted: u64 = (0..u64::from(fleet.num_homes()))
                .map(|id| rt.slot(id).and_then(|s| s.online()).map_or(0, |o| o.admitted))
                .sum();
            assert!(admitted > 0, "folds must admit pairs, so tables actually move");
            for (k, wal) in report.wals.iter().enumerate() {
                assert!(wal.is_empty(), "{shards} shards: shard {k} must end on a checkpoint");
                let full = rt.shard_snapshot(k).expect("shard snapshot");
                assert_eq!(
                    wal.snapshot.to_json(),
                    full.homes.to_json(),
                    "{shards} shards, chaos {chaotic}: shard {k}'s incremental checkpoint \
                     differs from a full snapshot"
                );
            }
        }
    }
}

#[test]
fn checkpointed_tables_are_isolated_from_later_folds() {
    let f = fixture();
    let fleet = FleetGenerator::new(37, fleet_size());
    let mut sup = SupervisorConfig {
        restart_budget: u32::MAX,
        checkpoint_every: 16,
        ..SupervisorConfig::default()
    };

    // Find the first fold that admits pairs, and the envelope that lands it.
    let mut probe = eager_online_runtime(&f, det_config(1), fleet.num_homes());
    let envelopes =
        probe.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest").envelopes;
    let run = probe.serve_online_supervised(envelopes.clone(), &sup, None, &[]).expect("probe");
    let (home, fold, admitted) = run.wals[0]
        .records
        .iter()
        .find_map(|record| match *record {
            WalRecord::Fold { home, fold, admitted } if admitted > 0 => {
                Some((home, fold, admitted))
            }
            _ => None,
        })
        .expect("the stream must admit a pair");
    let fold_every = probe.slot(home).and_then(|s| s.online()).expect("learner").config.fold_every;
    // Without chaos every envelope advances its home's fold cadence, so the
    // fold lands on the home's (fold · fold_every)-th envelope.
    let at = envelopes
        .iter()
        .enumerate()
        .filter(|(_, env)| env.home == home)
        .nth((fold * fold_every - 1) as usize)
        .map(|(i, _)| i)
        .expect("fold envelope");

    // Panic on the next envelope, and end the stream right after it, with
    // no checkpoint between the fold and the end: the WAL's checkpoint of
    // `home` is then the one taken before the fold, sharing the table the
    // fold wrote to.
    let (fold_pos, end) = (at as u64 + 1, at as u64 + 2);
    let every = (8..fold_pos)
        .find(|&c| !fold_pos.is_multiple_of(c) && !end.is_multiple_of(c))
        .expect("a checkpoint cadence that keeps the fold in the last window");
    sup.checkpoint_every = every;
    let stream = envelopes[..at + 2].to_vec();
    let panic_seq = stream[at + 1].seq;
    let plan = ChaosPlan {
        seed: 29,
        rules: vec![ChaosRule::at_seq(ChaosKind::Panic { attempts: 1 }, panic_seq)],
    };
    let chaos = ChaosInjector::new(plan)
        .expect("plan")
        .schedule(stream.iter().map(|e| e.seq).collect::<Vec<_>>());

    let mut oracle_rt = eager_online_runtime(&f, det_config(1), fleet.num_homes());
    oracle_rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let want = oracle_rt.serve_online(stream.clone(), &[]).expect("serve_online");

    let mut rt = eager_online_runtime(&f, det_config(1), fleet.num_homes());
    rt.ingest_fleet_day(&fleet, 1, None, Some(query_every())).expect("ingest");
    let got = rt.serve_online_supervised(stream, &sup, Some(&chaos), &[]).expect("chaos serve");
    assert_outcomes_bit_identical(&want.outcomes, &got.report.outcomes, "panic after a fold");
    assert_eq!(oracle_rt.snapshot().to_json(), rt.snapshot().to_json(), "snapshot bytes diverged");
    assert!(got.recovery.checkpoints > 0, "a checkpoint must precede the fold");
    assert_eq!(got.recovery.restarts.len(), 1);
    assert_eq!(got.recovery.restarts[0].seq, panic_seq);

    let checkpointed = &got.wals[0]
        .snapshot
        .iter()
        .find(|snap| snap.id == home)
        .expect("home in checkpoint")
        .table;
    let live = rt.slot(home).expect("slot").snapshot().table;
    let before: BTreeSet<_> = checkpointed.iter().collect();
    let new_pairs: Vec<_> = live.iter().filter(|pair| !before.contains(pair)).collect();
    assert_eq!(
        new_pairs.len() as u64,
        admitted,
        "the checkpointed table must lack exactly the pairs the fold admitted after it"
    );
    assert!(
        new_pairs.iter().all(|(state, action)| !checkpointed
            .is_safe_action(state, action, jarvis_policy::MatchMode::Exact)),
        "the checkpoint must not see pairs admitted after it"
    );
}
