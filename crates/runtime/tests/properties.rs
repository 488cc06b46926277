//! Serving-runtime invariants: shard-count invariance, threaded/deterministic
//! equivalence, loud failures, and byte-identical shard snapshot/restore.

use jarvis::{Jarvis, JarvisConfig, JarvisError, OptimizerConfig};
use jarvis_policy::SafeTransitionTable;
use jarvis_rl::{DqnAgent, DqnConfig};
use jarvis_runtime::{
    Envelope, Outcome, RuntimeConfig, RuntimeSnapshot, ServingRuntime, ShardSnapshot,
};
use jarvis_sim::{FaultPlan, FleetGenerator, HomeDataset};
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::json::{FromJson, ToJson};

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
    jarvis.learning_phase(&HomeDataset::home_a(3), 0..2).expect("learning phase");
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

/// Bitwise comparison of outcome lists: `PartialEq` plus the Debug
/// rendering, which prints `f64`s with shortest-round-trip precision and so
/// distinguishes any bit difference (signed zero included).
fn assert_outcomes_bit_identical(a: &[Outcome], b: &[Outcome], what: &str) {
    assert_eq!(a, b, "{what}: outcome lists differ");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: f64 bits differ");
}

#[test]
fn deterministic_mode_is_bit_identical_across_shard_counts() {
    let f = fixture();
    let fleet = FleetGenerator::new(17, 8);
    let mut baseline: Option<(Vec<Envelope>, Vec<Outcome>)> = None;
    for shards in [1usize, 2, 8] {
        let mut config = RuntimeConfig::new(shards);
        config.deterministic = true;
        config.batch_window = 8;
        let mut rt = build_runtime(&f, config, fleet.num_homes());
        let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(60)).expect("ingest");
        let report = rt.serve(ingest.envelopes.clone()).expect("serve");
        assert_eq!(report.outcomes.len(), ingest.envelopes.len());
        match &baseline {
            None => baseline = Some((ingest.envelopes, report.outcomes)),
            Some((env0, out0)) => {
                assert_eq!(env0, &ingest.envelopes, "ingest must not depend on shard count");
                assert_outcomes_bit_identical(out0, &report.outcomes, &format!("{shards} shards"));
            }
        }
    }
}

#[test]
fn threaded_block_serving_matches_deterministic_reference() {
    let f = fixture();
    let fleet = FleetGenerator::new(23, 4);

    let mut det_cfg = RuntimeConfig::new(4);
    det_cfg.deterministic = true;
    let mut det = build_runtime(&f, det_cfg, fleet.num_homes());
    let ingest = det.ingest_fleet_day(&fleet, 2, None, Some(45)).expect("ingest");
    let want = det.serve(ingest.envelopes.clone()).expect("deterministic serve");

    let mut thr = build_runtime(&f, RuntimeConfig::new(4), fleet.num_homes());
    let ingest2 = thr.ingest_fleet_day(&fleet, 2, None, Some(45)).expect("ingest");
    assert_eq!(ingest.envelopes, ingest2.envelopes);
    let got = thr.serve(ingest2.envelopes).expect("threaded serve");

    assert_outcomes_bit_identical(&want.outcomes, &got.outcomes, "threaded vs deterministic");
}

#[test]
fn batch_window_does_not_change_decisions() {
    let f = fixture();
    let fleet = FleetGenerator::new(31, 3);
    let mut baseline: Option<Vec<Outcome>> = None;
    for batch_window in [1usize, 64] {
        let mut config = RuntimeConfig::new(1);
        config.deterministic = true;
        config.batch_window = batch_window;
        let mut rt = build_runtime(&f, config, fleet.num_homes());
        let ingest = rt.ingest_fleet_day(&fleet, 3, None, Some(20)).expect("ingest");
        let report = rt.serve(ingest.envelopes).expect("serve");
        match &baseline {
            None => baseline = Some(report.outcomes),
            Some(want) => assert_outcomes_bit_identical(
                want,
                &report.outcomes,
                "batch window must only affect throughput",
            ),
        }
    }
}

#[test]
fn shard_snapshot_restore_resumes_byte_identically() {
    let f = fixture();
    let fleet = FleetGenerator::new(41, 4);
    let mut config = RuntimeConfig::new(2);
    config.deterministic = true;

    // Day 0 moves the homes into a mid-stream state.
    let mut original = build_runtime(&f, config.clone(), fleet.num_homes());
    original
        .attach_checkpoint(1, "{\"fake\":\"optimizer checkpoint\"}".to_owned())
        .expect("attach");
    let day0 = original.ingest_fleet_day(&fleet, 0, None, Some(90)).expect("ingest day 0");
    original.serve(day0.envelopes).expect("serve day 0");

    // Whole-runtime snapshot JSON round trips losslessly.
    let snap = original.snapshot();
    let snap_json = snap.to_json();
    assert_eq!(RuntimeSnapshot::from_json(&snap_json).expect("parse"), snap);

    // Per-shard snapshots partition the fleet and survive JSON round trips.
    let mut shard_homes: Vec<u64> = Vec::new();
    let mut shard_snaps: Vec<ShardSnapshot> = Vec::new();
    for shard in 0..2 {
        let ss = original.shard_snapshot(shard).expect("shard snapshot");
        assert_eq!(ss.shard, shard);
        let parsed = ShardSnapshot::from_json(&ss.to_json()).expect("parse shard snapshot");
        assert_eq!(parsed, ss);
        shard_homes.extend(ss.homes.iter().map(|h| h.id));
        shard_snaps.push(parsed);
    }
    shard_homes.sort_unstable();
    assert_eq!(shard_homes, vec![0, 1, 2, 3], "shards partition the fleet");

    // Restoring every shard onto a fresh runtime reproduces the dynamic
    // state byte-for-byte (including the attached optimizer checkpoint).
    let mut restored = build_runtime(&f, config.clone(), fleet.num_homes());
    for ss in &shard_snaps {
        restored.restore_shard(ss).expect("restore shard");
    }
    assert_eq!(
        restored.snapshot().homes.to_json(),
        snap.homes.to_json(),
        "restored shard state must be byte-identical"
    );
    assert_eq!(
        restored.slot(1).and_then(|s| s.checkpoint_json()),
        Some("{\"fake\":\"optimizer checkpoint\"}")
    );

    // Resuming from the full snapshot serves day 1 byte-identically to the
    // runtime that never stopped.
    let mut resumed = build_runtime(&f, config, fleet.num_homes());
    resumed.restore(&snap).expect("restore runtime");
    let day1_a = original.ingest_fleet_day(&fleet, 1, None, Some(90)).expect("ingest");
    let day1_b = resumed.ingest_fleet_day(&fleet, 1, None, Some(90)).expect("ingest");
    assert_eq!(day1_a.envelopes, day1_b.envelopes, "sequencing must resume in step");
    let out_a = original.serve(day1_a.envelopes).expect("serve");
    let out_b = resumed.serve(day1_b.envelopes).expect("serve");
    assert_outcomes_bit_identical(&out_a.outcomes, &out_b.outcomes, "resume after restore");
}

#[test]
fn fault_injection_at_ingest_degrades_gracefully() {
    let f = fixture();
    let mut config = RuntimeConfig::new(1);
    config.deterministic = true;
    let data = HomeDataset::home_a(3);

    let mut clean_rt = build_runtime(&f, config.clone(), 1);
    let clean = clean_rt.ingest_day(0, &data, 2, None, Some(60)).expect("clean ingest");

    let injector = Jarvis::fault_injector(FaultPlan::uniform_drop(9, 0.5)).expect("plan");
    let mut faulty_rt = build_runtime(&f, config, 1);
    let faulty = faulty_rt
        .ingest_day(0, &data, 2, Some(&injector), Some(60))
        .expect("faulty ingest");

    let summary = faulty.faults.expect("fault summary recorded");
    assert!(summary.dropped > 0, "a 50% drop plan must drop something");
    assert!(
        faulty.envelopes.len() < clean.envelopes.len(),
        "dropped events shrink the stream"
    );
    assert_eq!(faulty.queries, clean.queries, "queries are injected after faulting");
    // The degraded stream still serves end to end.
    let report = faulty_rt.serve(faulty.envelopes).expect("serve degraded stream");
    assert!(report.decisions() > 0);
}

#[test]
fn configuration_and_registration_are_validated() {
    let f = fixture();
    assert!(matches!(
        ServingRuntime::new(RuntimeConfig::new(0), f.policy.clone()),
        Err(JarvisError::Config(_))
    ));

    let mut rt = build_runtime(&f, RuntimeConfig::new(2), 1);
    assert!(matches!(
        rt.register_home(0, f.home.clone(), f.table.clone()),
        Err(JarvisError::Config(_))
    ));
    // A policy with the wrong head width is rejected at registration.
    let tiny = DqnAgent::new(DqnConfig::new(3, 2)).expect("tiny net");
    let mut mismatched = ServingRuntime::new(RuntimeConfig::new(1), tiny).expect("runtime");
    assert!(matches!(
        mismatched.register_home(0, f.home.clone(), f.table.clone()),
        Err(JarvisError::Config(_))
    ));
    // Events for unregistered homes fail loudly instead of vanishing, in
    // both modes. The failing shard hands every shard's homes back, so a
    // clean serve afterwards answers bitwise as the deterministic runtime.
    let mut det = RuntimeConfig::new(2);
    det.deterministic = true;
    let mut rt2 = build_runtime(&f, det, 1);
    let mut rt3 = build_runtime(&f, RuntimeConfig::new(2), 1);
    let ingest = rt2.ingest_day(0, &HomeDataset::home_a(3), 0, None, None).expect("ingest");
    rt3.ingest_day(0, &HomeDataset::home_a(3), 0, None, None).expect("ingest");
    let clean = ingest.envelopes;
    let mut stray = clean.clone();
    if let Some(env) = stray.first_mut() {
        env.home = 99;
    }
    assert!(matches!(rt2.serve(stray.clone()), Err(JarvisError::Config(_))));
    assert!(matches!(rt3.serve(stray), Err(JarvisError::Config(_))));
    assert_eq!(rt3.num_homes(), 1, "a failed threaded serve keeps every home");
    let want = rt2.serve(clean.clone()).expect("deterministic serve");
    let got = rt3.serve(clean).expect("threaded serve");
    assert_outcomes_bit_identical(&want.outcomes, &got.outcomes, "serve after a failed serve");
}
