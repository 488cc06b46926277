//! Serving-runtime throughput benchmark with a recorded baseline.
//!
//! Sweeps fleet size × shard count × batching window through
//! [`jarvis_runtime::ServingRuntime`] and reports events/sec plus decision
//! latency percentiles. Latency is *per event*: the runtime stamps each
//! query when its shard first touches it and each decision when its batch
//! executes, so p50/p99 measure first touch → decision (window residency +
//! inference) rather than whole-batch residency. Threaded rows run each
//! shard as one task on the worker pool; there is no ingest queue and no
//! batch stealing, so no queueing time is counted.
//!
//! Headline comparisons (schema v6):
//!
//! * **Batched speedup** — the same 64-home stream served with
//!   `batch_window = 1` (single-row inference per query) versus
//!   `batch_window = 64` (one blocked GEMM pass per window).
//! * **Tail-latency ratio** — threaded shard-4 p99 over shard-1 p99 at 64
//!   homes: more shards than cores must not blow up the tail. The recorded
//!   `p99_ratio_gate` turns it into a regression gate.
//! * **Recovery time** — the same stream served through
//!   [`ServingRuntime::serve_online_supervised`] (no swap plan) with
//!   seeded panics injected; the
//!   supervisor's telemetry clock stamps each crash → first post-recovery
//!   decision. The run doubles as the recovery-determinism gate: its
//!   outcomes and snapshot bytes must be bitwise equal to the
//!   uninterrupted oracle.
//! * **Threaded recovery** — the same chaos plan through
//!   [`ServingRuntime::serve_online_supervised`] at 4 threaded shards: each
//!   shard recovers its crashes under its own supervisor while the other
//!   shards keep serving on the pool. Its outcomes and snapshot bytes must
//!   be bitwise equal to the uninterrupted oracle, recomputed on every run.
//! * **Online recovery** (v5) — the same chaos plan with continual
//!   learning on and two policy swaps, served through
//!   [`ServingRuntime::serve_online_supervised`]. SPL folds grow the safe
//!   tables between WAL checkpoints, so this is the run that exercises
//!   dirty-home checkpoints and copy-on-write tables; its outcomes and
//!   snapshot bytes must be bitwise equal to the `serve_online` oracle.
//! * **Degraded-mode throughput** — the stream served with the neural
//!   path offline (every query answered by the SPL safe-table fallback);
//!   the `degraded_ratio_gate` requires it to stay within 0.5× of healthy
//!   serving.
//! * **Swap latency** (v4) — the cost a scheduled policy swap adds to a
//!   [`ServingRuntime::serve_online`] call (agent rebuild from the stored
//!   checkpoint plus store bookkeeping), measured on an empty stream so
//!   nothing but the swap and the call's fixed overhead is timed. The gate
//!   requires the median stall to fit inside **one batch window** of
//!   events at the healthy serving rate: a hot-swap must never cost more
//!   than the batching latency the runtime already budgets for.
//! * **Drift adaptation** (v4) — a [`jarvis_sim::DriftSchedule`]
//!   occupant change served by a frozen runtime versus a continual one
//!   (`enable_online`) on bitwise-identical traffic, with engineered
//!   violations injected throughout. The gate requires the continual
//!   runtime's benign false alarms after the change day to stay at or
//!   below the frozen runtime's, while detection of the injected
//!   violations stays exactly 1.0 — adaptation must never buy alarm
//!   reduction by masking real attacks.
//! * **1024-home sweep row** (v4, full mode) — the threaded shard-4 path
//!   at 16× the gated fleet size, recorded for the scaling column. Never
//!   gated; on a single-core host it is measured but flagged with a
//!   warning, since threaded scaling numbers are meaningless there.
//!
//! Like the GEMM bench, this is the regression gate for
//! `BENCH_runtime.json`:
//!
//! * `--json <path>`  — write the measurements as a JSON baseline.
//! * `--check <path>` — compare against a recorded baseline and exit
//!   non-zero when the gated batched path got more than 2× slower, the
//!   shard-4/shard-1 p99 ratio exceeds the baseline's recorded gate,
//!   any chaos run was not bitwise identical to its oracle, degraded-mode
//!   throughput fell below the recorded ratio gate, the median swap stall
//!   exceeded one batch window, or the drift-adaptation run regressed
//!   (continual false alarms above frozen, or detection below 1.0).
//! * `--quick`        — skip the full threaded sweep but keep the gated
//!   pair, the two rows the p99 gate needs, and the recovery/degraded
//!   runs (used by `scripts/verify.sh --quick`).
//!
//! The recorded `parallelism` field is `available_parallelism()` at
//! baseline time: shard-count *throughput* scaling is bounded by physical
//! cores, so compare baselines only across machines with the same value.

use std::time::Instant;

use jarvis::{Jarvis, JarvisConfig, OptimizerConfig, Verdict};
use jarvis_policy::SafeTransitionTable;
use jarvis_rl::{DqnAgent, DqnConfig};
use jarvis_runtime::{
    EventKind, OnlineConfig, Outcome, RuntimeConfig, ServingRuntime, ShadowGates, SupervisorConfig,
    SwapPoint,
};
use jarvis_sim::{ChaosInjector, ChaosPlan, DriftSchedule, FleetGenerator};
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::json::{Json, ToJson};

/// One decision query per home every this many minutes — a decision-heavy
/// stream (719 queries per home-day) so inference dominates the serve loop.
const QUERY_EVERY: u32 = 2;

/// Only the shipped batched path is gated on throughput; the single-row
/// and threaded rows are recorded for the speedup/scaling columns but only
/// feed the p99-ratio gate.
const CHECKED_PREFIXES: [&str; 1] = ["runtime/det/homes64/shards1/batch64"];

/// The two threaded rows the tail-latency gate is computed from.
const P99_RATIO_NUM: &str = "runtime/threaded/homes64/shards4/batch64";
const P99_RATIO_DEN: &str = "runtime/threaded/homes64/shards1/batch64";

struct Measurement {
    name: String,
    events_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
}

struct Fixture {
    home: SmartHome,
    policy: DqnAgent,
}

fn fixture() -> Fixture {
    let home = SmartHome::evaluation_home();
    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let mut cfg = DqnConfig::new(state_dim, num_actions);
    cfg.seed = 7;
    let policy = DqnAgent::new(cfg).expect("policy network");
    Fixture { home, policy }
}

/// A fresh runtime with `homes` registered and latency telemetry on.
fn build_rt(f: &Fixture, homes: u32, shards: usize, batch_window: usize, deterministic: bool) -> ServingRuntime {
    let mut config = RuntimeConfig::new(shards);
    config.batch_window = batch_window;
    config.deterministic = deterministic;
    // Opt in to decision-latency telemetry: serving itself never reads a
    // clock unless one is injected here.
    config.telemetry = Some(jarvis_stdkit::bench::monotonic_ns);
    let mut rt = ServingRuntime::new(config, f.policy.clone()).expect("runtime");
    for id in 0..homes {
        rt.register_home(u64::from(id), f.home.clone(), SafeTransitionTable::new())
            .expect("register home");
    }
    rt
}

/// Build a fresh runtime, ingest one fleet day, and time the serve call.
fn run_once(
    f: &Fixture,
    homes: u32,
    shards: usize,
    batch_window: usize,
    deterministic: bool,
) -> Measurement {
    let mut rt = build_rt(f, homes, shards, batch_window, deterministic);
    let fleet = FleetGenerator::new(42, homes);
    let ingest = rt
        .ingest_fleet_day(&fleet, 0, None, Some(QUERY_EVERY))
        .expect("ingest fleet day");
    let events = ingest.envelopes.len();

    let t0 = Instant::now();
    let report = rt.serve(ingest.envelopes).expect("serve");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.outcomes.len(), events, "no event may be lost");

    let mode = if deterministic { "det" } else { "threaded" };
    Measurement {
        name: format!("runtime/{mode}/homes{homes}/shards{shards}/batch{batch_window}"),
        events_per_sec: events as f64 / secs,
        p50_ns: report.latency_percentile(0.50).unwrap_or(0),
        p99_ns: report.latency_percentile(0.99).unwrap_or(0),
    }
}

/// Self-healing telemetry from the supervised chaos run.
struct RecoveryStats {
    /// Crash → first post-recovery decision, telemetry-clock ns (sorted).
    recovery_ns: Vec<u64>,
    /// Restarts the supervisor performed.
    restarts: u64,
    /// Whether the chaos run's outcomes and snapshot bytes were bitwise
    /// equal to the uninterrupted oracle — the recovery-determinism gate.
    deterministic: bool,
}

/// Serve the 64-home stream through the supervisor with seeded panics
/// injected, measuring throughput, recovery times, and bitwise recovery
/// determinism against an uninterrupted oracle run.
///
/// The chaos run goes through `serve_online_supervised`. With `online` set,
/// continual learning is on, the stream carries two policy swaps, and the
/// oracle is `serve_online`. SPL folds then grow the safe tables
/// between checkpoints, so recovery must restore each dirty home's
/// pre-fold table from its checkpoint — the copy-on-write path. With
/// `threaded` set, the chaos run serves 4 shards on the worker pool (the
/// oracle stays deterministic, at the same shard count).
fn run_recovery(
    f: &Fixture,
    homes: u32,
    online: bool,
    threaded: bool,
) -> (Measurement, RecoveryStats) {
    let fleet = FleetGenerator::new(42, homes);
    let shards = if threaded { 4 } else { 1 };
    let fresh = |deterministic: bool| {
        let (mut rt, version) = if online {
            let (rt, version) = online_rt(f, homes, shards, deterministic);
            (rt, Some(version))
        } else {
            (build_rt(f, homes, shards, 64, deterministic), None)
        };
        let envelopes =
            rt.ingest_fleet_day(&fleet, 0, None, Some(QUERY_EVERY)).expect("ingest").envelopes;
        (rt, version, envelopes)
    };
    // Uninterrupted oracle on a fresh runtime.
    let (mut oracle_rt, version, envelopes) = fresh(true);
    let n = envelopes.len() as u64;
    let swaps: Vec<SwapPoint> = version.map_or_else(Vec::new, |version| {
        vec![SwapPoint { at_seq: n / 3, version }, SwapPoint { at_seq: 2 * n / 3, version: 0 }]
    });
    let want = if online {
        oracle_rt.serve_online(envelopes, &swaps)
    } else {
        oracle_rt.serve(envelopes)
    }
    .expect("oracle serve");
    let want_snap = oracle_rt.snapshot().to_json();

    // The chaos run: a panic on every 499th envelope, single attempt each,
    // unlimited restart budget so every crash is recovered (not degraded).
    let (mut rt, _, envelopes) = fresh(!threaded);
    let events = envelopes.len();
    let chaos = ChaosInjector::new(ChaosPlan::periodic_panic(42, 499, 1))
        .expect("chaos plan")
        .schedule(envelopes.iter().map(|e| e.seq).collect::<Vec<_>>());
    let sup = SupervisorConfig {
        restart_budget: u32::MAX,
        checkpoint_every: 64,
        ..SupervisorConfig::default()
    };

    let t0 = Instant::now();
    let got = rt
        .serve_online_supervised(envelopes, &sup, Some(&chaos), &swaps)
        .expect("supervised serve");
    let secs = t0.elapsed().as_secs_f64();

    let deterministic = want.outcomes == got.report.outcomes
        && format!("{:?}", want.outcomes) == format!("{:?}", got.report.outcomes)
        && want_snap == rt.snapshot().to_json();
    let mut recovery_ns = got.recovery.recovery_ns.clone();
    recovery_ns.sort_unstable();
    let stats = RecoveryStats {
        recovery_ns,
        restarts: got.recovery.restarts.len() as u64,
        deterministic,
    };
    let kind = match (online, threaded) {
        (false, false) => "recovery",
        (false, true) => "recovery-threaded",
        (true, false) => "recovery-online",
        (true, true) => "recovery-online-threaded",
    };
    let m = Measurement {
        name: format!("runtime/{kind}/homes{homes}/shards{shards}/batch64"),
        events_per_sec: events as f64 / secs,
        p50_ns: got.report.latency_percentile(0.50).unwrap_or(0),
        p99_ns: got.report.latency_percentile(0.99).unwrap_or(0),
    };
    (m, stats)
}

/// Serve the stream with the neural path offline from the start: every
/// query is answered by the SPL safe-table fallback while the monitor path
/// keeps enforcing — the disaster-recovery floor.
fn run_degraded(f: &Fixture, homes: u32) -> Measurement {
    let mut rt = build_rt(f, homes, 1, 64, true);
    let fleet = FleetGenerator::new(42, homes);
    let envelopes =
        rt.ingest_fleet_day(&fleet, 0, None, Some(QUERY_EVERY)).expect("ingest").envelopes;
    let events = envelopes.len();
    let mut sup = SupervisorConfig::default();
    sup.policy_offline = true;

    let t0 = Instant::now();
    let report = rt.serve_online_supervised(envelopes, &sup, None, &[]).expect("degraded serve");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.report.outcomes.len(), events, "no event may be lost");
    assert!(report.recovery.fallback_decisions > 0, "degraded mode must answer by fallback");

    Measurement {
        name: format!("runtime/degraded/homes{homes}/shards1/batch64"),
        events_per_sec: events as f64 / secs,
        p50_ns: report.report.latency_percentile(0.50).unwrap_or(0),
        p99_ns: report.report.latency_percentile(0.99).unwrap_or(0),
    }
}

/// Swap-latency telemetry: the cost one scheduled swap adds to a
/// `serve_online` call.
struct SwapStats {
    /// Median per-swap stall, wall-clock ns.
    stall_p50_ns: u64,
    /// Worst per-swap stall, wall-clock ns.
    stall_max_ns: u64,
    /// One batch window of events at the healthy serving rate, ns — the
    /// stall budget the gate enforces.
    window_ns: u64,
}

/// An online-enabled runtime with a second policy version registered,
/// ready for swap plans. Returns the runtime and the alt version id.
fn online_rt(
    f: &Fixture,
    homes: u32,
    shards: usize,
    deterministic: bool,
) -> (ServingRuntime, u64) {
    let mut rt = build_rt(f, homes, shards, 64, deterministic);
    rt.enable_online(OnlineConfig::default(), ShadowGates::default()).expect("enable online");
    let cfg = f.policy.config();
    let mut alt_cfg = DqnConfig::new(cfg.state_dim, cfg.num_actions);
    alt_cfg.seed = 99;
    let alt = DqnAgent::new(alt_cfg).expect("alt policy network");
    // invariant: enable_online succeeded, so the store exists
    let version = rt.policy_store_mut().expect("store exists").register(alt.checkpoint());
    (rt, version)
}

/// Measure the per-swap stall in isolation: `serve_online` on an empty
/// stream does exactly the swap work (validate, rebuild the agent from
/// the stored checkpoint, record the swap) plus the call's fixed
/// placement and partitioning overhead, and nothing else. The gate
/// budget is one batch window of events at the healthy serving rate —
/// a hot-swap may cost at most the batching latency already budgeted.
fn run_swap(f: &Fixture, healthy_rate: f64) -> (Measurement, SwapStats) {
    let (mut rt, version) = online_rt(f, 64, 1, true);
    let mut stalls_ns: Vec<u64> = Vec::new();
    for i in 0..32u64 {
        let plan = [SwapPoint { at_seq: i, version }];
        let t0 = Instant::now();
        rt.serve_online(Vec::new(), &plan).expect("swap on an empty stream");
        stalls_ns.push(t0.elapsed().as_nanos() as u64);
    }
    stalls_ns.sort_unstable();
    let stats = SwapStats {
        stall_p50_ns: stalls_ns[stalls_ns.len() / 2],
        stall_max_ns: *stalls_ns.last().expect("32 samples"),
        window_ns: (64.0 / healthy_rate * 1e9) as u64,
    };

    // The throughput row: the same 64-home day served through serve_online
    // with three mid-stream swaps (out to the alt version, back, and out
    // again) — continual serving with hot-swaps on the decision path.
    let (mut rt, version) = online_rt(f, 64, 1, true);
    let fleet = FleetGenerator::new(42, 64);
    let envelopes =
        rt.ingest_fleet_day(&fleet, 0, None, Some(QUERY_EVERY)).expect("ingest").envelopes;
    let events = envelopes.len();
    let n = events as u64;
    let plan = [
        SwapPoint { at_seq: n / 4, version },
        SwapPoint { at_seq: n / 2, version: 0 },
        SwapPoint { at_seq: 3 * n / 4, version },
    ];
    let t0 = Instant::now();
    let report = rt.serve_online(envelopes, &plan).expect("online serve");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.outcomes.len(), events, "no event may be lost");
    let m = Measurement {
        name: "runtime/online/homes64/shards1/batch64".into(),
        events_per_sec: events as f64 / secs,
        p50_ns: report.latency_percentile(0.50).unwrap_or(0),
        p99_ns: report.latency_percentile(0.99).unwrap_or(0),
    };
    (m, stats)
}

/// Drift-adaptation telemetry: a frozen runtime versus a continual one on
/// bitwise-identical drifting traffic with engineered violations injected.
struct DriftStats {
    /// Benign false alarms per experiment day, frozen runtime.
    frozen_fp: Vec<u64>,
    /// Benign false alarms per experiment day, continual runtime.
    continual_fp: Vec<u64>,
    /// First experiment day served by the after-change household.
    change_day: u32,
    /// Injected violations the continual runtime flagged.
    detections: u64,
    /// Violations injected across the whole run.
    injections: u64,
    /// SPL folds the continual runtime performed.
    folds: u64,
    /// Shadow-delta pairs hysteresis admitted into the safe table.
    admitted: u64,
}

impl DriftStats {
    /// Post-change benign false alarms (the adaptation comparison window).
    fn post_change(fp: &[u64], change_day: u32) -> u64 {
        fp.iter().skip(change_day as usize).sum()
    }

    fn frozen_post(&self) -> u64 {
        Self::post_change(&self.frozen_fp, self.change_day)
    }

    fn continual_post(&self) -> u64 {
        Self::post_change(&self.continual_fp, self.change_day)
    }

    fn detection(&self) -> f64 {
        if self.injections == 0 {
            return 0.0;
        }
        self.detections as f64 / self.injections as f64
    }
}

/// Violations injected per experiment day, spread across the stream so the
/// attack pair is never supported inside one fold window.
const DRIFT_INJECT_PER_DAY: usize = 4;

/// Days the drift experiment serves (change at day [`DRIFT_CHANGE_DAY`]).
const DRIFT_DAYS: u32 = 6;
const DRIFT_CHANGE_DAY: u32 = 2;

/// Count a day's outcomes: benign false alarms (violations outside the
/// injected seqs) and detected injections.
fn count_day(outcomes: &[Outcome], injected: &[u64]) -> (u64, u64) {
    let mut fp = 0u64;
    let mut detected = 0u64;
    for out in outcomes {
        if let Outcome::Verdict { seq, verdict: Verdict::Violation, .. } = out {
            if injected.binary_search(seq).is_ok() {
                detected += 1;
            } else {
                fp += 1;
            }
        }
    }
    (fp, detected)
}

/// Serve a [`DriftSchedule`] occupant change through a frozen and a
/// continual runtime on identical traffic. Both start from the same table
/// learned on the before-change household; only the continual runtime may
/// fold routine shifts in. Engineered violations are spliced into every
/// day; the continual runtime must keep flagging them all.
fn run_drift(f: &Fixture) -> DriftStats {
    let sched = DriftSchedule::occupant_change(42, DRIFT_CHANGE_DAY);
    let config = JarvisConfig { optimizer: OptimizerConfig::fast(), ..JarvisConfig::default() };
    let mut jarvis = Jarvis::new(f.home.clone(), config);
    jarvis.learning_phase(&sched.before, 0..2).expect("learning phase");
    jarvis.learn_policies().expect("SPL");
    let table = jarvis.outcome().expect("outcome").table.clone();

    let build = |online: bool| {
        let mut config = RuntimeConfig::new(1);
        config.batch_window = 64;
        config.deterministic = true;
        let mut rt = ServingRuntime::new(config, f.policy.clone()).expect("runtime");
        rt.register_home(0, f.home.clone(), table.clone()).expect("register home");
        if online {
            // A fold cadence of ~11 windows per day with light support so
            // recurring post-change routines clear hysteresis within days.
            let cfg = OnlineConfig { support_threshold: 2, ..OnlineConfig::default() };
            rt.enable_online(cfg, ShadowGates::default()).expect("enable online");
        }
        rt
    };
    let mut frozen = build(false);
    let mut continual = build(true);
    let attack = f.home.mini_action("door_sensor", "power_off");

    let mut stats = DriftStats {
        frozen_fp: Vec::new(),
        continual_fp: Vec::new(),
        change_day: DRIFT_CHANGE_DAY,
        detections: 0,
        injections: 0,
        folds: 0,
        admitted: 0,
    };
    for day in 0..DRIFT_DAYS {
        let data = sched.dataset(day);
        let eff = sched.effective_day(day);
        let mut envelopes = frozen
            .ingest_day(0, data, eff, None, Some(QUERY_EVERY))
            .expect("ingest drift day")
            .envelopes;
        let twin = continual
            .ingest_day(0, data, eff, None, Some(QUERY_EVERY))
            .expect("ingest drift day")
            .envelopes;
        assert_eq!(envelopes, twin, "both runtimes must see identical traffic");

        // Splice the engineered violation over a few existing slots, far
        // enough apart that the attack pair never gathers fold support.
        let mut injected = Vec::new();
        let n = envelopes.len();
        for k in 1..=DRIFT_INJECT_PER_DAY {
            let at = n * k / (DRIFT_INJECT_PER_DAY + 1);
            envelopes[at].kind = EventKind::Action(attack.clone());
            injected.push(envelopes[at].seq);
        }
        injected.sort_unstable();
        stats.injections += injected.len() as u64;

        let frozen_out = frozen.serve(envelopes.clone()).expect("frozen serve").outcomes;
        let continual_out = continual.serve(envelopes).expect("continual serve").outcomes;
        let (fp_f, det_f) = count_day(&frozen_out, &injected);
        let (fp_c, det_c) = count_day(&continual_out, &injected);
        assert_eq!(det_f, injected.len() as u64, "the frozen table never admits the attack");
        stats.frozen_fp.push(fp_f);
        stats.continual_fp.push(fp_c);
        stats.detections += det_c;
    }
    if let Some(learner) = continual.slot(0).and_then(|s| s.online()) {
        stats.folds = learner.folds;
        stats.admitted = learner.admitted;
    }
    stats
}

fn print_row(m: &Measurement) {
    println!(
        "{:<46} {:>12.0} ev/s   p50 {:>9.1} µs   p99 {:>9.1} µs",
        m.name,
        m.events_per_sec,
        m.p50_ns as f64 / 1e3,
        m.p99_ns as f64 / 1e3
    );
}

/// The shard-4 / shard-1 threaded p99 ratio at 64 homes, when both rows
/// were measured this run.
fn p99_ratio(results: &[Measurement]) -> Option<f64> {
    let num = results.iter().find(|m| m.name == P99_RATIO_NUM)?;
    let den = results.iter().find(|m| m.name == P99_RATIO_DEN)?;
    if den.p99_ns == 0 {
        return None;
    }
    Some(num.p99_ns as f64 / den.p99_ns as f64)
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    results: &[Measurement],
    speedup: f64,
    ratio: Option<f64>,
    degraded_ratio: f64,
    stats: &RecoveryStats,
    threaded: &RecoveryStats,
    online: &RecoveryStats,
    swap: &SwapStats,
    drift: &DriftStats,
) -> String {
    let entries: Vec<Json> = results
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.clone())),
                ("events_per_sec".into(), Json::Float(m.events_per_sec)),
                ("p50_ns".into(), Json::Float(m.p50_ns as f64)),
                ("p99_ns".into(), Json::Float(m.p99_ns as f64)),
            ])
        })
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let recovery_p50 = stats.recovery_ns.get(stats.recovery_ns.len() / 2).copied().unwrap_or(0);
    let recovery_max = stats.recovery_ns.last().copied().unwrap_or(0);
    let fp_curve = |fp: &[u64]| Json::Arr(fp.iter().map(|&v| Json::Float(v as f64)).collect());
    Json::Obj(vec![
        ("schema".into(), Json::Str("jarvis-runtime-bench-v6".into())),
        ("parallelism".into(), Json::Float(parallelism as f64)),
        ("batched_speedup_64_homes".into(), Json::Float(speedup)),
        (
            "p99_ratio_shards4_vs_1_64_homes".into(),
            Json::Float(ratio.unwrap_or(0.0)),
        ),
        // The check-mode ceiling for the measured ratio: generous against
        // scheduler noise, an order of magnitude below the ~27x blowup the
        // blocking-MPSC design produced.
        ("p99_ratio_gate".into(), Json::Float(4.0)),
        // Self-healing telemetry: crash -> first post-recovery decision
        // under the one-panic-per-499-envelopes chaos plan, and whether the
        // chaos run was bitwise identical to the uninterrupted oracle.
        ("recovery_restarts".into(), Json::Float(stats.restarts as f64)),
        ("recovery_p50_ns".into(), Json::Float(recovery_p50 as f64)),
        ("recovery_max_ns".into(), Json::Float(recovery_max as f64)),
        ("recovery_deterministic".into(), Json::Bool(stats.deterministic)),
        // The same chaos plan at 4 threaded shards on the worker pool,
        // checked bitwise against the uninterrupted oracle.
        ("recovery_threaded_restarts".into(), Json::Float(threaded.restarts as f64)),
        ("recovery_threaded_deterministic".into(), Json::Bool(threaded.deterministic)),
        // The same chaos plan with online learning on and two policy swaps,
        // checked bitwise against the serve_online oracle.
        ("recovery_online_restarts".into(), Json::Float(online.restarts as f64)),
        ("recovery_online_deterministic".into(), Json::Bool(online.deterministic)),
        // Degraded-mode serving (neural path offline, safe-table fallback)
        // must stay within this fraction of healthy throughput.
        ("degraded_throughput_ratio_64_homes".into(), Json::Float(degraded_ratio)),
        ("degraded_ratio_gate".into(), Json::Float(0.5)),
        // Hot-swap stall vs the one-batch-window budget at the healthy
        // serving rate: a mid-stream policy swap must never cost more than
        // the batching latency the runtime already accepts.
        ("swap_stall_p50_ns".into(), Json::Float(swap.stall_p50_ns as f64)),
        ("swap_stall_max_ns".into(), Json::Float(swap.stall_max_ns as f64)),
        ("swap_window_ns".into(), Json::Float(swap.window_ns as f64)),
        // Drift adaptation: per-day benign false alarms for the frozen vs
        // continual runtime over the occupant-change scenario, plus the
        // detection rate on the injected engineered violations.
        ("drift_change_day".into(), Json::Float(drift.change_day as f64)),
        ("drift_frozen_fp_by_day".into(), fp_curve(&drift.frozen_fp)),
        ("drift_continual_fp_by_day".into(), fp_curve(&drift.continual_fp)),
        ("drift_frozen_fp_post_change".into(), Json::Float(drift.frozen_post() as f64)),
        ("drift_continual_fp_post_change".into(), Json::Float(drift.continual_post() as f64)),
        ("drift_detection".into(), Json::Float(drift.detection())),
        ("drift_folds".into(), Json::Float(drift.folds as f64)),
        ("drift_admitted".into(), Json::Float(drift.admitted as f64)),
        ("results".into(), Json::Arr(entries)),
    ])
    .to_string()
}

/// Gate failures against a recorded baseline: throughput drops >2× on the
/// gated rows, the shard-4/shard-1 p99 ratio against the baseline's
/// recorded ceiling, bitwise recovery determinism (sequential, threaded,
/// online), the degraded-mode throughput floor, the hot-swap stall budget,
/// and drift adaptation.
#[allow(clippy::too_many_arguments)]
fn regressions(
    results: &[Measurement],
    baseline: &Json,
    degraded_ratio: f64,
    stats: &RecoveryStats,
    threaded: &RecoveryStats,
    online: &RecoveryStats,
    swap: &SwapStats,
    drift: &DriftStats,
) -> Vec<String> {
    let recorded = baseline
        .get("results")
        .and_then(Json::as_array)
        .expect("baseline has a results array");
    let mut failed = Vec::new();
    for m in results {
        if !CHECKED_PREFIXES.iter().any(|p| m.name.starts_with(p)) {
            continue;
        }
        let Some(old) = recorded
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(m.name.as_str()))
        else {
            continue; // new benchmark, nothing recorded yet
        };
        let old_rate = old.get("events_per_sec").and_then(Json::as_f64).expect("events_per_sec");
        if m.events_per_sec < old_rate / 2.0 {
            failed.push(format!(
                "{}: {:.0} ev/s vs recorded {:.0} ev/s ({:.2}x slower)",
                m.name,
                m.events_per_sec,
                old_rate,
                old_rate / m.events_per_sec
            ));
        }
    }
    if let Some(gate) = baseline.get("p99_ratio_gate").and_then(Json::as_f64) {
        match p99_ratio(results) {
            Some(ratio) if ratio > gate => failed.push(format!(
                "tail latency: shard-4 p99 is {ratio:.2}x shard-1 p99 (gate {gate:.2}x)"
            )),
            Some(_) => {}
            None => failed.push(format!(
                "tail latency gate needs rows {P99_RATIO_NUM} and {P99_RATIO_DEN} with nonzero p99"
            )),
        }
    }
    if !stats.deterministic {
        failed.push(
            "recovery determinism: the chaos run's outcomes/snapshot diverged from the \
             uninterrupted oracle"
                .to_string(),
        );
    }
    if !threaded.deterministic {
        failed.push(
            "threaded recovery determinism: the 4-shard threaded chaos run's outcomes/snapshot \
             diverged from the uninterrupted oracle"
                .to_string(),
        );
    }
    if !online.deterministic {
        failed.push(
            "online recovery determinism: the online chaos run's outcomes/snapshot diverged \
             from the serve_online oracle"
                .to_string(),
        );
    }
    if let Some(gate) = baseline.get("degraded_ratio_gate").and_then(Json::as_f64) {
        if degraded_ratio < gate {
            failed.push(format!(
                "degraded-mode throughput is {degraded_ratio:.2}x healthy (gate {gate:.2}x)"
            ));
        }
    }
    // Both v4 gates are computed fresh each run (like recovery
    // determinism): the budgets are structural, not recorded numbers.
    if swap.stall_p50_ns > swap.window_ns {
        failed.push(format!(
            "hot-swap stall: median {:.1} µs exceeds one batch window ({:.1} µs at the healthy \
             serving rate)",
            swap.stall_p50_ns as f64 / 1e3,
            swap.window_ns as f64 / 1e3
        ));
    }
    if drift.continual_post() > drift.frozen_post() {
        failed.push(format!(
            "drift adaptation: continual runtime raised {} benign alarms post-change vs frozen {}",
            drift.continual_post(),
            drift.frozen_post()
        ));
    }
    if drift.detection() < 1.0 {
        failed.push(format!(
            "drift adaptation: detection fell to {:.3} ({} of {} injected violations flagged) — \
             learning may never mask attacks",
            drift.detection(),
            drift.detections,
            drift.injections
        ));
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
            // Ignore cargo plumbing flags.
            "--bench" | "--test" => {}
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }

    let f = fixture();
    let mut results = Vec::new();

    // The headline pair: identical 64-home stream, single-row inference vs
    // a 64-wide batching window, sequential execution so the comparison
    // isolates the batched forward.
    let single = run_once(&f, 64, 1, 1, true);
    print_row(&single);
    let batched = run_once(&f, 64, 1, 64, true);
    print_row(&batched);
    let speedup = batched.events_per_sec / single.events_per_sec;
    println!("{:<46} {speedup:>11.2}x", "runtime/batched_speedup/homes64");
    results.push(single);
    results.push(batched);

    // The p99-gate pair always runs: threaded 1-shard vs 4-shard serving of
    // the same 64-home stream.
    for shards in [1usize, 4] {
        let m = run_once(&f, 64, shards, 64, false);
        print_row(&m);
        results.push(m);
    }

    if !quick {
        // The full scaling sweep: fleet size × shard count under threaded
        // serving with a 64-query window.
        for homes in [16u32, 64] {
            for shards in [1usize, 2, 4] {
                if homes == 64 && (shards == 1 || shards == 4) {
                    continue; // already measured for the gate pair
                }
                let m = run_once(&f, homes, shards, 64, false);
                print_row(&m);
                results.push(m);
            }
        }
        // The 1024-home row: 16× the gated fleet through the threaded
        // shard-4 path. Recorded for the scaling column, never gated — and
        // on a single-core host flagged rather than failed, since threaded
        // scaling numbers are meaningless there.
        let m = run_once(&f, 1024, 4, 64, false);
        print_row(&m);
        if std::thread::available_parallelism().map_or(1, usize::from) == 1 {
            eprintln!(
                "warning: 1024-home row measured on a single core; recorded for completeness, \
                 not comparable to multi-core baselines"
            );
        }
        results.push(m);
    }

    if let Some(ratio) = p99_ratio(&results) {
        println!("{:<46} {ratio:>11.2}x", "runtime/p99_ratio/shards4_vs_1/homes64");
    }

    // Self-healing rows, always measured: supervised serving with injected
    // panics (recovery time + determinism; sequential, 4-shard threaded,
    // and online) and degraded-mode serving.
    let healthy_rate = results
        .iter()
        .find(|m| m.name == "runtime/det/homes64/shards1/batch64")
        .map_or(1.0, |m| m.events_per_sec);
    let mut recover = |online: bool, threaded: bool| {
        let (row, stats) = run_recovery(&f, 64, online, threaded);
        print_row(&row);
        let p50 = stats.recovery_ns.get(stats.recovery_ns.len() / 2).copied().unwrap_or(0);
        println!(
            "{:<46} {:>9} restarts   p50 {:>9.1} µs   max {:>9.1} µs   bitwise {}",
            format!("{}/crash_to_decision", row.name.split("/homes").next().unwrap_or_default()),
            stats.restarts,
            p50 as f64 / 1e3,
            stats.recovery_ns.last().copied().unwrap_or(0) as f64 / 1e3,
            if stats.deterministic { "ok" } else { "DIVERGED" },
        );
        results.push(row);
        stats
    };
    let stats = recover(false, false);
    let threaded_stats = recover(false, true);
    let online_stats = recover(true, false);
    let degraded = run_degraded(&f, 64);
    print_row(&degraded);
    let degraded_ratio = degraded.events_per_sec / healthy_rate;
    println!("{:<46} {degraded_ratio:>11.2}x", "runtime/degraded_ratio/homes64");
    results.push(degraded);

    // Continual-learning rows, always measured: hot-swap stall vs the
    // one-batch-window budget, online serving with mid-stream swaps, and
    // the frozen-vs-continual drift-adaptation comparison.
    let (online_row, swap) = run_swap(&f, healthy_rate);
    print_row(&online_row);
    results.push(online_row);
    println!(
        "{:<46} p50 {:>9.1} µs   max {:>9.1} µs   budget {:>9.1} µs",
        "runtime/swap/stall_vs_batch_window",
        swap.stall_p50_ns as f64 / 1e3,
        swap.stall_max_ns as f64 / 1e3,
        swap.window_ns as f64 / 1e3,
    );
    let drift = run_drift(&f);
    println!(
        "{:<46} frozen {:?} vs continual {:?} (change day {})",
        "runtime/drift/benign_fp_by_day", drift.frozen_fp, drift.continual_fp, drift.change_day,
    );
    println!(
        "{:<46} detection {:>6.3}   folds {}   admitted {}",
        "runtime/drift/adaptation",
        drift.detection(),
        drift.folds,
        drift.admitted,
    );

    if let Some(path) = json_out {
        std::fs::write(
            &path,
            to_json(
                &results,
                speedup,
                p99_ratio(&results),
                degraded_ratio,
                &stats,
                &threaded_stats,
                &online_stats,
                &swap,
                &drift,
            ) + "\n",
        )
        .expect("write baseline");
        println!("wrote baseline to {path}");
    }
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = Json::parse(&text).expect("baseline parses");
        let failed = regressions(
            &results,
            &baseline,
            degraded_ratio,
            &stats,
            &threaded_stats,
            &online_stats,
            &swap,
            &drift,
        );
        if !failed.is_empty() {
            eprintln!("serving runtime regressed vs {path}:");
            for f in &failed {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("runtime throughput and tail latency within gates of {path}");
    }
}
