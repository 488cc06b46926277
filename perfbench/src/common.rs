//! What the serving workloads share: the per-home SPL fleet, the runtime
//! build, day streams with spliced violations, outcome tallies, and the
//! timed loop that repeats a fixed set of work units for `--seconds`.

use jarvis::{Jarvis, JarvisConfig, Verdict};
use jarvis_iot_model::{EnvAction, EnvState, MiniAction};
use jarvis_policy::{MatchMode, SafeTransitionTable};
use jarvis_rl::{DqnAgent, DqnConfig, Parallelism};
use jarvis_runtime::{
    Envelope, EventKind, Outcome, RuntimeConfig, RuntimeSnapshot, ServingRuntime,
};
use jarvis_sim::FleetGenerator;
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::bench::monotonic_ns;

use crate::stats::{median, UnitTimes};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Homes in the served fleet, all on one shard.
pub const HOMES: u32 = 64;
/// Days of each home's history its SPL table is learned from (days
/// `0..LEARN_DAYS`); serving starts on the next day.
pub const LEARN_DAYS: u32 = 3;
/// Batching window of the serving runtime.
pub const BATCH_WINDOW: usize = 64;
/// Engineered violations spliced into each served fleet-day.
pub const INJECTED_PER_DAY: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run a workload's set-up `SETUP_REPEATS` times, each from scratch, and
/// keep the last. The first repeat is timed from process start. Spans are
/// recorded for the last repeat only, in a traced run. Returns the set-up
/// and the median set-up seconds.
pub fn repeat_setup<S>(
    args: &Args,
    start_ns: u64,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        drop(last.take());
        tracer.set_on(args.trace && k + 1 == SETUP_REPEATS);
        let t0 = if k == 0 { start_ns } else { monotonic_ns() };
        last = Some(setup(tracer)?);
        seconds.push((monotonic_ns() - t0) as f64 / 1e9);
    }
    tracer.set_on(false);
    Ok((last.ok_or("no set-up ran")?, median(&seconds)))
}

/// The shared fleet policy: the paper's 64×64 DQN at its seeded
/// initialization, single-threaded kernels.
pub fn fleet_policy(home: &SmartHome, seed: u64) -> Result<DqnAgent, String> {
    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let mut cfg = DqnConfig::new(state_dim, num_actions);
    cfg.seed = seed;
    cfg.parallelism = Parallelism::Single;
    DqnAgent::new(cfg).map_err(err)
}

/// Learn every fleet member's own `P_safe` (Algorithm 1, no ANN filter)
/// from its first `LEARN_DAYS` days. Returns the tables, episodes parsed
/// and total table entries.
pub fn learn_fleet_tables(
    home: &SmartHome,
    fleet: &FleetGenerator,
    tracer: &mut Tracer,
) -> Result<(Vec<SafeTransitionTable>, usize, usize), String> {
    let config = JarvisConfig {
        filter: None,
        ..JarvisConfig::default()
    };
    let mut tables = Vec::with_capacity(fleet.num_homes() as usize);
    let mut episodes = 0;
    let mut entries = 0;
    for idx in 0..fleet.num_homes() {
        let data = fleet.dataset(idx);
        let mut jarvis = Jarvis::new(home.clone(), config.clone());
        let req = u64::from(idx);
        episodes += tracer
            .span("core.learning_phase", req, || {
                jarvis.learning_phase(&data, 0..LEARN_DAYS)
            })
            .map_err(err)?;
        tracer
            .span("policy.spl", req, || jarvis.learn_policies())
            .map_err(err)?;
        let table = jarvis
            .outcome()
            .ok_or("learn_policies left no outcome")?
            .table
            .clone();
        entries += table.len();
        tables.push(table);
    }
    Ok((tables, episodes, entries))
}

/// Component replay of the simulator: generate every fleet member's first
/// `days` days of activity — what the learning phase and the served or
/// planned days consume.
pub fn replay_generation(fleet: &FleetGenerator, days: u32, tracer: &mut Tracer) {
    let open = tracer.enter("sim.generate", 0);
    for idx in 0..fleet.num_homes() {
        let data = fleet.dataset(idx);
        for day in 0..days {
            std::hint::black_box(data.activity(day));
        }
    }
    tracer.exit_calls(open, u64::from(fleet.num_homes() * days));
}

/// A deterministic single-shard runtime serving `tables[i]` for home `i`.
pub fn build_runtime(
    home: &SmartHome,
    policy: DqnAgent,
    tables: &[SafeTransitionTable],
    batch_window: usize,
    telemetry: bool,
) -> Result<ServingRuntime, String> {
    let mut config = RuntimeConfig::new(1);
    config.batch_window = batch_window;
    config.deterministic = true;
    if telemetry {
        config.telemetry = Some(monotonic_ns);
    }
    let mut rt = ServingRuntime::new(config, policy).map_err(err)?;
    for (id, table) in tables.iter().enumerate() {
        rt.register_home(id as u64, home.clone(), table.clone())
            .map_err(err)?;
    }
    Ok(rt)
}

/// One ingested fleet-day with its spliced violations.
#[derive(Debug, Clone)]
pub struct DayStream {
    pub day: u32,
    pub envelopes: Vec<Envelope>,
    /// Sequence numbers of the engineered violations, ascending.
    pub injected: Vec<u64>,
}

/// Ingest one fleet-day and splice `INJECTED_PER_DAY` engineered
/// violations (an action no learning day contains) over evenly spaced
/// envelopes, so every part of the day carries some.
pub fn day_stream(
    rt: &mut ServingRuntime,
    fleet: &FleetGenerator,
    day: u32,
    query_every: u32,
    attack: MiniAction,
    tracer: &mut Tracer,
) -> Result<DayStream, String> {
    let report = tracer
        .span("runtime.ingest", u64::from(day), || {
            rt.ingest_fleet_day(fleet, day, None, Some(query_every))
        })
        .map_err(err)?;
    let mut envelopes = report.envelopes;
    let n = envelopes.len();
    let mut injected = Vec::with_capacity(INJECTED_PER_DAY);
    for k in 1..=INJECTED_PER_DAY {
        let at = n * k / (INJECTED_PER_DAY + 1);
        envelopes[at].kind = EventKind::Action(attack);
        injected.push(envelopes[at].seq);
    }
    injected.sort_unstable();
    Ok(DayStream {
        day,
        envelopes,
        injected,
    })
}

/// The attack spliced into every served day.
pub fn attack(home: &SmartHome) -> MiniAction {
    home.mini_action("door_sensor", "power_off")
}

/// Verdict counts of the served days, split by spliced and benign actions.
#[derive(Debug, Default)]
pub struct Tally {
    pub injected: u64,
    pub detected: u64,
    pub benign_actions: u64,
    pub benign_alarms: u64,
}

impl Tally {
    pub fn add(&mut self, outcomes: &[Outcome], injected: &[u64]) {
        self.injected += injected.len() as u64;
        for out in outcomes {
            if let Outcome::Verdict { seq, verdict, .. } = out {
                let alarm = *verdict == Verdict::Violation;
                if injected.binary_search(seq).is_ok() {
                    self.detected += u64::from(alarm);
                } else {
                    self.benign_actions += 1;
                    self.benign_alarms += u64::from(alarm);
                }
            }
        }
    }

    pub fn detection_rate(&self) -> f64 {
        self.detected as f64 / self.injected.max(1) as f64
    }

    pub fn benign_alarm_rate(&self) -> f64 {
        self.benign_alarms as f64 / self.benign_actions.max(1) as f64
    }

    /// The detection and accounting checks every serving workload makes.
    pub fn check(&self, report: &mut Report) {
        report.check(self.injected - self.detected, || {
            format!(
                "detection: {} of {} injected violations flagged",
                self.detected, self.injected
            )
        });
    }
}

/// Violation verdicts among `outcomes`.
pub fn alarms(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                Outcome::Verdict {
                    verdict: Verdict::Violation,
                    ..
                }
            )
        })
        .count() as u64
}

/// FNV-1a over the outcomes' debug rendering, streamed so no rendering is
/// held in memory: equal digests mean equal outcomes down to every f64 bit.
pub fn digest(outcomes: &[Outcome]) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Writing into the hasher cannot fail.
    let _ = std::fmt::Write::write_fmt(&mut h, format_args!("{outcomes:?}"));
    h.0
}

/// Per-unit times of the untraced phase (`a`) and, in a traced run, of
/// the traced phase (`b`).
#[derive(Debug, Default)]
pub struct Timed {
    pub a: UnitTimes,
    pub b: UnitTimes,
    /// Wall seconds the loop ran, untimed bookkeeping included.
    pub loop_s: f64,
}

/// Repeat `units` work units in passes until `--seconds` have elapsed,
/// finishing at least `min_passes` passes. `unit(tracer, u, pass)` runs
/// unit `u` and returns its timed nanoseconds.
///
/// A traced run spends the first half untraced and the rest traced under a
/// `bench.workload` root span; comparing the two halves' per-unit
/// medians gives the tracing overhead.
pub fn drive(
    args: &Args,
    units: usize,
    min_passes: usize,
    tracer: &mut Tracer,
    mut unit: impl FnMut(&mut Tracer, usize, usize) -> Result<u64, String>,
) -> Result<Timed, String> {
    let t0 = monotonic_ns();
    let elapsed = || (monotonic_ns() - t0) as f64 / 1e9;
    let mut timed = Timed::default();
    let mut root = None;
    let mut i = 0usize;
    loop {
        let (u, pass) = (i % units, i / units);
        // The traced half starts on a pass boundary, so per-pass counts
        // cover whole passes.
        let passes_done = u == 0 && pass >= min_passes;
        if args.trace && root.is_none() && passes_done && elapsed() >= args.seconds / 2.0 {
            tracer.set_on(true);
            root = Some(tracer.enter("bench.workload", 0));
        }
        // An untraced run stops on a pass boundary once `min_passes` are
        // done; a traced run once the traced half has timed a unit.
        let may_stop = if args.trace {
            timed.b.samples() > 0
        } else {
            passes_done
        };
        if may_stop && elapsed() >= args.seconds {
            break;
        }
        let ns = unit(tracer, u, pass)?;
        let times = if root.is_some() {
            &mut timed.b
        } else {
            &mut timed.a
        };
        times.push(u, ns as f64 / 1e9);
        i += 1;
    }
    if let Some(open) = root {
        tracer.exit(open);
    }
    timed.loop_s = elapsed();
    Ok(timed)
}

/// Report the traced phase's reconciliation and overhead.
pub fn report_trace(tracer: &Tracer, timed: &Timed, report: &mut Report) {
    let whole = tracer.seconds("bench.workload");
    let unaccounted = tracer.self_seconds("bench.workload");
    report.layer("trace.workload_s", whole);
    report.layer(
        "trace.covered_share",
        if whole > 0.0 {
            1.0 - unaccounted / whole
        } else {
            0.0
        },
    );
    report.layer("trace.unaccounted_s", unaccounted);
    let ratio = timed.a.ratio_on_shared_units(&timed.b).unwrap_or(1.0);
    report.layer("trace.overhead_share", ratio - 1.0);
}

/// Component replay of the monitor and the device FSM over one day's
/// actions and sensor events, starting from `snap`'s homes: the runtime's
/// own calls (`SafeTransitionTable::is_safe_action`, `Fsm::step`) timed in
/// tight loops. Returns the replayed verdicts by sequence number
/// (`true` = violation) for the caller to compare with the runtime's.
pub fn replay_monitor(
    home: &SmartHome,
    snap: &RuntimeSnapshot,
    envelopes: &[Envelope],
    tracer: &mut Tracer,
) -> Result<Vec<(u64, bool)>, String> {
    let fsm = home.fsm();
    let mut states: Vec<EnvState> = snap.homes.iter().map(|h| h.state.clone()).collect();
    let mut checks: Vec<(usize, EnvState, EnvAction)> = Vec::new();
    let mut steps: Vec<(EnvState, EnvAction)> = Vec::new();
    let mut verdicts = Vec::new();
    for env in envelopes {
        let h = env.home as usize;
        match env.kind {
            EventKind::Action(mini) => {
                let action = EnvAction::single(mini);
                let safe =
                    snap.homes[h]
                        .table
                        .is_safe_action(&states[h], &action, MatchMode::Exact);
                checks.push((h, states[h].clone(), action.clone()));
                verdicts.push((env.seq, !safe));
                if safe {
                    steps.push((states[h].clone(), action.clone()));
                    states[h] = fsm.step(&states[h], &action).map_err(err)?;
                }
            }
            EventKind::Sensor(mini) => {
                let action = EnvAction::single(mini);
                steps.push((states[h].clone(), action.clone()));
                states[h] = fsm.step(&states[h], &action).map_err(err)?;
            }
            EventKind::Query { .. } => {}
        }
    }
    let open = tracer.enter("policy.monitor", 0);
    let mut safe = 0u64;
    for (h, state, action) in &checks {
        safe += u64::from(
            snap.homes[*h]
                .table
                .is_safe_action(state, action, MatchMode::Exact),
        );
    }
    std::hint::black_box(safe);
    tracer.exit_calls(open, checks.len() as u64);
    let open = tracer.enter("iot-model.fsm_step", 0);
    for (state, action) in &steps {
        std::hint::black_box(fsm.step(state, action).map_err(err)?);
    }
    tracer.exit_calls(open, steps.len() as u64);
    Ok(verdicts)
}

/// Compare replayed monitor verdicts with the runtime's, skipping homes
/// in `skip`. Returns the number of disagreements.
pub fn verdict_mismatches(
    replayed: &[(u64, bool)],
    outcomes: &[Outcome],
    skip: impl Fn(u64) -> bool,
) -> u64 {
    let mut bad = 0;
    for out in outcomes {
        if let Outcome::Verdict { seq, home, verdict } = out {
            if skip(*home) {
                continue;
            }
            let want = *verdict == Verdict::Violation;
            match replayed.binary_search_by_key(seq, |&(s, _)| s) {
                Ok(i) if replayed[i].1 == want => {}
                _ => bad += 1,
            }
        }
    }
    bad
}

/// Component replay of the forward pass on the runtime's calibration
/// corpus: 64-row batches and single rows through
/// `DqnAgent::q_values_batch`. Returns (ns per row at 64, ns per row at 1).
pub fn replay_forward(rt: &ServingRuntime, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let rows = rt.calibration_observations();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let policy = rt.policy();
    let open = tracer.enter("rl.forward64", 0);
    let mut n64 = 0u64;
    for chunk in refs.chunks_exact(64) {
        std::hint::black_box(policy.q_values_batch(chunk).map_err(err)?);
        n64 += 64;
    }
    tracer.exit_calls(open, n64);
    let open = tracer.enter("rl.forward1", 0);
    for row in &refs {
        std::hint::black_box(
            policy
                .q_values_batch(std::slice::from_ref(row))
                .map_err(err)?,
        );
    }
    tracer.exit_calls(open, refs.len() as u64);
    Ok((
        tracer.ns_per_call("rl.forward64"),
        tracer.ns_per_call("rl.forward1"),
    ))
}

/// Per-layer values every serving workload reports from its set-up spans.
pub fn layers_common(report: &mut Report, tracer: &Tracer, episodes: usize, entries: usize) {
    report.layer("sim.generate_s", tracer.seconds("sim.generate"));
    report.layer(
        "core.learning_phase_s",
        tracer.seconds("core.learning_phase"),
    );
    report.layer("core.episodes", episodes as f64);
    report.layer("policy.spl_s", tracer.seconds("policy.spl"));
    report.layer("policy.table_entries", entries as f64);
    report.layer("runtime.ingest_s", tracer.seconds("runtime.ingest"));
    report.layer("runtime.snapshot_s", tracer.seconds("runtime.snapshot"));
    report.layer(
        "runtime.restore_s",
        tracer.seconds_under("runtime.restore", "bench.workload"),
    );
}
