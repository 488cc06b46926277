//! `guard`: the write side of the serving runtime. The same kind of fleet
//! is served through `ServingRuntime::serve_online_supervised` at the
//! shipped `SupervisorConfig` (a WAL checkpoint every 64 envelopes,
//! restart budget 8 per serve call), with online learning on, two policy
//! swaps per day, seeded periodic panics and spliced violations. Queries
//! are sparse (one per home every 10 minutes), so about half the stream is
//! actions and sensor events: WAL checkpoints, snapshots, replay on
//! recovery, SPL folds and monitor checks do the work, the forward little.

use jarvis_runtime::{
    OnlineConfig, Outcome, RuntimeSnapshot, ServingRuntime, ShadowGates, SupervisorConfig,
    SwapPoint,
};
use jarvis_sim::{ChaosInjector, ChaosPlan, ChaosSchedule, FleetGenerator};
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::bench::monotonic_ns;

use crate::common::{self, err, DayStream, Tally, BATCH_WINDOW, HOMES, LEARN_DAYS};
use crate::stats::{median, BlockPercentiles};
use crate::trace::Tracer;
use crate::{Args, Report};

/// One decision query per home every this many minutes.
const QUERY_EVERY: u32 = 10;
/// Envelopes per supervised serve call.
const SEGMENT: usize = 3_584;
/// One injected panic every this many envelopes: 7 per full segment, so
/// no serve call exhausts the shipped budget of 8 restarts and degrades.
/// Not a multiple of the 64-envelope checkpoint cadence, so crashes land
/// at every offset of the checkpoint window and replays vary in length.
const PANIC_EVERY: u64 = 509;

/// One supervised serve call: its envelopes, its chaos schedule, and the
/// day's swaps that fall inside it.
struct Segment {
    envelopes: Vec<jarvis_runtime::Envelope>,
    chaos: ChaosSchedule,
    swaps: Vec<SwapPoint>,
}

struct Setup {
    home: SmartHome,
    rt: ServingRuntime,
    day: DayStream,
    swaps: Vec<SwapPoint>,
    segments: Vec<Segment>,
    episodes: usize,
    entries: usize,
}

/// Two swaps per day: to the alternate version a third of the way in,
/// back to version 0 at two thirds.
fn day_swaps(day: &DayStream, alt: u64) -> Vec<SwapPoint> {
    let first = day.envelopes[0].seq;
    let n = day.envelopes.len() as u64;
    vec![
        SwapPoint {
            at_seq: first + n / 3,
            version: alt,
        },
        SwapPoint {
            at_seq: first + 2 * n / 3,
            version: 0,
        },
    ]
}

fn setup(args: &Args, tracer: &mut Tracer) -> Result<Setup, String> {
    let home = SmartHome::evaluation_home();
    let fleet = FleetGenerator::new(args.seed, HOMES);
    let (tables, episodes, entries) = common::learn_fleet_tables(&home, &fleet, tracer)?;
    let policy = common::fleet_policy(&home, args.seed)?;
    let alt = common::fleet_policy(&home, args.seed ^ 0x5A5A)?;
    let mut rt = common::build_runtime(&home, policy, &tables, BATCH_WINDOW, true)?;
    rt.enable_online(OnlineConfig::default(), ShadowGates::default())
        .map_err(err)?;
    let alt = rt
        .policy_store_mut()
        .ok_or("online learning left no store")?
        .register(alt.checkpoint());
    let attack = common::attack(&home);

    let warm = common::day_stream(&mut rt, &fleet, LEARN_DAYS, QUERY_EVERY, attack, tracer)?;
    let n = warm.envelopes.len();
    let swaps = day_swaps(&warm, alt);
    let served = tracer.span("runtime.serve_online", u64::from(warm.day), || {
        rt.serve_online(warm.envelopes, &swaps)
    });
    if served.map_err(err)?.total_accounted() != n {
        return Err("warm-up day lost events".into());
    }

    let day = common::day_stream(&mut rt, &fleet, LEARN_DAYS + 1, QUERY_EVERY, attack, tracer)?;
    let swaps = day_swaps(&day, alt);
    let injector = ChaosInjector::new(ChaosPlan::periodic_panic(args.seed, PANIC_EVERY, 1))?;
    let segments = day
        .envelopes
        .chunks(SEGMENT)
        .map(|chunk| {
            let (lo, hi) = (chunk[0].seq, chunk[chunk.len() - 1].seq);
            Segment {
                envelopes: chunk.to_vec(),
                chaos: injector.schedule(chunk.iter().map(|e| e.seq).collect::<Vec<_>>()),
                swaps: swaps
                    .iter()
                    .copied()
                    .filter(|s| (lo..=hi).contains(&s.at_seq))
                    .collect(),
            }
        })
        .collect();
    if args.trace {
        common::replay_generation(&fleet, LEARN_DAYS + 2, tracer);
    }
    Ok(Setup {
        home,
        rt,
        day,
        swaps,
        segments,
        episodes,
        entries,
    })
}

/// What the traced phase saw, summed over its passes.
#[derive(Debug, Default)]
struct Traced {
    events: u64,
    decisions: u64,
    alarms: u64,
    checkpoints: u64,
    restarts: u64,
    replayed: u64,
    fallback: u64,
    wal_records: u64,
    folds: u64,
    admitted: u64,
    swaps: u64,
}

fn online_counters(rt: &ServingRuntime) -> (u64, u64) {
    (0..u64::from(HOMES))
        .filter_map(|id| rt.slot(id).and_then(|s| s.online()))
        .fold((0, 0), |(f, a), o| (f + o.folds, a + o.admitted))
}

pub fn run(
    args: &Args,
    start_ns: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (
        Setup {
            home,
            mut rt,
            day,
            swaps,
            segments,
            episodes,
            entries,
        },
        setup_s,
    ) = common::repeat_setup(args, start_ns, tracer, |tracer| setup(args, tracer))?;
    let sup = SupervisorConfig::default();

    let mut snap0: Option<RuntimeSnapshot> = None;
    let mut digest0: Option<u64> = None;
    let mut first_pass: Vec<Outcome> = Vec::new();
    let mut tally = Tally::default();
    let mut latencies = BlockPercentiles::new(0.99);
    let mut recovery = BlockPercentiles::new(0.90);
    let mut traced = Traced::default();
    let (mut events, mut unaccounted, mut diverged, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut before = (0, 0, 0);
    // Enough passes for one block of recoveries with 10 beyond p90, however
    // slow the supervised path gets.
    let fires: usize = segments.iter().map(|s| s.chaos.len()).sum();
    let min_passes = 120usize.div_ceil(fires.max(1));
    let timed = common::drive(
        args,
        segments.len(),
        min_passes,
        tracer,
        |tracer, u, _pass| {
            if u == 0 {
                match &snap0 {
                    None => snap0 = Some(tracer.span("runtime.snapshot", 0, || rt.snapshot())),
                    Some(snap) => tracer
                        .span("runtime.restore", 0, || rt.restore(snap))
                        .map_err(err)?,
                }
                outcomes.clear();
                let (folds, admitted) = online_counters(&rt);
                let swaps_done = rt.policy_store().map_or(0, |s| s.swaps().len() as u64);
                before = (folds, admitted, swaps_done);
            }
            let seg = &segments[u];
            let envelopes = seg.envelopes.clone();
            let n = envelopes.len() as u64;
            let t0 = monotonic_ns();
            let served = tracer.span(
                "runtime.serve_online_supervised",
                u64::from(day.day),
                || rt.serve_online_supervised(envelopes, &sup, Some(&seg.chaos), &seg.swaps),
            );
            let ns = monotonic_ns() - t0;
            let rep = served.map_err(err)?;
            events += n;
            unaccounted += n - rep.report.total_accounted() as u64;
            degraded += rep.recovery.fallback_decisions + rep.recovery.degraded_shards.len() as u64;
            latencies.extend(&rep.report.latencies_ns);
            recovery.extend(&rep.recovery.recovery_ns);
            if tracer.is_on() {
                traced.events += n;
                traced.decisions += rep.report.decisions() as u64;
                traced.alarms += common::alarms(&rep.report.outcomes);
                traced.checkpoints += rep.recovery.checkpoints;
                traced.restarts += rep.recovery.restarts.len() as u64;
                traced.replayed += rep
                    .recovery
                    .restarts
                    .iter()
                    .map(|r| r.replayed as u64)
                    .sum::<u64>();
                traced.fallback += rep.recovery.fallback_decisions;
                traced.wal_records += rep.wals.iter().map(|w| w.records.len() as u64).sum::<u64>();
            }
            outcomes.extend(rep.report.outcomes);
            if u + 1 == segments.len() {
                latencies.end_pass();
                recovery.end_pass();
                let d = common::digest(&outcomes);
                match digest0 {
                    None => {
                        digest0 = Some(d);
                        tally.add(&outcomes, &day.injected);
                        first_pass = std::mem::take(&mut outcomes);
                    }
                    Some(want) if want != d => diverged += day.envelopes.len() as u64,
                    Some(_) => {}
                }
                if tracer.is_on() {
                    let (folds, admitted) = online_counters(&rt);
                    let swaps_done = rt.policy_store().map_or(0, |s| s.swaps().len() as u64);
                    traced.folds += folds - before.0;
                    traced.admitted += admitted - before.1;
                    traced.swaps += swaps_done - before.2;
                }
            }
            Ok(ns)
        },
    )?;
    let snap0 = snap0.ok_or("no pass ran")?;
    let digest0 = digest0.ok_or("no full pass ran")?;

    report.attempted = events;
    report.check(unaccounted, || {
        format!("{unaccounted} submitted events neither served nor rejected")
    });
    report.check(diverged, || {
        format!("{diverged} events served differently on a repeated pass")
    });
    report.check(degraded, || {
        format!("{degraded} degraded shards or fallback decisions")
    });
    tally.check(report);
    // The oracle: the same day from the same snapshot through unsupervised
    // `serve_online` with the same swaps must give the same outcomes.
    rt.restore(&snap0).map_err(err)?;
    let oracle = rt
        .serve_online(day.envelopes.clone(), &swaps)
        .map_err(err)?;
    let oracle_bad =
        u64::from(common::digest(&oracle.outcomes) != digest0) * day.envelopes.len() as u64;
    report.check(oracle_bad, || {
        "supervised outcomes differ from the serve_online oracle".into()
    });
    let after_day = rt.snapshot();

    if args.trace {
        tracer.set_on(true);
        common::report_trace(tracer, &timed, report);
        let served = tracer.seconds_under("runtime.serve_online_supervised", "bench.workload");
        let (f64_ns, f1_ns) = common::replay_forward(&rt, tracer)?;
        // Online folds may admit pairs mid-day; compare only homes whose
        // table the day left unchanged.
        let changed = |h: u64| {
            let h = h as usize;
            snap0.homes[h].table != after_day.homes[h].table
        };
        let replayed = common::replay_monitor(&home, &snap0, &day.envelopes, tracer)?;
        let bad = common::verdict_mismatches(&replayed, &first_pass, changed);
        report.check(bad, || {
            format!("{bad} replayed monitor verdicts differ from the runtime's")
        });
        let snap = tracer.span("runtime.snapshot", 0, || rt.snapshot());
        let snap_bytes = jarvis_stdkit::json::ToJson::to_json(&snap).len();
        let stall_us = swap_stall_us(&mut rt)?;
        common::layers_common(report, tracer, episodes, entries);
        report.layer(
            "policy.monitor_checks",
            tracer.calls("policy.monitor") as f64,
        );
        report.layer("policy.monitor_ns", tracer.ns_per_call("policy.monitor"));
        report.layer("policy.benign_alarm_rate", tally.benign_alarm_rate());
        report.layer(
            "iot-model.fsm_step_ns",
            tracer.ns_per_call("iot-model.fsm_step"),
        );
        report.layer("rl.forward_rows", traced.decisions as f64);
        report.layer("rl.forward64_ns_per_row", f64_ns);
        report.layer("rl.forward1_ns", f1_ns);
        report.layer("runtime.envelopes", traced.events as f64);
        report.layer("runtime.serve_s", served);
        report.layer(
            "runtime.serve_ns_per_event",
            served * 1e9 / traced.events.max(1) as f64,
        );
        report.layer("runtime.decisions", traced.decisions as f64);
        report.layer("runtime.alarms", traced.alarms as f64);
        report.layer(
            "runtime.forward_share",
            traced.decisions as f64 * f64_ns / (served * 1e9),
        );
        report.layer("runtime.snapshot_bytes", snap_bytes as f64);
        report.layer("supervisor.checkpoints", traced.checkpoints as f64);
        report.layer("supervisor.restarts", traced.restarts as f64);
        report.layer("supervisor.replayed", traced.replayed as f64);
        report.layer(
            "supervisor.replayed_per_restart",
            traced.replayed as f64 / traced.restarts.max(1) as f64,
        );
        report.layer("supervisor.fallback_decisions", traced.fallback as f64);
        let (r50, r90) = recovery.medians().ok_or("too few recoveries for p90")?;
        report.layer("supervisor.recovery_p50_ms", r50 / 1e6);
        report.layer("supervisor.recovery_p90_ms", r90 / 1e6);
        report.layer("wal.records", traced.wal_records as f64);
        report.layer("online.folds", traced.folds as f64);
        report.layer("online.admitted", traced.admitted as f64);
        report.layer("policy_store.swaps", traced.swaps as f64);
        report.layer("online.swap_stall_us", stall_us);
    } else {
        let events_total = day.envelopes.len() as f64;
        report.metric("setup_s", setup_s, "s");
        report.metric("events_per_s", events_total / timed.a.median_total(), "1/s");
        let (p50, p99) = latencies.medians().ok_or("too few decisions for p99")?;
        report.metric("latency_p50_ms", p50 / 1e6, "ms");
        report.metric("latency_tail_ms", p99 / 1e6, "ms");
        println!(
            "guard: {} passes in {:.1} s, {} blocks of recoveries, {} injected violations \
             (detection rate {}), {} benign actions (alarm rate {:.4})",
            latencies.blocks(),
            timed.loop_s,
            recovery.blocks(),
            tally.injected,
            tally.detection_rate(),
            tally.benign_actions,
            tally.benign_alarm_rate()
        );
    }
    Ok(())
}

/// Median stall of a policy swap on an empty segment (32 swaps), as the
/// runtime's own throughput bench measures it: `serve_online` with no
/// envelopes does exactly the swap work.
fn swap_stall_us(rt: &mut ServingRuntime) -> Result<f64, String> {
    let version = rt.policy_store().ok_or("no policy store")?.active();
    let next = rt.snapshot().next_seq;
    let mut stalls = Vec::new();
    for i in 0..32 {
        let plan = [SwapPoint {
            at_seq: next + i,
            version,
        }];
        let t0 = monotonic_ns();
        rt.serve_online(Vec::new(), &plan).map_err(err)?;
        stalls.push((monotonic_ns() - t0) as f64 / 1e3);
    }
    Ok(median(&stalls))
}
