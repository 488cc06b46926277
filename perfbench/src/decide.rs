//! `decide`: a decision-heavy fleet replay through plain
//! `ServingRuntime::serve` — 64 homes on one shard, batch window 64, f64
//! policy, a decision query every 2 minutes per home (about 85% of the
//! events), engineered violations spliced in. The batched forward, the
//! `Max(Q, c)` rank walk and the per-query valid set do most of the work;
//! WAL, online learning and training are absent.

use jarvis_policy::SafeTransitionTable;
use jarvis_runtime::{Outcome, RuntimeSnapshot, ServingRuntime};
use jarvis_sim::FleetGenerator;
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::bench::monotonic_ns;

use crate::common::{self, err, DayStream, Tally, BATCH_WINDOW, HOMES, LEARN_DAYS};
use crate::stats::BlockPercentiles;
use crate::trace::Tracer;
use crate::{Args, Report};

/// One decision query per home every this many minutes.
const QUERY_EVERY: u32 = 2;
/// Distinct fleet-days each pass serves (after one warm-up day).
const DAYS: u32 = 2;
/// Envelopes of the first served day replayed at `batch_window = 1`.
const SLICE: usize = 16_384;

struct Setup {
    home: SmartHome,
    rt: ServingRuntime,
    days: Vec<DayStream>,
    episodes: usize,
    entries: usize,
}

fn setup(args: &Args, tracer: &mut Tracer) -> Result<Setup, String> {
    let home = SmartHome::evaluation_home();
    let fleet = FleetGenerator::new(args.seed, HOMES);
    let (tables, episodes, entries) = common::learn_fleet_tables(&home, &fleet, tracer)?;
    let policy = common::fleet_policy(&home, args.seed)?;
    let mut rt = common::build_runtime(&home, policy, &tables, BATCH_WINDOW, true)?;
    let attack = common::attack(&home);
    let warm = common::day_stream(&mut rt, &fleet, LEARN_DAYS, QUERY_EVERY, attack, tracer)?;
    let n = warm.envelopes.len();
    let served = tracer.span("runtime.serve", u64::from(warm.day), || {
        rt.serve(warm.envelopes)
    });
    if served.map_err(err)?.total_accounted() != n {
        return Err("warm-up day lost events".into());
    }
    let mut days = Vec::new();
    for day in LEARN_DAYS + 1..=LEARN_DAYS + DAYS {
        days.push(common::day_stream(
            &mut rt,
            &fleet,
            day,
            QUERY_EVERY,
            attack,
            tracer,
        )?);
    }
    if args.trace {
        common::replay_generation(&fleet, LEARN_DAYS + 1 + DAYS, tracer);
    }
    Ok(Setup {
        home,
        rt,
        days,
        episodes,
        entries,
    })
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
            days,
            episodes,
            entries,
        },
        setup_s,
    ) = common::repeat_setup(args, start_ns, tracer, |tracer| setup(args, tracer))?;

    let mut snap0: Option<RuntimeSnapshot> = None;
    let mut digests: Vec<u64> = Vec::new();
    let mut first_day: Vec<Outcome> = Vec::new();
    let mut tally = Tally::default();
    let mut latencies = BlockPercentiles::new(0.99);
    let (mut events, mut traced_events, mut traced_decisions, mut traced_alarms) = (0u64, 0, 0, 0);
    let mut unaccounted = 0u64;
    let mut diverged = 0u64;
    let timed = common::drive(args, days.len(), 1, tracer, |tracer, u, pass| {
        if u == 0 {
            match &snap0 {
                None => snap0 = Some(tracer.span("runtime.snapshot", 0, || rt.snapshot())),
                Some(snap) => tracer
                    .span("runtime.restore", 0, || rt.restore(snap))
                    .map_err(err)?,
            }
        }
        let day = &days[u];
        let envelopes = day.envelopes.clone();
        let n = envelopes.len() as u64;
        let t0 = monotonic_ns();
        let served = tracer.span("runtime.serve", u64::from(day.day), || rt.serve(envelopes));
        let ns = monotonic_ns() - t0;
        let rep = served.map_err(err)?;
        events += n;
        unaccounted += n - rep.total_accounted() as u64;
        latencies.extend(&rep.latencies_ns);
        if u + 1 == days.len() {
            latencies.end_pass();
        }
        if tracer.is_on() {
            traced_events += n;
            traced_decisions += rep.decisions() as u64;
            traced_alarms += common::alarms(&rep.outcomes);
        }
        let d = common::digest(&rep.outcomes);
        if pass == 0 {
            digests.push(d);
            tally.add(&rep.outcomes, &day.injected);
            if u == 0 {
                first_day = rep.outcomes;
            }
        } else if digests[u] != d {
            diverged += n;
        }
        Ok(ns)
    })?;
    let snap0 = snap0.ok_or("no pass ran")?;

    report.attempted = events;
    report.check(unaccounted, || {
        format!("{unaccounted} submitted events neither served nor rejected")
    });
    report.check(diverged, || {
        format!("{diverged} events served differently on a repeated pass")
    });
    tally.check(report);
    let mismatched = batch1_mismatches(&home, &rt, &snap0, &days[0], &first_day)?;
    report.check(mismatched, || {
        format!("{mismatched} outcomes of the batch-1 replay differ from batch-64 serving")
    });

    if args.trace {
        tracer.set_on(true);
        common::report_trace(tracer, &timed, report);
        let served = tracer.seconds_under("runtime.serve", "bench.workload");
        let (f64_ns, f1_ns) = common::replay_forward(&rt, tracer)?;
        let replayed = common::replay_monitor(&home, &snap0, &days[0].envelopes, tracer)?;
        let bad = common::verdict_mismatches(&replayed, &first_day, |_| false);
        report.check(bad, || {
            format!("{bad} replayed monitor verdicts differ from the runtime's")
        });
        let snap = tracer.span("runtime.snapshot", 0, || rt.snapshot());
        let snap_bytes = jarvis_stdkit::json::ToJson::to_json(&snap).len();
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
        report.layer("rl.forward_rows", traced_decisions as f64);
        report.layer("rl.forward64_ns_per_row", f64_ns);
        report.layer("rl.forward1_ns", f1_ns);
        report.layer("runtime.envelopes", traced_events as f64);
        report.layer("runtime.serve_s", served);
        report.layer(
            "runtime.serve_ns_per_event",
            served * 1e9 / traced_events.max(1) as f64,
        );
        report.layer("runtime.decisions", traced_decisions as f64);
        report.layer("runtime.alarms", traced_alarms as f64);
        report.layer(
            "runtime.forward_share",
            traced_decisions as f64 * f64_ns / (served * 1e9),
        );
        report.layer("runtime.snapshot_bytes", snap_bytes as f64);
    } else {
        let events_total: u64 = days.iter().map(|d| d.envelopes.len() as u64).sum();
        report.metric("setup_s", setup_s, "s");
        report.metric(
            "events_per_s",
            events_total as f64 / timed.a.median_total(),
            "1/s",
        );
        let (p50, p99) = latencies.medians().ok_or("too few decisions for p99")?;
        report.metric("latency_p50_ms", p50 / 1e6, "ms");
        report.metric("latency_tail_ms", p99 / 1e6, "ms");
        println!(
            "decide: {} passes in {:.1} s over {} events, {} injected violations \
             (detection rate {}), {} benign actions (alarm rate {:.4})",
            latencies.blocks(),
            timed.loop_s,
            events_total,
            tally.injected,
            tally.detection_rate(),
            tally.benign_actions,
            tally.benign_alarm_rate()
        );
    }
    Ok(())
}

/// Replay the first `SLICE` envelopes of the first served day from the
/// same snapshot with `batch_window = 1` and count outcomes that differ
/// from the batch-64 run in any bit.
fn batch1_mismatches(
    home: &SmartHome,
    rt: &ServingRuntime,
    snap0: &RuntimeSnapshot,
    day: &DayStream,
    batched: &[Outcome],
) -> Result<u64, String> {
    let blank = vec![SafeTransitionTable::new(); HOMES as usize];
    let mut single = common::build_runtime(home, rt.policy().clone(), &blank, 1, false)?;
    single.restore(snap0).map_err(err)?;
    let slice: Vec<_> = day.envelopes.iter().take(SLICE).cloned().collect();
    let n = slice.len();
    let rep = single.serve(slice).map_err(err)?;
    let mut bad = (n - rep.outcomes.len().min(n)) as u64;
    for (got, want) in rep.outcomes.iter().zip(batched) {
        if format!("{got:?}") != format!("{want:?}") {
            bad += 1;
        }
    }
    Ok(bad)
}
