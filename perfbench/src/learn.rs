//! `learn`: one home through Algorithm 2 at the paper's default
//! `OptimizerConfig` (20 episodes, 64×64 DQN, replay every 8), planned
//! with `Jarvis::optimize_days` day by day. Set-up is Algorithm 1 with the
//! ANN benign-anomaly filter. DQN replay, backprop and environment
//! stepping carry the time; serving carries none.
//!
//! Its events are the environment steps Algorithm 2 takes (every training
//! episode and the greedy rollout walk the whole day), and its latency is
//! that of planning one day: the median over the planned days of each
//! day's median `optimize_days` time, and the slowest day as the tail.

use jarvis::{DayPlan, DayScenario, HomeRlEnv, Jarvis, JarvisConfig, Optimizer, SmartReward};
use jarvis_rl::{Environment, Experience};
use jarvis_sim::{FleetGenerator, HomeDataset};
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::bench::monotonic_ns;

use crate::common::{self, err, LEARN_DAYS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Report};

/// Distinct days each pass plans (the days right after the learning
/// phase). Plan time varies by day, so the latencies are taken over these.
const PLAN_DAYS: u32 = 3;

struct Setup {
    home: SmartHome,
    data: HomeDataset,
    jarvis: Jarvis,
    episodes: usize,
}

fn setup(args: &Args, tracer: &mut Tracer) -> Result<Setup, String> {
    let home = SmartHome::evaluation_home();
    let fleet = FleetGenerator::new(args.seed, 1);
    let data = fleet.dataset(0);
    let mut jarvis = Jarvis::new(home.clone(), JarvisConfig::default());
    let episodes = tracer
        .span("core.learning_phase", 0, || {
            jarvis.learning_phase(&data, 0..LEARN_DAYS)
        })
        .map_err(err)?;
    tracer
        .span("core.filter_train", 0, || jarvis.train_filter(args.seed))
        .map_err(err)?;
    tracer
        .span("policy.spl", 0, || jarvis.learn_policies())
        .map_err(err)?;
    if args.trace {
        common::replay_generation(&fleet, LEARN_DAYS + PLAN_DAYS, tracer);
    }
    Ok(Setup {
        home,
        data,
        jarvis,
        episodes,
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
            data,
            jarvis,
            episodes,
        },
        setup_s,
    ) = common::repeat_setup(args, start_ns, tracer, |tracer| setup(args, tracer))?;

    // Environment steps per episode of each planned day.
    let day_steps: Vec<u64> = (0..PLAN_DAYS)
        .map(|u| {
            u64::from(
                DayScenario::from_dataset(&home, &data, LEARN_DAYS + u)
                    .config()
                    .steps(),
            )
        })
        .collect();
    let mut first: Vec<DayPlan> = Vec::new();
    let mut pass_events = 0u64;
    let (mut plans, mut unsafe_plans, mut diverged, mut traced_plans) = (0u64, 0u64, 0u64, 0u64);
    let timed = common::drive(args, PLAN_DAYS as usize, 1, tracer, |tracer, u, pass| {
        let day = LEARN_DAYS + u as u32;
        let t0 = monotonic_ns();
        let planned = tracer.span("core.optimize", u64::from(day), || {
            jarvis.optimize_days(&data, day..day + 1)
        });
        let ns = monotonic_ns() - t0;
        let plan = planned
            .map_err(err)?
            .pop()
            .ok_or("optimize_days planned no day")?;
        plans += 1;
        unsafe_plans += u64::from(plan.optimized.violations > 0);
        if tracer.is_on() {
            traced_plans += 1;
        }
        if pass == 0 {
            // Every training episode and the rollout step through the day.
            pass_events += day_steps[u] * (plan.stats.episode_rewards.len() as u64 + 1);
            first.push(plan);
        } else if format!("{:?}", first[u]) != format!("{plan:?}") {
            diverged += 1;
        }
        Ok(ns)
    })?;

    report.attempted = plans;
    report.check(unsafe_plans, || {
        format!("{unsafe_plans} planned days broke P_safe (the constrained agent must make 0 violations)")
    });
    report.check(diverged, || {
        format!("{diverged} repeated plans differ from the first")
    });

    if args.trace {
        tracer.set_on(true);
        common::report_trace(tracer, &timed, report);
        let outcome = jarvis.outcome().ok_or("no SPL outcome")?;
        let (cost, normal) = first.iter().fold((0.0, 0.0), |(c, n), p| {
            (c + p.optimized.cost_usd, n + p.normal.cost_usd)
        });
        let violations: u32 = first.iter().map(|p| p.optimized.violations).sum();
        let episode = replay_training_episode(&home, &data, &jarvis, tracer)?;
        let optimizer = jarvis.config().optimizer.clone();
        let per_plan_steps = episode.steps * (optimizer.episodes as u64 + 1);
        let per_plan_replays =
            episode.steps / optimizer.replay_every.max(1) as u64 * optimizer.episodes as u64;
        report.layer("sim.generate_s", tracer.seconds("sim.generate"));
        report.layer(
            "core.learning_phase_s",
            tracer.seconds("core.learning_phase"),
        );
        report.layer("core.episodes", episodes as f64);
        report.layer("core.filter_train_s", tracer.seconds("core.filter_train"));
        report.layer("policy.spl_s", tracer.seconds("policy.spl"));
        report.layer("policy.table_entries", outcome.table.len() as f64);
        report.layer(
            "core.optimize_s",
            tracer.seconds_under("core.optimize", "bench.workload"),
        );
        report.layer("core.plans", traced_plans as f64);
        report.layer("core.plan_cost_ratio", cost / normal);
        report.layer("core.rollout_violations", f64::from(violations));
        report.layer("core.env_steps", (per_plan_steps * traced_plans) as f64);
        report.layer("core.env_step_ns", episode.step_ns);
        report.layer("rl.replays", (per_plan_replays * traced_plans) as f64);
        report.layer("rl.replay_us", episode.replay_us);
        report.layer("rl.act_us", episode.act_us);
    } else {
        let day_s = timed.a.unit_medians();
        let slowest = day_s.iter().copied().fold(0.0, f64::max);
        report.metric("setup_s", setup_s, "s");
        report.metric(
            "events_per_s",
            pass_events as f64 / timed.a.median_total(),
            "1/s",
        );
        report.metric("latency_p50_ms", median(&day_s) * 1e3, "ms");
        report.metric("latency_tail_ms", slowest * 1e3, "ms");
        println!(
            "learn: {plans} days planned in {:.1} s, {pass_events} environment steps per pass",
            timed.loop_s
        );
    }
    Ok(())
}

/// Per-call costs of one Algorithm 2 training episode.
struct EpisodeCosts {
    steps: u64,
    step_ns: f64,
    act_us: f64,
    replay_us: f64,
}

/// Component replay of the optimizer's inner loop on the first planned
/// day: the same environment `optimize_days` builds, an agent at the
/// optimizer's shape, and one episode of `DqnAgent::act`,
/// `HomeRlEnv::step` and `DqnAgent::replay` every `replay_every` steps,
/// each call timed.
fn replay_training_episode(
    home: &SmartHome,
    data: &HomeDataset,
    jarvis: &Jarvis,
    tracer: &mut Tracer,
) -> Result<EpisodeCosts, String> {
    let config = jarvis.config();
    let outcome = jarvis.outcome().ok_or("no SPL outcome")?;
    let scenario = DayScenario::from_dataset(home, data, LEARN_DAYS);
    let mut reward = SmartReward::evaluation(
        config.weights,
        scenario.peak_price(),
        outcome.behavior.clone(),
        config.episode,
        home.fsm().num_devices(),
    );
    reward.set_chi(config.chi);
    let mut env = HomeRlEnv::new(home, &scenario, &reward)
        .constrained(&outcome.table, config.constraint_mode)
        .with_detector(&outcome.table, config.constraint_mode);
    let mut agent = Optimizer::new(&env, config.optimizer.clone())
        .map_err(err)?
        .agent()
        .clone();
    let replay_every = config.optimizer.replay_every.max(1) as u64;

    let open = tracer.enter("core.episode_replay", u64::from(LEARN_DAYS));
    let (mut act_ns, mut step_ns, mut replay_ns) = (0u64, 0u64, 0u64);
    let (mut steps, mut replays) = (0u64, 0u64);
    let mut obs = env.reset();
    loop {
        let valid = env.valid_actions();
        let t0 = monotonic_ns();
        let action = agent.act(&obs, &valid).map_err(err)?;
        let t1 = monotonic_ns();
        let step = env.step(action);
        let t2 = monotonic_ns();
        act_ns += t1 - t0;
        step_ns += t2 - t1;
        let next_valid = env.valid_actions();
        agent.remember(Experience {
            state: obs,
            action,
            reward: step.reward,
            next: step.obs.clone(),
            next_valid,
            done: step.done,
        });
        steps += 1;
        if steps % replay_every == 0 {
            let t0 = monotonic_ns();
            let trained = agent.replay().map_err(err)?;
            replay_ns += monotonic_ns() - t0;
            replays += u64::from(trained.is_some());
        }
        obs = step.obs;
        if step.done {
            break;
        }
    }
    tracer.exit_calls(open, steps);
    Ok(EpisodeCosts {
        steps,
        step_ns: step_ns as f64 / steps.max(1) as f64,
        act_us: act_ns as f64 / 1e3 / steps.max(1) as f64,
        replay_us: replay_ns as f64 / 1e3 / replays.max(1) as f64,
    })
}
