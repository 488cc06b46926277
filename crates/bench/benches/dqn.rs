//! Kernel benchmark: Algorithm 2's inner loop — environment steps, ε-greedy
//! action selection, and experience replay through the DNN.

use jarvis_stdkit::bench::{BatchSize, Bench};
use jarvis_stdkit::{bench_group, bench_main};
use jarvis::{DayScenario, HomeRlEnv, RewardWeights, SmartReward};
use jarvis_policy::TaBehavior;
use jarvis_rl::{DqnAgent, DqnConfig, EpsilonSchedule, Environment, Experience};
use jarvis_sim::HomeDataset;
use jarvis_smart_home::SmartHome;

fn bench_dqn(c: &mut Bench) {
    let home = SmartHome::evaluation_home();
    let data = HomeDataset::home_a(42);
    let scenario = DayScenario::from_dataset(&home, &data, 2);
    let reward = SmartReward::evaluation(
        RewardWeights::balanced(),
        scenario.peak_price(),
        TaBehavior::new(),
        scenario.config(),
        home.fsm().num_devices(),
    );

    c.bench_function("dqn/env_step_noop", |b| {
        let mut env = HomeRlEnv::new(&home, &scenario, &reward);
        env.reset();
        b.iter(|| {
            let s = env.step(0);
            if s.done {
                env.reset();
            }
            s.reward
        })
    });

    c.bench_function("dqn/env_full_episode_1440", |b| {
        let mut env = HomeRlEnv::new(&home, &scenario, &reward);
        b.iter(|| {
            env.reset();
            let mut total = 0.0;
            for _ in 0..1440 {
                total += env.step(0).reward;
            }
            total
        })
    });

    let env = HomeRlEnv::new(&home, &scenario, &reward);
    let mk_agent = || DqnAgent::new(DqnConfig::new(env.state_dim(), env.num_actions())).unwrap();

    c.bench_function("dqn/act_epsilon_greedy", |b| {
        let mut agent = mk_agent();
        let obs = env.observe();
        let valid = env.valid_actions();
        b.iter(|| agent.act(std::hint::black_box(&obs), &valid).unwrap())
    });

    // A fresh agent sits at ε = 1.0, so the row above times the random
    // branch only; at ε = 0 every call runs the greedy forward.
    c.bench_function("dqn/act_greedy", |b| {
        let mut cfg = DqnConfig::new(env.state_dim(), env.num_actions());
        cfg.schedule = EpsilonSchedule::new(0.0, 0.0, 1.0, f64::INFINITY);
        let mut agent = DqnAgent::new(cfg).unwrap();
        let obs = env.observe();
        let valid = env.valid_actions();
        b.iter(|| agent.act(std::hint::black_box(&obs), &valid).unwrap())
    });

    c.bench_function("dqn/replay_batch32", |b| {
        b.iter_batched(
            || {
                let mut agent = mk_agent();
                let obs = env.observe();
                for i in 0..64 {
                    agent.remember(Experience {
                        state: obs.clone(),
                        action: i % env.num_actions(),
                        reward: 0.5,
                        next: obs.clone(),
                        next_valid: (0..env.num_actions()).collect(),
                        done: false,
                    });
                }
                agent
            },
            |mut agent| agent.replay().unwrap(),
            BatchSize::SmallInput,
        )
    });
}

bench_group!(benches, bench_dqn);
bench_main!(benches);
