//! Algorithm 2: the constrained deep-Q optimizer.
//!
//! The agent explores the simulated RF environment over `EP` episodes,
//! balancing exploration and exploitation by `ε`, constrained at each step
//! by the safe-transition table (which the environment exposes as its
//! `valid_actions`), replaying random batches of prior experience through
//! the DNN, and decaying `ε` once the replay loss reaches the preferable
//! level.

use crate::env::HomeRlEnv;
use crate::error::JarvisError;
use jarvis_rl::{
    DqnAgent, DqnCheckpoint, DqnConfig, Environment, EpsilonSchedule, Experience, Parallelism,
};
use jarvis_stdkit::json::{FromJson, ToJson};
use jarvis_stdkit::json_struct;
use crate::analysis::DayMetrics;

/// Configuration of the optimizer run (the inputs of Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Maximum episodes `EP`.
    pub episodes: usize,
    /// DNN hidden layers (the prototype uses two).
    pub hidden: Vec<usize>,
    /// Learning rate (the prototype uses 0.001).
    pub learning_rate: f64,
    /// Discount rate `γ`.
    pub gamma: f64,
    /// Batch size `BSize`.
    pub batch_size: usize,
    /// Replay-memory capacity.
    pub replay_capacity: usize,
    /// Exploration schedule `(ε, ε_min, ε_decay, L_p)`.
    pub schedule: EpsilonSchedule,
    /// Run a replay every this many environment steps (1 = every step as in
    /// Algorithm 2; larger values trade fidelity for speed).
    pub replay_every: usize,
    /// RNG seed.
    pub seed: u64,
    /// Kernel worker fan-out for the DNN (`JARVIS_THREADS` honoured under
    /// [`Parallelism::Auto`]). Bit-identical results at every setting.
    pub parallelism: Parallelism,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            episodes: 20,
            hidden: vec![64, 64],
            learning_rate: 0.001,
            gamma: 0.95,
            batch_size: 32,
            replay_capacity: 20_000,
            schedule: EpsilonSchedule::new(1.0, 0.05, 0.9, f64::INFINITY),
            replay_every: 8,
            seed: 0,
            parallelism: Parallelism::Single,
        }
    }
}

json_struct!(OptimizerConfig {
    episodes,
    hidden,
    learning_rate,
    gamma,
    batch_size,
    replay_capacity,
    schedule,
    replay_every,
    seed,
    parallelism,
});

impl OptimizerConfig {
    /// A lightweight configuration for tests and examples: fewer episodes,
    /// a smaller network, sparser replay.
    #[must_use]
    pub fn fast() -> Self {
        OptimizerConfig {
            episodes: 4,
            hidden: vec![32],
            learning_rate: 0.005,
            replay_every: 32,
            ..OptimizerConfig::default()
        }
    }
}

/// Per-episode training telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingStats {
    /// Total smart reward of each training episode.
    pub episode_rewards: Vec<f64>,
    /// Safety violations committed in each training episode (nonzero only
    /// for unconstrained agents with a detector attached).
    pub episode_violations: Vec<u32>,
    /// Mean replay loss of each episode (`None` until the memory fills).
    pub episode_losses: Vec<Option<f64>>,
    /// Exploration rate after training.
    pub final_epsilon: f64,
}

json_struct!(TrainingStats {
    episode_rewards,
    episode_violations,
    episode_losses,
    final_epsilon,
});

impl TrainingStats {
    /// Append another run's telemetry (used when a checkpointed run resumes
    /// and continues training).
    pub fn merge(&mut self, other: &TrainingStats) {
        self.episode_rewards.extend_from_slice(&other.episode_rewards);
        self.episode_violations.extend_from_slice(&other.episode_violations);
        self.episode_losses.extend_from_slice(&other.episode_losses);
        self.final_epsilon = other.final_epsilon;
    }

    /// Reward of the best training episode.
    #[must_use]
    pub fn best_reward(&self) -> f64 {
        self.episode_rewards.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean violations per episode — the headline number of Figure 9.
    #[must_use]
    pub fn mean_violations(&self) -> f64 {
        if self.episode_violations.is_empty() {
            return 0.0;
        }
        self.episode_violations.iter().map(|&v| f64::from(v)).sum::<f64>()
            / self.episode_violations.len() as f64
    }
}

/// A periodic training checkpoint: everything needed to resume Algorithm 2
/// bit-identically after a crash — the full agent state (network, target,
/// replay memory, ε-schedule, RNG stream position) plus the run's config
/// and telemetry so far.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerCheckpoint {
    /// The optimizer configuration of the interrupted run.
    pub config: OptimizerConfig,
    /// The complete DQN agent state.
    pub agent: DqnCheckpoint,
    /// Episodes completed when the checkpoint was taken.
    pub episodes_done: usize,
    /// Telemetry accumulated up to the checkpoint.
    pub stats: TrainingStats,
}

json_struct!(OptimizerCheckpoint { config, agent, episodes_done, stats });

/// The Algorithm 2 driver: a DQN agent trained on a [`HomeRlEnv`].
#[derive(Debug, Clone)]
pub struct Optimizer {
    agent: DqnAgent,
    config: OptimizerConfig,
}

impl Optimizer {
    /// Build an optimizer sized for `env`.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Neural`] when the network configuration is
    /// invalid.
    pub fn new(env: &HomeRlEnv<'_>, config: OptimizerConfig) -> Result<Self, JarvisError> {
        let dqn = DqnConfig {
            state_dim: env.state_dim(),
            num_actions: env.num_actions(),
            hidden: config.hidden.clone(),
            learning_rate: config.learning_rate,
            gamma: config.gamma,
            replay_capacity: config.replay_capacity,
            batch_size: config.batch_size,
            schedule: config.schedule,
            target_sync_every: None,
            double_dqn: false,
            seed: config.seed,
            parallelism: config.parallelism,
        };
        Ok(Optimizer { agent: DqnAgent::new(dqn)?, config })
    }

    /// The trained agent.
    #[must_use]
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Run `EP` training episodes on `env` (Algorithm 2's outer loop).
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Neural`] if the network rejects a batch
    /// (indicating an observation-dimension bug).
    pub fn train(&mut self, env: &mut HomeRlEnv<'_>) -> Result<TrainingStats, JarvisError> {
        let episodes = self.config.episodes;
        self.train_episodes(env, episodes)
    }

    /// Run exactly `episodes` training episodes on `env` — the resumable
    /// unit of Algorithm 2's outer loop.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Neural`] if the network rejects a batch
    /// (indicating an observation-dimension bug).
    pub fn train_episodes(
        &mut self,
        env: &mut HomeRlEnv<'_>,
        episodes: usize,
    ) -> Result<TrainingStats, JarvisError> {
        let mut stats = TrainingStats::default();
        for _ep in 0..episodes {
            let mut obs = env.reset();
            // The valid set is a pure function of the state, so the set
            // probed after a step is the next step's `valid`.
            let mut valid = env.valid_actions();
            let mut losses = Vec::new();
            let mut step_count = 0usize;
            loop {
                let action = self.agent.act(&obs, &valid)?;
                let step = env.step(action);
                let next_valid = env.valid_actions();
                self.agent.remember(Experience {
                    state: obs,
                    action,
                    reward: step.reward,
                    next: step.obs.clone(),
                    next_valid: next_valid.clone(),
                    done: step.done,
                });
                step_count += 1;
                if step_count.is_multiple_of(self.config.replay_every.max(1)) {
                    if let Some(loss) = self.agent.replay()? {
                        losses.push(loss);
                    }
                }
                obs = step.obs;
                valid = next_valid;
                if step.done {
                    break;
                }
            }
            let metrics = env.metrics();
            stats.episode_rewards.push(metrics.reward);
            stats.episode_violations.push(metrics.violations);
            stats.episode_losses.push(if losses.is_empty() {
                None
            } else {
                Some(losses.iter().sum::<f64>() / losses.len() as f64)
            });
        }
        stats.final_epsilon = self.agent.epsilon();
        Ok(stats)
    }

    /// Train in chunks of `every` episodes, taking a serialized checkpoint
    /// after each chunk. Returns the merged telemetry and every checkpoint
    /// in order; the last checkpoint holds the final state, so a killed run
    /// resumes from its most recent chunk boundary without divergence.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Neural`] if training fails.
    pub fn train_checkpointed(
        &mut self,
        env: &mut HomeRlEnv<'_>,
        every: usize,
    ) -> Result<(TrainingStats, Vec<String>), JarvisError> {
        let every = every.max(1);
        let mut stats = TrainingStats::default();
        let mut checkpoints = Vec::new();
        let mut done = 0usize;
        while done < self.config.episodes {
            let n = every.min(self.config.episodes - done);
            let chunk = self.train_episodes(env, n)?;
            stats.merge(&chunk);
            done += n;
            checkpoints.push(self.checkpoint(done, &stats));
        }
        Ok((stats, checkpoints))
    }

    /// Serialize the complete training state as a JSON checkpoint.
    #[must_use]
    pub fn checkpoint(&self, episodes_done: usize, stats: &TrainingStats) -> String {
        OptimizerCheckpoint {
            config: self.config.clone(),
            agent: self.agent.checkpoint(),
            episodes_done,
            stats: stats.clone(),
        }
        .to_json()
    }

    /// Restore an optimizer from a [`checkpoint`](Optimizer::checkpoint)
    /// string, validating it against `env`. Returns the optimizer, the
    /// number of episodes already completed, and the telemetry so far; the
    /// caller finishes the run with
    /// [`train_episodes`](Optimizer::train_episodes).
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Checkpoint`] when the JSON is malformed,
    /// the recorded dimensions disagree with `env`, or the agent state is
    /// internally inconsistent.
    pub fn restore(
        env: &HomeRlEnv<'_>,
        json: &str,
    ) -> Result<(Self, usize, TrainingStats), JarvisError> {
        let cp = OptimizerCheckpoint::from_json(json)
            .map_err(|e| JarvisError::Checkpoint(e.to_string()))?;
        if cp.agent.config.state_dim != env.state_dim()
            || cp.agent.config.num_actions != env.num_actions()
        {
            return Err(JarvisError::Checkpoint(format!(
                "checkpoint trained on {}-dim/{}-action env, got {}-dim/{}-action",
                cp.agent.config.state_dim,
                cp.agent.config.num_actions,
                env.state_dim(),
                env.num_actions()
            )));
        }
        let agent = DqnAgent::from_checkpoint(cp.agent)
            .map_err(|e| JarvisError::Checkpoint(e.to_string()))?;
        Ok((Optimizer { agent, config: cp.config }, cp.episodes_done, cp.stats))
    }

    /// Greedy rollout of the learned policy over one episode; returns the
    /// day's metrics.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Neural`] on observation-dimension mismatch.
    pub fn rollout(&self, env: &mut HomeRlEnv<'_>) -> Result<DayMetrics, JarvisError> {
        let mut obs = env.reset();
        loop {
            let valid = env.valid_actions();
            let action = self
                .agent
                .best_action(&obs, &valid)?
                .unwrap_or(0); // the no-op is always valid in practice
            let step = env.step(action);
            obs = step.obs;
            if step.done {
                break;
            }
        }
        Ok(env.metrics())
    }
}

/// A tabular Q-learning baseline over the same environment — the learner
/// the paper's Section V-A-7 argues *against* for large homes, kept here to
/// quantify the mini-action DQN's advantage (`ablation_agents`).
#[derive(Debug, Clone)]
pub struct TabularOptimizer {
    table: jarvis_rl::QTable,
    schedule: jarvis_rl::EpsilonSchedule,
    episodes: usize,
    rng: jarvis_stdkit::rng::ChaCha8Rng,
}

impl TabularOptimizer {
    /// Build a tabular learner for `env` with learning rate `alpha`.
    #[must_use]
    pub fn new(env: &HomeRlEnv<'_>, episodes: usize, alpha: f64, gamma: f64, seed: u64) -> Self {
        use jarvis_stdkit::rng::SeedableRng;
        TabularOptimizer {
            table: jarvis_rl::QTable::new(env.num_actions(), alpha, gamma),
            schedule: jarvis_rl::EpsilonSchedule::new(1.0, 0.05, 0.9, f64::INFINITY),
            episodes,
            rng: jarvis_stdkit::rng::ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Train for the configured number of episodes; returns per-episode
    /// rewards.
    pub fn train(&mut self, env: &mut HomeRlEnv<'_>) -> Vec<f64> {
        use jarvis_rl::DiscreteEnvironment;
        let mut rewards = Vec::with_capacity(self.episodes);
        for _ in 0..self.episodes {
            env.reset();
            loop {
                let s = env.state_id();
                let valid = env.valid_actions();
                let a = self.table.epsilon_greedy(
                    s,
                    &valid,
                    self.schedule.epsilon(),
                    &mut self.rng,
                );
                let step = env.step(a);
                self.table.update(s, a, step.reward, env.state_id(), &env.valid_actions(), step.done);
                if step.done {
                    break;
                }
            }
            self.schedule.decay();
            rewards.push(env.metrics().reward);
        }
        rewards
    }

    /// Greedy rollout of the learned table over one episode.
    pub fn rollout(&self, env: &mut HomeRlEnv<'_>) -> DayMetrics {
        use jarvis_rl::DiscreteEnvironment;
        env.reset();
        loop {
            let valid = env.valid_actions();
            let a = self.table.best_action(env.state_id(), &valid).unwrap_or(0);
            if env.step(a).done {
                break;
            }
        }
        env.metrics()
    }

    /// Number of distinct states the table has visited — the memory cost
    /// the mini-action DQN avoids.
    #[must_use]
    pub fn visited_states(&self) -> usize {
        self.table.num_visited_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::{RewardWeights, SmartReward};
    use crate::scenario::DayScenario;
    use jarvis_policy::TaBehavior;
    use jarvis_sim::HomeDataset;
    use jarvis_smart_home::SmartHome;

    fn fast_setup(day: u32) -> (SmartHome, DayScenario, SmartReward) {
        let home = SmartHome::evaluation_home();
        let data = HomeDataset::home_a(31);
        let scenario = DayScenario::from_dataset(&home, &data, day);
        let reward = SmartReward::evaluation(
            RewardWeights::emphasizing("energy", 0.8),
            scenario.peak_price(),
            TaBehavior::new(),
            scenario.config(),
            home.fsm().num_devices(),
        );
        (home, scenario, reward)
    }

    #[test]
    fn training_runs_and_records_stats() {
        let (home, scenario, reward) = fast_setup(2);
        let mut env = HomeRlEnv::new(&home, &scenario, &reward);
        let mut cfg = OptimizerConfig::fast();
        cfg.episodes = 2;
        let mut opt = Optimizer::new(&env, cfg).unwrap();
        let stats = opt.train(&mut env).unwrap();
        assert_eq!(stats.episode_rewards.len(), 2);
        assert_eq!(stats.episode_violations.len(), 2);
        assert!(stats.final_epsilon < 1.0, "epsilon should decay");
        assert!(stats.best_reward().is_finite());
    }

    #[test]
    fn rollout_produces_full_day_metrics() {
        let (home, scenario, reward) = fast_setup(2);
        let mut env = HomeRlEnv::new(&home, &scenario, &reward);
        let mut cfg = OptimizerConfig::fast();
        cfg.episodes = 1;
        let mut opt = Optimizer::new(&env, cfg).unwrap();
        opt.train(&mut env).unwrap();
        let metrics = opt.rollout(&mut env).unwrap();
        assert_eq!(metrics.steps, 1440);
        assert!(metrics.energy_kwh > 0.0);
    }

    #[test]
    fn same_seed_reproduces_training() {
        let (home, scenario, reward) = fast_setup(2);
        let run = || {
            let mut env = HomeRlEnv::new(&home, &scenario, &reward);
            let mut cfg = OptimizerConfig::fast();
            cfg.episodes = 1;
            cfg.seed = 9;
            let mut opt = Optimizer::new(&env, cfg).unwrap();
            opt.train(&mut env).unwrap().episode_rewards
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tabular_baseline_trains_and_rolls_out() {
        let (home, scenario, reward) = fast_setup(2);
        let mut env = HomeRlEnv::new(&home, &scenario, &reward);
        let mut tab = TabularOptimizer::new(&env, 3, 0.5, 0.95, 7);
        let rewards = tab.train(&mut env);
        assert_eq!(rewards.len(), 3);
        assert!(tab.visited_states() > 100, "a day visits many states");
        let metrics = tab.rollout(&mut env);
        assert_eq!(metrics.steps, 1440);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (home, scenario, reward) = fast_setup(2);
        let mut cfg = OptimizerConfig::fast();
        cfg.episodes = 4;
        cfg.seed = 17;
        // Straight-through run.
        let mut env = HomeRlEnv::new(&home, &scenario, &reward);
        let mut straight = Optimizer::new(&env, cfg.clone()).unwrap();
        let full = straight.train(&mut env).unwrap();
        // Interrupted run: 2 episodes, checkpoint, "crash", restore, finish.
        let mut env2 = HomeRlEnv::new(&home, &scenario, &reward);
        let mut first = Optimizer::new(&env2, cfg.clone()).unwrap();
        let chunk = first.train_episodes(&mut env2, 2).unwrap();
        let cp = first.checkpoint(2, &chunk);
        drop(first);
        let mut env3 = HomeRlEnv::new(&home, &scenario, &reward);
        let (mut resumed, done, mut stats) = Optimizer::restore(&env3, &cp).unwrap();
        assert_eq!(done, 2);
        let rest = resumed.train_episodes(&mut env3, cfg.episodes - done).unwrap();
        stats.merge(&rest);
        assert_eq!(stats.episode_rewards, full.episode_rewards, "rewards diverged after resume");
        assert_eq!(stats.episode_losses, full.episode_losses, "losses diverged after resume");
        assert_eq!(
            stats.final_epsilon.to_bits(),
            full.final_epsilon.to_bits(),
            "epsilon diverged after resume"
        );
    }

    #[test]
    fn train_checkpointed_takes_periodic_checkpoints() {
        let (home, scenario, reward) = fast_setup(2);
        let mut env = HomeRlEnv::new(&home, &scenario, &reward);
        let mut cfg = OptimizerConfig::fast();
        cfg.episodes = 3;
        let mut opt = Optimizer::new(&env, cfg).unwrap();
        let (stats, checkpoints) = opt.train_checkpointed(&mut env, 2).unwrap();
        assert_eq!(stats.episode_rewards.len(), 3);
        assert_eq!(checkpoints.len(), 2, "chunks of 2 then 1");
        let (_, done, prior) = Optimizer::restore(&env, checkpoints.last().unwrap()).unwrap();
        assert_eq!(done, 3);
        assert_eq!(prior, stats);
    }

    #[test]
    fn restore_rejects_corrupt_and_mismatched_checkpoints() {
        let (home, scenario, reward) = fast_setup(2);
        let env = HomeRlEnv::new(&home, &scenario, &reward);
        assert!(matches!(
            Optimizer::restore(&env, "{}"),
            Err(JarvisError::Checkpoint(_))
        ));
        // A checkpoint from a smaller home must not restore against this env.
        let small = SmartHome::example_home();
        let data = HomeDataset::home_a(31);
        let scen2 = DayScenario::from_dataset(&small, &data, 2);
        let reward2 = SmartReward::evaluation(
            RewardWeights::emphasizing("energy", 0.8),
            scen2.peak_price(),
            TaBehavior::new(),
            scen2.config(),
            small.fsm().num_devices(),
        );
        let env2 = HomeRlEnv::new(&small, &scen2, &reward2);
        let opt = Optimizer::new(&env2, OptimizerConfig::fast()).unwrap();
        let cp = opt.checkpoint(0, &TrainingStats::default());
        assert!(matches!(
            Optimizer::restore(&env, &cp),
            Err(JarvisError::Checkpoint(_))
        ));
    }

    #[test]
    fn optimizer_config_round_trips_with_infinite_preferable_loss() {
        let cfg = OptimizerConfig::default();
        let back = OptimizerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn mean_violations_helper() {
        let stats = TrainingStats {
            episode_violations: vec![10, 20, 30],
            ..TrainingStats::default()
        };
        assert!((stats.mean_violations() - 20.0).abs() < 1e-12);
        assert_eq!(TrainingStats::default().mean_violations(), 0.0);
    }
}
