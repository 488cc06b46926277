//! Deep Q-Network agent with experience replay (Algorithm 2's learner).
//!
//! Matches the paper's prototype: a batch-processing feed-forward network
//! with two hidden layers and learning rate 0.001 (Section V-A-6), whose
//! output is "an array of rewards for each mini-action instead of a whole
//! environment action" (Section V-A-7). Only the head of the action actually
//! taken receives gradient, via the Q-head training step
//! [`Network::train_q_heads`](jarvis_neural::Network::train_q_heads).
//!
//! One `Replay(BSize)` runs two batched forwards and one backward: one
//! bootstrap forward over the sampled next states (the target network's
//! under a target network, else the online network's; under Double DQN one
//! more through the online network to pick the action), and the training
//! step, whose own forward over the sampled states supplies the target row.
//!
//! As an ablation beyond the paper, an optional *target network* (synced
//! every `target_sync_every` replays) can stabilize the bootstrap; it is off
//! by default to match Algorithm 2.

use crate::explore::EpsilonSchedule;
use crate::policy;
use crate::replay::ReplayBuffer;
use jarvis_neural::{
    Activation, Loss, Matrix, Network, NeuralError, OptimizerKind, QuantizedNetwork,
};
use jarvis_stdkit::{json_enum, json_struct};
use jarvis_stdkit::rng::SliceRandom;
use jarvis_stdkit::rng::SeedableRng;
use jarvis_stdkit::rng::ChaCha8Rng;

/// One stored transition `(S, A, R, S', valid(S'), done)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Experience {
    /// Encoded state `S`.
    pub state: Vec<f64>,
    /// Flat index of the action taken.
    pub action: usize,
    /// Immediate reward `R(S, A)`.
    pub reward: f64,
    /// Encoded next state `S'`.
    pub next: Vec<f64>,
    /// Actions valid in `S'` (the safe set under `P_safe`), used to mask the
    /// `max_{a'}` bootstrap.
    pub next_valid: Vec<usize>,
    /// True when `S'` terminated the episode.
    pub done: bool,
}

json_struct!(Experience { state, action, reward, next, next_valid, done });

/// A stub with one setting, kept only because `perfbench/src/common.rs`
/// still assigns `DqnConfig::parallelism`. The GEMM kernels always run on
/// the calling thread and nothing reads the field; it goes once that line
/// does. Serialized as `"Single"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// The calling thread.
    #[default]
    Single,
}

json_enum!(Parallelism { Single });

/// Configuration for a [`DqnAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// Observation vector length.
    pub state_dim: usize,
    /// Flat action-space size (number of mini-actions + no-op in Jarvis).
    pub num_actions: usize,
    /// Hidden-layer widths; the paper's prototype uses two hidden layers.
    pub hidden: Vec<usize>,
    /// Learning rate; the paper's prototype uses `0.001`.
    pub learning_rate: f64,
    /// Discount factor `γ`.
    pub gamma: f64,
    /// Replay-memory capacity.
    pub replay_capacity: usize,
    /// Mini-batch size `BSize`.
    pub batch_size: usize,
    /// Exploration schedule `(ε, ε_min, ε_decay, L_p)`.
    pub schedule: EpsilonSchedule,
    /// Sync a frozen target network every this many replays (`None` = no
    /// target network, as in the paper).
    pub target_sync_every: Option<usize>,
    /// Use Double-DQN target computation (the online network selects the
    /// bootstrap action, the frozen target network evaluates it). Only
    /// effective together with `target_sync_every`; reduces the
    /// overestimation bias of the plain max backup.
    pub double_dqn: bool,
    /// RNG seed for weights, exploration, and replay sampling.
    pub seed: u64,
    /// Unread: see [`Parallelism`].
    pub parallelism: Parallelism,
}

json_struct!(DqnConfig {
    state_dim,
    num_actions,
    hidden,
    learning_rate,
    gamma,
    replay_capacity,
    batch_size,
    schedule,
    target_sync_every,
    double_dqn,
    seed,
    parallelism,
});

impl DqnConfig {
    /// Paper-faithful defaults: two hidden layers of 64 ReLU units, Adam at
    /// 0.001, `γ` = 0.95, replay capacity 10 000, batch 32, no target
    /// network.
    #[must_use]
    pub fn new(state_dim: usize, num_actions: usize) -> Self {
        DqnConfig {
            state_dim,
            num_actions,
            hidden: vec![64, 64],
            learning_rate: 0.001,
            gamma: 0.95,
            replay_capacity: 10_000,
            batch_size: 32,
            schedule: EpsilonSchedule::standard(),
            target_sync_every: None,
            double_dqn: false,
            seed: 0,
            parallelism: Parallelism::Single,
        }
    }
}

/// The complete serializable state of a [`DqnAgent`] mid-training.
///
/// Captures everything that influences future training: the online network
/// (weights *and* Adam moments), the frozen target network, the replay
/// memory contents, the exploration schedule, the replay counter, and the
/// exact RNG stream position. Restoring a checkpoint therefore resumes
/// training **bit-identically** — an interrupted run and an uninterrupted
/// run produce the same weights.
#[derive(Debug, Clone, PartialEq)]
pub struct DqnCheckpoint {
    /// The agent's configuration (network shape, seeds, schedule template).
    pub config: DqnConfig,
    /// The online Q network, including optimizer state.
    pub net: Network,
    /// The frozen target network, when `target_sync_every` is configured.
    pub target: Option<Network>,
    /// Replay-memory contents, oldest first.
    pub replay: Vec<Experience>,
    /// The live exploration schedule (decayed from the config's template).
    pub schedule: EpsilonSchedule,
    /// Number of replays performed so far.
    pub replays_done: usize,
    /// The exploration/sampling RNG, mid-stream.
    pub rng: ChaCha8Rng,
}

json_struct!(DqnCheckpoint { config, net, target, replay, schedule, replays_done, rng });

/// An int8-quantized, read-only snapshot of a [`DqnAgent`]'s online network
/// for the serving decision path.
///
/// Built by [`DqnAgent::quantize_policy`]. Q values come out of the
/// fixed-point [`QuantizedNetwork`] forward (i32 accumulation, so results
/// are bit-identical across SIMD tiers, worker-pool sizes, and batch
/// groupings), and the recorded `agreement` is the fraction of calibration
/// states whose greedy argmax matched the f64 network — the serving runtime
/// gates deployment on it.
#[derive(Debug, Clone)]
pub struct QuantizedPolicy {
    qnet: QuantizedNetwork,
    agreement: f64,
}

impl QuantizedPolicy {
    /// Fraction of calibration states whose greedy action matched the f64
    /// network, measured at quantization time.
    #[must_use]
    pub fn agreement(&self) -> f64 {
        self.agreement
    }

    /// Observation vector length the policy expects.
    #[must_use]
    pub fn state_dim(&self) -> usize {
        self.qnet.input_size()
    }

    /// Flat action-space size (one Q head per mini-action).
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.qnet.output_size()
    }

    /// Q values for a whole batch of observations through the int8 forward.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when the batch is empty, ragged, or has the
    /// wrong row width.
    pub fn q_values_batch(&self, obs: &[&[f64]]) -> Result<Vec<Vec<f64>>, NeuralError> {
        self.qnet.forward_batch(obs)
    }

    /// Q values for a packed `batch × state_dim` observation matrix, as a
    /// `batch × num_actions` matrix; row `i` is bit-identical to
    /// [`Self::q_values_batch`]'s.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when the batch is empty or has the wrong
    /// width.
    pub fn q_values_matrix(&self, obs: &Matrix) -> Result<Matrix, NeuralError> {
        self.qnet.forward_matrix(obs)
    }

    /// Greedy actions for a batch, each masked by its own `valid` set —
    /// the quantized mirror of [`DqnAgent::best_action_batch`].
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when `obs` and `valid` disagree in length or
    /// the batch is empty, ragged, or mis-sized.
    pub fn best_action_batch(
        &self,
        obs: &[&[f64]],
        valid: &[&[usize]],
    ) -> Result<Vec<Option<usize>>, NeuralError> {
        if obs.len() != valid.len() {
            return Err(NeuralError::BadBatch { reason: "obs/valid count mismatch" });
        }
        let q = self.q_values_batch(obs)?;
        Ok(q.iter().zip(valid).map(|(row, v)| policy::argmax(row, v)).collect())
    }
}

/// A deep Q-learning agent: network, replay memory, and ε-greedy policy.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    config: DqnConfig,
    net: Network,
    target: Option<Network>,
    replay: ReplayBuffer<Experience>,
    schedule: EpsilonSchedule,
    replays_done: usize,
    rng: ChaCha8Rng,
}

impl DqnAgent {
    /// Build an agent from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when the network dimensions are invalid
    /// (zero state dim, zero actions, or a zero-width hidden layer).
    pub fn new(config: DqnConfig) -> Result<Self, NeuralError> {
        let mut builder = Network::builder(config.state_dim);
        for &units in &config.hidden {
            builder = builder.layer(units, Activation::Relu);
        }
        let net = builder
            .layer(config.num_actions, Activation::Linear)
            .loss(Loss::Mse)
            .optimizer(OptimizerKind::adam(config.learning_rate))
            .seed(config.seed)
            .build()?;
        let target = config.target_sync_every.map(|_| net.clone());
        Ok(DqnAgent {
            replay: ReplayBuffer::new(config.replay_capacity),
            schedule: config.schedule,
            replays_done: 0,
            rng: ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(0x9e37_79b9)),
            net,
            target,
            config,
        })
    }

    /// The agent's configuration.
    #[must_use]
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Current exploration rate `ε`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.schedule.epsilon()
    }

    /// Number of experiences currently in replay memory.
    #[must_use]
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Q values of every action in `obs` (the DQN's mini-action head).
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when `obs` has the wrong length.
    pub fn q_values(&self, obs: &[f64]) -> Result<Vec<f64>, NeuralError> {
        self.net.predict(obs)
    }

    /// Q values for a whole batch of observations in one matrix pass.
    ///
    /// Rides [`Network::forward_batch`], so row `i` is bit-identical to
    /// `q_values(obs[i])` — the serving runtime leans on this to make its
    /// outputs independent of how queries are grouped into batches.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when the batch is empty, ragged, or has the
    /// wrong row width.
    pub fn q_values_batch(&self, obs: &[&[f64]]) -> Result<Vec<Vec<f64>>, NeuralError> {
        self.net.forward_batch(obs)
    }

    /// Q values for a packed `batch × state_dim` observation matrix, as a
    /// `batch × num_actions` matrix — [`Self::q_values_batch`] without the
    /// per-row vectors on either side, for callers that keep their
    /// observations in one reusable buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when the matrix has the wrong width.
    pub fn q_values_matrix(&self, obs: &Matrix) -> Result<Matrix, NeuralError> {
        self.net.forward_matrix(obs)
    }

    /// Greedy action among `valid`, or `None` when `valid` is empty.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when `obs` has the wrong length.
    pub fn best_action(&self, obs: &[f64], valid: &[usize]) -> Result<Option<usize>, NeuralError> {
        Ok(policy::argmax(&self.q_values(obs)?, valid))
    }

    /// Greedy actions for a batch, each masked by its own `valid` set
    /// (per-home constraint masking in the serving runtime).
    ///
    /// Row `i` is `None` exactly when `valid[i]` is empty.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when `obs` and `valid` disagree in length or
    /// the batch is empty, ragged, or mis-sized.
    pub fn best_action_batch(
        &self,
        obs: &[&[f64]],
        valid: &[&[usize]],
    ) -> Result<Vec<Option<usize>>, NeuralError> {
        if obs.len() != valid.len() {
            return Err(NeuralError::BadBatch { reason: "obs/valid count mismatch" });
        }
        let q = self.q_values_batch(obs)?;
        Ok(q.iter().zip(valid).map(|(row, v)| policy::argmax(row, v)).collect())
    }

    /// ε-greedy action selection among `valid`.
    ///
    /// Delegates to [`DqnAgent::act_batch`] with a batch of one so the
    /// single-state and batched paths cannot drift apart.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when `obs` has the wrong length.
    ///
    /// # Panics
    ///
    /// Panics when `valid` is empty — Jarvis environments always offer at
    /// least the no-op.
    pub fn act(&mut self, obs: &[f64], valid: &[usize]) -> Result<usize, NeuralError> {
        Ok(self.act_batch(&[obs], &[valid])?[0])
    }

    /// ε-greedy action selection for a whole batch of states.
    ///
    /// The RNG is consumed row by row in batch order — one `should_explore`
    /// draw per row plus one uniform draw when that row explores — exactly
    /// the stream `act` would consume called sequentially on each row.
    /// Greedy rows are then answered together through one
    /// [`DqnAgent::q_values_batch`] matrix pass (which draws no randomness),
    /// so `act_batch(batch)` is bit-identical to mapping `act` over the batch
    /// while doing the network work at batched-GEMM throughput.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when `obs` and `valid` disagree in length or
    /// the observations are empty, ragged, or mis-sized.
    ///
    /// # Panics
    ///
    /// Panics when any `valid` row is empty — Jarvis environments always
    /// offer at least the no-op.
    pub fn act_batch(
        &mut self,
        obs: &[&[f64]],
        valid: &[&[usize]],
    ) -> Result<Vec<usize>, NeuralError> {
        if obs.len() != valid.len() {
            return Err(NeuralError::BadBatch { reason: "obs/valid count mismatch" });
        }
        if obs.is_empty() {
            return Err(NeuralError::BadBatch { reason: "empty batch" });
        }
        let mut chosen: Vec<Option<usize>> = Vec::with_capacity(obs.len());
        let mut greedy_rows: Vec<usize> = Vec::new();
        for (i, v) in valid.iter().enumerate() {
            assert!(!v.is_empty(), "no valid action available");
            if self.schedule.should_explore(&mut self.rng) {
                chosen.push(Some(*v.choose(&mut self.rng).expect("non-empty")));
            } else {
                chosen.push(None);
                greedy_rows.push(i);
            }
        }
        if !greedy_rows.is_empty() {
            let greedy_obs: Vec<&[f64]> = greedy_rows.iter().map(|&i| obs[i]).collect();
            let q = self.q_values_batch(&greedy_obs)?;
            for (&i, row) in greedy_rows.iter().zip(&q) {
                chosen[i] = Some(policy::argmax(row, valid[i]).expect("non-empty"));
            }
        }
        Ok(chosen.into_iter().map(|c| c.expect("every row resolved")).collect())
    }

    /// Quantize the online network to int8 fixed-point for serving,
    /// calibrating activation scales on `calib` and measuring how often the
    /// quantized greedy action agrees with the f64 one on that same corpus.
    ///
    /// The caller decides whether the returned
    /// [`agreement`](QuantizedPolicy::agreement) is good enough to deploy;
    /// the serving runtime's `quantize_policy` enforces a minimum.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when `calib` is empty, ragged, or has the
    /// wrong row width.
    pub fn quantize_policy(&self, calib: &[&[f64]]) -> Result<QuantizedPolicy, NeuralError> {
        let qnet = QuantizedNetwork::quantize(&self.net, calib)?;
        let agreement = qnet.argmax_agreement(&self.net, calib)?;
        Ok(QuantizedPolicy { qnet, agreement })
    }

    /// Store one transition in replay memory.
    pub fn remember(&mut self, exp: Experience) {
        self.replay.push(exp);
    }

    /// Snapshot the agent's complete training state.
    #[must_use]
    pub fn checkpoint(&self) -> DqnCheckpoint {
        DqnCheckpoint {
            config: self.config.clone(),
            net: self.net.clone(),
            target: self.target.clone(),
            replay: self.replay.iter().cloned().collect(),
            schedule: self.schedule,
            replays_done: self.replays_done,
            rng: self.rng.clone(),
        }
    }

    /// Rebuild an agent from a [`DqnCheckpoint`], resuming training exactly
    /// where the snapshot left off.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when the checkpoint's configuration is
    /// invalid (e.g. zero replay capacity or more stored experiences than
    /// the capacity admits).
    pub fn from_checkpoint(cp: DqnCheckpoint) -> Result<Self, NeuralError> {
        if cp.config.replay_capacity == 0 {
            return Err(NeuralError::BadVectorLength {
                what: "checkpoint replay capacity",
                expected: 1,
                got: 0,
            });
        }
        if cp.replay.len() > cp.config.replay_capacity {
            return Err(NeuralError::BadVectorLength {
                what: "checkpoint replay contents",
                expected: cp.config.replay_capacity,
                got: cp.replay.len(),
            });
        }
        let mut replay = ReplayBuffer::new(cp.config.replay_capacity);
        replay.extend(cp.replay);
        Ok(DqnAgent {
            config: cp.config,
            net: cp.net,
            target: cp.target,
            replay,
            schedule: cp.schedule,
            replays_done: cp.replays_done,
            rng: cp.rng,
        })
    }

    /// Algorithm 2's `Replay(BSize)`: sample a mini-batch, compute the
    /// discounted cumulative targets, train the DNN on the masked heads, and
    /// decay `ε` when the loss reaches the preferable level.
    ///
    /// A replay costs one batched bootstrap forward and one training step.
    /// The bootstrap forward runs over the next states of the non-terminal
    /// samples through the frozen target network when there is one, else
    /// through the online network; under Double DQN a second forward of the
    /// same rows through the online network picks the action the target
    /// network evaluates. The training step
    /// ([`Network::train_q_heads`](jarvis_neural::Network::train_q_heads))
    /// reuses its own forward over the states as the target row, so no
    /// state is run through the network twice.
    ///
    /// Returns `Ok(None)` while the memory holds fewer than `BSize`
    /// experiences, else the pre-update batch loss.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] on internal dimension mismatches (which
    /// indicate malformed experiences, e.g. wrong observation lengths, or an
    /// out-of-range action index). The networks are untouched on error.
    pub fn replay(&mut self) -> Result<Option<f64>, NeuralError> {
        let Some(batch) = self.replay.sample(self.config.batch_size, &mut self.rng) else {
            return Ok(None);
        };
        let outputs = self.net.output_size();
        if let Some(exp) = batch.iter().find(|exp| exp.action >= outputs) {
            return Err(NeuralError::BadVectorLength {
                what: "experience action index",
                expected: outputs,
                got: exp.action,
            });
        }

        // Row `k` of the bootstrap forwards is the `k`-th live sample.
        let live: Vec<&[f64]> =
            batch.iter().filter(|exp| !exp.done).map(|exp| exp.next.as_slice()).collect();
        let double = self.config.double_dqn && self.target.is_some();
        let (next_q, online_next) = if live.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let bootstrap_net = self.target.as_ref().unwrap_or(&self.net);
            let online_next =
                if double { self.net.forward_batch(&live)? } else { Vec::new() };
            (bootstrap_net.forward_batch(&live)?, online_next)
        };
        let mut heads = Vec::with_capacity(batch.len());
        let mut live_row = 0;
        for exp in &batch {
            let future = if exp.done {
                0.0
            } else {
                let q = &next_q[live_row];
                let future = if double {
                    // Double DQN: the online net picks the action, the
                    // frozen target evaluates it.
                    policy::argmax(&online_next[live_row], &exp.next_valid).map_or(0.0, |a| q[a])
                } else {
                    policy::max_q(q, &exp.next_valid)
                };
                live_row += 1;
                future
            };
            heads.push((exp.action, exp.reward + self.config.gamma * future));
        }
        let states: Vec<&[f64]> = batch.iter().map(|exp| exp.state.as_slice()).collect();
        let loss = self.net.train_q_heads(&states, &heads)?;

        self.replays_done += 1;
        if let (Some(every), Some(target)) =
            (self.config.target_sync_every, self.target.as_mut())
        {
            if self.replays_done.is_multiple_of(every.max(1)) {
                *target = self.net.clone();
            }
        }
        self.schedule.observe_loss(loss);
        Ok(Some(loss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::Chain;
    use crate::env::Environment;

    fn train_on_chain(mut config: DqnConfig) -> (DqnAgent, Chain) {
        config.hidden = vec![16];
        config.learning_rate = 0.01;
        config.batch_size = 16;
        config.replay_capacity = 2_000;
        config.schedule = EpsilonSchedule::new(1.0, 0.05, 0.97, f64::INFINITY);
        let mut agent = DqnAgent::new(config).unwrap();
        let mut env = Chain::new(4);
        for _ in 0..120 {
            env.reset();
            for _ in 0..24 {
                let obs = env.observe();
                let a = agent.act(&obs, &env.valid_actions()).unwrap();
                let step = env.step(a);
                agent.remember(Experience {
                    state: obs,
                    action: a,
                    reward: step.reward,
                    next: step.obs,
                    next_valid: env.valid_actions(),
                    done: step.done,
                });
                agent.replay().unwrap();
                if step.done {
                    break;
                }
            }
        }
        (agent, env)
    }

    #[test]
    fn learns_chain_policy() {
        let (agent, mut env) = train_on_chain(DqnConfig::new(1, 2));
        // Greedy rollout reaches the goal within the minimum number of steps.
        env.reset();
        let mut steps = 0;
        loop {
            let a = agent
                .best_action(&env.observe(), &env.valid_actions())
                .unwrap()
                .unwrap();
            let s = env.step(a);
            steps += 1;
            if s.done {
                break;
            }
            assert!(steps < 12, "greedy policy wanders");
        }
        assert_eq!(steps, 4);
    }

    #[test]
    fn epsilon_decays_during_training() {
        let (agent, _) = train_on_chain(DqnConfig::new(1, 2));
        assert!(agent.epsilon() < 0.5, "epsilon stuck at {}", agent.epsilon());
    }

    #[test]
    fn replay_requires_full_batch() {
        let mut agent = DqnAgent::new(DqnConfig::new(1, 2)).unwrap();
        assert_eq!(agent.replay().unwrap(), None);
        agent.remember(Experience {
            state: vec![0.0],
            action: 0,
            reward: 0.0,
            next: vec![0.0],
            next_valid: vec![0, 1],
            done: false,
        });
        assert_eq!(agent.replay().unwrap(), None); // 1 < batch_size
        assert_eq!(agent.replay_len(), 1);
    }

    #[test]
    fn same_seed_reproduces_actions() {
        let mk = || {
            let mut c = DqnConfig::new(1, 2);
            c.seed = 77;
            DqnAgent::new(c).unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        let seq_a: Vec<usize> =
            (0..50).map(|_| a.act(&[0.3], &[0, 1]).unwrap()).collect();
        let seq_b: Vec<usize> =
            (0..50).map(|_| b.act(&[0.3], &[0, 1]).unwrap()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn masked_bootstrap_ignores_invalid_next_actions() {
        // A crafted experience whose next state has a huge Q on an invalid
        // action must not leak that value into the target.
        let mut c = DqnConfig::new(1, 2);
        c.batch_size = 1;
        c.hidden = vec![4];
        c.gamma = 1.0;
        c.learning_rate = 0.05;
        let mut agent = DqnAgent::new(c).unwrap();
        agent.remember(Experience {
            state: vec![0.0],
            action: 0,
            reward: 1.0,
            next: vec![1.0],
            next_valid: vec![], // terminal-like: nothing valid
            done: false,
        });
        // Should converge Q(0,·)[0] toward exactly 1.0 (no bootstrap).
        for _ in 0..400 {
            agent.replay().unwrap();
        }
        let q = agent.q_values(&[0.0]).unwrap();
        assert!((q[0] - 1.0).abs() < 0.1, "q = {q:?}");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        use jarvis_stdkit::json::{FromJson, ToJson};
        let mk = || {
            let mut c = DqnConfig::new(1, 2);
            c.hidden = vec![8];
            c.batch_size = 8;
            c.seed = 19;
            c.schedule = EpsilonSchedule::new(1.0, 0.05, 0.9, f64::INFINITY);
            DqnAgent::new(c).unwrap()
        };
        let drive = |agent: &mut DqnAgent, steps: usize| {
            let mut env = Chain::new(4);
            env.reset();
            for _ in 0..steps {
                let obs = env.observe();
                let a = agent.act(&obs, &env.valid_actions()).unwrap();
                let step = env.step(a);
                agent.remember(Experience {
                    state: obs,
                    action: a,
                    reward: step.reward,
                    next: step.obs,
                    next_valid: env.valid_actions(),
                    done: step.done,
                });
                agent.replay().unwrap();
                if step.done {
                    env.reset();
                }
            }
        };
        // Train 20 steps, snapshot through a JSON round trip, then continue
        // both the original agent and the restored copy through the *same*
        // remaining input stream (drive() rebuilds its env identically). The
        // streams line up only if the checkpoint restored net + replay +
        // schedule + RNG exactly.
        let mut first = mk();
        drive(&mut first, 20);
        let json = first.checkpoint().to_json();
        let cp = DqnCheckpoint::from_json(&json).unwrap();
        assert_eq!(cp, first.checkpoint(), "JSON round trip must be lossless");
        let mut resumed = DqnAgent::from_checkpoint(cp).unwrap();
        drive(&mut resumed, 20);
        drive(&mut first, 20);
        let q_resumed = resumed.q_values(&[0.5]).unwrap();
        let q_first = first.q_values(&[0.5]).unwrap();
        assert!(
            q_resumed.iter().zip(&q_first).all(|(a, b)| a.to_bits() == b.to_bits()),
            "resume diverged: {q_resumed:?} vs {q_first:?}"
        );
        assert_eq!(resumed.replay_len(), first.replay_len());
        assert_eq!(resumed.epsilon().to_bits(), first.epsilon().to_bits());
    }

    #[test]
    fn checkpoint_rejects_corrupt_state() {
        let agent = DqnAgent::new(DqnConfig::new(1, 2)).unwrap();
        let mut cp = agent.checkpoint();
        cp.config.replay_capacity = 0;
        assert!(DqnAgent::from_checkpoint(cp).is_err());
        let mut cp = agent.checkpoint();
        cp.config.replay_capacity = 1;
        cp.replay = vec![
            Experience {
                state: vec![0.0],
                action: 0,
                reward: 0.0,
                next: vec![0.0],
                next_valid: vec![0],
                done: false,
            };
            2
        ];
        assert!(DqnAgent::from_checkpoint(cp).is_err());
    }

    #[test]
    fn bad_action_index_in_experience_errors() {
        let mut c = DqnConfig::new(1, 2);
        c.batch_size = 1;
        let mut agent = DqnAgent::new(c).unwrap();
        agent.remember(Experience {
            state: vec![0.0],
            action: 5,
            reward: 0.0,
            next: vec![0.0],
            next_valid: vec![0],
            done: true,
        });
        assert!(agent.replay().is_err());
    }

    #[test]
    fn double_dqn_variant_learns_the_chain() {
        let mut c = DqnConfig::new(1, 2);
        c.target_sync_every = Some(8);
        c.double_dqn = true;
        c.hidden = vec![16];
        c.learning_rate = 0.01;
        c.batch_size = 16;
        c.schedule = EpsilonSchedule::new(1.0, 0.05, 0.97, f64::INFINITY);
        let mut agent = DqnAgent::new(c).unwrap();
        let mut env = Chain::new(3);
        for _ in 0..80 {
            env.reset();
            for _ in 0..16 {
                let obs = env.observe();
                let a = agent.act(&obs, &env.valid_actions()).unwrap();
                let step = env.step(a);
                agent.remember(Experience {
                    state: obs,
                    action: a,
                    reward: step.reward,
                    next: step.obs,
                    next_valid: env.valid_actions(),
                    done: step.done,
                });
                agent.replay().unwrap();
                if step.done {
                    break;
                }
            }
        }
        env.reset();
        let a = agent
            .best_action(&env.observe(), &env.valid_actions())
            .unwrap()
            .unwrap();
        assert_eq!(a, 1, "double-DQN agent should prefer moving right");
    }

    #[test]
    fn quantized_policy_tracks_the_trained_agent() {
        let (agent, mut env) = train_on_chain(DqnConfig::new(1, 2));
        // Calibrate on the observation range the chain actually visits.
        let calib_rows: Vec<Vec<f64>> = (0..=4).map(|p| vec![f64::from(p)]).collect();
        let calib: Vec<&[f64]> = calib_rows.iter().map(Vec::as_slice).collect();
        let qp = agent.quantize_policy(&calib).unwrap();
        assert_eq!(qp.state_dim(), 1);
        assert_eq!(qp.num_actions(), 2);
        assert!(
            qp.agreement() >= 0.8,
            "quantized argmax should track f64 on calib: {}",
            qp.agreement()
        );
        // The quantized greedy rollout still solves the chain.
        env.reset();
        let mut steps = 0;
        loop {
            let obs = env.observe();
            let valid = env.valid_actions();
            let a = qp
                .best_action_batch(&[&obs], &[&valid])
                .unwrap()[0]
                .unwrap();
            let s = env.step(a);
            steps += 1;
            if s.done {
                break;
            }
            assert!(steps < 12, "quantized greedy policy wanders");
        }
        assert_eq!(steps, 4);
    }

    #[test]
    fn quantized_policy_validates_calibration() {
        let agent = DqnAgent::new(DqnConfig::new(2, 2)).unwrap();
        assert!(agent.quantize_policy(&[]).is_err(), "empty calib must fail");
        assert!(
            agent.quantize_policy(&[&[1.0]]).is_err(),
            "wrong-width calib must fail"
        );
    }

    #[test]
    fn target_network_variant_trains() {
        let mut c = DqnConfig::new(1, 2);
        c.target_sync_every = Some(10);
        let (agent, mut env) = {
            c.hidden = vec![16];
            c.learning_rate = 0.01;
            c.batch_size = 16;
            c.schedule = EpsilonSchedule::new(1.0, 0.05, 0.97, f64::INFINITY);
            let mut agent = DqnAgent::new(c).unwrap();
            let mut env = Chain::new(3);
            for _ in 0..80 {
                env.reset();
                for _ in 0..16 {
                    let obs = env.observe();
                    let a = agent.act(&obs, &env.valid_actions()).unwrap();
                    let step = env.step(a);
                    agent.remember(Experience {
                        state: obs,
                        action: a,
                        reward: step.reward,
                        next: step.obs,
                        next_valid: env.valid_actions(),
                        done: step.done,
                    });
                    agent.replay().unwrap();
                    if step.done {
                        break;
                    }
                }
            }
            (agent, env)
        };
        env.reset();
        let a = agent
            .best_action(&env.observe(), &env.valid_actions())
            .unwrap()
            .unwrap();
        assert_eq!(a, 1, "target-network agent should still prefer moving right");
    }
}
