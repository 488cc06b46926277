//! Reinforcement-learning substrate for the Jarvis framework.
//!
//! Stands in for the OpenAI-gym + TensorFlow stack of the paper's prototype
//! (Section V-A-5/6): a gym-style [`Environment`] trait, a ring-buffer
//! [`ReplayBuffer`] for experience replay, an [`EpsilonSchedule`] matching
//! Algorithm 2's `(ε, ε_min, ε_decay, preferable loss)` rule, a tabular
//! [`QTable`] learner, and a [`DqnAgent`] whose network head outputs one Q
//! value per *mini-action* (Section V-A-7).
//!
//! # Example
//!
//! Solve a 1-D corridor with tabular Q-learning:
//!
//! ```
//! use jarvis_rl::{DiscreteEnvironment, Environment, QTable, Step};
//! use jarvis_stdkit::rng::SeedableRng;
//!
//! struct Corridor { pos: usize }
//! impl Environment for Corridor {
//!     fn state_dim(&self) -> usize { 1 }
//!     fn num_actions(&self) -> usize { 2 }
//!     fn observe(&self) -> Vec<f64> { vec![self.pos as f64] }
//!     fn valid_actions(&self) -> Vec<usize> { vec![0, 1] }
//!     fn reset(&mut self) -> Vec<f64> { self.pos = 0; self.observe() }
//!     fn step(&mut self, action: usize) -> Step {
//!         if action == 1 { self.pos += 1 } else { self.pos = self.pos.saturating_sub(1) };
//!         let done = self.pos >= 4;
//!         Step { obs: self.observe(), reward: if done { 1.0 } else { -0.01 }, done }
//!     }
//! }
//! impl DiscreteEnvironment for Corridor {
//!     fn num_states(&self) -> usize { 5 }
//!     fn state_id(&self) -> usize { self.pos }
//! }
//!
//! let mut env = Corridor { pos: 0 };
//! let mut q = QTable::new(2, 0.5, 0.9);
//! let mut rng = jarvis_stdkit::rng::ChaCha8Rng::seed_from_u64(1);
//! for _ in 0..200 {
//!     env.reset();
//!     for _ in 0..32 {
//!         let s = env.state_id();
//!         let a = q.epsilon_greedy(s, &env.valid_actions(), 0.2, &mut rng);
//!         let step = env.step(a);
//!         q.update(s, a, step.reward, env.state_id(), &env.valid_actions(), step.done);
//!         if step.done { break; }
//!     }
//! }
//! env.reset();
//! assert_eq!(q.best_action(env.state_id(), &env.valid_actions()), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod dqn;
pub mod env;
pub mod explore;
pub mod policy;
pub mod qtable;
pub mod replay;

pub use constraint::ConstrainedEnv;
pub use dqn::{DqnAgent, DqnCheckpoint, DqnConfig, Experience, Parallelism, QuantizedPolicy};
pub use env::{DiscreteEnvironment, Environment, Step};
pub use explore::EpsilonSchedule;
pub use policy::{argmax, max_q, top_c};
pub use qtable::QTable;
pub use replay::ReplayBuffer;
