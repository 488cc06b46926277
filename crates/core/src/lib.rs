//! # Jarvis — a constrained reinforcement-learning framework for IoT
//!
//! Reproduction of *Jarvis: Moving Towards a Smarter Internet of Things*
//! (ICDCS 2020). Jarvis observes an IoT environment, learns which state
//! transitions are safe (the Security Policy Learner of `jarvis-policy`),
//! and then runs a deep-Q-learning agent whose exploration is *constrained*
//! to that safe space while optimizing user-defined functionality goals:
//! energy use, electricity cost, and temperature comfort.
//!
//! The crate wires the substrates together:
//!
//! * [`reward`] — the smart reward function `R_smart` of Section IV-B:
//!   weighted functionality rewards `F_j` minus the estimated dis-utility
//!   derived from past behavior.
//! * [`scenario`] — a simulated day: occupant-driven exogenous events,
//!   weather, prices, and the house thermal response.
//! * [`mod@env`] — the RF environment of Section V-A-5: a gym-style environment
//!   over the home FSM with mini-action decomposition (Section V-A-7) and an
//!   optional safe-transition constraint.
//! * [`optimizer`] — Algorithm 2: the constrained DQN optimizer with
//!   experience replay.
//! * [`analysis`] — benefit-space analysis (Figures 6–9): normal behavior vs
//!   Jarvis-optimized behavior, and constrained vs unconstrained
//!   exploration.
//! * [`suggest`] — runtime action suggestion: the highest-quality *safe*
//!   action (`Max(Q, c)` walk-down) for the current state.
//! * [`jarvis`] — the end-to-end facade: learning phase → SPL → optimize.
//!
//! # Quickstart
//!
//! ```no_run
//! use jarvis::{Jarvis, JarvisConfig};
//! use jarvis_sim::HomeDataset;
//! use jarvis_smart_home::SmartHome;
//!
//! let home = SmartHome::evaluation_home();
//! let data = HomeDataset::home_a(42);
//! let mut jarvis = Jarvis::new(home, JarvisConfig::default());
//! jarvis.learning_phase(&data, 0..7)?;   // observe one week (L = 1 week)
//! jarvis.learn_policies()?;              // Algorithm 1
//! let plan = jarvis.optimize_day(&data, 8)?; // Algorithm 2 for day 8
//! println!("optimized day: {:.1} kWh, {} safety violations",
//!          plan.optimized.energy_kwh, plan.optimized.violations);
//! # Ok::<(), jarvis::JarvisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod analysis;
pub mod env;
pub mod error;
pub mod jarvis;
pub mod monitor;
pub mod optimizer;
pub mod reward;
pub mod scenario;
pub mod suggest;

pub use active::{active_learning_round, ActiveReport, DeviceAllowlistOracle, UserOracle};
pub use analysis::{BenefitPoint, DayMetrics};
pub use env::{encode_observation, encode_observation_into, HomeRlEnv};
pub use error::JarvisError;
pub use jarvis::{DayPlan, Jarvis, JarvisConfig, PolicySnapshot};
pub use monitor::{RuntimeMonitor, Verdict};
pub use optimizer::{
    Optimizer, OptimizerCheckpoint, OptimizerConfig, TabularOptimizer, TrainingStats,
};
pub use jarvis_rl::Parallelism;
pub use reward::{
    EnergyCost, EnergyUse, FunctionalityReward, RewardWeights, SmartReward, Snapshot,
    TemperatureComfort,
};
pub use scenario::DayScenario;
pub use suggest::Suggestion;
