//! The Security Policy Learner (SPL) of the Jarvis framework.
//!
//! Implements Section IV-A and Algorithm 1 of the paper:
//!
//! 1. **Trigger-action observation** ([`trigger_action`]): during a learning
//!    phase, every state transition is recorded as T/A behavior
//!    `T: current state S_t → A: next action A_{t+1}`.
//! 2. **Benign-anomaly filtering** ([`filter`]): a single-hidden-layer ANN,
//!    trained by back-propagation on user-labelled benign anomalies (the
//!    SIMADL classes), removes benign malfunctions/human errors from the
//!    training dataset so they are not learned as *safe-by-frequency* nor
//!    flagged later as violations.
//! 3. **Safe-transition learning** ([`learner`]): transitions whose filtered
//!    instance count exceeds `Thresh_env` enter the safe state-transition
//!    table `P_safe` ([`psafe`]); everything else has transition probability
//!    zero.
//!
//! The resulting [`SafeTransitionTable`] is what constrains the RL agent's
//! exploration (Algorithm 2) and what flags security violations at runtime.
//! [`Enforcer`] ([`enforce`]) stacks manual rules, the table and the filter
//! into the one enforcement cascade of Section V-A that every checker asks.
//!
//! # Example
//!
//! ```
//! use jarvis_policy::{learn_safe_transitions, SplConfig};
//! use jarvis_smart_home::{EventLog, SmartHome};
//! use jarvis_sim::HomeDataset;
//! use jarvis_iot_model::EpisodeConfig;
//!
//! let home = SmartHome::evaluation_home();
//! let data = HomeDataset::home_a(7);
//! let mut log = EventLog::new();
//! for day in 0..7 {
//!     log.record_activity(&home, &data.activity(day));
//! }
//! let episodes = log.parse_episodes(&home, EpisodeConfig::DAILY_MINUTES)?.episodes;
//! let outcome = learn_safe_transitions(home.fsm(), &episodes, None, &SplConfig::default());
//! assert!(outcome.table.len() > 0);
//! # Ok::<(), jarvis_iot_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enforce;
pub mod filter;
pub mod incremental;
pub mod learner;
pub mod manual;
pub mod psafe;
pub mod trigger_action;

pub use enforce::{Enforcer, Verdict};
pub use filter::{AnomalyFilter, FilterConfig, TransitionFeaturizer};
pub use incremental::{FoldOutcome, SplDelta};
pub use learner::{flag_violations, learn_safe_transitions, LearnOutcome, SplConfig};
pub use manual::{ManualPolicy, ManualRule, RuleEffect};
pub use psafe::{MatchMode, SafeTransitionTable};
pub use trigger_action::{TaBehavior, TaKey};
