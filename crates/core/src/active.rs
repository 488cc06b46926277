//! Active learning over the *unsafe benefit space* — the paper's future-work
//! direction (Sections VI-E/VI-F).
//!
//! The constrained optimizer never leaves the learned safe space, but some
//! blocked actions are false positives of the SPL or are acceptable to the
//! user for their functionality benefit. Figure 9's discussion proposes
//! using "user feedback on these actions in the unsafe benefit space" to
//! reclassify them. This module implements that loop:
//!
//! 1. roll an agent through the day and collect the *blocked temptations* —
//!    actions with the highest Q advantage over the best safe alternative;
//! 2. propose the top candidates to a [`UserOracle`] (a human in a real
//!    deployment, a simulated policy in the evaluation);
//! 3. fold approved pairs into the safe-transition table, widening the safe
//!    benefit space for the next optimization round.

use crate::env::HomeRlEnv;
use crate::error::JarvisError;
use jarvis_iot_model::{DeviceId, EnvAction, EnvState};
use jarvis_policy::{Enforcer, MatchMode, SafeTransitionTable, Verdict};
use jarvis_rl::{DqnAgent, Environment};
use jarvis_smart_home::SmartHome;
use std::collections::HashSet;

/// Answers approval queries about proposed (state, action) pairs.
pub trait UserOracle {
    /// Would the user accept `action` in `state` as safe?
    fn approve(&mut self, home: &SmartHome, state: &EnvState, action: &EnvAction) -> bool;
}

/// A simulated user who approves actions on an allow-listed set of devices
/// (deferrable loads) and rejects anything touching the rest (locks,
/// sensors…). Stands in for the user studies the paper defers to.
#[derive(Debug, Clone)]
pub struct DeviceAllowlistOracle {
    allowed: HashSet<DeviceId>,
    /// Queries answered so far (for reporting).
    pub queries: usize,
}

impl DeviceAllowlistOracle {
    /// Approve only actions confined to `devices`.
    #[must_use]
    pub fn new(devices: impl IntoIterator<Item = DeviceId>) -> Self {
        DeviceAllowlistOracle { allowed: devices.into_iter().collect(), queries: 0 }
    }
}

impl UserOracle for DeviceAllowlistOracle {
    fn approve(&mut self, _home: &SmartHome, _state: &EnvState, action: &EnvAction) -> bool {
        self.queries += 1;
        action.iter().all(|m| self.allowed.contains(&m.device))
    }
}

/// One blocked temptation: an unsafe action the agent preferred.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The state the agent was in.
    pub state: EnvState,
    /// The blocked action it preferred.
    pub action: EnvAction,
    /// Q advantage over the best safe alternative at that step.
    pub q_gap: f64,
}

/// Outcome of one active-learning round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveReport {
    /// Distinct candidates collected from the rollout.
    pub collected: usize,
    /// Candidates proposed to the oracle (≤ budget).
    pub proposed: usize,
    /// Proposals the oracle approved that entered the table.
    pub approved: usize,
}

/// Run one round: roll `agent` greedily through `env` (which must be
/// *unconstrained* so temptations are visible), gather the highest-gap
/// blocked actions, query the oracle for the top `budget`, and fold
/// approvals into `table`.
///
/// # Errors
///
/// Returns a [`JarvisError::Neural`] if the agent and environment disagree
/// on dimensions.
pub fn active_learning_round(
    home: &SmartHome,
    env: &mut HomeRlEnv<'_>,
    agent: &DqnAgent,
    table: &mut SafeTransitionTable,
    mode: MatchMode,
    oracle: &mut dyn UserOracle,
    budget: usize,
) -> Result<ActiveReport, JarvisError> {
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen: HashSet<(EnvState, EnvAction)> = HashSet::new();
    let mut obs = env.reset();
    loop {
        let q = agent.q_values(&obs)?;
        let all: Vec<usize> = (0..env.num_actions()).collect();
        let best_all = jarvis_rl::argmax(&q, &all).unwrap_or(0);
        let state = env.current_state().clone();

        // The safe alternative the constrained agent would take.
        let enforcer = Enforcer { table: &*table, mode, manual: None, filter: None };
        let safe_set: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&a| match env.mini_for(a) {
                None => true,
                Some(m) => {
                    enforcer.verdict(&state, &EnvAction::single(m), env.time())
                        != Verdict::Violation
                }
            })
            .collect();
        let best_safe = jarvis_rl::argmax(&q, &safe_set).unwrap_or(0);

        if best_all != best_safe {
            if let Some(mini) = env.mini_for(best_all) {
                let action = EnvAction::single(mini);
                if seen.insert((state.clone(), action.clone())) {
                    candidates.push(Candidate {
                        state,
                        action,
                        q_gap: q[best_all] - q[best_safe],
                    });
                }
            }
        }

        // Walk the day under the *safe* policy so the trajectory matches
        // what a deployed constrained agent would actually see.
        let step = env.step(best_safe);
        obs = step.obs;
        if step.done {
            break;
        }
    }

    candidates.sort_by(|a, b| b.q_gap.partial_cmp(&a.q_gap).unwrap_or(std::cmp::Ordering::Equal));
    let mut report = ActiveReport { collected: candidates.len(), ..ActiveReport::default() };
    for c in candidates.into_iter().take(budget) {
        report.proposed += 1;
        if oracle.approve(home, &c.state, &c.action) && table.allow(home.fsm(), &c.state, &c.action)
        {
            report.approved += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Optimizer, OptimizerConfig};
    use crate::reward::{RewardWeights, SmartReward};
    use crate::scenario::DayScenario;
    use jarvis_policy::TaBehavior;
    use jarvis_sim::HomeDataset;

    struct Fixture {
        home: SmartHome,
        scenario: DayScenario,
        reward: SmartReward,
    }

    fn fixture() -> Fixture {
        let home = SmartHome::evaluation_home();
        let data = HomeDataset::home_a(51);
        let scenario = DayScenario::from_dataset(&home, &data, 2);
        let reward = SmartReward::evaluation(
            RewardWeights::emphasizing("energy", 0.8),
            scenario.peak_price(),
            TaBehavior::new(),
            scenario.config(),
            home.fsm().num_devices(),
        );
        Fixture { home, scenario, reward }
    }

    fn trained_agent(env: &mut HomeRlEnv<'_>) -> DqnAgent {
        let mut cfg = OptimizerConfig::fast();
        cfg.episodes = 2;
        let mut opt = Optimizer::new(env, cfg).unwrap();
        opt.train(env).unwrap();
        opt.agent().clone()
    }

    #[test]
    fn round_proposes_and_extends_the_table() {
        let f = fixture();
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        let agent = trained_agent(&mut env);
        let mut table = SafeTransitionTable::new(); // everything is blocked
        let before = table.len();
        // The oracle approves deferrable appliances only.
        let mut oracle = DeviceAllowlistOracle::new([
            f.home.device_id("washer"),
            f.home.device_id("dishwasher"),
            f.home.device_id("water_heater"),
            f.home.device_id("tv"),
            f.home.device_id("light"),
            f.home.device_id("thermostat"),
            f.home.device_id("oven"),
            f.home.device_id("fridge"),
        ]);
        let report = active_learning_round(
            &f.home,
            &mut env,
            &agent,
            &mut table,
            MatchMode::Exact,
            &mut oracle,
            16,
        )
        .unwrap();
        assert!(report.collected > 0, "an empty table must generate temptations");
        assert_eq!(report.proposed.min(16), report.proposed);
        assert_eq!(oracle.queries, report.proposed);
        assert_eq!(table.len(), before + report.approved);
    }

    #[test]
    fn rejections_never_enter_the_table() {
        let f = fixture();
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        let agent = trained_agent(&mut env);
        let mut table = SafeTransitionTable::new();
        struct DenyAll;
        impl UserOracle for DenyAll {
            fn approve(&mut self, _: &SmartHome, _: &EnvState, _: &EnvAction) -> bool {
                false
            }
        }
        let report = active_learning_round(
            &f.home,
            &mut env,
            &agent,
            &mut table,
            MatchMode::Exact,
            &mut DenyAll,
            8,
        )
        .unwrap();
        assert_eq!(report.approved, 0);
        assert!(table.is_empty());
    }

    #[test]
    fn approved_actions_become_safe() {
        let f = fixture();
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        let agent = trained_agent(&mut env);
        let mut table = SafeTransitionTable::new();
        struct ApproveAll;
        impl UserOracle for ApproveAll {
            fn approve(&mut self, _: &SmartHome, _: &EnvState, _: &EnvAction) -> bool {
                true
            }
        }
        let report = active_learning_round(
            &f.home,
            &mut env,
            &agent,
            &mut table,
            MatchMode::Exact,
            &mut ApproveAll,
            4,
        )
        .unwrap();
        assert_eq!(report.approved, report.proposed);
        assert_eq!(table.len(), report.approved);
        // Every stored pair now passes the exact check.
        for (s, a) in table.iter() {
            assert!(table.is_safe_action(s, a, MatchMode::Exact));
        }
    }
}
