//! Runtime action suggestion: the highest-quality *safe* action for the
//! current state.
//!
//! Section VI-D: "the user may take some actions of the day manually and
//! depend on Jarvis for other actions. In this case, Jarvis still suggests
//! the best possible action from the safe benefit space for whichever state
//! the environment has reached." The suggestion walks the Q ranking down —
//! the `Max(Q, c)` loop of Algorithm 2 — until it finds an action the safe
//! set permits.

use crate::env::HomeRlEnv;
use crate::error::JarvisError;
use jarvis_iot_model::MiniAction;
use jarvis_rl::policy::{mask_set, mask_words, max_q_c};
use jarvis_rl::{DqnAgent, Environment};

/// A suggested next action for the current environment state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Suggestion {
    /// The suggested mini-action (`None` = do nothing).
    pub action: Option<MiniAction>,
    /// The Q value of the suggestion.
    pub q_value: f64,
    /// How many higher-quality (but unsafe) actions were skipped — the `c`
    /// of `Max(Q, c)`.
    pub rank: usize,
}

/// Suggest the best safe action for `env`'s current state under `agent`'s
/// learned Q function.
///
/// # Errors
///
/// Returns a [`JarvisError::Neural`] when the agent and environment disagree
/// on observation dimensions.
pub fn suggest(agent: &DqnAgent, env: &HomeRlEnv<'_>) -> Result<Suggestion, JarvisError> {
    let q = agent.q_values(&env.observe())?;
    let mut valid = vec![0; mask_words(env.num_actions())];
    for a in env.valid_actions() {
        mask_set(&mut valid, a);
    }
    if let Some((a, rank)) = max_q_c(&q, &valid) {
        return Ok(Suggestion { action: env.mini_for(a), q_value: q[a], rank });
    }
    // The no-op is always valid, so this is unreachable in practice; fall
    // back to it defensively.
    Ok(Suggestion { action: None, q_value: q.first().copied().unwrap_or(0.0), rank: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::{RewardWeights, SmartReward};
    use crate::scenario::DayScenario;
    use jarvis_policy::{MatchMode, SafeTransitionTable, TaBehavior};
    use jarvis_rl::DqnConfig;
    use jarvis_sim::HomeDataset;
    use jarvis_smart_home::SmartHome;

    #[test]
    fn suggestion_respects_the_constraint() {
        let home = SmartHome::evaluation_home();
        let data = HomeDataset::home_a(5);
        let scenario = DayScenario::from_dataset(&home, &data, 2);
        let reward = SmartReward::evaluation(
            RewardWeights::balanced(),
            scenario.peak_price(),
            TaBehavior::new(),
            scenario.config(),
            home.fsm().num_devices(),
        );
        // Empty table: only the no-op is safe, whatever the Q values say.
        let table = SafeTransitionTable::new();
        let env = HomeRlEnv::new(&home, &scenario, &reward)
            .constrained(&table, MatchMode::Exact);
        let agent =
            DqnAgent::new(DqnConfig::new(env.state_dim(), env.num_actions())).unwrap();
        let s = suggest(&agent, &env).unwrap();
        assert_eq!(s.action, None, "only the no-op is safe");
        // The rank reports how many unsafe higher-Q actions were skipped.
        let q = agent.q_values(&env.observe()).unwrap();
        let noop_better_than = q.iter().skip(1).filter(|&&v| v > q[0]).count();
        assert_eq!(s.rank, noop_better_than);
    }

    #[test]
    fn unconstrained_suggestion_is_argmax() {
        let home = SmartHome::evaluation_home();
        let data = HomeDataset::home_a(5);
        let scenario = DayScenario::from_dataset(&home, &data, 2);
        let reward = SmartReward::evaluation(
            RewardWeights::balanced(),
            scenario.peak_price(),
            TaBehavior::new(),
            scenario.config(),
            home.fsm().num_devices(),
        );
        let env = HomeRlEnv::new(&home, &scenario, &reward);
        let agent =
            DqnAgent::new(DqnConfig::new(env.state_dim(), env.num_actions())).unwrap();
        let s = suggest(&agent, &env).unwrap();
        assert_eq!(s.rank, 0, "nothing is filtered without a constraint");
        let q = agent.q_values(&env.observe()).unwrap();
        let max = q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((s.q_value - max).abs() < 1e-12);
    }
}
