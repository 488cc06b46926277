//! Tabular Q-learning via the temporal-difference update of Section II-B.
//!
//! `Q_t(s,a) = Q_{t-1}(s,a) + α (R(s,a) + γ max_{a'} Q(s',a') − Q_{t-1}(s,a))`
//!
//! The table is the exact baseline the paper's DNN approximates; it is also
//! what makes the action-space-explosion ablation measurable (the joint
//! action space is tabulated directly, the mini-action space through the
//! DQN).

use crate::policy;
use jarvis_stdkit::rng::SliceRandom;
use jarvis_stdkit::rng::Rng;
use std::collections::BTreeMap;

/// A sparse tabular Q function over dense state ids and flat action indices.
///
/// Storage is ordered (`BTreeMap`) so any future iteration over the table
/// (debug dumps, serialization) is independent of hasher state (lint rule
/// R1, DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct QTable {
    num_actions: usize,
    alpha: f64,
    gamma: f64,
    table: BTreeMap<usize, Vec<f64>>,
}

impl QTable {
    /// New table for `num_actions` actions with learning rate `alpha` and
    /// discount `gamma`.
    ///
    /// # Panics
    ///
    /// Panics unless `num_actions > 0`, `0 < alpha ≤ 1`, and `0 ≤ gamma ≤ 1`.
    #[must_use]
    pub fn new(num_actions: usize, alpha: f64, gamma: f64) -> Self {
        assert!(num_actions > 0, "num_actions must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        QTable { num_actions, alpha, gamma, table: BTreeMap::new() }
    }

    /// Number of actions per state.
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Number of states visited so far.
    #[must_use]
    pub fn num_visited_states(&self) -> usize {
        self.table.len()
    }

    /// Current Q value of `(state, action)` (0 before any update).
    #[must_use]
    pub fn q(&self, state: usize, action: usize) -> f64 {
        self.table
            .get(&state)
            .and_then(|row| row.get(action))
            .copied()
            .unwrap_or(0.0)
    }

    /// The full Q row of a state (zeros before any update).
    #[must_use]
    pub fn q_row(&self, state: usize) -> Vec<f64> {
        self.table
            .get(&state)
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.num_actions])
    }

    /// Temporal-difference update for the transition
    /// `(state, action, reward, next_state)`. `next_valid` masks the actions
    /// considered in the `max_{a'}` backup; `done` suppresses the backup at
    /// terminal states.
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
        next_valid: &[usize],
        done: bool,
    ) {
        let future = if done {
            0.0
        } else {
            policy::max_q(&self.q_row(next_state), next_valid)
        };
        let row = self
            .table
            .entry(state)
            .or_insert_with(|| vec![0.0; self.num_actions]);
        debug_assert!(action < row.len(), "action {action} out of range");
        let old = row[action];
        row[action] = old + self.alpha * (reward + self.gamma * future - old);
    }

    /// The greedy action among `valid`, or `None` when `valid` is empty.
    #[must_use]
    pub fn best_action(&self, state: usize, valid: &[usize]) -> Option<usize> {
        policy::argmax(&self.q_row(state), valid)
    }

    /// ε-greedy action selection over the `valid` set.
    ///
    /// # Panics
    ///
    /// Panics when `valid` is empty — a state must always offer at least one
    /// action (the no-op in Jarvis environments).
    pub fn epsilon_greedy(
        &self,
        state: usize,
        valid: &[usize],
        epsilon: f64,
        rng: &mut impl Rng,
    ) -> usize {
        assert!(!valid.is_empty(), "no valid action available");
        if rng.gen::<f64>() <= epsilon {
            *valid.choose(rng).expect("non-empty")
        } else {
            self.best_action(state, valid).expect("non-empty")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::Chain;
    use crate::env::{DiscreteEnvironment, Environment};
    use jarvis_stdkit::rng::SeedableRng;
    use jarvis_stdkit::rng::ChaCha8Rng;

    #[test]
    fn single_update_follows_td_equation() {
        let mut q = QTable::new(2, 0.5, 0.9);
        // Pre-load next state value.
        q.update(1, 0, 2.0, 1, &[], true); // Q(1,0) = 0.5 * 2 = 1.0
        assert_eq!(q.q(1, 0), 1.0);
        // Now update state 0 with backup from state 1.
        q.update(0, 1, 0.0, 1, &[0, 1], false);
        // Q(0,1) = 0 + 0.5 * (0 + 0.9 * 1.0 - 0) = 0.45
        assert!((q.q(0, 1) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn done_suppresses_backup() {
        let mut q = QTable::new(2, 1.0, 1.0);
        q.update(5, 0, 3.0, 5, &[0, 1], true);
        assert_eq!(q.q(5, 0), 3.0);
    }

    #[test]
    fn masked_backup_ignores_invalid_next_actions() {
        let mut q = QTable::new(2, 1.0, 1.0);
        q.update(1, 1, 10.0, 1, &[], true); // Q(1,1) = 10
        // Backup allowed only over action 0 of state 1 (worth 0).
        q.update(0, 0, 0.0, 1, &[0], false);
        assert_eq!(q.q(0, 0), 0.0);
        // Full mask sees the 10.
        q.update(0, 1, 0.0, 1, &[0, 1], false);
        assert_eq!(q.q(0, 1), 10.0);
    }

    #[test]
    fn solves_chain() {
        let mut env = Chain::new(4);
        let mut q = QTable::new(2, 0.5, 0.95);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..300 {
            env.reset();
            for _ in 0..64 {
                let s = env.state_id();
                let a = q.epsilon_greedy(s, &env.valid_actions(), 0.3, &mut rng);
                let step = env.step(a);
                q.update(s, a, step.reward, env.state_id(), &env.valid_actions(), step.done);
                if step.done {
                    break;
                }
            }
        }
        // Greedy policy goes right from every non-terminal state.
        for s in 0..4 {
            assert_eq!(q.best_action(s, &[0, 1]), Some(1), "state {s}");
        }
    }

    #[test]
    fn unvisited_state_is_zero() {
        let q = QTable::new(3, 0.1, 0.9);
        assert_eq!(q.q(42, 2), 0.0);
        assert_eq!(q.q_row(42), vec![0.0; 3]);
        assert_eq!(q.num_visited_states(), 0);
    }

    #[test]
    fn epsilon_one_is_uniform_random() {
        let q = QTable::new(2, 0.5, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 10_000;
        let ones = (0..n)
            .filter(|_| q.epsilon_greedy(0, &[0, 1], 1.0, &mut rng) == 1)
            .count();
        let rate = ones as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "no valid action")]
    fn empty_valid_set_panics() {
        let q = QTable::new(2, 0.5, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        q.epsilon_greedy(0, &[], 0.5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        QTable::new(2, 0.0, 0.9);
    }
}
