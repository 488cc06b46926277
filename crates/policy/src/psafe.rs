//! The safe state-transition table `P_safe` of Algorithm 1.
//!
//! Algorithm 1 assigns `P_safe[S, Δ(S, A)] = 1` to transitions observed
//! (after filtering) more than `Thresh_env` times, and zero to everything
//! else. This module stores exactly that, plus the (state, action) pairs
//! behind it so trigger-action queries and Table II renderings are possible.
//!
//! Two query modes are supported (see [`MatchMode`]):
//!
//! * [`MatchMode::Exact`] — the paper's rule: a transition is safe only if
//!   this *full* environment state took this action during the learning
//!   phase.
//! * [`MatchMode::DeviceContext`] — a documented generalization used as an
//!   ablation: a mini-action is safe if its device-level triple
//!   `(device, device-state, action)` was observed safely, regardless of the
//!   other devices' states. Trades contextual strictness for coverage.

use crate::trigger_action::TaBehavior;
use jarvis_iot_model::{DeviceId, EnvAction, EnvState, Fsm, MiniAction, StateIdx, StatePattern};
use std::collections::{BTreeMap, BTreeSet};
use jarvis_stdkit::{json_enum, json_struct};

/// How safe-transition queries match against learned behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// Full-state exact matching (Algorithm 1 as written). Used for the
    /// security-detection experiments.
    Exact,
    /// Device-level triple matching `(device, state, action)` — the loosest
    /// generalization; kept as an ablation.
    DeviceContext,
    /// Generalized trigger matching: a mini-action is safe when the current
    /// state matches the *intersection pattern* of every trigger state the
    /// action was observed from (devices that varied across observations
    /// become wildcards — the `X` notation of Table II). This is the mode
    /// the constrained RL optimizer uses: it generalizes across bystander
    /// devices while keeping the states that were constant (and therefore
    /// correlated with safety) pinned.
    Generalized,
}

json_enum!(MatchMode { Exact, DeviceContext, Generalized });

/// The learned safe-transition table.
///
/// Serializes as flat pair lists (`TableRepr`) so JSON round trips work
/// despite the struct-keyed maps used internally.
///
/// Storage is ordered (`BTreeMap`/`BTreeSet`, not the hash variants):
/// [`SafeTransitionTable::iter`] order reaches Table II renderings, JSON
/// output, and the learner's replay, so it must be independent of insertion
/// order and hasher state (lint rule R1, DESIGN.md §12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SafeTransitionTable {
    /// Safe (state, action) pairs, grouped by state, each state's actions
    /// sorted and duplicate-free: one probe by reference finds every
    /// action of a state, and iterating the groups in order yields the
    /// pairs in `(state, action)` order. A vector, not a set, because most
    /// states hold one or two actions.
    safe_pairs: BTreeMap<EnvState, Vec<EnvAction>>,
    /// Number of pairs in `safe_pairs`.
    num_pairs: usize,
    /// `P_safe[S] = {S' : P_safe[S, S'] = 1}`.
    safe_next: BTreeMap<EnvState, BTreeSet<EnvState>>,
    /// Device-level safe triples for [`MatchMode::DeviceContext`].
    safe_triples: BTreeSet<(DeviceId, StateIdx, jarvis_iot_model::ActionIdx)>,
    /// Per-triple generalized trigger patterns for [`MatchMode::Generalized`]:
    /// the running intersection of every trigger state the triple was
    /// observed from.
    patterns: BTreeMap<(DeviceId, StateIdx, jarvis_iot_model::ActionIdx), StatePattern>,
    /// Whether the no-op action is implicitly safe in every state.
    allow_noop: bool,
}

/// Pattern with every device pinned to its state in `state`.
fn exact_pattern(state: &EnvState) -> StatePattern {
    StatePattern::new(state.iter().map(|(_, s)| Some(s)).collect())
}

/// Intersection of a pattern with one more observed state: slots that
/// disagree become wildcards.
fn intersect(p: &StatePattern, state: &EnvState) -> StatePattern {
    StatePattern::new(
        (0..p.len())
            .map(|i| {
                let d = DeviceId(i);
                match p.slot(d) {
                    Some(required) if state.device(d) == Some(required) => Some(required),
                    _ => None,
                }
            })
            .collect(),
    )
}

/// JSON-friendly serialized form of [`SafeTransitionTable`].
#[derive(Debug, Clone)]
struct TableRepr {
    pairs: Vec<(EnvState, EnvAction)>,
    next: Vec<(EnvState, Vec<EnvState>)>,
    triples: Vec<(DeviceId, StateIdx, jarvis_iot_model::ActionIdx)>,
    patterns: Vec<((DeviceId, StateIdx, jarvis_iot_model::ActionIdx), StatePattern)>,
    allow_noop: bool,
}

json_struct!(TableRepr { pairs, next, triples, patterns, allow_noop });

impl jarvis_stdkit::json::ToJson for SafeTransitionTable {
    fn to_json_value(&self) -> jarvis_stdkit::json::Json {
        TableRepr::from(self.clone()).to_json_value()
    }
}

impl jarvis_stdkit::json::FromJson for SafeTransitionTable {
    fn from_json_value(
        v: &jarvis_stdkit::json::Json,
    ) -> Result<Self, jarvis_stdkit::json::JsonError> {
        TableRepr::from_json_value(v).map(SafeTransitionTable::from)
    }
}

impl From<SafeTransitionTable> for TableRepr {
    fn from(t: SafeTransitionTable) -> Self {
        // The ordered storage already yields sorted, deterministic rows.
        TableRepr {
            pairs: t
                .safe_pairs
                .into_iter()
                .flat_map(|(s, set)| set.into_iter().map(move |a| (s.clone(), a)))
                .collect(),
            next: t
                .safe_next
                .into_iter()
                .map(|(s, set)| (s, set.into_iter().collect()))
                .collect(),
            triples: t.safe_triples.into_iter().collect(),
            patterns: t.patterns.into_iter().collect(),
            allow_noop: t.allow_noop,
        }
    }
}

impl From<TableRepr> for SafeTransitionTable {
    fn from(r: TableRepr) -> Self {
        let mut table = SafeTransitionTable {
            safe_pairs: BTreeMap::new(),
            num_pairs: 0,
            safe_next: r
                .next
                .into_iter()
                .map(|(s, v)| (s, v.into_iter().collect()))
                .collect(),
            safe_triples: r.triples.into_iter().collect(),
            patterns: r.patterns.into_iter().collect(),
            allow_noop: r.allow_noop,
        };
        for (s, a) in r.pairs {
            table.insert_pair(s, a);
        }
        table
    }
}

impl SafeTransitionTable {
    /// An empty table. The no-op action is implicitly safe everywhere:
    /// taking no action never introduces a violation in the paper's model
    /// (only actions change device state).
    #[must_use]
    pub fn new() -> Self {
        SafeTransitionTable {
            allow_noop: true,
            ..SafeTransitionTable::default()
        }
    }

    /// Disable the implicit no-op rule (strictest possible table).
    pub fn set_allow_noop(&mut self, allow: bool) {
        self.allow_noop = allow;
    }

    /// Mark `(state, action) → next` as safe. Returns whether the pair was
    /// inserted: `false` when it was already safe, or when `fsm` cannot step
    /// `action` from `state` (an action outside the catalogue), in which
    /// case nothing is recorded.
    pub fn allow(&mut self, fsm: &Fsm, state: &EnvState, action: &EnvAction) -> bool {
        let Ok(next) = fsm.step(state, action) else { return false };
        let inserted = self.insert_pair(state.clone(), action.clone());
        self.safe_next.entry(state.clone()).or_default().insert(next);
        for m in action.iter() {
            if let Some(dev_state) = state.device(m.device) {
                let key = (m.device, dev_state, m.action);
                self.safe_triples.insert(key);
                self.patterns
                    .entry(key)
                    .and_modify(|p| *p = intersect(p, state))
                    .or_insert_with(|| exact_pattern(state));
            }
        }
        inserted
    }

    /// Record `(state, action)` in `safe_pairs`, counting it when new;
    /// returns whether it was new.
    fn insert_pair(&mut self, state: EnvState, action: EnvAction) -> bool {
        let actions = self.safe_pairs.entry(state).or_insert_with(|| Vec::with_capacity(1));
        let Err(at) = actions.binary_search(&action) else { return false };
        actions.insert(at, action);
        self.num_pairs += 1;
        true
    }

    /// Number of safe (state, action) pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_pairs
    }

    /// True when nothing has been learned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.safe_pairs.is_empty()
    }

    /// Number of distinct states with at least one safe outgoing action.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.safe_next.len()
    }

    /// `P_safe[S, S'] = 1`? (state-pair query used by Algorithm 2's
    /// exploration loop).
    #[must_use]
    pub fn is_safe_transition(&self, state: &EnvState, next: &EnvState) -> bool {
        if self.allow_noop && state == next {
            return true;
        }
        self.safe_next.get(state).is_some_and(|set| set.contains(next))
    }

    /// Is `(state, action)` safe under `mode`?
    #[must_use]
    pub fn is_safe_action(&self, state: &EnvState, action: &EnvAction, mode: MatchMode) -> bool {
        if self.allow_noop && action.is_empty() {
            return true;
        }
        match mode {
            MatchMode::Exact => self
                .safe_pairs
                .get(state)
                .is_some_and(|actions| actions.binary_search(action).is_ok()),
            MatchMode::DeviceContext | MatchMode::Generalized => {
                action.iter().all(|m| self.is_safe_component(state, m, mode))
            }
        }
    }

    /// The per-mini-action rule of the generalizing modes: is `m`'s
    /// `(device, device-state, action)` triple safe in `state`?
    fn is_safe_component(&self, state: &EnvState, m: &MiniAction, mode: MatchMode) -> bool {
        state.device(m.device).is_some_and(|s| {
            let key = (m.device, s, m.action);
            match mode {
                MatchMode::Generalized => self.patterns.get(&key).is_some_and(|p| p.matches(state)),
                _ => self.safe_triples.contains(&key),
            }
        })
    }

    /// Call `mark(i)` for every `minis[i]` that is safe in `state` as a
    /// single-mini action under `mode` — exactly the `i` for which
    /// `is_safe_action(state, &EnvAction::single(minis[i]), mode)` holds,
    /// in ascending order, without building an action or cloning the
    /// state. Under [`MatchMode::Exact`] the state is looked up once and
    /// each mini-action is probed in that state's own action set.
    pub fn for_each_safe_mini(
        &self,
        state: &EnvState,
        minis: &[MiniAction],
        mode: MatchMode,
        mut mark: impl FnMut(usize),
    ) {
        match mode {
            MatchMode::Exact => {
                let Some(actions) = self.safe_pairs.get(state) else { return };
                for (i, m) in minis.iter().enumerate() {
                    let single = std::slice::from_ref(m);
                    if actions.binary_search_by(|a| a.minis().cmp(single)).is_ok() {
                        mark(i);
                    }
                }
            }
            MatchMode::DeviceContext | MatchMode::Generalized => {
                for (i, m) in minis.iter().enumerate() {
                    if self.is_safe_component(state, m, mode) {
                        mark(i);
                    }
                }
            }
        }
    }

    /// The generalized trigger pattern learned for a `(device, state,
    /// action)` triple, if the triple was ever observed — the "Safe
    /// Triggers" column of Table II.
    #[must_use]
    pub fn generalized_pattern(
        &self,
        device: DeviceId,
        state: StateIdx,
        action: jarvis_iot_model::ActionIdx,
    ) -> Option<&StatePattern> {
        self.patterns.get(&(device, state, action))
    }

    /// The safe next states of `state` (excluding the implicit self-loop),
    /// in sorted order.
    #[must_use]
    pub fn safe_next_states(&self, state: &EnvState) -> Vec<EnvState> {
        self.safe_next
            .get(state)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Iterate over the safe (state, action) pairs, in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&EnvState, &EnvAction)> {
        self.safe_pairs.iter().flat_map(|(s, actions)| actions.iter().map(move |a| (s, a)))
    }

    /// Build the table from aggregated T/A behavior, keeping pairs whose
    /// instance count exceeds `thresh_env` (the final loop of Algorithm 1).
    #[must_use]
    pub fn from_behavior(fsm: &Fsm, behavior: &TaBehavior, thresh_env: u64) -> Self {
        let mut table = SafeTransitionTable::new();
        for (key, count) in behavior.iter() {
            if count > thresh_env {
                table.allow(fsm, &key.state, &key.action);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_iot_model::{DeviceSpec, MiniAction, TimeStep};

    fn fsm() -> Fsm {
        let light = DeviceSpec::builder("light")
            .states(["off", "on"])
            .actions(["power_off", "power_on"])
            .transition("off", "power_on", "on")
            .transition("on", "power_off", "off")
            .build()
            .unwrap();
        let lock = DeviceSpec::builder("lock")
            .states(["locked", "unlocked"])
            .actions(["lock", "unlock"])
            .transition("locked", "unlock", "unlocked")
            .transition("unlocked", "lock", "locked")
            .build()
            .unwrap();
        Fsm::new(vec![light, lock]).unwrap()
    }

    fn st(v: &[u8]) -> EnvState {
        v.iter().map(|&x| StateIdx(x)).collect()
    }

    fn act(d: usize, a: u8) -> EnvAction {
        EnvAction::single(MiniAction::new(DeviceId(d), a))
    }

    #[test]
    fn noop_is_implicitly_safe() {
        let t = SafeTransitionTable::new();
        assert!(t.is_safe_action(&st(&[0, 0]), &EnvAction::noop(), MatchMode::Exact));
        assert!(t.is_safe_transition(&st(&[0, 0]), &st(&[0, 0])));
        let mut strict = SafeTransitionTable::new();
        strict.set_allow_noop(false);
        assert!(!strict.is_safe_action(&st(&[0, 0]), &EnvAction::noop(), MatchMode::Exact));
    }

    #[test]
    fn allow_marks_pair_and_transition() {
        let fsm = fsm();
        let mut t = SafeTransitionTable::new();
        t.allow(&fsm, &st(&[0, 0]), &act(0, 1)); // light on from (off, locked)
        assert!(t.is_safe_action(&st(&[0, 0]), &act(0, 1), MatchMode::Exact));
        assert!(t.is_safe_transition(&st(&[0, 0]), &st(&[1, 0])));
        assert!(!t.is_safe_transition(&st(&[0, 0]), &st(&[0, 1])));
        assert_eq!(t.safe_next_states(&st(&[0, 0])), vec![st(&[1, 0])]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.num_states(), 1);
    }

    #[test]
    fn exact_mode_is_context_sensitive() {
        let fsm = fsm();
        let mut t = SafeTransitionTable::new();
        // Light-on observed only while the lock is locked.
        t.allow(&fsm, &st(&[0, 0]), &act(0, 1));
        // Same device action in a different context is NOT safe under Exact.
        assert!(!t.is_safe_action(&st(&[0, 1]), &act(0, 1), MatchMode::Exact));
        // But it IS safe under the DeviceContext generalization.
        assert!(t.is_safe_action(&st(&[0, 1]), &act(0, 1), MatchMode::DeviceContext));
    }

    #[test]
    fn device_context_requires_matching_device_state() {
        let fsm = fsm();
        let mut t = SafeTransitionTable::new();
        t.allow(&fsm, &st(&[0, 0]), &act(0, 1)); // on from off
        // From on (state 1), power_on was never observed.
        assert!(!t.is_safe_action(&st(&[1, 0]), &act(0, 1), MatchMode::DeviceContext));
    }

    #[test]
    fn from_behavior_applies_threshold() {
        let fsm = fsm();
        let mut ta = TaBehavior::new();
        for i in 0..3 {
            ta.observe(st(&[0, 0]), act(0, 1), TimeStep(i));
        }
        ta.observe(st(&[1, 0]), act(0, 0), TimeStep(9)); // seen once
        let t0 = SafeTransitionTable::from_behavior(&fsm, &ta, 0);
        assert!(t0.is_safe_action(&st(&[0, 0]), &act(0, 1), MatchMode::Exact));
        assert!(t0.is_safe_action(&st(&[1, 0]), &act(0, 0), MatchMode::Exact));
        let t2 = SafeTransitionTable::from_behavior(&fsm, &ta, 2);
        assert!(t2.is_safe_action(&st(&[0, 0]), &act(0, 1), MatchMode::Exact));
        assert!(
            !t2.is_safe_action(&st(&[1, 0]), &act(0, 0), MatchMode::Exact),
            "count 1 must not exceed threshold 2"
        );
    }

    #[test]
    fn multi_device_action_all_triples_required() {
        let fsm = fsm();
        let mut t = SafeTransitionTable::new();
        let joint = EnvAction::try_from_minis(vec![
            MiniAction::new(DeviceId(0), 1),
            MiniAction::new(DeviceId(1), 1),
        ])
        .unwrap();
        t.allow(&fsm, &st(&[0, 0]), &joint);
        assert!(t.is_safe_action(&st(&[0, 0]), &joint, MatchMode::Exact));
        // Device-context: both triples observed, so components are safe too.
        assert!(t.is_safe_action(&st(&[0, 0]), &act(0, 1), MatchMode::DeviceContext));
        assert!(t.is_safe_action(&st(&[0, 0]), &act(1, 1), MatchMode::DeviceContext));
        // A triple never observed fails.
        assert!(!t.is_safe_action(&st(&[0, 0]), &act(1, 0), MatchMode::DeviceContext));
    }

    #[test]
    fn generalized_mode_wildcards_varying_devices_only() {
        let fsm = fsm();
        let mut t = SafeTransitionTable::new();
        // light power_on observed from (off, locked) and (off, unlocked):
        // the lock state varies → wildcarded.
        t.allow(&fsm, &st(&[0, 0]), &act(0, 1));
        t.allow(&fsm, &st(&[0, 1]), &act(0, 1));
        // lock unlock observed only from (light on, locked):
        // the light slot stays pinned at `on`.
        t.allow(&fsm, &st(&[1, 0]), &act(1, 1));

        // Light-on generalizes across lock states.
        assert!(t.is_safe_action(&st(&[0, 0]), &act(0, 1), MatchMode::Generalized));
        assert!(t.is_safe_action(&st(&[0, 1]), &act(0, 1), MatchMode::Generalized));
        // Unlock stays pinned to light=on.
        assert!(t.is_safe_action(&st(&[1, 0]), &act(1, 1), MatchMode::Generalized));
        assert!(!t.is_safe_action(&st(&[0, 0]), &act(1, 1), MatchMode::Generalized));
        // Never-observed triple is unsafe.
        assert!(!t.is_safe_action(&st(&[1, 0]), &act(0, 0), MatchMode::Generalized));
        // Pattern accessor renders the Table II view.
        let p = t
            .generalized_pattern(DeviceId(0), StateIdx(0), jarvis_iot_model::ActionIdx(1))
            .unwrap();
        assert_eq!(p.to_string(), "(p0, X)");
    }

    #[test]
    fn serde_round_trip() {
        let fsm = fsm();
        let mut t = SafeTransitionTable::new();
        t.allow(&fsm, &st(&[0, 0]), &act(0, 1));
        use jarvis_stdkit::json::{FromJson, ToJson};
        let json = t.to_json();
        let back = SafeTransitionTable::from_json(&json).unwrap();
        assert_eq!(t, back);
    }
}
