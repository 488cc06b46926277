//! Incremental SPL: a shadow delta over `P_safe` with fold hysteresis.
//!
//! The paper's Algorithm 1 learns the safe-transition table once, from a
//! frozen learning phase. A production fleet keeps serving while routines
//! drift, so the table must keep learning *online* — but a naive "admit
//! whatever we see" rule would let one anomalous day (a compromised app, a
//! sensor storm, a visiting occupant) poison `P_safe` and blind the
//! monitor. [`SplDelta`] is the guard between the live stream and the
//! table:
//!
//! 1. **Shadow accumulation** — candidate (state, action) pairs (actions
//!    the monitor currently flags) are counted in a shadow *window*, never
//!    touching the serving table.
//! 2. **Deterministic folds** — on a caller-driven cadence (every N
//!    envelopes of virtual time, never wall clock) the window is folded:
//!    pairs whose window count clears `support_threshold` advance a streak
//!    counter, everything else resets.
//! 3. **Hysteresis** — only a pair whose streak reaches `hysteresis`
//!    *consecutive* supported folds is admitted into `P_safe`. With a fold
//!    cadence of roughly a day and `hysteresis ≥ 2`, a single anomalous
//!    day can never add a pair: its streak dies at the next fold.
//!
//! Storage is ordered (`BTreeMap`) and the fold iterates in key order, so
//! admission order — and therefore the table bytes — is deterministic
//! (lint rule R1). The delta serializes through the strict stdkit JSON
//! codec so it can ride in runtime snapshots and WAL checkpoints
//! byte-for-byte.

use crate::psafe::SafeTransitionTable;
use jarvis_iot_model::{EnvAction, EnvState, Fsm};
use jarvis_stdkit::json_struct;
use std::collections::BTreeMap;

/// What one [`SplDelta::fold`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldOutcome {
    /// Pairs admitted into the table this fold (streak reached the
    /// hysteresis threshold and the table took the pair), in sorted order.
    pub admitted: Vec<(EnvState, EnvAction)>,
    /// Pairs that cleared the support threshold this fold (streak advanced
    /// or pair admitted).
    pub supported: usize,
    /// Tracked pairs whose streak was reset because the window no longer
    /// supported them.
    pub expired: usize,
}

/// A serializable shadow delta over a [`SafeTransitionTable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplDelta {
    /// Candidate observation counts within the current fold window.
    window: BTreeMap<(EnvState, EnvAction), u64>,
    /// Consecutive supported folds per candidate still under hysteresis.
    streaks: BTreeMap<(EnvState, EnvAction), u32>,
}

/// JSON-friendly row form (struct-keyed maps serialize as sorted rows,
/// mirroring the `TableRepr` convention of [`crate::psafe`]).
#[derive(Debug, Clone)]
struct DeltaRepr {
    window: Vec<((EnvState, EnvAction), u64)>,
    streaks: Vec<((EnvState, EnvAction), u32)>,
}

json_struct!(DeltaRepr { window, streaks });

impl jarvis_stdkit::json::ToJson for SplDelta {
    fn to_json_value(&self) -> jarvis_stdkit::json::Json {
        DeltaRepr {
            window: self.window.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            streaks: self.streaks.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        }
        .to_json_value()
    }
}

impl jarvis_stdkit::json::FromJson for SplDelta {
    fn from_json_value(
        v: &jarvis_stdkit::json::Json,
    ) -> Result<Self, jarvis_stdkit::json::JsonError> {
        let repr = DeltaRepr::from_json_value(v)?;
        Ok(SplDelta {
            window: repr.window.into_iter().collect(),
            streaks: repr.streaks.into_iter().collect(),
        })
    }
}

impl SplDelta {
    /// An empty delta.
    #[must_use]
    pub fn new() -> Self {
        SplDelta::default()
    }

    /// Record one candidate observation in the current window.
    pub fn observe(&mut self, state: &EnvState, action: &EnvAction) {
        *self.window.entry((state.clone(), action.clone())).or_insert(0) += 1;
    }

    /// Candidate pairs in the current window.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Pairs currently holding a hysteresis streak.
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.streaks.len()
    }

    /// True when nothing is pending (no window counts, no streaks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty() && self.streaks.is_empty()
    }

    /// The current hysteresis streak of a pair (0 when untracked).
    #[must_use]
    pub fn streak(&self, state: &EnvState, action: &EnvAction) -> u32 {
        self.streaks.get(&(state.clone(), action.clone())).copied().unwrap_or(0)
    }

    /// Close the current window: advance streaks of supported pairs, reset
    /// everything else, and admit pairs whose streak reaches `hysteresis`
    /// into `table`. The window is cleared; admission iterates in key
    /// order, so the resulting table bytes are deterministic.
    pub fn fold(
        &mut self,
        fsm: &Fsm,
        table: &mut SafeTransitionTable,
        support_threshold: u64,
        hysteresis: u32,
    ) -> FoldOutcome {
        let window = std::mem::take(&mut self.window);
        let mut outcome = FoldOutcome::default();
        let mut next_streaks: BTreeMap<(EnvState, EnvAction), u32> = BTreeMap::new();
        // Tracked pairs whose streak reached the hysteresis this fold.
        let mut graduated = 0usize;
        for (pair, count) in window {
            if count < support_threshold {
                continue;
            }
            outcome.supported += 1;
            let streak = self.streaks.get(&pair).copied().unwrap_or(0) + 1;
            if streak < hysteresis {
                next_streaks.insert(pair, streak);
                continue;
            }
            graduated += usize::from(self.streaks.contains_key(&pair));
            // The table skips a pair the FSM cannot step (an action outside
            // the catalogue): only a pair that entered it is admitted.
            if table.allow(fsm, &pair.0, &pair.1) {
                outcome.admitted.push(pair);
            }
        }
        // Anything tracked but not re-supported this fold loses its streak:
        // hysteresis demands *consecutive* support. Pairs that graduated are
        // not "expired".
        outcome.expired = self
            .streaks
            .keys()
            .filter(|pair| !next_streaks.contains_key(*pair))
            .count()
            - graduated;
        self.streaks = next_streaks;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_iot_model::{DeviceId, DeviceSpec, MiniAction, StateIdx};
    use jarvis_stdkit::json::{FromJson, ToJson};

    fn fsm() -> Fsm {
        let light = DeviceSpec::builder("light")
            .states(["off", "on"])
            .actions(["power_off", "power_on"])
            .transition("off", "power_on", "on")
            .transition("on", "power_off", "off")
            .build()
            .unwrap();
        Fsm::new(vec![light]).unwrap()
    }

    fn st(v: &[u8]) -> EnvState {
        v.iter().map(|&x| StateIdx(x)).collect()
    }

    fn act(a: u8) -> EnvAction {
        EnvAction::single(MiniAction::new(DeviceId(0), a))
    }

    #[test]
    fn admission_requires_consecutive_supported_folds() {
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        let mut delta = SplDelta::new();
        let (s, a) = (st(&[0]), act(1));

        // Fold 1: supported, streak 1 — not admitted yet.
        for _ in 0..3 {
            delta.observe(&s, &a);
        }
        let f1 = delta.fold(&fsm, &mut table, 3, 2);
        assert!(f1.admitted.is_empty());
        assert_eq!(f1.supported, 1);
        assert_eq!(delta.streak(&s, &a), 1);
        assert!(!table.is_safe_action(&s, &a, crate::MatchMode::Exact));

        // Fold 2: supported again — admitted.
        for _ in 0..3 {
            delta.observe(&s, &a);
        }
        let f2 = delta.fold(&fsm, &mut table, 3, 2);
        assert_eq!(f2.admitted.len(), 1);
        assert!(table.is_safe_action(&s, &a, crate::MatchMode::Exact));
        assert_eq!(delta.streak(&s, &a), 0, "admitted pairs leave the streak map");
    }

    #[test]
    fn one_unsupported_fold_resets_the_streak() {
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        let mut delta = SplDelta::new();
        let (s, a) = (st(&[0]), act(1));

        for _ in 0..5 {
            delta.observe(&s, &a);
        }
        delta.fold(&fsm, &mut table, 3, 3);
        assert_eq!(delta.streak(&s, &a), 1);

        // A quiet window (a single anomalous day followed by normal days)
        // kills the streak — hysteresis demands consecutive support.
        let f = delta.fold(&fsm, &mut table, 3, 3);
        assert_eq!(f.expired, 1);
        assert_eq!(delta.streak(&s, &a), 0);
        assert!(!table.is_safe_action(&s, &a, crate::MatchMode::Exact));
    }

    #[test]
    fn below_threshold_counts_never_advance() {
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        let mut delta = SplDelta::new();
        let (s, a) = (st(&[0]), act(1));
        for _ in 0..10 {
            delta.observe(&s, &a);
            let f = delta.fold(&fsm, &mut table, 11, 1);
            assert_eq!(f.supported, 0);
        }
        assert!(!table.is_safe_action(&s, &a, crate::MatchMode::Exact));
    }

    #[test]
    fn pairs_outside_the_catalogue_are_never_admitted() {
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        let before = table.clone();
        let mut delta = SplDelta::new();
        let bogus = EnvAction::single(MiniAction::new(DeviceId(7), 0));
        delta.observe(&st(&[0]), &bogus);
        let f = delta.fold(&fsm, &mut table, 1, 1);
        assert_eq!(f.supported, 1);
        assert!(f.admitted.is_empty(), "the table never took the pair");
        assert_eq!(table, before);
    }

    #[test]
    fn delta_round_trips_byte_for_byte() {
        let mut delta = SplDelta::new();
        delta.observe(&st(&[0]), &act(1));
        delta.observe(&st(&[0]), &act(1));
        delta.observe(&st(&[1]), &act(0));
        // Give it a live streak too.
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        delta.fold(&fsm, &mut table, 2, 5);
        delta.observe(&st(&[1]), &act(0));

        let json = delta.to_json();
        let back = SplDelta::from_json(&json).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.to_json(), json, "serialization must be byte-stable");
    }
}
