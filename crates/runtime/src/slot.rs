//! Per-home serving state: the slot a worker shard owns for one home.

use crate::online::{OnlineConfig, OnlineLearner};
use jarvis::{encode_observation_into, JarvisError, Verdict};
use jarvis_iot_model::{EnvAction, EnvState, MiniAction, TimeStep};
use jarvis_policy::{Enforcer, MatchMode, SafeTransitionTable};
use jarvis_rl::policy::{mask_bits, mask_set, mask_words};
use jarvis_rl::Experience;
use jarvis_sim::MINUTES_PER_DAY;
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::json_struct;
use std::sync::Arc;

/// The serializable dynamic state of one [`HomeSlot`].
///
/// [`SmartHome`] itself (the device catalogue) is *not* serialized: a
/// snapshot restores onto a runtime whose homes are already registered from
/// the same deployment catalogue. The `checkpoint` field carries the home's
/// training state — an `OptimizerCheckpoint` JSON document — so a restored
/// shard can also resume per-home learning exactly where it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeSnapshot {
    /// The home's runtime id.
    pub id: u64,
    /// The home's learned safe-transition table, shared copy-on-write with
    /// the slot it was taken from: taking or restoring a snapshot bumps a
    /// reference count instead of cloning the table, and the slot's only
    /// table writer (the SPL fold) copies before it mutates a shared one,
    /// so a held snapshot never changes. Serializes exactly like the bare
    /// table.
    pub table: Arc<SafeTransitionTable>,
    /// The home's current device state.
    pub state: EnvState,
    /// Minute-of-day of the last processed event.
    pub minute: u32,
    /// Violations blocked so far.
    pub alarms: u64,
    /// Events processed so far.
    pub processed: u64,
    /// The home's `OptimizerCheckpoint` JSON, when training state rides
    /// along with the slot.
    pub checkpoint: Option<String>,
    /// The home's continual-learning state, when online learning is
    /// enabled (DESIGN.md §16). Riding in the snapshot is what makes WAL
    /// recovery and rollback byte-identical with learning on.
    pub online: Option<OnlineLearner>,
}

json_struct!(HomeSnapshot { id, table, state, minute, alarms, processed, checkpoint, online });

/// One home's complete serving state, owned by exactly one worker shard.
#[derive(Debug, Clone)]
pub struct HomeSlot {
    id: u64,
    home: SmartHome,
    /// Copy-on-write: shared with every [`HomeSnapshot`] taken since the
    /// slot's last SPL fold.
    table: Arc<SafeTransitionTable>,
    mode: MatchMode,
    state: EnvState,
    minute: u32,
    alarms: u64,
    processed: u64,
    checkpoint: Option<String>,
    /// Continual-learning state; `None` until
    /// [`crate::ServingRuntime::enable_online`] installs a learner.
    online: Option<Box<OnlineLearner>>,
    state_sizes: Vec<usize>,
    /// The flat-index → mini-action map, shared behind an `Arc` so a parked
    /// query can carry it into its batch without cloning the catalogue or
    /// touching this slot again.
    agent_actions: Arc<Vec<MiniAction>>,
    /// The valid-action bitmask of the current `state` (bit `a` ⇔ flat
    /// action `a` allowed), sized once at construction; rebuilt in place
    /// when `mask_stale` is set. Derived data — never serialized, never
    /// compared.
    valid_mask: Vec<u64>,
    /// Whether `valid_mask` predates the last state move or table fold.
    mask_stale: bool,
}

impl HomeSlot {
    /// Build a slot for `home` starting from its midnight state.
    #[must_use]
    pub fn new(id: u64, home: SmartHome, table: SafeTransitionTable, mode: MatchMode) -> Self {
        let state = home.midnight_state();
        let state_sizes = home.fsm().state_sizes();
        let agent_actions = Arc::new(home.agent_mini_actions());
        let valid_mask = vec![0; mask_words(agent_actions.len() + 1)];
        HomeSlot {
            id,
            home,
            table: Arc::new(table),
            mode,
            state,
            minute: 0,
            alarms: 0,
            processed: 0,
            checkpoint: None,
            online: None,
            state_sizes,
            agent_actions,
            valid_mask,
            mask_stale: true,
        }
    }

    /// The home's runtime id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The home's device catalogue.
    #[must_use]
    pub fn home(&self) -> &SmartHome {
        &self.home
    }

    /// The home's current device state.
    #[must_use]
    pub fn state(&self) -> &EnvState {
        &self.state
    }

    /// Violations blocked so far.
    #[must_use]
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Minute-of-day of the last processed event.
    #[must_use]
    pub fn minute(&self) -> u32 {
        self.minute
    }

    /// Observation width the policy network must accept for this home.
    #[must_use]
    pub fn obs_dim(&self) -> usize {
        self.state_sizes.iter().sum::<usize>() + 5
    }

    /// Flat action-space size (agent mini-actions + the no-op).
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.agent_actions.len() + 1
    }

    /// The agent-executable mini-action behind a flat policy index
    /// (`None` = no-op / out of range).
    #[must_use]
    pub fn mini_for(&self, flat: usize) -> Option<MiniAction> {
        if flat == 0 {
            None
        } else {
            self.agent_actions.get(flat - 1).copied()
        }
    }

    /// The shared flat-index → mini-action map (entry `i` answers flat
    /// index `i + 1`; flat 0 is the no-op).
    #[must_use]
    pub(crate) fn actions(&self) -> Arc<Vec<MiniAction>> {
        Arc::clone(&self.agent_actions)
    }

    /// Attach (or clear) the home's `OptimizerCheckpoint` JSON.
    pub fn set_checkpoint(&mut self, checkpoint: Option<String>) {
        self.checkpoint = checkpoint;
    }

    /// The home's attached `OptimizerCheckpoint` JSON, if any.
    #[must_use]
    pub fn checkpoint_json(&self) -> Option<&str> {
        self.checkpoint.as_deref()
    }

    /// Install (or replace) the slot's continual-learning state.
    pub(crate) fn enable_online(&mut self, config: OnlineConfig) {
        self.online = Some(Box::new(OnlineLearner::new(config)));
    }

    /// The slot's continual-learning state, when enabled.
    #[must_use]
    pub fn online(&self) -> Option<&OnlineLearner> {
        self.online.as_deref()
    }

    /// Mutable continual-learning state (the fine-tuner drains replay
    /// deltas through this).
    pub(crate) fn online_mut(&mut self) -> Option<&mut OnlineLearner> {
        self.online.as_deref_mut()
    }

    /// `(folds, admitted)` lifetime counters of the online learner — the
    /// supervisor diffs these around event application to emit WAL fold
    /// records.
    #[must_use]
    pub(crate) fn online_stats(&self) -> Option<(u64, u64)> {
        self.online.as_ref().map(|o| (o.folds, o.admitted))
    }

    /// Advance the bookkeeping clock for one incoming event. With `learn`
    /// set and a learner installed, the event also advances the SPL fold
    /// cadence, folding the shadow delta into the safe table when due —
    /// quarantined and degraded-mode paths pass `learn = false`, so
    /// anomalous windows never move the cadence or the table.
    pub(crate) fn note_event(&mut self, minute: u32, learn: bool) {
        self.minute = self.minute.max(minute);
        self.processed += 1;
        if !learn {
            return;
        }
        let Some(online) = self.online.as_deref_mut() else { return };
        online.since_fold += 1;
        if online.since_fold < online.config.fold_every {
            return;
        }
        online.since_fold = 0;
        // The table's only writer: copy it first if a snapshot shares it.
        let outcome = online.delta.fold(
            self.home.fsm(),
            Arc::make_mut(&mut self.table),
            online.config.support_threshold,
            online.config.hysteresis_folds,
        );
        online.folds += 1;
        online.admitted += outcome.admitted.len() as u64;
        if !outcome.admitted.is_empty() {
            // The safe set just grew: the valid mask is stale.
            self.mask_stale = true;
        }
    }

    /// Record a decision query's ambient telemetry so between-query replay
    /// experiences encode against the conditions the home actually sees.
    pub(crate) fn note_ambient(&mut self, indoor_c: f64, outdoor_c: f64, price_per_kwh: f64) {
        if let Some(online) = self.online.as_deref_mut() {
            online.ambient =
                crate::online::AmbientTelemetry { indoor_c, outdoor_c, price_per_kwh };
        }
    }

    /// The slot's enforcement cascade: the safe-transition table alone, no
    /// manual rules and no filter.
    fn enforcer(&self) -> Enforcer<'_> {
        Enforcer { table: &self.table, mode: self.mode, manual: None, filter: None }
    }

    /// The monitor path: judge `mini` through the slot's [`Enforcer`], step
    /// the state when it is allowed, block and alarm when it is a
    /// violation.
    ///
    /// A mini-action outside this home's catalogue is not an error: no
    /// table holds it, so it is a [`Verdict::Violation`], and a served
    /// stream never aborts on one bad envelope.
    ///
    /// With `learn` set and a learner installed, a blocked action feeds the
    /// shadow SPL delta (a candidate for hysteresis admission) and a safe
    /// agent-action appends a replay-delta [`Experience`] for the
    /// fine-tuner.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Model`] only when the table allows an action
    /// the home's FSM cannot step (a table learned for another catalogue).
    pub(crate) fn observe_action(
        &mut self,
        mini: MiniAction,
        learn: bool,
    ) -> Result<Verdict, JarvisError> {
        let action = EnvAction::single(mini);
        let learning = learn && self.online.is_some();
        let verdict = self.enforcer().verdict(&self.state, &action, TimeStep(self.minute));
        if verdict == Verdict::Violation {
            self.alarms += 1;
            if learning {
                if let Some(online) = self.online.as_deref_mut() {
                    online.delta.observe(&self.state, &action);
                }
            }
        } else {
            // Snapshot the pre-step observation only when a replay
            // experience will actually be recorded.
            let flat = if learning {
                self.agent_actions.iter().position(|&m| m == mini).map(|i| i + 1)
            } else {
                None
            };
            let before = flat.map(|_| self.encode_ambient(self.minute));
            self.state = self.home.fsm().step(&self.state, &action)?;
            self.mask_stale = true;
            if let (Some(flat), Some(state)) = (flat, before) {
                let next = self.encode_ambient(self.minute);
                let next_valid = mask_bits(self.valid_mask()).collect();
                if let Some(online) = self.online.as_deref_mut() {
                    online.push_experience(Experience {
                        state,
                        action: flat,
                        reward: 1.0,
                        next,
                        next_valid,
                        done: false,
                    });
                }
            }
        }
        Ok(verdict)
    }

    /// Encode the current state against the learner's last-seen ambient
    /// telemetry (defaults before the first query).
    fn encode_ambient(&self, minute: u32) -> Vec<f64> {
        let ambient = self
            .online
            .as_deref()
            .map(|o| o.ambient.clone())
            .unwrap_or_default();
        self.encode(minute, ambient.indoor_c, ambient.outdoor_c, ambient.price_per_kwh)
    }

    /// Apply an exogenous sensor event to the home's state, unchecked.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Model`] when `mini` does not belong to this
    /// home's catalogue.
    pub(crate) fn apply_sensor(&mut self, mini: MiniAction) -> Result<(), JarvisError> {
        self.state = self.home.fsm().step(&self.state, &EnvAction::single(mini))?;
        self.mask_stale = true;
        Ok(())
    }

    /// Encode the policy observation for a query at `minute` with the given
    /// ambient telemetry — byte-for-byte the encoding `HomeRlEnv` trains
    /// against.
    #[must_use]
    pub(crate) fn encode(
        &self,
        minute: u32,
        indoor_c: f64,
        outdoor_c: f64,
        price_per_kwh: f64,
    ) -> Vec<f64> {
        let mut obs = vec![0.0; self.obs_dim()];
        self.encode_into(minute, indoor_c, outdoor_c, price_per_kwh, &mut obs);
        obs
    }

    /// [`HomeSlot::encode`] written into `out`, which must be exactly
    /// [`HomeSlot::obs_dim`] long.
    pub(crate) fn encode_into(
        &self,
        minute: u32,
        indoor_c: f64,
        outdoor_c: f64,
        price_per_kwh: f64,
        out: &mut [f64],
    ) {
        encode_observation_into(
            &self.state,
            &self.state_sizes,
            minute,
            MINUTES_PER_DAY,
            indoor_c,
            outdoor_c,
            price_per_kwh,
            out,
        );
    }

    /// Words of this home's valid-action bitmask: one bit per flat action.
    #[must_use]
    pub fn mask_words(&self) -> usize {
        mask_words(self.num_actions())
    }

    /// Write the valid-action bitmask of the current state into `mask`
    /// ([`HomeSlot::mask_words`] long): bit `a` is set exactly when the
    /// slot's [`Enforcer`] allows flat action `a` right now, and bit 0 —
    /// the no-op — always. One table probe for the state under
    /// [`MatchMode::Exact`]; no allocation in any mode.
    pub fn fill_valid_mask(&self, mask: &mut [u64]) {
        mask.fill(0);
        mask_set(mask, 0);
        self.enforcer().for_each_allowed(&self.state, &self.agent_actions, |i| {
            mask_set(mask, i + 1);
        });
    }

    /// The memoized [`HomeSlot::fill_valid_mask`] of the current state,
    /// rebuilt in place only after the state moved or the table grew:
    /// streams are query-heavy relative to state changes, so most calls
    /// return the stored words.
    pub(crate) fn valid_mask(&mut self) -> &[u64] {
        if self.mask_stale {
            let mut mask = std::mem::take(&mut self.valid_mask);
            self.fill_valid_mask(&mut mask);
            self.valid_mask = mask;
            self.mask_stale = false;
        }
        &self.valid_mask
    }

    /// Snapshot the slot's dynamic state. The safe table is shared with the
    /// snapshot, not cloned.
    #[must_use]
    pub fn snapshot(&self) -> HomeSnapshot {
        HomeSnapshot {
            id: self.id,
            table: Arc::clone(&self.table),
            state: self.state.clone(),
            minute: self.minute,
            alarms: self.alarms,
            processed: self.processed,
            checkpoint: self.checkpoint.clone(),
            online: self.online.as_deref().cloned(),
        }
    }

    /// Restore the slot's dynamic state from a snapshot of the same home.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when the snapshot names a different
    /// home and [`JarvisError::Model`] when its state does not validate
    /// against this home's FSM.
    pub(crate) fn restore(&mut self, snap: &HomeSnapshot) -> Result<(), JarvisError> {
        if snap.id != self.id {
            return Err(JarvisError::Config(format!(
                "snapshot is for home {}, slot holds home {}",
                snap.id, self.id
            )));
        }
        self.home.fsm().validate_state(&snap.state)?;
        self.table = Arc::clone(&snap.table);
        self.state = snap.state.clone();
        self.minute = snap.minute;
        self.alarms = snap.alarms;
        self.processed = snap.processed;
        self.checkpoint = snap.checkpoint.clone();
        self.online = snap.online.clone().map(Box::new);
        self.mask_stale = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_iot_model::DeviceId;

    #[test]
    fn out_of_catalogue_action_is_a_violation_that_never_enters_the_table() {
        let home = SmartHome::evaluation_home();
        let mut slot = HomeSlot::new(0, home, SafeTransitionTable::new(), MatchMode::Exact);
        slot.enable_online(OnlineConfig {
            fold_every: 1,
            support_threshold: 1,
            hysteresis_folds: 1,
            ..OnlineConfig::default()
        });
        let before = slot.state().clone();
        let bogus = MiniAction::new(DeviceId(99), 0);
        assert_eq!(slot.observe_action(bogus, true).unwrap(), Verdict::Violation);
        assert_eq!((slot.alarms(), slot.state()), (1, &before));
        // The fold that follows supports the pair, but the table cannot
        // take it, so nothing is admitted.
        slot.note_event(0, true);
        let online = slot.online().unwrap();
        assert_eq!((online.folds, online.admitted), (1, 0));
        assert!(slot.snapshot().table.is_empty());
    }
}
