//! The §V-A enforcement cascade, written once.
//!
//! Every checker in the workspace decides through one [`Enforcer`]: the
//! stateful `RuntimeMonitor`, the RL environment's constraint and
//! violation meter, the serving runtime's per-home slot, active learning
//! and the ablation experiments. The order is the paper's:
//!
//! 1. **manual rules** ([`ManualPolicy`]): the first matching rule wins. An
//!    `Allow` makes the action [`Verdict::Safe`]; a `Deny` makes it a
//!    [`Verdict::Violation`] that no later stage excuses (the rules encode
//!    user safety, not habit);
//! 2. **`P_safe`** ([`SafeTransitionTable`]) under the enforcer's
//!    [`MatchMode`]: a hit is [`Verdict::Safe`];
//! 3. **the benign-anomaly ANN** ([`AnomalyFilter`]): an off-table action it
//!    classifies as a benign anomaly is [`Verdict::Excused`];
//! 4. anything else is a [`Verdict::Violation`].
//!
//! The enforcer judges and keeps no state. How a verdict moves the tracked
//! state is the caller's rule, and so is an action outside the home's
//! catalogue:
//!
//! - `RuntimeMonitor::observe` validates the action against the home's FSM
//!   before it asks the enforcer, and returns an error for an unknown
//!   device or action index;
//! - the serving runtime's `HomeSlot` asks the enforcer directly. No table
//!   holds an out-of-catalogue action, so it is a [`Verdict::Violation`]: a
//!   served stream must not abort on one bad envelope.

use crate::filter::AnomalyFilter;
use crate::manual::{ManualPolicy, RuleEffect};
use crate::psafe::{MatchMode, SafeTransitionTable};
use jarvis_iot_model::{EnvAction, EnvState, MiniAction, TimeStep};

/// The verdict of the enforcement cascade on one attempted action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Within learned/manual safe behavior: allow.
    Safe,
    /// Outside safe behavior but recognized as a benign anomaly: allow and
    /// log (the ANN excusal path of Section VI-C).
    Excused,
    /// Outside safe behavior and not excusable: block and alarm.
    Violation,
}

/// A borrowed view of the policies one checker enforces, in cascade order.
#[derive(Debug, Clone, Copy)]
pub struct Enforcer<'a> {
    /// The learned safe-transition table.
    pub table: &'a SafeTransitionTable,
    /// How table queries match.
    pub mode: MatchMode,
    /// Manual emergency rules, consulted before the table.
    pub manual: Option<&'a ManualPolicy>,
    /// The benign-anomaly ANN, consulted only for off-table actions.
    pub filter: Option<&'a AnomalyFilter>,
}

impl Enforcer<'_> {
    /// Judge `action` in `state` at time instance `t` (the time is read only
    /// by the filter).
    #[must_use]
    pub fn verdict(&self, state: &EnvState, action: &EnvAction, t: TimeStep) -> Verdict {
        match self.manual.and_then(|m| m.decide(state, action)) {
            Some(RuleEffect::Allow) => Verdict::Safe,
            Some(RuleEffect::Deny) => Verdict::Violation,
            None if self.table.is_safe_action(state, action, self.mode) => Verdict::Safe,
            // A filter error means the transition disagrees with the FSM the
            // filter was built for: it excuses nothing.
            None if self
                .filter
                .is_some_and(|f| f.is_anomalous(state, action, t).unwrap_or(false)) =>
            {
                Verdict::Excused
            }
            None => Verdict::Violation,
        }
    }

    /// Call `mark(i)`, in ascending order, for every `minis[i]` the manual
    /// rules and the table allow in `state` as a single-mini action — the
    /// valid-action mask. Manual rules override the table's
    /// [`SafeTransitionTable::for_each_safe_mini`] probe in both
    /// directions; the filter is never consulted (an excusal is logged
    /// after the fact, not offered as a choice). With no manual rules this
    /// is the bare table probe.
    pub fn for_each_allowed(
        &self,
        state: &EnvState,
        minis: &[MiniAction],
        mut mark: impl FnMut(usize),
    ) {
        let Some(manual) = self.manual.filter(|m| !m.is_empty()) else {
            return self.table.for_each_safe_mini(state, minis, self.mode, mark);
        };
        let decide = |i: usize| manual.decide(state, &EnvAction::single(minis[i]));
        // Walk the table's safe indices in step with every index between
        // them, so marks stay ascending.
        let mut next = 0;
        self.table.for_each_safe_mini(state, minis, self.mode, |safe| {
            for i in next..safe {
                if decide(i) == Some(RuleEffect::Allow) {
                    mark(i);
                }
            }
            if decide(safe) != Some(RuleEffect::Deny) {
                mark(safe);
            }
            next = safe + 1;
        });
        for i in next..minis.len() {
            if decide(i) == Some(RuleEffect::Allow) {
                mark(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterConfig;
    use crate::manual::ManualRule;
    use jarvis_iot_model::{
        ActionIdx, ActionPattern, DeviceId, DeviceSpec, EpisodeConfig, Fsm, StateIdx,
        StatePattern,
    };

    /// Device 0 = lock (locked/unlocked), device 1 = sensor (ok/alarm/off).
    fn fsm() -> Fsm {
        let lock = DeviceSpec::builder("lock")
            .states(["locked", "unlocked"])
            .actions(["lock", "unlock"])
            .transition("locked", "unlock", "unlocked")
            .transition("unlocked", "lock", "locked")
            .build()
            .unwrap();
        let sensor = DeviceSpec::builder("sensor")
            .states(["ok", "alarm", "off"])
            .actions(["power_off", "power_on"])
            .transition("ok", "power_off", "off")
            .transition("alarm", "power_off", "off")
            .transition("off", "power_on", "ok")
            .build()
            .unwrap();
        Fsm::new(vec![lock, sensor]).unwrap()
    }

    fn st(v: &[u8]) -> EnvState {
        v.iter().map(|&x| StateIdx(x)).collect()
    }

    fn mini(d: usize, a: u8) -> MiniAction {
        MiniAction::new(DeviceId(d), a)
    }

    fn act(d: usize, a: u8) -> EnvAction {
        EnvAction::single(mini(d, a))
    }

    /// Unlock during an alarm is allowed; powering the sensor off is denied.
    fn rules() -> ManualPolicy {
        let mut p = ManualPolicy::new();
        p.add_rule(ManualRule {
            name: "alarm egress".into(),
            trigger: StatePattern::any(2).with(DeviceId(1), StateIdx(1)),
            action: ActionPattern::any(2).with(DeviceId(0), ActionIdx(1)),
            effect: RuleEffect::Allow,
        });
        p.add_rule(ManualRule {
            name: "sensor stays on".into(),
            trigger: StatePattern::any(2),
            action: ActionPattern::any(2).with(DeviceId(1), ActionIdx(0)),
            effect: RuleEffect::Deny,
        });
        p
    }

    /// An untrained filter whose threshold makes every score (`>= 0`) a
    /// benign anomaly, or none (`> 1`).
    fn filter(fsm: &Fsm, excuse_all: bool) -> AnomalyFilter {
        let threshold = if excuse_all { 0.0 } else { 2.0 };
        let cfg = FilterConfig { threshold, ..FilterConfig::default() };
        AnomalyFilter::new(fsm, EpisodeConfig::DAILY_MINUTES, cfg).unwrap()
    }

    #[test]
    fn deny_is_strict_over_the_filter() {
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        assert!(table.allow(&fsm, &st(&[0, 0]), &act(1, 0)));
        let (manual, excuse_all) = (rules(), filter(&fsm, true));
        let enforcer = Enforcer {
            table: &table,
            mode: MatchMode::Exact,
            manual: Some(&manual),
            filter: Some(&excuse_all),
        };
        // Learned and excusable, yet denied.
        assert_eq!(enforcer.verdict(&st(&[0, 0]), &act(1, 0), TimeStep(0)), Verdict::Violation);
        assert_eq!(enforcer.verdict(&st(&[1, 1]), &act(1, 0), TimeStep(0)), Verdict::Violation);
    }

    #[test]
    fn allow_overrides_the_table() {
        let fsm = fsm();
        let table = SafeTransitionTable::new();
        let (manual, never) = (rules(), filter(&fsm, false));
        let enforcer = Enforcer {
            table: &table,
            mode: MatchMode::Exact,
            manual: Some(&manual),
            filter: Some(&never),
        };
        assert_eq!(enforcer.verdict(&st(&[0, 1]), &act(0, 1), TimeStep(0)), Verdict::Safe);
        // Outside the rule's trigger the empty table decides.
        assert_eq!(enforcer.verdict(&st(&[0, 0]), &act(0, 1), TimeStep(0)), Verdict::Violation);
    }

    #[test]
    fn only_off_table_actions_are_excused() {
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        assert!(table.allow(&fsm, &st(&[0, 0]), &act(0, 1)));
        let (excuse_all, never) = (filter(&fsm, true), filter(&fsm, false));
        let with = |filter| Enforcer { table: &table, mode: MatchMode::Exact, manual: None, filter };
        let (on_table, off_table) = (act(0, 1), act(1, 0));
        let s = st(&[0, 0]);
        assert_eq!(with(Some(&excuse_all)).verdict(&s, &on_table, TimeStep(0)), Verdict::Safe);
        assert_eq!(with(Some(&excuse_all)).verdict(&s, &off_table, TimeStep(0)), Verdict::Excused);
        assert_eq!(with(Some(&never)).verdict(&s, &off_table, TimeStep(0)), Verdict::Violation);
        assert_eq!(with(None).verdict(&s, &off_table, TimeStep(0)), Verdict::Violation);
    }

    #[test]
    fn allowed_set_applies_manual_rules_but_never_the_filter() {
        let fsm = fsm();
        let mut table = SafeTransitionTable::new();
        let alarm = st(&[0, 1]);
        assert!(table.allow(&fsm, &alarm, &act(1, 0)));
        let (manual, excuse_all) = (rules(), filter(&fsm, true));
        let minis = [mini(0, 0), mini(0, 1), mini(1, 0), mini(1, 1)];
        let allowed = |enforcer: Enforcer<'_>| {
            let mut marked = Vec::new();
            enforcer.for_each_allowed(&alarm, &minis, |i| marked.push(i));
            marked
        };
        let bare = Enforcer { table: &table, mode: MatchMode::Exact, manual: None, filter: None };
        assert_eq!(allowed(bare), vec![2]);
        // The rules open the unlock and close the learned power-off; the
        // excuse-everything filter opens nothing.
        let stacked = Enforcer { manual: Some(&manual), filter: Some(&excuse_all), ..bare };
        assert_eq!(allowed(stacked), vec![1]);
    }
}
