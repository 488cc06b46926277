//! Manually specified safety rules for non-natural behavior.
//!
//! Section V-B: "The safe functioning of \[emergency\] devices cannot be
//! determined from natural progression as such scenarios occur only in rare
//! situations. So, we have to adjust our model to add security/safety
//! policies for such devices manually." A [`ManualPolicy`] is an ordered
//! rule list over trigger/action patterns; it *overrides* the learned table
//! in both directions — allowing actions the learning phase could never
//! observe (fire egress) and denying actions no context makes safe
//! (disabling a smoke sensor). [`crate::Enforcer`] runs the rules ahead of
//! the table.

use jarvis_iot_model::{ActionPattern, EnvAction, EnvState, StatePattern};
use jarvis_stdkit::{json_enum, json_struct};

/// What a matching rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleEffect {
    /// Force the action safe, regardless of the learned table.
    Allow,
    /// Force the action unsafe, regardless of the learned table.
    Deny,
}

json_enum!(RuleEffect { Allow, Deny });

/// One manual rule: when the state matches `trigger` and the action matches
/// `action`, apply `effect`.
#[derive(Debug, Clone, PartialEq)]
pub struct ManualRule {
    /// Human-readable rule name.
    pub name: String,
    /// State pattern the rule applies in.
    pub trigger: StatePattern,
    /// Action pattern the rule governs.
    pub action: ActionPattern,
    /// Allow or deny.
    pub effect: RuleEffect,
}

json_struct!(ManualRule { name, trigger, action, effect });

impl ManualRule {
    /// True when the rule governs this `(state, action)`.
    #[must_use]
    pub fn matches(&self, state: &EnvState, action: &EnvAction) -> bool {
        self.trigger.matches(state) && self.action.matches(action)
    }
}

/// An ordered list of manual rules; the first matching rule wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManualPolicy {
    rules: Vec<ManualRule>,
}

json_struct!(ManualPolicy { rules });

impl ManualPolicy {
    /// An empty policy (defers everything to the learned table).
    #[must_use]
    pub fn new() -> Self {
        ManualPolicy::default()
    }

    /// Append a rule (evaluated after all earlier rules).
    pub fn add_rule(&mut self, rule: ManualRule) {
        self.rules.push(rule);
    }

    /// The rules, in evaluation order.
    #[must_use]
    pub fn rules(&self) -> &[ManualRule] {
        &self.rules
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True with no rules installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The decision of the first matching rule, or `None` when no rule
    /// governs this `(state, action)`.
    #[must_use]
    pub fn decide(&self, state: &EnvState, action: &EnvAction) -> Option<RuleEffect> {
        self.rules
            .iter()
            .find(|r| r.matches(state, action))
            .map(|r| r.effect)
    }
}

impl FromIterator<ManualRule> for ManualPolicy {
    fn from_iter<I: IntoIterator<Item = ManualRule>>(iter: I) -> Self {
        ManualPolicy { rules: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Enforcer, MatchMode, SafeTransitionTable, Verdict};
    use jarvis_iot_model::{ActionIdx, DeviceId, MiniAction, StateIdx, TimeStep};

    fn st(v: &[u8]) -> EnvState {
        v.iter().map(|&x| StateIdx(x)).collect()
    }

    fn act(d: usize, a: u8) -> EnvAction {
        EnvAction::single(MiniAction::new(DeviceId(d), a))
    }

    /// Fire-alarm style rules over a 2-device world:
    /// device 0 = lock (state 1 = fire context on device 1), device 1 = sensor.
    fn fire_rules() -> ManualPolicy {
        let mut p = ManualPolicy::new();
        p.add_rule(ManualRule {
            name: "fire egress".into(),
            trigger: StatePattern::any(2).with(DeviceId(1), StateIdx(1)), // alarm
            action: ActionPattern::any(2).with(DeviceId(0), ActionIdx(1)), // unlock
            effect: RuleEffect::Allow,
        });
        p.add_rule(ManualRule {
            name: "never disable the sensor".into(),
            trigger: StatePattern::any(2),
            action: ActionPattern::any(2).with(DeviceId(1), ActionIdx(0)), // power_off
            effect: RuleEffect::Deny,
        });
        p
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = fire_rules();
        // Fire alarm + unlock → the allow rule matches first.
        assert_eq!(p.decide(&st(&[0, 1]), &act(0, 1)), Some(RuleEffect::Allow));
        // Sensor power-off is denied everywhere.
        assert_eq!(p.decide(&st(&[0, 0]), &act(1, 0)), Some(RuleEffect::Deny));
        assert_eq!(p.decide(&st(&[0, 1]), &act(1, 0)), Some(RuleEffect::Deny));
        // Unrelated action: no decision.
        assert_eq!(p.decide(&st(&[0, 0]), &act(0, 0)), None);
    }

    /// The manual rules stacked over `table` (no filter) allow the action.
    fn stacked_safe(
        p: &ManualPolicy,
        table: &SafeTransitionTable,
        state: &EnvState,
        action: &EnvAction,
        mode: MatchMode,
    ) -> bool {
        let enforcer = Enforcer { table, mode, manual: Some(p), filter: None };
        enforcer.verdict(state, action, TimeStep(0)) == Verdict::Safe
    }

    #[test]
    fn allow_overrides_an_empty_table() {
        let p = fire_rules();
        let table = SafeTransitionTable::new(); // learned nothing
        assert!(stacked_safe(&p, &table, &st(&[0, 1]), &act(0, 1), MatchMode::Exact));
        // Without a rule, defer to the (empty) table.
        assert!(!stacked_safe(&p, &table, &st(&[0, 0]), &act(0, 0), MatchMode::Exact));
    }

    #[test]
    fn deny_overrides_a_learned_pair() {
        use jarvis_iot_model::{DeviceSpec, Fsm};
        let lock = DeviceSpec::builder("lock")
            .states(["locked", "unlocked"])
            .actions(["lock", "unlock"])
            .transition("locked", "unlock", "unlocked")
            .build()
            .unwrap();
        let sensor = DeviceSpec::builder("sensor")
            .states(["ok", "alarm", "off"])
            .actions(["power_off", "power_on"])
            .transition("ok", "power_off", "off")
            .transition("alarm", "power_off", "off")
            .build()
            .unwrap();
        let fsm = Fsm::new(vec![lock, sensor]).unwrap();
        let mut table = SafeTransitionTable::new();
        // Hypothetically learned: sensor power-off from (locked, ok).
        table.allow(&fsm, &st(&[0, 0]), &act(1, 0));
        assert!(table.is_safe_action(&st(&[0, 0]), &act(1, 0), MatchMode::Exact));
        // The manual deny still blocks it.
        let p = fire_rules();
        assert!(!stacked_safe(&p, &table, &st(&[0, 0]), &act(1, 0), MatchMode::Exact));
    }

    #[test]
    fn stacked_flagging_respects_allows() {
        use jarvis_iot_model::{
            Actor, AuthzPolicy, DeviceSpec, Episode, EpisodeConfig, EpisodeRecorder, Fsm, UserId,
        };
        let lock = DeviceSpec::builder("lock")
            .states(["locked", "unlocked"])
            .actions(["lock", "unlock"])
            .transition("locked", "unlock", "unlocked")
            .build()
            .unwrap();
        let sensor = DeviceSpec::builder("sensor")
            .states(["ok", "alarm"])
            .actions(["clear", "alarm_fire"])
            .transition("ok", "alarm_fire", "alarm")
            .transition("alarm", "clear", "ok")
            .build()
            .unwrap();
        let fsm = Fsm::new(vec![lock, sensor]).unwrap();
        let authz = AuthzPolicy::new();
        let cfg = EpisodeConfig::new(180, 60).unwrap();
        let mut rec = EpisodeRecorder::new(&fsm, &authz, cfg, fsm.initial_state()).unwrap();
        // Fire alarm at t0, egress unlock at t1.
        rec.submit(Actor::manual(UserId(0)), MiniAction::new(DeviceId(1), 1)).unwrap();
        rec.advance().unwrap();
        rec.submit(Actor::manual(UserId(0)), MiniAction::new(DeviceId(0), 1)).unwrap();
        rec.advance().unwrap();
        rec.advance().unwrap();
        let ep = rec.finish();

        let table = SafeTransitionTable::new();
        let empty = ManualPolicy::new();
        let flag_stacked =
            |table: &SafeTransitionTable, manual: &ManualPolicy, ep: &Episode, mode| {
                ep.transitions()
                    .iter()
                    .filter(|tr| {
                        !tr.is_idle() && !stacked_safe(manual, table, &tr.state, &tr.action, mode)
                    })
                    .map(|tr| tr.step)
                    .collect::<Vec<_>>()
            };
        // Without rules both transitions are violations.
        assert_eq!(flag_stacked(&table, &empty, &ep, MatchMode::Exact).len(), 2);
        // The fire-egress allow excuses the unlock (the alarm event itself
        // is still un-learned behavior).
        let p = fire_rules();
        let flags = flag_stacked(&table, &p, &ep, MatchMode::Exact);
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].0, 0);
    }

    #[test]
    fn from_iterator_and_accessors() {
        let p: ManualPolicy = fire_rules().rules().to_vec().into_iter().collect();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.rules()[0].name, "fire egress");
    }

    #[test]
    fn serde_round_trip() {
        let p = fire_rules();
        use jarvis_stdkit::json::{FromJson, ToJson};
        let back = ManualPolicy::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }
}
