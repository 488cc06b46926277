//! Manually specified emergency policies for the smart-home catalogue.
//!
//! Section V-B notes that the safe functioning of emergency devices "cannot
//! be determined from natural progression" — fire alarms (hopefully) never
//! fire during the learning phase — so their rules are added manually.
//! [`emergency_rules`] builds the catalogue's rule set:
//!
//! 1. **Fire egress** (allow): when the temperature sensor reads
//!    `fire_alarm`, unlocking the door and turning lights on are safe — the
//!    behavior of Table II's App 4.
//! 2. **HVAC lockout in fire** (deny): no heating/cooling command during an
//!    active alarm.
//! 3. **Sensor integrity** (deny): powering off the door or temperature
//!    sensors is never safe, whatever the learned table says.

use crate::home::SmartHome;
use jarvis_iot_model::{ActionPattern, StatePattern};
use jarvis_policy::{ManualPolicy, ManualRule, RuleEffect};

/// Build the catalogue's emergency rule set for `home`.
///
/// # Panics
///
/// Panics when `home` lacks the example-home devices (lock, light,
/// thermostat, door/temperature sensors).
#[must_use]
pub fn emergency_rules(home: &SmartHome) -> ManualPolicy {
    let k = home.fsm().num_devices();
    let lock = home.device_id("lock");
    let light = home.device_id("light");
    let thermostat = home.device_id("thermostat");
    let door_sensor = home.device_id("door_sensor");
    let temp_sensor = home.device_id("temp_sensor");
    let fire = home.state_idx("temp_sensor", "fire_alarm");
    let idx = |dev: &str, action: &str| home.mini_action(dev, action).action;

    let mut policy = ManualPolicy::new();
    policy.add_rule(ManualRule {
        name: "fire egress: unlock the door".into(),
        trigger: StatePattern::any(k).with(temp_sensor, fire),
        action: ActionPattern::any(k).with(lock, idx("lock", "unlock")),
        effect: RuleEffect::Allow,
    });
    policy.add_rule(ManualRule {
        name: "fire egress: lights on".into(),
        trigger: StatePattern::any(k).with(temp_sensor, fire),
        action: ActionPattern::any(k).with(light, idx("light", "power_on")),
        effect: RuleEffect::Allow,
    });
    for action in ["set_heat", "set_cool", "power_on"] {
        policy.add_rule(ManualRule {
            name: format!("fire lockout: thermostat.{action}"),
            trigger: StatePattern::any(k).with(temp_sensor, fire),
            action: ActionPattern::any(k).with(thermostat, idx("thermostat", action)),
            effect: RuleEffect::Deny,
        });
    }
    policy.add_rule(ManualRule {
        name: "sensor integrity: door sensor stays powered".into(),
        trigger: StatePattern::any(k),
        action: ActionPattern::any(k).with(door_sensor, idx("door_sensor", "power_off")),
        effect: RuleEffect::Deny,
    });
    policy.add_rule(ManualRule {
        name: "sensor integrity: temperature sensor stays powered".into(),
        trigger: StatePattern::any(k),
        action: ActionPattern::any(k).with(temp_sensor, idx("temp_sensor", "power_off")),
        effect: RuleEffect::Deny,
    });
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_iot_model::{EnvAction, EnvState, TimeStep};
    use jarvis_policy::{Enforcer, MatchMode, SafeTransitionTable, Verdict};

    /// The rules stacked over `table` (no filter) allow the action.
    fn stacked_safe(
        policy: &ManualPolicy,
        table: &SafeTransitionTable,
        state: &EnvState,
        action: &EnvAction,
        mode: MatchMode,
    ) -> bool {
        let enforcer = Enforcer { table, mode, manual: Some(policy), filter: None };
        enforcer.verdict(state, action, TimeStep(0)) == Verdict::Safe
    }

    #[test]
    fn fire_egress_is_allowed_without_learning() {
        let home = SmartHome::evaluation_home();
        let policy = emergency_rules(&home);
        let table = SafeTransitionTable::new();
        let alarm_state = home.midnight_state().with_device(
            home.device_id("temp_sensor"),
            home.state_idx("temp_sensor", "fire_alarm"),
        );
        let unlock = EnvAction::single(home.mini_action("lock", "unlock"));
        assert!(stacked_safe(&policy, &table, &alarm_state, &unlock, MatchMode::Exact));
        let lights = EnvAction::single(home.mini_action("light", "power_on"));
        assert!(stacked_safe(&policy, &table, &alarm_state, &lights, MatchMode::Exact));
    }

    #[test]
    fn unlock_without_alarm_still_needs_the_table() {
        let home = SmartHome::evaluation_home();
        let policy = emergency_rules(&home);
        let table = SafeTransitionTable::new();
        let normal = home.midnight_state();
        let unlock = EnvAction::single(home.mini_action("lock", "unlock"));
        assert!(!stacked_safe(&policy, &table, &normal, &unlock, MatchMode::Exact));
    }

    #[test]
    fn heating_denied_during_alarm() {
        let home = SmartHome::evaluation_home();
        let policy = emergency_rules(&home);
        let alarm_state = home.midnight_state().with_device(
            home.device_id("temp_sensor"),
            home.state_idx("temp_sensor", "fire_alarm"),
        );
        let heat = EnvAction::single(home.mini_action("thermostat", "set_heat"));
        assert_eq!(policy.decide(&alarm_state, &heat), Some(RuleEffect::Deny));
    }

    #[test]
    fn sensor_poweroff_denied_everywhere() {
        let home = SmartHome::evaluation_home();
        let policy = emergency_rules(&home);
        for state in [home.midnight_state(), home.occupied_initial_state()] {
            let off = EnvAction::single(home.mini_action("temp_sensor", "power_off"));
            assert_eq!(policy.decide(&state, &off), Some(RuleEffect::Deny));
            let door_off = EnvAction::single(home.mini_action("door_sensor", "power_off"));
            assert_eq!(policy.decide(&state, &door_off), Some(RuleEffect::Deny));
        }
    }
}
