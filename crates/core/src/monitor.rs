//! Runtime safety monitoring: the deployed face of the SPL.
//!
//! After the learning phase, Jarvis sits between the platform and the
//! devices: every attempted action is judged *before* it executes by the
//! Section V-A cascade — manual emergency rules, then the learned
//! safe-transition table, then ANN excusal of benign anomalies — which
//! [`Enforcer`] implements once. [`RuntimeMonitor`] adds the state around
//! it: FSM validation of each action, the live environment state, the
//! clock and the alarm log.

use crate::error::JarvisError;
use jarvis_iot_model::{EnvAction, EnvState, MiniAction, TimeStep};
use jarvis_policy::{AnomalyFilter, Enforcer, ManualPolicy, MatchMode, SafeTransitionTable};
pub use jarvis_policy::Verdict;
use jarvis_smart_home::SmartHome;

/// A live safety monitor over one home.
#[derive(Debug)]
pub struct RuntimeMonitor<'a> {
    home: &'a SmartHome,
    enforcer: Enforcer<'a>,
    state: EnvState,
    t: TimeStep,
    alarms: Vec<(TimeStep, EnvAction)>,
}

impl<'a> RuntimeMonitor<'a> {
    /// Start monitoring from `initial` (typically
    /// [`SmartHome::midnight_state`]).
    #[must_use]
    pub fn new(
        home: &'a SmartHome,
        table: &'a SafeTransitionTable,
        mode: MatchMode,
        initial: EnvState,
    ) -> Self {
        RuntimeMonitor {
            home,
            enforcer: Enforcer { table, mode, manual: None, filter: None },
            state: initial,
            t: TimeStep(0),
            alarms: Vec::new(),
        }
    }

    /// Stack manual emergency rules over the learned table.
    #[must_use]
    pub fn with_manual(mut self, manual: &'a ManualPolicy) -> Self {
        self.enforcer.manual = Some(manual);
        self
    }

    /// Excuse transitions the trained ANN classifies as benign anomalies.
    #[must_use]
    pub fn with_filter(mut self, filter: &'a AnomalyFilter) -> Self {
        self.enforcer.filter = Some(filter);
        self
    }

    /// The monitor's view of the current environment state.
    #[must_use]
    pub fn state(&self) -> &EnvState {
        &self.state
    }

    /// Current time instance.
    #[must_use]
    pub fn time(&self) -> TimeStep {
        self.t
    }

    /// Every violation alarmed so far, with its time instance.
    #[must_use]
    pub fn alarms(&self) -> &[(TimeStep, EnvAction)] {
        &self.alarms
    }

    /// Advance the clock one interval without any action.
    pub fn tick(&mut self) {
        self.t = self.t.next();
    }

    /// Classify one attempted action at the current instant and — unless it
    /// is a blocked [`Verdict::Violation`] — apply it to the tracked state.
    ///
    /// Multiple events may share one time instance; the clock advances only
    /// through [`RuntimeMonitor::tick`]. The verdict is
    /// [`Enforcer::verdict`]'s; a [`Verdict::Excused`] action moves the
    /// state like a safe one.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Model`] when the action does not fit the
    /// home's FSM (unknown device or action index).
    pub fn observe(&mut self, mini: MiniAction) -> Result<Verdict, JarvisError> {
        // Validate against the FSM up front: malformed input is an error,
        // not a violation verdict.
        let dev = self.home.fsm().device(mini.device).map_err(JarvisError::Model)?;
        if dev.action_name(mini.action).is_none() {
            return Err(JarvisError::Model(jarvis_iot_model::ModelError::InvalidAction {
                device: mini.device,
                action: mini.action,
            }));
        }
        let action = EnvAction::single(mini);
        let verdict = self.enforcer.verdict(&self.state, &action, self.t);
        if verdict == Verdict::Violation {
            self.alarms.push((self.t, action));
        } else {
            self.state = self.home.fsm().step(&self.state, &action)?;
        }
        Ok(verdict)
    }

    /// Apply an exogenous (sensor/physical) transition without safety
    /// checking — the world is not subject to policy.
    ///
    /// # Errors
    ///
    /// Returns a [`JarvisError::Model`] when the transition does not fit the
    /// FSM.
    pub fn observe_exogenous(&mut self, mini: MiniAction) -> Result<(), JarvisError> {
        self.state = self
            .home
            .fsm()
            .step(&self.state, &EnvAction::single(mini))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_policy::{learn_safe_transitions, SplConfig};
    use jarvis_sim::HomeDataset;
    use jarvis_smart_home::{emergency_rules, EventLog};

    fn learned() -> (SmartHome, SafeTransitionTable) {
        let home = SmartHome::evaluation_home();
        let data = HomeDataset::home_a(33);
        let mut log = EventLog::new();
        for day in 0..5 {
            log.record_activity(&home, &data.activity(day));
        }
        let episodes = log
            .parse_episodes(&home, jarvis_iot_model::EpisodeConfig::DAILY_MINUTES)
            .unwrap()
            .episodes;
        let out = learn_safe_transitions(home.fsm(), &episodes, None, &SplConfig::default());
        (home, out.table)
    }

    #[test]
    fn violations_are_blocked_and_logged() {
        let (home, table) = learned();
        let mut mon =
            RuntimeMonitor::new(&home, &table, MatchMode::Generalized, home.midnight_state());
        // Powering off the temperature sensor was never natural.
        let v = mon.observe(home.mini_action("temp_sensor", "power_off")).unwrap();
        assert_eq!(v, Verdict::Violation);
        assert_eq!(mon.alarms().len(), 1);
        // Blocked: the tracked state did not change.
        assert_eq!(
            mon.state().device(home.device_id("temp_sensor")),
            home.midnight_state().device(home.device_id("temp_sensor"))
        );
    }

    #[test]
    fn learned_behavior_passes_and_updates_state() {
        let (home, table) = learned();
        let mut mon =
            RuntimeMonitor::new(&home, &table, MatchMode::Generalized, home.midnight_state());
        // The morning departure unlock is learned behavior.
        let v = mon.observe(home.mini_action("lock", "unlock")).unwrap();
        assert_eq!(v, Verdict::Safe);
        assert_eq!(
            mon.state().device(home.device_id("lock")),
            Some(home.state_idx("lock", "unlocked"))
        );
        assert!(mon.alarms().is_empty());
        // Time advances only via tick().
        assert_eq!(mon.time(), TimeStep(0));
    }

    #[test]
    fn manual_rules_open_fire_egress() {
        let (home, table) = learned();
        let rules = emergency_rules(&home);
        let mut mon =
            RuntimeMonitor::new(&home, &table, MatchMode::Generalized, home.midnight_state())
                .with_manual(&rules);
        // Raise the fire alarm (exogenous), then egress-unlock.
        mon.observe_exogenous(home.mini_action("temp_sensor", "alarm_fire")).unwrap();
        let v = mon.observe(home.mini_action("lock", "unlock")).unwrap();
        assert_eq!(v, Verdict::Safe, "fire egress must be allowed by the manual rule");
        // But heating during the alarm is denied even if learned.
        let v = mon.observe(home.mini_action("thermostat", "set_heat")).unwrap();
        assert_eq!(v, Verdict::Violation);
    }

    #[test]
    fn tick_advances_time_only() {
        let (home, table) = learned();
        let mut mon =
            RuntimeMonitor::new(&home, &table, MatchMode::Exact, home.midnight_state());
        let s0 = mon.state().clone();
        mon.tick();
        mon.tick();
        assert_eq!(mon.time(), TimeStep(2));
        assert_eq!(mon.state(), &s0);
    }

    #[test]
    fn unknown_actions_error() {
        let (home, table) = learned();
        let mut mon =
            RuntimeMonitor::new(&home, &table, MatchMode::Exact, home.midnight_state());
        let bogus = MiniAction::new(jarvis_iot_model::DeviceId(99), 0);
        assert!(mon.observe(bogus).is_err());
    }
}
