//! The RF environment of Section V-A-5: a gym-style environment over the
//! home FSM with mini-action decomposition and an optional safe-transition
//! constraint.
//!
//! One episode is one simulated day at 1-minute intervals. The agent's
//! action space is the home's *agent mini-actions* plus the no-op
//! (Section V-A-7: "there can only be k mini-actions for each trigger");
//! occupant movement, weather, prices, and the thermal response of the house
//! are scripted by the [`DayScenario`]. When a [`SafeTransitionTable`] is
//! attached as a constraint, unsafe mini-actions simply never appear in
//! [`valid_actions`](jarvis_rl::Environment::valid_actions) — this is the
//! constrained exploration of Algorithm 2. A separate *detector* table
//! counts violations without blocking, which is how the unconstrained
//! baseline of Figure 9 is measured.

use crate::analysis::DayMetrics;
use crate::reward::{SmartReward, Snapshot};
use crate::scenario::DayScenario;
use jarvis_iot_model::{EnvAction, EnvState, MiniAction, TimeStep};
use jarvis_policy::{Enforcer, ManualPolicy, MatchMode, SafeTransitionTable, Verdict};
use jarvis_rl::{DiscreteEnvironment, Environment, Step};
use jarvis_sim::thermal::{HvacMode, ThermalModel};
use jarvis_smart_home::SmartHome;

/// Encode one observation vector exactly as [`HomeRlEnv`] does: the one-hot
/// device states followed by five ambient scalars — sin/cos of the day
/// phase, and normalized indoor temperature, outdoor temperature, and
/// electricity price.
///
/// This is the *shared* encoding contract between training and serving: the
/// serving runtime builds policy inputs with this function, so a network
/// trained against [`HomeRlEnv`] observations sees bit-identical features in
/// production. Any change here retrains the world.
#[must_use]
pub fn encode_observation(
    state: &EnvState,
    state_sizes: &[usize],
    t: u32,
    steps: u32,
    indoor_c: f64,
    outdoor_c: f64,
    price_per_kwh: f64,
) -> Vec<f64> {
    let mut v = vec![0.0; state_sizes.iter().sum::<usize>() + 5];
    encode_observation_into(state, state_sizes, t, steps, indoor_c, outdoor_c, price_per_kwh, &mut v);
    v
}

/// [`encode_observation`] written into `out`, which must be exactly
/// `sum(state_sizes) + 5` long (panics otherwise); every element is
/// overwritten. The serving runtime encodes each query straight into its
/// batch's observation matrix through this.
#[allow(clippy::too_many_arguments)]
pub fn encode_observation_into(
    state: &EnvState,
    state_sizes: &[usize],
    t: u32,
    steps: u32,
    indoor_c: f64,
    outdoor_c: f64,
    price_per_kwh: f64,
    out: &mut [f64],
) {
    let (one_hot, ambient) = out.split_at_mut(out.len() - 5);
    state.one_hot_into(state_sizes, one_hot);
    let phase = std::f64::consts::TAU * f64::from(t) / f64::from(steps);
    ambient.copy_from_slice(&[
        phase.sin(),
        phase.cos(),
        (indoor_c - 10.0) / 20.0,
        (outdoor_c + 10.0) / 40.0,
        price_per_kwh / 0.15,
    ]);
}

/// The simulated smart-home RL environment.
pub struct HomeRlEnv<'a> {
    home: &'a SmartHome,
    scenario: &'a DayScenario,
    reward: &'a SmartReward,
    constraint: Option<(&'a SafeTransitionTable, MatchMode)>,
    detector: Option<(&'a SafeTransitionTable, MatchMode)>,
    manual: Option<&'a ManualPolicy>,
    thermal: ThermalModel,
    agent_actions: Vec<MiniAction>,
    state_sizes: Vec<usize>,
    max_power_w: f64,
    // Dynamic state.
    state: EnvState,
    t: u32,
    indoor_c: f64,
    habit_done: Vec<bool>,
    metrics: DayMetrics,
}

impl<'a> std::fmt::Debug for HomeRlEnv<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeRlEnv")
            .field("day", &self.scenario.day)
            .field("t", &self.t)
            .field("constrained", &self.constraint.is_some())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl<'a> HomeRlEnv<'a> {
    /// Build the environment for one scripted day.
    #[must_use]
    pub fn new(home: &'a SmartHome, scenario: &'a DayScenario, reward: &'a SmartReward) -> Self {
        let agent_actions = home.agent_mini_actions();
        let state_sizes = home.fsm().state_sizes();
        let max_power_w = home.power().max_power_w(home.fsm());
        let mut env = HomeRlEnv {
            home,
            scenario,
            reward,
            constraint: None,
            detector: None,
            manual: None,
            thermal: ThermalModel::typical_home(),
            agent_actions,
            state_sizes,
            max_power_w,
            state: home.midnight_state(),
            t: 0,
            indoor_c: scenario.initial_indoor_c,
            habit_done: vec![false; scenario.habits().len()],
            metrics: DayMetrics::default(),
        };
        env.reset();
        env
    }

    /// Constrain exploration to `table` under `mode` (safe actions only).
    #[must_use]
    pub fn constrained(mut self, table: &'a SafeTransitionTable, mode: MatchMode) -> Self {
        self.constraint = Some((table, mode));
        self
    }

    /// Count (but do not block) actions `table` considers unsafe — the
    /// violation meter of the unconstrained baseline.
    #[must_use]
    pub fn with_detector(mut self, table: &'a SafeTransitionTable, mode: MatchMode) -> Self {
        self.detector = Some((table, mode));
        self
    }

    /// Stack manually specified emergency rules over the learned table
    /// (Section V-B): `Allow` rules open actions the learning phase could
    /// never observe, `Deny` rules close actions no context makes safe.
    /// Applies to both the constraint and the violation meter.
    #[must_use]
    pub fn with_manual(mut self, manual: &'a ManualPolicy) -> Self {
        self.manual = Some(manual);
        self
    }

    /// The enforcement cascade over a constraint or detector table, with
    /// the manual rules stacked on top.
    fn enforcer(&self, (table, mode): (&'a SafeTransitionTable, MatchMode)) -> Enforcer<'a> {
        Enforcer { table, mode, manual: self.manual, filter: None }
    }

    /// The current environment state.
    #[must_use]
    pub fn current_state(&self) -> &EnvState {
        &self.state
    }

    /// Current indoor temperature, °C.
    #[must_use]
    pub fn indoor_c(&self) -> f64 {
        self.indoor_c
    }

    /// Current time instance.
    #[must_use]
    pub fn time(&self) -> TimeStep {
        TimeStep(self.t)
    }

    /// Metrics accumulated since the last reset.
    #[must_use]
    pub fn metrics(&self) -> DayMetrics {
        self.metrics
    }

    /// The agent-executable mini-action for a flat action index
    /// (`None` = no-op / out of range).
    #[must_use]
    pub fn mini_for(&self, action: usize) -> Option<MiniAction> {
        if action == 0 {
            None
        } else {
            self.agent_actions.get(action - 1).copied()
        }
    }

    /// The flat action index of a mini-action, if it is agent-executable.
    #[must_use]
    pub fn index_for(&self, mini: MiniAction) -> Option<usize> {
        self.agent_actions.iter().position(|&m| m == mini).map(|i| i + 1)
    }

    fn hvac_mode(&self) -> HvacMode {
        let Some(id) = self.home.fsm().device_by_name("thermostat") else {
            return HvacMode::Off;
        };
        let Some(state) = self.state.device(id) else { return HvacMode::Off };
        match self
            .home
            .fsm()
            .device(id)
            .ok()
            .and_then(|d| d.state_name(state))
        {
            Some("heat") => HvacMode::Heat,
            Some("cool") => HvacMode::Cool,
            _ => HvacMode::Off,
        }
    }

    /// Synchronize the temperature sensor's discrete band with the physical
    /// indoor temperature (unless the sensor is off or alarming).
    fn sync_temp_sensor(&mut self) {
        let Some(id) = self.home.fsm().device_by_name("temp_sensor") else { return };
        let dev = self.home.fsm().device(id).expect("valid id"); // invariant: id from device_by_name on this FSM
        let current = self.state.device(id).unwrap_or_default();
        let current_name = dev.state_name(current).unwrap_or("");
        if current_name == "off" || current_name == "fire_alarm" {
            return;
        }
        let band = if self.indoor_c < jarvis_smart_home::home::COMFORT_LOW_C {
            "below_optimal"
        } else if self.indoor_c > jarvis_smart_home::home::COMFORT_HIGH_C {
            "above_optimal"
        } else {
            "optimal"
        };
        if let Some(idx) = dev.state_idx(band) {
            self.state.set_device(id, idx);
        }
    }

    fn satisfy_habit(&mut self, mini: MiniAction) {
        let habits = self.scenario.habits();
        if let Some(i) = habits
            .iter()
            .enumerate()
            .find(|(i, h)| !self.habit_done[*i] && h.mini == mini)
            .map(|(i, _)| i)
        {
            self.habit_done[i] = true;
        }
    }

    fn pending(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        let t = self.t;
        self.scenario
            .habits()
            .iter()
            .zip(&self.habit_done)
            .filter(move |(h, done)| !**done && h.step.0 <= t)
            .map(move |(h, _)| (h.omega, t - h.step.0))
    }

    /// The dis-utility currently accruing from overdue habitual actions —
    /// exposed for analysis and tests of the dis-utility estimate.
    #[must_use]
    pub fn pending_disutility_now(&self) -> f64 {
        self.reward.pending_disutility(self.pending())
    }

    /// Teleport the environment into `state` at time instance `t` — used by
    /// analysis code (Table III) to query the policy at a specific trigger.
    /// Does not touch accumulated metrics.
    ///
    /// # Panics
    ///
    /// Panics when `state` is invalid for the home's FSM.
    pub fn force_state(&mut self, state: EnvState, t: TimeStep) {
        self.home.fsm().validate_state(&state).expect("valid state"); // invariant: documented panic, analysis-only API
        self.state = state;
        self.t = t.0;
    }
}

impl<'a> DiscreteEnvironment for HomeRlEnv<'a> {
    fn num_states(&self) -> usize {
        let nu: usize = self.state_sizes.iter().product();
        nu * TIME_BUCKETS
    }

    fn state_id(&self) -> usize {
        // Mixed-radix encoding of the device states, crossed with a coarse
        // hour-of-day bucket so a tabular learner can distinguish morning
        // from evening (the DQN gets the same signal via sin/cos features).
        let mut id = 0usize;
        for (slot, &size) in self.state.as_slice().iter().zip(&self.state_sizes) {
            id = id * size + (slot.0 as usize).min(size - 1);
        }
        let steps = self.scenario.config().steps().max(1);
        let bucket = (self.t.min(steps - 1) as usize * TIME_BUCKETS) / steps as usize;
        id * TIME_BUCKETS + bucket.min(TIME_BUCKETS - 1)
    }
}

/// Hour-of-day resolution of the tabular state index.
const TIME_BUCKETS: usize = 24;

impl<'a> Environment for HomeRlEnv<'a> {
    fn state_dim(&self) -> usize {
        self.state_sizes.iter().sum::<usize>() + 5
    }

    fn num_actions(&self) -> usize {
        self.agent_actions.len() + 1
    }

    fn observe(&self) -> Vec<f64> {
        encode_observation(
            &self.state,
            &self.state_sizes,
            self.t,
            self.scenario.config().steps(),
            self.indoor_c,
            self.scenario.outdoor_at(self.time()),
            self.scenario.price_at(self.time()),
        )
    }

    fn valid_actions(&self) -> Vec<usize> {
        let mut out = vec![0usize]; // the no-op is always available
        match self.constraint {
            None => out.extend(1..=self.agent_actions.len()),
            Some(c) => self
                .enforcer(c)
                .for_each_allowed(&self.state, &self.agent_actions, |i| out.push(i + 1)),
        }
        out
    }

    fn reset(&mut self) -> Vec<f64> {
        self.state = self.home.midnight_state();
        self.t = 0;
        self.indoor_c = self.scenario.initial_indoor_c;
        self.habit_done = vec![false; self.scenario.habits().len()];
        self.metrics = DayMetrics::default();
        self.sync_temp_sensor();
        self.observe()
    }

    fn step(&mut self, action: usize) -> Step {
        let t = self.time();
        let mini = self.mini_for(action);
        let agent_action = mini.map_or_else(EnvAction::noop, EnvAction::single);
        let prev_state = self.state.clone();

        // Violation metering (for the unconstrained baseline).
        if let (Some(_), Some(d)) = (mini, self.detector) {
            if self.enforcer(d).verdict(&self.state, &agent_action, t) == Verdict::Violation {
                self.metrics.violations += 1;
            }
        }

        // Agent action, then exogenous occupant events.
        self.state = self
            .home
            .fsm()
            .step(&self.state, &agent_action)
            .expect("agent actions come from the catalogue"); // invariant: indices decoded from this env's action space
        if let Some(m) = mini {
            self.satisfy_habit(m);
        }
        for &m in self.scenario.exogenous_at(t) {
            self.state = self
                .home
                .fsm()
                .step(&self.state, &EnvAction::single(m))
                .expect("scripted events come from the catalogue"); // invariant: scenario built from the same home
        }

        // Physics: the house integrates one interval under the (possibly
        // new) HVAC mode, then the sensor re-discretizes.
        let dt_min = f64::from(self.scenario.config().interval_s()) / 60.0;
        self.indoor_c = self.thermal.step(
            self.indoor_c,
            self.scenario.outdoor_at(t),
            self.hvac_mode(),
            dt_min,
        );
        self.sync_temp_sensor();

        // Reward.
        let power_w = self.home.state_power_w(&self.state);
        let snap = Snapshot {
            state: &self.state,
            t,
            indoor_c: self.indoor_c,
            outdoor_c: self.scenario.outdoor_at(t),
            forecast_c: self.scenario.forecast_at(t),
            price_per_kwh: self.scenario.price_at(t),
            power_w,
            max_power_w: self.max_power_w,
        };
        let utility = self.reward.utility(&snap);
        let action_dis =
            self.reward
                .disutility(self.home.fsm(), &prev_state, &agent_action, t);
        let pending_dis = self.reward.pending_disutility(self.pending());
        let reward = utility - action_dis - pending_dis;

        // Metrics.
        let kwh = power_w * dt_min / 60.0 / 1000.0;
        self.metrics.reward += reward;
        self.metrics.energy_kwh += kwh;
        self.metrics.cost_usd += kwh * snap.price_per_kwh;
        self.metrics.temp_dev_sum += (self.indoor_c - 21.0).abs();
        self.metrics.steps += 1;

        self.t += 1;
        let done = self.t >= self.scenario.config().steps();
        Step { obs: self.observe(), reward, done }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::{RewardWeights, SmartReward};
    use jarvis_policy::TaBehavior;
    use jarvis_sim::HomeDataset;

    struct Fixture {
        home: SmartHome,
        scenario: DayScenario,
        reward: SmartReward,
    }

    fn fixture(day: u32) -> Fixture {
        let home = SmartHome::evaluation_home();
        let data = HomeDataset::home_a(21);
        let scenario = DayScenario::from_dataset(&home, &data, day);
        let reward = SmartReward::evaluation(
            RewardWeights::balanced(),
            scenario.peak_price(),
            TaBehavior::new(),
            scenario.config(),
            home.fsm().num_devices(),
        );
        Fixture { home, scenario, reward }
    }

    #[test]
    fn full_idle_day_terminates() {
        let f = fixture(2);
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        let mut done = false;
        for _ in 0..1440 {
            let s = env.step(0);
            done = s.done;
        }
        assert!(done);
        let m = env.metrics();
        assert_eq!(m.steps, 1440);
        assert!(m.energy_kwh > 0.0, "standby loads still draw power");
        assert_eq!(m.violations, 0);
    }

    #[test]
    fn observation_dimension_is_stable() {
        let f = fixture(2);
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        let obs = env.reset();
        assert_eq!(obs.len(), env.state_dim());
        let s = env.step(0);
        assert_eq!(s.obs.len(), env.state_dim());
    }

    #[test]
    fn action_index_round_trip() {
        let f = fixture(2);
        let env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        assert_eq!(env.mini_for(0), None);
        for idx in 1..env.num_actions() {
            let mini = env.mini_for(idx).unwrap();
            assert_eq!(env.index_for(mini), Some(idx));
        }
        assert_eq!(env.mini_for(999), None);
    }

    #[test]
    fn heating_raises_indoor_temperature() {
        let f = fixture(10); // winter day
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        env.reset();
        let set_heat = env.index_for(f.home.mini_action("thermostat", "set_heat")).unwrap();
        let before = env.indoor_c();
        env.step(set_heat);
        for _ in 0..120 {
            env.step(0); // thermostat stays in heat
        }
        assert!(env.indoor_c() > before + 3.0, "{} -> {}", before, env.indoor_c());
        // The sensor band follows the physical temperature.
        let temp = f.home.device_id("temp_sensor");
        let band = env.current_state().device(temp).unwrap();
        let name = f.home.fsm().device(temp).unwrap().state_name(band).unwrap();
        assert_ne!(name, "below_optimal");
    }

    #[test]
    fn exogenous_occupants_move_the_lock() {
        let f = fixture(2); // weekday with departures
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        env.reset();
        let lock = f.home.device_id("lock");
        let mut seen_states = std::collections::HashSet::new();
        for _ in 0..1440 {
            env.step(0);
            seen_states.insert(env.current_state().device(lock).unwrap());
        }
        assert!(seen_states.len() >= 2, "lock never moved: {seen_states:?}");
    }

    #[test]
    fn constraint_masks_unsafe_actions() {
        let f = fixture(2);
        let table = SafeTransitionTable::new(); // nothing learned
        let env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward)
            .constrained(&table, MatchMode::Exact);
        // Only the no-op survives an empty table.
        assert_eq!(env.valid_actions(), vec![0]);
        let unconstrained = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        assert_eq!(unconstrained.valid_actions().len(), unconstrained.num_actions());
    }

    #[test]
    fn detector_counts_but_does_not_block() {
        let f = fixture(2);
        let table = SafeTransitionTable::new();
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward)
            .with_detector(&table, MatchMode::Exact);
        assert_eq!(env.valid_actions().len(), env.num_actions(), "not blocked");
        env.step(1); // any real action is a violation against an empty table
        env.step(0); // no-op is never a violation
        assert_eq!(env.metrics().violations, 1);
    }

    #[test]
    fn overdue_habits_depress_reward() {
        let f = fixture(2);
        assert!(!f.scenario.habits().is_empty());
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        env.reset();
        // Run the whole day idle: habitual actions never execute, so late-day
        // rewards must carry a growing pending dis-utility.
        let mut first_half = 0.0;
        let mut second_half = 0.0;
        for t in 0..1440 {
            let s = env.step(0);
            if t < 720 {
                first_half += s.reward;
            } else {
                second_half += s.reward;
            }
        }
        assert!(
            second_half < first_half,
            "pending dis-utility should accumulate: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn executing_a_habit_stops_its_accrual() {
        let f = fixture(2);
        let habit = f.scenario.habits()[0];
        // Idle env: pending dis-utility is zero before the habit's time and
        // grows once it is overdue.
        let mut idle = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        idle.reset();
        for _ in 0..habit.step.0 {
            idle.step(0);
        }
        assert_eq!(idle.pending_disutility_now(), 0.0, "nothing overdue yet");
        for _ in 0..30 {
            idle.step(0);
        }
        let overdue = idle.pending_disutility_now();
        assert!(overdue > 0.0, "habit should be accruing");

        // Executing the habit on time keeps the pending term at zero.
        let mut acted = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        acted.reset();
        let idx = acted.index_for(habit.mini).expect("habit is agent-executable");
        for t in 0..habit.step.0 + 30 {
            acted.step(if t == habit.step.0 { idx } else { 0 });
        }
        assert!(
            acted.pending_disutility_now() < overdue,
            "satisfied habit must not accrue: {} vs {}",
            acted.pending_disutility_now(),
            overdue
        );
    }

    #[test]
    fn discrete_state_id_is_injective_over_device_states() {
        use jarvis_rl::DiscreteEnvironment;
        let f = fixture(2);
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        env.reset();
        assert!(env.state_id() < env.num_states());
        let before = env.state_id();
        // Changing a device state changes the id (same time bucket).
        let light_on = env.index_for(f.home.mini_action("light", "power_on")).unwrap();
        env.step(light_on);
        let after = env.state_id();
        assert_ne!(before, after);
        assert!(after < env.num_states());
    }

    #[test]
    fn manual_rules_stack_over_the_constraint() {
        use jarvis_iot_model::{ActionPattern, StatePattern};
        use jarvis_policy::{ManualPolicy, ManualRule, RuleEffect};
        let f = fixture(2);
        let k = f.home.fsm().num_devices();
        let table = SafeTransitionTable::new(); // learned nothing
        let unlock = f.home.mini_action("lock", "unlock");
        let mut manual = ManualPolicy::new();
        manual.add_rule(ManualRule {
            name: "always allow unlock (test)".into(),
            trigger: StatePattern::any(k),
            action: ActionPattern::any(k).with(unlock.device, unlock.action),
            effect: RuleEffect::Allow,
        });
        let env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward)
            .constrained(&table, MatchMode::Exact)
            .with_manual(&manual);
        let idx = env.index_for(unlock).unwrap();
        let valid = env.valid_actions();
        assert!(valid.contains(&idx), "manual allow must open the action");
        assert_eq!(valid.len(), 2, "no-op plus the allowed unlock");
    }

    #[test]
    fn reset_restores_initial_conditions() {
        let f = fixture(2);
        let mut env = HomeRlEnv::new(&f.home, &f.scenario, &f.reward);
        for _ in 0..50 {
            env.step(1);
        }
        env.reset();
        assert_eq!(env.time(), TimeStep(0));
        assert_eq!(env.current_state(), &{
            let mut s = f.home.midnight_state();
            // reset() re-syncs the sensor to the physical temperature.
            let temp = f.home.device_id("temp_sensor");
            let band = if f.scenario.initial_indoor_c < 20.0 {
                f.home.state_idx("temp_sensor", "below_optimal")
            } else {
                f.home.state_idx("temp_sensor", "optimal")
            };
            s.set_device(temp, band);
            s
        });
        assert_eq!(env.metrics(), DayMetrics::default());
    }
}
