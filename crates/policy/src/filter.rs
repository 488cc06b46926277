//! The benign-anomaly filter: a feed-forward ANN with a single hidden layer
//! trained by back-propagation (Sections IV-A and V-A-3).
//!
//! During the learning phase, benign device malfunctions and human errors
//! (fridge door left open, TV left on…) occur alongside routine behavior.
//! Without filtering they would (a) pollute the safe-transition table and
//! (b) later be flagged as violations — the false positives Figure 5
//! measures. The filter classifies each transition, given its state, action,
//! and time of day, as *benign anomaly* vs *routine*.

use jarvis_iot_model::{EnvAction, EnvState, EpisodeConfig, Fsm, TimeStep};
use jarvis_neural::{Activation, Loss, Network, NeuralError, OptimizerKind};
use jarvis_stdkit::rng::SliceRandom;
use jarvis_stdkit::rng::SeedableRng;
use jarvis_stdkit::rng::ChaCha8Rng;
use jarvis_stdkit::{json_struct};

/// Encodes a transition `(S, A, t)` as the ANN input vector:
/// one-hot device states ++ multi-hot mini-actions ++ time-of-day phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionFeaturizer {
    state_sizes: Vec<usize>,
    num_minis: usize,
    steps: u32,
    // Cached flat index mapping (device-major, as in Fsm::mini_action_index).
    mini_offsets: Vec<usize>,
}

json_struct!(TransitionFeaturizer { state_sizes, num_minis, steps, mini_offsets });

impl TransitionFeaturizer {
    /// Featurizer for `fsm` under episode configuration `config`.
    #[must_use]
    pub fn new(fsm: &Fsm, config: EpisodeConfig) -> Self {
        let mut mini_offsets = Vec::with_capacity(fsm.num_devices());
        let mut offset = 1usize; // slot 0 is the no-op
        for (_, d) in fsm.devices() {
            mini_offsets.push(offset);
            offset += d.num_actions();
        }
        TransitionFeaturizer {
            state_sizes: fsm.state_sizes(),
            num_minis: fsm.num_mini_actions(),
            steps: config.steps(),
            mini_offsets,
        }
    }

    /// Length of the feature vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.state_sizes.iter().sum::<usize>() + self.num_minis + 2
    }

    /// Encode one transition.
    #[must_use]
    pub fn features(&self, state: &EnvState, action: &EnvAction, t: TimeStep) -> Vec<f64> {
        let mut v = state.one_hot(&self.state_sizes);
        let mut action_hot = vec![0.0; self.num_minis];
        if action.is_empty() {
            action_hot[0] = 1.0;
        } else {
            for m in action.iter() {
                if let Some(&base) = self.mini_offsets.get(m.device.0) {
                    let idx = base + m.action.0 as usize;
                    if idx < action_hot.len() {
                        action_hot[idx] = 1.0;
                    }
                }
            }
        }
        v.extend(action_hot);
        let phase =
            std::f64::consts::TAU * f64::from(t.0 % self.steps) / f64::from(self.steps.max(1));
        v.push(phase.sin());
        v.push(phase.cos());
        v
    }
}

/// Configuration for the [`AnomalyFilter`] ANN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterConfig {
    /// Hidden-layer width (single hidden layer, per the paper).
    pub hidden: usize,
    /// Training epochs over the labelled set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate (Adam).
    pub learning_rate: f64,
    /// Decision threshold on the anomaly score.
    pub threshold: f64,
    /// RNG seed for weights and shuffling.
    pub seed: u64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            hidden: 32,
            epochs: 12,
            batch: 64,
            learning_rate: 0.01,
            threshold: 0.5,
            seed: 0,
        }
    }
}

/// One labelled transition sample for filter training or scoring.
pub type Sample = (EnvState, EnvAction, TimeStep);

/// The single-hidden-layer MLP that filters benign anomalies out of the
/// SPL's training data.
#[derive(Debug, Clone)]
pub struct AnomalyFilter {
    featurizer: TransitionFeaturizer,
    net: Network,
    threshold: f64,
    seed: u64,
}

json_struct!(AnomalyFilter { featurizer, net, threshold, seed });

impl AnomalyFilter {
    /// Build an untrained filter for `fsm`.
    ///
    /// # Errors
    ///
    /// Returns a [`NeuralError`] when the network dimensions are invalid
    /// (e.g. zero hidden units).
    pub fn new(fsm: &Fsm, config: EpisodeConfig, cfg: FilterConfig) -> Result<Self, NeuralError> {
        let featurizer = TransitionFeaturizer::new(fsm, config);
        let net = Network::builder(featurizer.dim())
            .layer(cfg.hidden, Activation::Tanh)
            .layer(1, Activation::Sigmoid)
            .loss(Loss::BinaryCrossEntropy)
            .optimizer(OptimizerKind::adam(cfg.learning_rate))
            .seed(cfg.seed)
            .build()?;
        Ok(AnomalyFilter { featurizer, net, threshold: cfg.threshold, seed: cfg.seed })
    }

    /// The featurizer (exposed for evaluation code).
    #[must_use]
    pub fn featurizer(&self) -> &TransitionFeaturizer {
        &self.featurizer
    }

    /// The decision threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Train by back-propagation on labelled routine (`label 0`) and benign
    /// anomalous (`label 1`) transitions, using `cfg`'s epochs/batch.
    /// Returns the final epoch's mean loss.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadBatch`] when both sample sets are empty, or
    /// a dimension error if samples disagree with the featurizer.
    pub fn train(
        &mut self,
        routine: &[Sample],
        anomalous: &[Sample],
        cfg: &FilterConfig,
    ) -> Result<f64, NeuralError> {
        let mut data: Vec<(Vec<f64>, f64)> = Vec::with_capacity(routine.len() + anomalous.len());
        for (s, a, t) in routine {
            data.push((self.featurizer.features(s, a, *t), 0.0));
        }
        for (s, a, t) in anomalous {
            data.push((self.featurizer.features(s, a, *t), 1.0));
        }
        if data.is_empty() {
            return Err(NeuralError::BadBatch { reason: "no training samples" });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xF11E);
        data.shuffle(&mut rng);
        let inputs: Vec<Vec<f64>> = data.iter().map(|(x, _)| x.clone()).collect();
        let targets: Vec<Vec<f64>> = data.iter().map(|(_, y)| vec![*y]).collect();
        self.net.fit(&inputs, &targets, cfg.epochs, cfg.batch)
    }

    /// Anomaly score in `[0, 1]` for one transition (1 = benign anomaly).
    ///
    /// # Errors
    ///
    /// Returns a dimension error when the transition disagrees with the FSM
    /// the filter was built for.
    pub fn score(&self, state: &EnvState, action: &EnvAction, t: TimeStep) -> Result<f64, NeuralError> {
        Ok(self.net.predict(&self.featurizer.features(state, action, t))?[0])
    }

    /// Threshold decision: is this transition a benign anomaly?
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyFilter::score`].
    pub fn is_anomalous(
        &self,
        state: &EnvState,
        action: &EnvAction,
        t: TimeStep,
    ) -> Result<bool, NeuralError> {
        Ok(self.score(state, action, t)? >= self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_iot_model::{DeviceId, DeviceSpec, MiniAction, StateIdx};

    fn fsm() -> Fsm {
        let light = DeviceSpec::builder("light")
            .states(["off", "on"])
            .actions(["power_off", "power_on"])
            .transition("off", "power_on", "on")
            .transition("on", "power_off", "off")
            .build()
            .unwrap();
        let tv = DeviceSpec::builder("tv")
            .states(["off", "on"])
            .actions(["power_off", "power_on"])
            .transition("off", "power_on", "on")
            .transition("on", "power_off", "off")
            .build()
            .unwrap();
        Fsm::new(vec![light, tv]).unwrap()
    }

    fn st(v: &[u8]) -> EnvState {
        v.iter().map(|&x| StateIdx(x)).collect()
    }

    fn act(d: usize, a: u8) -> EnvAction {
        EnvAction::single(MiniAction::new(DeviceId(d), a))
    }

    #[test]
    fn featurizer_dimensions() {
        let f = TransitionFeaturizer::new(&fsm(), EpisodeConfig::DAILY_MINUTES);
        // 2+2 states, 2+2 minis + noop, 2 time features.
        assert_eq!(f.dim(), 4 + 5 + 2);
        let v = f.features(&st(&[0, 1]), &act(0, 1), TimeStep(0));
        assert_eq!(v.len(), f.dim());
    }

    #[test]
    fn featurizer_encodes_action_slots() {
        let f = TransitionFeaturizer::new(&fsm(), EpisodeConfig::DAILY_MINUTES);
        let noop = f.features(&st(&[0, 0]), &jarvis_iot_model::EnvAction::noop(), TimeStep(0));
        assert_eq!(noop[4], 1.0, "no-op slot set");
        let a = f.features(&st(&[0, 0]), &act(1, 0), TimeStep(0));
        assert_eq!(a[4], 0.0);
        assert_eq!(a[4 + 3], 1.0, "device 1 action 0 at offset 1+2");
    }

    #[test]
    fn featurizer_time_is_cyclic() {
        let cfg = EpisodeConfig::DAILY_MINUTES;
        let f = TransitionFeaturizer::new(&fsm(), cfg);
        let at = |t: u32| {
            let v = f.features(&st(&[0, 0]), &EnvAction::noop(), TimeStep(t));
            (v[v.len() - 2], v[v.len() - 1])
        };
        let (s0, c0) = at(0);
        let (s1440, c1440) = at(1440);
        assert!((s0 - s1440).abs() < 1e-12 && (c0 - c1440).abs() < 1e-12);
        let (s720, c720) = at(720);
        assert!((s720 - 0.0).abs() < 1e-9 && (c720 + 1.0).abs() < 1e-9);
    }

    #[test]
    fn filter_learns_time_dependent_anomalies() {
        // Routine: TV on in the evening. Anomalous: TV on at 03:00.
        let fsm = fsm();
        let cfg = EpisodeConfig::DAILY_MINUTES;
        let mut fcfg = FilterConfig { epochs: 30, seed: 5, ..FilterConfig::default() };
        let mut filter = AnomalyFilter::new(&fsm, cfg, fcfg).unwrap();
        let mut routine = Vec::new();
        let mut anomalous = Vec::new();
        for i in 0..120u32 {
            routine.push((st(&[0, 0]), act(1, 1), TimeStep(19 * 60 + i)));
            anomalous.push((st(&[0, 0]), act(1, 1), TimeStep(120 + i)));
        }
        fcfg.epochs = 30;
        let loss = filter.train(&routine, &anomalous, &fcfg).unwrap();
        assert!(loss < 0.4, "loss {loss}");
        let evening = filter.score(&st(&[0, 0]), &act(1, 1), TimeStep(19 * 60 + 30)).unwrap();
        let night = filter.score(&st(&[0, 0]), &act(1, 1), TimeStep(3 * 60)).unwrap();
        assert!(night > evening, "night {night} vs evening {evening}");
        assert!(filter.is_anomalous(&st(&[0, 0]), &act(1, 1), TimeStep(3 * 60)).unwrap());
        assert!(!filter.is_anomalous(&st(&[0, 0]), &act(1, 1), TimeStep(19 * 60 + 30)).unwrap());
    }

    #[test]
    fn empty_training_set_errors() {
        let mut filter =
            AnomalyFilter::new(&fsm(), EpisodeConfig::DAILY_MINUTES, FilterConfig::default())
                .unwrap();
        assert!(filter.train(&[], &[], &FilterConfig::default()).is_err());
    }

    #[test]
    fn same_seed_same_filter() {
        let fsm = fsm();
        let cfg = EpisodeConfig::DAILY_MINUTES;
        let fcfg = FilterConfig { seed: 9, ..FilterConfig::default() };
        let a = AnomalyFilter::new(&fsm, cfg, fcfg).unwrap();
        let b = AnomalyFilter::new(&fsm, cfg, fcfg).unwrap();
        let s = st(&[0, 1]);
        let x = act(0, 1);
        assert_eq!(
            a.score(&s, &x, TimeStep(10)).unwrap(),
            b.score(&s, &x, TimeStep(10)).unwrap()
        );
    }
}
