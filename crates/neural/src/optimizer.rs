//! First-order gradient optimizers: SGD (with momentum) and Adam.
//!
//! The paper's DNN is trained with "first-order gradient-based optimization"
//! at a learning rate of 0.001 (Section V-A-6) — i.e. Adam at its canonical
//! configuration, which [`OptimizerKind::adam`] reproduces.

use jarvis_stdkit::{json_enum, json_struct};

/// Optimizer configuration, shared by all parameter tensors of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum OptimizerKind {
    /// Stochastic gradient descent with classical momentum.
    Sgd {
        /// Learning rate.
        lr: f64,
        /// Momentum coefficient in `[0, 1)`; `0` disables momentum.
        momentum: f64,
    },
    /// Adam (Kingma & Ba) with bias correction.
    Adam {
        /// Learning rate (`0.001` in the paper's prototype).
        lr: f64,
        /// First-moment decay, canonically `0.9`.
        beta1: f64,
        /// Second-moment decay, canonically `0.999`.
        beta2: f64,
        /// Numerical-stability epsilon.
        eps: f64,
    },
}

json_enum!(OptimizerKind { Sgd { lr, momentum }, Adam { lr, beta1, beta2, eps } });

impl OptimizerKind {
    /// Plain SGD without momentum.
    #[must_use]
    pub fn sgd(lr: f64) -> Self {
        OptimizerKind::Sgd { lr, momentum: 0.0 }
    }

    /// SGD with momentum.
    #[must_use]
    pub fn sgd_momentum(lr: f64, momentum: f64) -> Self {
        OptimizerKind::Sgd { lr, momentum }
    }

    /// Adam with canonical `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    #[must_use]
    pub fn adam(lr: f64) -> Self {
        OptimizerKind::Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    /// The configured learning rate.
    #[must_use]
    pub fn learning_rate(&self) -> f64 {
        match *self {
            OptimizerKind::Sgd { lr, .. } | OptimizerKind::Adam { lr, .. } => lr,
        }
    }

    /// Fresh per-tensor state for `len` parameters.
    pub(crate) fn new_state(&self, len: usize) -> OptState {
        OptState { m: vec![0.0; len], v: vec![0.0; len], t: 0 }
    }

    /// Apply one element-wise update step: each parameter touches only its
    /// own moment entries.
    ///
    /// # Panics
    ///
    /// Panics when `params`, `grads`, and the state disagree on length —
    /// an internal invariant maintained by [`Network`](crate::Network).
    pub(crate) fn update(&self, params: &mut [f64], grads: &[f64], state: &mut OptState) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(params.len(), state.m.len(), "params/state length mismatch");
        match *self {
            OptimizerKind::Sgd { lr, momentum } => {
                for ((p, &g), mo) in params.iter_mut().zip(grads).zip(&mut state.m) {
                    *mo = momentum * *mo + g;
                    *p -= lr * *mo;
                }
            }
            OptimizerKind::Adam { lr, beta1, beta2, eps } => {
                state.t += 1;
                let bc1 = 1.0 - beta1.powi(state.t as i32);
                let bc2 = 1.0 - beta2.powi(state.t as i32);
                for (((p, &g), m), v) in
                    params.iter_mut().zip(grads).zip(&mut state.m).zip(&mut state.v)
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *p -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }
}

/// Per-parameter-tensor optimizer state (momentum / Adam moments).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OptState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

json_struct!(OptState { m, v, t });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let opt = OptimizerKind::sgd(0.1);
        let mut p = vec![1.0, -1.0];
        let mut st = opt.new_state(2);
        opt.update(&mut p, &[0.5, -0.5], &mut st);
        assert!((p[0] - 0.95).abs() < 1e-12);
        assert!((p[1] + 0.95).abs() < 1e-12);
    }

    #[test]
    fn momentum_accumulates() {
        let opt = OptimizerKind::sgd_momentum(0.1, 0.9);
        let mut p = vec![0.0];
        let mut st = opt.new_state(1);
        opt.update(&mut p, &[1.0], &mut st); // v=1, p=-0.1
        opt.update(&mut p, &[1.0], &mut st); // v=1.9, p=-0.29
        assert!((p[0] + 0.29).abs() < 1e-12);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x - 3)^2 from x = 0.
        let opt = OptimizerKind::adam(0.1);
        let mut x = vec![0.0];
        let mut st = opt.new_state(1);
        for _ in 0..600 {
            let g = 2.0 * (x[0] - 3.0);
            opt.update(&mut x, &[g], &mut st);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step ≈ lr regardless of
        // gradient magnitude.
        let opt = OptimizerKind::adam(0.001);
        for g in [1e-4, 1.0, 1e4] {
            let mut p = vec![0.0];
            let mut st = opt.new_state(1);
            opt.update(&mut p, &[g], &mut st);
            assert!((p[0].abs() - 0.001).abs() < 1e-6, "g={g} step={}", p[0]);
        }
    }

    #[test]
    fn learning_rate_accessor() {
        assert_eq!(OptimizerKind::adam(0.001).learning_rate(), 0.001);
        assert_eq!(OptimizerKind::sgd(0.5).learning_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let opt = OptimizerKind::sgd(0.1);
        let mut p = vec![0.0];
        let mut st = opt.new_state(1);
        opt.update(&mut p, &[1.0, 2.0], &mut st);
    }
}
