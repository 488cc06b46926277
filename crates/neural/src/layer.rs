//! Dense (fully connected) layers with backpropagation.

use crate::activation::Activation;
use crate::error::NeuralError;
use crate::matrix::Matrix;
use crate::optimizer::{OptState, OptimizerKind};
use jarvis_stdkit::rng::Rng;
use jarvis_stdkit::{json_struct};

/// A fully connected layer `a = f(x·Wᵀ + b)`.
///
/// Weights are initialized with He-uniform for (leaky-)ReLU activations and
/// Xavier-uniform otherwise, using the RNG supplied by the owning
/// [`Network`](crate::Network) so the whole model is reproducible from a
/// seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// `units × inputs` weight matrix.
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    w_state: OptState,
    b_state: OptState,
}

json_struct!(Dense { weights, bias, activation, w_state, b_state });

/// Cached forward-pass tensors needed for the backward pass.
#[derive(Debug, Clone)]
pub(crate) struct ForwardCache {
    /// Pre-activations `z = x·Wᵀ + b`, one row per batch item.
    pub z: Matrix,
    /// Activations `a = f(z)`.
    pub a: Matrix,
}

impl Dense {
    /// Build a layer mapping `inputs` features to `units` outputs.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ZeroUnits`] when either dimension is zero.
    pub fn new(
        inputs: usize,
        units: usize,
        activation: Activation,
        rng: &mut impl Rng,
        optimizer: &OptimizerKind,
    ) -> Result<Self, NeuralError> {
        if inputs == 0 || units == 0 {
            return Err(NeuralError::ZeroUnits);
        }
        let limit = match activation {
            // float-ok: layer widths are far below 2^53, the casts are exact
            Activation::Relu | Activation::LeakyRelu => (6.0 / inputs as f64).sqrt(),
            // float-ok: layer widths are far below 2^53, the casts are exact
            _ => (6.0 / (inputs + units) as f64).sqrt(),
        };
        let weights =
            Matrix::from_fn(units, inputs, |_, _| rng.gen_range(-limit..=limit));
        Ok(Dense {
            weights,
            bias: vec![0.0; units],
            activation,
            w_state: optimizer.new_state(units * inputs),
            b_state: optimizer.new_state(units),
        })
    }

    /// Number of input features.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.weights.cols()
    }

    /// Number of output units.
    #[must_use]
    pub fn units(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The `units × inputs` weight matrix (read-only — training owns the
    /// writes). Exposed for quantization and kernel benchmarking.
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The per-unit bias vector (read-only).
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Number of trainable parameters (weights + biases).
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass over a batch (`batch × inputs`) on the blocked kernels.
    pub(crate) fn forward(&self, input: &Matrix) -> Result<ForwardCache, NeuralError> {
        let z = input.matmul_transpose(&self.weights)?.add_row_broadcast(&self.bias)?;
        let a = z.map(|v| self.activation.apply(v));
        Ok(ForwardCache { z, a })
    }

    /// Inference-only forward: bit for bit the activations of
    /// [`Dense::forward`], computed in place in the GEMM's output buffer
    /// instead of through a kept pre-activation copy.
    pub(crate) fn infer(&self, input: &Matrix) -> Result<Matrix, NeuralError> {
        let mut out = input.matmul_transpose(&self.weights)?;
        if self.bias.len() != out.cols() {
            return Err(NeuralError::BadVectorLength {
                what: "bias",
                expected: out.cols(),
                got: self.bias.len(),
            });
        }
        for row in out.as_mut_slice().chunks_exact_mut(self.bias.len().max(1)) {
            for (v, b) in row.iter_mut().zip(&self.bias) {
                *v = self.activation.apply(*v + b);
            }
        }
        Ok(out)
    }

    /// Backward pass: given the gradient of the loss with respect to this
    /// layer's *output activations* (`dl_da`, `batch × units`), the cached
    /// pre-activations, and this layer's input activations (`batch ×
    /// inputs`), update the parameters and return the gradient with respect
    /// to the inputs.
    pub(crate) fn backward(
        &mut self,
        input: &Matrix,
        cache: &ForwardCache,
        dl_da: &Matrix,
        optimizer: &OptimizerKind,
    ) -> Result<Matrix, NeuralError> {
        // delta = dL/da ⊙ f'(z), shape batch × units.
        let fprime = cache.z.map(|v| self.activation.derivative(v));
        let delta = dl_da.hadamard(&fprime)?;
        // dW = deltaᵀ · input, shape units × inputs.
        let dw = delta.transpose().matmul(input)?;
        // db = column sums of delta.
        let db: Vec<f64> = {
            let mut sums = vec![0.0; delta.cols()];
            for r in 0..delta.rows() {
                for (s, &v) in sums.iter_mut().zip(delta.row(r)) {
                    *s += v;
                }
            }
            sums
        };
        // dL/d(input) = delta · W, shape batch × inputs.
        let dl_dinput = delta.matmul(&self.weights)?;

        optimizer.update(self.weights.as_mut_slice(), dw.as_slice(), &mut self.w_state);
        optimizer.update(&mut self.bias, &db, &mut self.b_state);
        Ok(dl_dinput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_stdkit::rng::SeedableRng;
    use jarvis_stdkit::rng::ChaCha8Rng;

    fn layer(inputs: usize, units: usize, act: Activation) -> Dense {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        Dense::new(inputs, units, act, &mut rng, &OptimizerKind::sgd(0.1)).unwrap()
    }

    #[test]
    fn construction_validates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(Dense::new(0, 3, Activation::Relu, &mut rng, &OptimizerKind::sgd(0.1)).is_err());
        assert!(Dense::new(3, 0, Activation::Relu, &mut rng, &OptimizerKind::sgd(0.1)).is_err());
        let d = layer(4, 3, Activation::Relu);
        assert_eq!(d.inputs(), 4);
        assert_eq!(d.units(), 3);
        assert_eq!(d.num_params(), 15);
    }

    #[test]
    fn initialization_is_seeded_and_bounded() {
        let a = layer(10, 5, Activation::Tanh);
        let b = layer(10, 5, Activation::Tanh);
        assert_eq!(a, b, "same seed must give identical weights");
        let limit = (6.0f64 / 15.0).sqrt();
        // Serialized weights all within the Xavier limit.
        let d = layer(10, 5, Activation::Tanh);
        let json = jarvis_stdkit::json::ToJson::to_json_value(&d);
        let data =
            json.get("weights").unwrap().get("data").unwrap().as_array().unwrap();
        for w in data {
            assert!(w.as_f64().unwrap().abs() <= limit + 1e-12);
        }
    }

    #[test]
    fn forward_shapes_and_linear_identity() {
        let d = layer(3, 2, Activation::Linear);
        let x = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[0.5, 0.5, 0.5]]).unwrap();
        let cache = d.forward(&x).unwrap();
        assert_eq!(cache.z.shape(), (2, 2));
        // Linear activation: a == z.
        assert_eq!(cache.z, cache.a);
    }

    #[test]
    fn backward_reduces_loss_on_linear_regression() {
        // Single linear layer learning y = 2x.
        let mut d = layer(1, 1, Activation::Linear);
        let opt = OptimizerKind::sgd(0.05);
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[-1.0]]).unwrap();
        let y = Matrix::from_rows(&[&[2.0], &[4.0], &[-2.0]]).unwrap();
        let mut last = f64::INFINITY;
        for _ in 0..200 {
            let cache = d.forward(&x).unwrap();
            let loss = crate::loss::Loss::Mse.value(&cache.a, &y).unwrap();
            let grad = crate::loss::Loss::Mse.gradient(&cache.a, &y).unwrap();
            d.backward(&x, &cache, &grad, &opt).unwrap();
            last = loss;
        }
        assert!(last < 1e-4, "loss did not converge: {last}");
    }

    #[test]
    fn backward_returns_input_gradient_shape() {
        let mut d = layer(4, 2, Activation::Tanh);
        let opt = OptimizerKind::sgd(0.0); // no update, just shape check
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4]]).unwrap();
        let cache = d.forward(&x).unwrap();
        let dl_da = Matrix::from_rows(&[&[1.0, -1.0]]).unwrap();
        let g = d.backward(&x, &cache, &dl_da, &opt).unwrap();
        assert_eq!(g.shape(), (1, 4));
    }
}
