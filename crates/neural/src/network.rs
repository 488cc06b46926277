//! The [`Network`] type: a stack of dense layers with a loss, an optimizer,
//! and seeded initialization.

use crate::activation::Activation;
use crate::error::NeuralError;
use crate::layer::{Dense, ForwardCache};
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optimizer::OptimizerKind;
use jarvis_stdkit::rng::SeedableRng;
use jarvis_stdkit::rng::ChaCha8Rng;
use jarvis_stdkit::{json_struct};

/// A feed-forward neural network: dense layers, a loss, and an optimizer.
///
/// Construct with [`Network::builder`]. See the [crate docs](crate) for a
/// complete training example.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Dense>,
    loss: Loss,
    optimizer: OptimizerKind,
    input_size: usize,
}

json_struct!(Network { layers, loss, optimizer, input_size });

impl Network {
    /// Start building a network taking `input_size` features.
    #[must_use]
    pub fn builder(input_size: usize) -> NetworkBuilder {
        NetworkBuilder {
            input_size,
            layers: Vec::new(),
            loss: Loss::Mse,
            optimizer: OptimizerKind::adam(0.001),
            seed: 0,
        }
    }

    /// Number of input features.
    #[must_use]
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of outputs (units of the last layer).
    #[must_use]
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, Dense::units)
    }

    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// The configured loss function.
    #[must_use]
    pub fn loss_fn(&self) -> Loss {
        self.loss
    }

    /// The dense layers, input-side first (read-only — training owns the
    /// writes). Exposed for quantization and kernel benchmarking.
    #[must_use]
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Run the network on one input vector.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadVectorLength`] when `input` has the wrong
    /// length.
    pub fn predict(&self, input: &[f64]) -> Result<Vec<f64>, NeuralError> {
        if input.len() != self.input_size {
            return Err(NeuralError::BadVectorLength {
                what: "input",
                expected: self.input_size,
                got: input.len(),
            });
        }
        let out = self.predict_batch(&Matrix::row_from_slice(input))?;
        Ok(out.row(0).to_vec())
    }

    /// Run the network on many input vectors packed into one matrix pass.
    ///
    /// The rows ride the same blocked GEMM kernels as [`Network::predict`],
    /// and each kernel reduces every output element with a fixed ascending-k
    /// order, so row `i` of the result is **bit-identical** to
    /// `predict(inputs[i])` — batching changes throughput, never values.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadBatch`] for an empty or ragged batch and
    /// [`NeuralError::BadVectorLength`] when rows have the wrong width.
    pub fn forward_batch(&self, inputs: &[&[f64]]) -> Result<Vec<Vec<f64>>, NeuralError> {
        Ok(self.forward_matrix(&Matrix::from_rows(inputs)?)?.to_rows())
    }

    /// [`Network::forward_batch`] on an already packed `batch × input_size`
    /// matrix, returning the `batch × outputs` matrix: no per-row vectors
    /// on either side.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadVectorLength`] when the matrix has the
    /// wrong width.
    pub fn forward_matrix(&self, x: &Matrix) -> Result<Matrix, NeuralError> {
        if x.cols() != self.input_size {
            return Err(NeuralError::BadVectorLength {
                what: "input",
                expected: self.input_size,
                got: x.cols(),
            });
        }
        self.predict_batch(x)
    }

    /// Run the network on a batch (`batch × input_size`).
    ///
    /// # Errors
    ///
    /// Returns a dimension error when the batch width is wrong.
    pub fn predict_batch(&self, input: &Matrix) -> Result<Matrix, NeuralError> {
        let mut layers = self.layers.iter();
        let Some(first) = layers.next() else { return Ok(input.clone()) };
        let mut a = first.infer(input)?;
        for layer in layers {
            a = layer.infer(&a)?;
        }
        Ok(a)
    }

    /// One gradient step on a batch; returns the pre-update batch loss.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadBatch`] for empty/ragged batches or when
    /// inputs and targets disagree in count, and dimension errors when the
    /// vector widths do not match the network.
    pub fn train_batch(
        &mut self,
        inputs: &[&[f64]],
        targets: &[&[f64]],
    ) -> Result<f64, NeuralError> {
        self.train_batch_masked(inputs, targets, None)
    }

    /// One gradient step where only masked outputs contribute to the loss.
    ///
    /// `masks`, when present, holds one 0/1 vector per batch item; gradient
    /// entries where the mask is `0` are zeroed. [`Network::train_q_heads`]
    /// is the DQN's form of this step: it builds the target from the
    /// training forward's own prediction instead of taking it from the
    /// caller. Both run the same forward/backward pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::train_batch`].
    pub fn train_batch_masked(
        &mut self,
        inputs: &[&[f64]],
        targets: &[&[f64]],
        masks: Option<&[&[f64]]>,
    ) -> Result<f64, NeuralError> {
        if inputs.is_empty() {
            return Err(NeuralError::BadBatch { reason: "empty batch" });
        }
        if inputs.len() != targets.len() {
            return Err(NeuralError::BadBatch { reason: "inputs/targets count mismatch" });
        }
        if let Some(m) = masks {
            if m.len() != inputs.len() {
                return Err(NeuralError::BadBatch { reason: "inputs/masks count mismatch" });
            }
        }
        let x = self.input_matrix(inputs)?;
        let y = Matrix::from_rows(targets)?;
        if y.cols() != self.output_size() {
            return Err(NeuralError::BadVectorLength {
                what: "target",
                expected: self.output_size(),
                got: y.cols(),
            });
        }
        let mask = masks.map(Matrix::from_rows).transpose()?;
        self.train_step(&x, |_| (y, mask))
    }

    /// One gradient step on one output head per batch item: row `i` trains
    /// output `heads[i].0` toward `heads[i].1`, and every other output of
    /// the row gets zero gradient. This is how the DQN trains only the Q
    /// value of the action actually taken (Section V-A-7's mini-action
    /// head) without disturbing the other heads.
    ///
    /// The target is the training forward's own cached prediction with the
    /// one head overwritten, masked to that head — bit for bit the step
    /// [`Network::train_batch_masked`] takes when the caller builds each
    /// target row from `predict(inputs[i])` and a one-hot mask, without
    /// running the forward twice. Returns the pre-update batch loss.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadBatch`] for an empty or ragged batch or
    /// when `inputs` and `heads` disagree in count,
    /// [`NeuralError::BadVectorLength`] when the input width is wrong or a
    /// head index is out of range; the weights are untouched on error.
    pub fn train_q_heads(
        &mut self,
        inputs: &[&[f64]],
        heads: &[(usize, f64)],
    ) -> Result<f64, NeuralError> {
        if inputs.is_empty() {
            return Err(NeuralError::BadBatch { reason: "empty batch" });
        }
        if inputs.len() != heads.len() {
            return Err(NeuralError::BadBatch { reason: "inputs/heads count mismatch" });
        }
        let x = self.input_matrix(inputs)?;
        let outputs = self.output_size();
        if let Some(&(head, _)) = heads.iter().find(|&&(head, _)| head >= outputs) {
            return Err(NeuralError::BadVectorLength {
                what: "q head index",
                expected: outputs,
                got: head,
            });
        }
        self.train_step(&x, |prediction| {
            let mut y = prediction.clone();
            let mut mask = Matrix::zeros(prediction.rows(), prediction.cols());
            for (r, &(head, target)) in heads.iter().enumerate() {
                y.set(r, head, target);
                mask.set(r, head, 1.0);
            }
            (y, Some(mask))
        })
    }

    /// Stack a training batch and check its width against the network.
    fn input_matrix(&self, inputs: &[&[f64]]) -> Result<Matrix, NeuralError> {
        let x = Matrix::from_rows(inputs)?;
        if x.cols() != self.input_size {
            return Err(NeuralError::BadVectorLength {
                what: "input",
                expected: self.input_size,
                got: x.cols(),
            });
        }
        Ok(x)
    }

    /// The forward/backward pass behind every training step: forward over
    /// `x` caching each layer's tensors, let `targets` turn the prediction
    /// into the `(target, mask)` pair the loss sees, then backpropagate and
    /// update every layer. Returns the pre-update loss.
    fn train_step(
        &mut self,
        x: &Matrix,
        targets: impl FnOnce(&Matrix) -> (Matrix, Option<Matrix>),
    ) -> Result<f64, NeuralError> {
        // Layer `i` reads `x` (i = 0) or layer `i - 1`'s cached activations.
        let mut caches: Vec<ForwardCache> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let input = caches.last().map_or(x, |c| &c.a);
            let cache = layer.forward(input)?;
            caches.push(cache);
        }
        let prediction = &caches.last().expect("non-empty").a;
        let (y, mask) = targets(prediction);
        let loss_value = self.loss.value(prediction, &y)?;

        let mut grad = self.loss.gradient(prediction, &y)?;
        if let Some(m) = mask {
            grad = grad.hadamard(&m)?;
        }
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let input = if i == 0 { x } else { &caches[i - 1].a };
            grad = layer.backward(input, &caches[i], &grad, &self.optimizer)?;
        }
        Ok(loss_value)
    }

    /// Train for `epochs` full passes over the dataset in mini-batches of
    /// `batch_size`; returns the final epoch's mean batch loss.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::train_batch`].
    pub fn fit(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        epochs: usize,
        batch_size: usize,
    ) -> Result<f64, NeuralError> {
        if inputs.is_empty() || batch_size == 0 {
            return Err(NeuralError::BadBatch { reason: "empty dataset or zero batch size" });
        }
        let mut last = 0.0;
        for _ in 0..epochs {
            let mut total = 0.0;
            let mut batches = 0usize;
            for chunk_start in (0..inputs.len()).step_by(batch_size) {
                let end = (chunk_start + batch_size).min(inputs.len());
                let xs: Vec<&[f64]> =
                    inputs[chunk_start..end].iter().map(Vec::as_slice).collect();
                let ys: Vec<&[f64]> =
                    targets[chunk_start..end].iter().map(Vec::as_slice).collect();
                total += self.train_batch(&xs, &ys)?;
                batches += 1;
            }
            // float-ok: batch counts are far below 2^53, the cast is exact
            last = total / batches.max(1) as f64;
        }
        Ok(last)
    }

    /// Serialize the full model (architecture + weights + optimizer state)
    /// to JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`](jarvis_stdkit::json::JsonError) if
    /// serialization fails (it cannot in practice).
    pub fn to_json(&self) -> Result<String, jarvis_stdkit::json::JsonError> {
        Ok(jarvis_stdkit::json::ToJson::to_json(self))
    }

    /// Restore a model serialized with [`Network::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`](jarvis_stdkit::json::JsonError) when the
    /// input is not a valid model.
    pub fn from_json(s: &str) -> Result<Network, jarvis_stdkit::json::JsonError> {
        jarvis_stdkit::json::FromJson::from_json(s)
    }
}

/// Builder for a [`Network`]; see [`Network::builder`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    input_size: usize,
    layers: Vec<(usize, Activation)>,
    loss: Loss,
    optimizer: OptimizerKind,
    seed: u64,
}

impl NetworkBuilder {
    /// Append a dense layer with `units` outputs.
    #[must_use]
    pub fn layer(mut self, units: usize, activation: Activation) -> Self {
        self.layers.push((units, activation));
        self
    }

    /// Set the loss function (default [`Loss::Mse`]).
    #[must_use]
    pub fn loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// Set the optimizer (default Adam at the paper's 0.001).
    #[must_use]
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Set the RNG seed for weight initialization (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the network.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::EmptyNetwork`] with no layers,
    /// [`NeuralError::ZeroUnits`] when any dimension is zero.
    pub fn build(self) -> Result<Network, NeuralError> {
        if self.layers.is_empty() {
            return Err(NeuralError::EmptyNetwork);
        }
        if self.input_size == 0 {
            return Err(NeuralError::ZeroUnits);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut fan_in = self.input_size;
        for (units, activation) in self.layers {
            layers.push(Dense::new(fan_in, units, activation, &mut rng, &self.optimizer)?);
            fan_in = units;
        }
        Ok(Network {
            layers,
            loss: self.loss,
            optimizer: self.optimizer,
            input_size: self.input_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net(seed: u64) -> Network {
        Network::builder(2)
            .layer(8, Activation::Tanh)
            .layer(1, Activation::Sigmoid)
            .loss(Loss::BinaryCrossEntropy)
            .optimizer(OptimizerKind::adam(0.05))
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            Network::builder(2).build(),
            Err(NeuralError::EmptyNetwork)
        ));
        assert!(Network::builder(0).layer(1, Activation::Linear).build().is_err());
        assert!(Network::builder(2).layer(0, Activation::Linear).build().is_err());
    }

    #[test]
    fn sizes_and_params() {
        let n = tiny_net(0);
        assert_eq!(n.input_size(), 2);
        assert_eq!(n.output_size(), 1);
        assert_eq!(n.num_layers(), 2);
        assert_eq!(n.num_params(), 2 * 8 + 8 + 8 + 1);
    }

    #[test]
    fn same_seed_same_predictions() {
        let a = tiny_net(42);
        let b = tiny_net(42);
        let c = tiny_net(43);
        let x = [0.3, -0.7];
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
        assert_ne!(a.predict(&x).unwrap(), c.predict(&x).unwrap());
    }

    #[test]
    fn forward_batch_rows_match_single_predicts_bitwise() {
        let n = tiny_net(11);
        let rows: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![0.1 * f64::from(i), -0.05 * f64::from(i) + 0.3])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let batched = n.forward_batch(&refs).unwrap();
        for (row, out) in rows.iter().zip(&batched) {
            let single = n.predict(row).unwrap();
            assert!(
                single.iter().zip(out).all(|(a, b)| a.to_bits() == b.to_bits()),
                "batched row diverged from single forward: {single:?} vs {out:?}"
            );
        }
    }

    #[test]
    fn forward_batch_validates_shape() {
        let n = tiny_net(0);
        assert!(matches!(
            n.forward_batch(&[]),
            Err(NeuralError::BadBatch { .. })
        ));
        let short = [1.0];
        assert!(matches!(
            n.forward_batch(&[&short]),
            Err(NeuralError::BadVectorLength { what: "input", .. })
        ));
    }

    #[test]
    fn predict_validates_input_length() {
        let n = tiny_net(0);
        assert!(matches!(
            n.predict(&[1.0]),
            Err(NeuralError::BadVectorLength { what: "input", .. })
        ));
    }

    #[test]
    fn learns_xor() {
        let mut n = tiny_net(7);
        let xs: Vec<Vec<f64>> =
            vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        let final_loss = n.fit(&xs, &ys, 600, 4).unwrap();
        assert!(final_loss < 0.1, "final loss {final_loss}");
        assert!(n.predict(&[0.0, 1.0]).unwrap()[0] > 0.5);
        assert!(n.predict(&[0.0, 0.0]).unwrap()[0] < 0.5);
    }

    #[test]
    fn train_batch_validates_counts() {
        let mut n = tiny_net(0);
        let x1 = [0.0, 0.0];
        let y1 = [0.0];
        assert!(n.train_batch(&[], &[]).is_err());
        assert!(n.train_batch(&[&x1], &[&y1, &y1]).is_err());
        assert!(n.train_batch(&[&x1[..1]], &[&y1]).is_err());
    }

    #[test]
    fn masked_training_only_updates_masked_head() {
        // Two-output linear network; train only output 0 via the mask and
        // check output 1's prediction is unchanged.
        let mut n = Network::builder(1)
            .layer(2, Activation::Linear)
            .loss(Loss::Mse)
            .optimizer(OptimizerKind::sgd(0.1))
            .seed(3)
            .build()
            .unwrap();
        let x = [1.0];
        let before = n.predict(&x).unwrap();
        let target = [5.0, -100.0];
        let mask = [1.0, 0.0];
        for _ in 0..100 {
            n.train_batch_masked(&[&x], &[&target], Some(&[&mask])).unwrap();
        }
        let after = n.predict(&x).unwrap();
        assert!((after[0] - 5.0).abs() < 1e-2, "head 0 should fit: {after:?}");
        assert!(
            (after[1] - before[1]).abs() < 1e-9,
            "head 1 must be untouched: {} -> {}",
            before[1],
            after[1]
        );
    }

    #[test]
    fn q_head_step_equals_masked_step_on_predicted_targets() {
        let mk = || {
            Network::builder(2)
                .layer(6, Activation::Relu)
                .layer(3, Activation::Linear)
                .loss(Loss::Mse)
                .optimizer(OptimizerKind::adam(0.01))
                .seed(5)
                .build()
                .unwrap()
        };
        let xs: [&[f64]; 3] = [&[0.2, -0.4], &[1.0, 0.5], &[-0.3, 0.9]];
        let heads = [(2, 1.5), (0, -0.25), (2, 0.0)];
        let (mut masked, mut q_heads) = (mk(), mk());
        for _ in 0..3 {
            let mut targets = Vec::new();
            let mut masks = Vec::new();
            for (x, &(head, target)) in xs.iter().zip(&heads) {
                let mut row = masked.predict(x).unwrap();
                row[head] = target;
                let mut mask = vec![0.0; 3];
                mask[head] = 1.0;
                targets.push(row);
                masks.push(mask);
            }
            let t: Vec<&[f64]> = targets.iter().map(Vec::as_slice).collect();
            let m: Vec<&[f64]> = masks.iter().map(Vec::as_slice).collect();
            let expected = masked.train_batch_masked(&xs, &t, Some(&m)).unwrap();
            let got = q_heads.train_q_heads(&xs, &heads).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits());
        }
        assert_eq!(q_heads.to_json().unwrap(), masked.to_json().unwrap());
    }

    #[test]
    fn q_head_step_validates_before_updating() {
        let mut n = tiny_net(3);
        let before = n.to_json().unwrap();
        let x = [0.1, 0.2];
        assert!(matches!(
            n.train_q_heads(&[&x], &[(1, 0.0)]),
            Err(NeuralError::BadVectorLength { what: "q head index", expected: 1, got: 1 })
        ));
        assert!(n.train_q_heads(&[&x], &[]).is_err());
        assert!(n.train_q_heads(&[], &[]).is_err());
        assert!(n.train_q_heads(&[&x[..1]], &[(0, 0.0)]).is_err());
        assert_eq!(n.to_json().unwrap(), before, "a rejected step must not train");
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let n = tiny_net(11);
        let back = Network::from_json(&n.to_json().unwrap()).unwrap();
        let x = [0.1, 0.9];
        assert_eq!(n.predict(&x).unwrap(), back.predict(&x).unwrap());
    }

    #[test]
    fn fit_rejects_zero_batch() {
        let mut n = tiny_net(0);
        assert!(n.fit(&[vec![0.0, 0.0]], &[vec![0.0]], 1, 0).is_err());
    }
}
