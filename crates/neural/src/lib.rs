//! Minimal feed-forward neural-network library used by the Jarvis framework.
//!
//! The paper uses two networks (its Section I fixes the terminology):
//!
//! * an **ANN** — a multi-layer perceptron with a *single* hidden layer
//!   trained by back-propagation — to filter benign anomalies out of the
//!   Security Policy Learner's training data (Sections IV-A and V-A-3), and
//! * a **DNN** — a batch-processing network with *two* hidden layers and
//!   learning rate 0.001 trained by first-order gradient-based optimization —
//!   as the Q-function approximator of the deep Q-learning optimizer
//!   (Section V-A-6).
//!
//! This crate provides everything both need, from scratch: a dense [`Matrix`]
//! type, dense layers with [`Activation`]s, [`Loss`] functions, SGD and Adam
//! [`OptimizerKind`]s, a [`Network`] builder with seeded initialization, and
//! classification [`metrics`] (confusion matrix, ROC curve, AUC) used to
//! reproduce Figure 5.
//!
//! # Example
//!
//! Learn XOR with one hidden layer:
//!
//! ```
//! use jarvis_neural::{Activation, Loss, Network, OptimizerKind};
//!
//! let mut net = Network::builder(2)
//!     .layer(8, Activation::Tanh)
//!     .layer(1, Activation::Sigmoid)
//!     .loss(Loss::Mse)
//!     .optimizer(OptimizerKind::adam(0.05))
//!     .seed(7)
//!     .build()?;
//!
//! let xs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
//! let ys = [[0.0], [1.0], [1.0], [0.0]];
//! for _ in 0..800 {
//!     let inputs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
//!     let targets: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
//!     net.train_batch(&inputs, &targets)?;
//! }
//! assert!(net.predict(&[1.0, 0.0])?[0] > 0.5);
//! assert!(net.predict(&[1.0, 1.0])?[0] < 0.5);
//! # Ok::<(), jarvis_neural::NeuralError>(())
//! ```

// Unsafe is denied crate-wide; the one sanctioned island is `simd`, whose
// `std::arch` micro-kernels opt back in with documented shape contracts.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod error;
pub mod gemm;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod quant;
mod simd;

pub use activation::Activation;
pub use error::NeuralError;
pub use gemm::SimdTier;
pub use layer::Dense;
pub use loss::Loss;
pub use matrix::Matrix;
pub use network::{Network, NetworkBuilder};
pub use optimizer::OptimizerKind;
pub use quant::QuantizedNetwork;
