//! Error type for the Jarvis framework facade.

use jarvis_iot_model::ModelError;
use jarvis_neural::NeuralError;
use std::error::Error;
use std::fmt;

/// Errors produced by the Jarvis pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JarvisError {
    /// An FSM/episode-level failure.
    Model(ModelError),
    /// A neural-network failure (ANN filter or DQN).
    Neural(NeuralError),
    /// The pipeline was driven out of order (e.g. optimizing before the
    /// learning phase).
    Pipeline {
        /// What was attempted.
        what: &'static str,
        /// What must happen first.
        requires: &'static str,
    },
    /// A log serialization failure, carrying the underlying message.
    Serde(String),
    /// A training checkpoint could not be written or restored (corrupt
    /// state, codec failure, or config/network mismatch).
    Checkpoint(String),
    /// A fault-injection plan is invalid (rate outside `[0, 1]`, zero
    /// magnitude, empty scope).
    Fault(String),
    /// A serving-runtime configuration is invalid (zero shards, duplicate
    /// home registration, observation/action dimensions that do not match
    /// the policy network, or a snapshot for homes that are not registered).
    Config(String),
}

impl fmt::Display for JarvisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JarvisError::Model(e) => write!(f, "model error: {e}"),
            JarvisError::Neural(e) => write!(f, "neural error: {e}"),
            JarvisError::Pipeline { what, requires } => {
                write!(f, "cannot {what}: run {requires} first")
            }
            JarvisError::Serde(msg) => write!(f, "serialization error: {msg}"),
            JarvisError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            JarvisError::Fault(msg) => write!(f, "fault-plan error: {msg}"),
            JarvisError::Config(msg) => write!(f, "runtime config error: {msg}"),
        }
    }
}

impl Error for JarvisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JarvisError::Model(e) => Some(e),
            JarvisError::Neural(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for JarvisError {
    fn from(e: ModelError) -> Self {
        JarvisError::Model(e)
    }
}

impl From<NeuralError> for JarvisError {
    fn from(e: NeuralError) -> Self {
        JarvisError::Neural(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = JarvisError::from(ModelError::EmptyFsm);
        assert!(e.to_string().contains("model error"));
        let src = e.source().expect("model errors carry a source");
        assert!(src.downcast_ref::<ModelError>().is_some());
        assert_eq!(src.to_string(), ModelError::EmptyFsm.to_string());
        let p = JarvisError::Pipeline { what: "optimize", requires: "learn_policies" };
        assert!(p.to_string().contains("learn_policies"));
        assert!(p.source().is_none());
        let c = JarvisError::Checkpoint("bad replay length".to_owned());
        assert!(c.to_string().contains("checkpoint error"));
        assert!(c.source().is_none());
        let fp = JarvisError::Fault("rate 1.5 outside [0, 1]".to_owned());
        assert!(fp.to_string().contains("fault-plan error"));
        assert!(fp.source().is_none());
        let cfg = JarvisError::Config("0 shards".to_owned());
        assert!(cfg.to_string().contains("runtime config error"));
        assert!(cfg.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<JarvisError>();
    }
}
