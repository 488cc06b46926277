//! # jarvis-runtime
//!
//! A sharded, multi-home serving runtime over the Jarvis stack: the layer
//! that takes the paper's one-home prototype toward the ROADMAP's
//! fleet-scale north star.
//!
//! The runtime ingests per-home event streams ([`ServingRuntime::ingest_day`]
//! / [`ServingRuntime::ingest_fleet_day`], optionally corrupted by a
//! [`FaultInjector`](jarvis_sim::FaultInjector) at the ingest boundary),
//! places homes onto `N` shards with deterministic load-aware bin packing
//! (see [`Placement`]), splits each stream into one sub-stream per shard,
//! and answers three kinds of events:
//!
//! - **Actions** are checked against the home's learned safe-transition
//!   table (the paper's runtime monitor): safe actions step the home's FSM
//!   state, violations are blocked and alarmed.
//! - **Sensor** events step the state unchecked (the environment is never
//!   "unsafe", only actions are).
//! - **Queries** are parked in a batching window and answered through one
//!   [`DqnAgent::q_values_batch`](jarvis_rl::DqnAgent::q_values_batch)
//!   matrix pass riding the blocked GEMM kernels, then walked down the Q
//!   ranking to the best action each home's safe set allows.
//!
//! **Entry points.** [`ServingRuntime::serve`] serves a stream;
//! [`ServingRuntime::serve_online`] adds a scheduled policy-swap plan
//! ([`SwapPoint`]s); [`ServingRuntime::serve_online_supervised`] serves
//! under WAL-backed supervision with optional chaos injection (pass `&[]`
//! for no swaps). All three run one serve core over one shard executor:
//! each shard walks its sub-stream in seq order as one task on the
//! [`WorkerPool`](jarvis_stdkit::pool::WorkerPool) — on the caller's
//! thread, in shard order, when [`RuntimeConfig::deterministic`] is set.
//! A swap takes effect at its `at_seq`: the batching window closes at the
//! epoch boundary, so every batch answers under the right policy.
//!
//! **Determinism contract.** The batched forward is bit-identical per row
//! to a single-row forward, every event of one home is processed in global
//! sequence order whatever the shard count, decisions draw no randomness,
//! and a shard's output depends only on its own sub-stream. So for a fixed
//! ingested stream, the outcome list (sorted by sequence number) is
//! byte-identical across shard counts, batching modes, and between
//! deterministic and threaded execution. Every event gets exactly one
//! outcome — nothing is dropped. Shards snapshot and restore
//! byte-identically via [`ShardSnapshot`], carrying the fleet policy as a
//! bit-exact [`DqnCheckpoint`](jarvis_rl::DqnCheckpoint).
//!
//! ```no_run
//! use jarvis_policy::SafeTransitionTable;
//! use jarvis_rl::{DqnAgent, DqnConfig};
//! use jarvis_runtime::{RuntimeConfig, ServingRuntime};
//! use jarvis_sim::{FleetGenerator, HomeDataset};
//! use jarvis_smart_home::SmartHome;
//!
//! let home = SmartHome::evaluation_home();
//! let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
//! let num_actions = home.agent_mini_actions().len() + 1;
//! let policy = DqnAgent::new(DqnConfig::new(state_dim, num_actions))?;
//!
//! let mut runtime = ServingRuntime::new(RuntimeConfig::new(4), policy)?;
//! let fleet = FleetGenerator::new(42, 16);
//! for id in 0..fleet.num_homes() {
//!     runtime.register_home(u64::from(id), home.clone(), SafeTransitionTable::new())?;
//! }
//! let ingest = runtime.ingest_fleet_day(&fleet, 0, None, Some(15))?;
//! let report = runtime.serve(ingest.envelopes)?;
//! println!("{} outcomes, {} decisions", report.outcomes.len(), report.decisions());
//! # Ok::<(), jarvis::JarvisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod online;
mod policy_store;
mod runtime;
mod shard;
mod slot;
mod supervisor;
mod wal;

pub use event::{DecisionSource, Envelope, EventKind, Outcome};
pub use online::{
    AmbientTelemetry, FineTuneConfig, FineTuneReport, OnlineConfig, OnlineLearner,
};
pub use policy_store::{
    PolicyStore, PolicyVersion, ShadowGates, ShadowRow, ShadowScore, SwapPoint, SwapRecord,
};
pub use runtime::{
    IngestReport, Placement, RuntimeConfig, RuntimeSnapshot, ServeReport, ServingRuntime,
    ShardSnapshot,
};
pub use slot::{HomeSlot, HomeSnapshot};
pub use supervisor::{
    FailureCause, QuarantineRecord, RecoveryReport, RestartRecord, SupervisedReport,
    SupervisorConfig,
};
pub use wal::{ShardWal, WalRecord};
