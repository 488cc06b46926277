//! # jarvis-runtime
//!
//! A sharded, multi-home serving runtime over the Jarvis stack: the layer
//! that takes the paper's one-home prototype toward the ROADMAP's
//! fleet-scale north star.
//!
//! The runtime ingests per-home event streams ([`ServingRuntime::ingest_day`]
//! / [`ServingRuntime::ingest_fleet_day`], optionally corrupted by a
//! [`FaultInjector`](jarvis_sim::FaultInjector) at the ingest boundary),
//! places homes onto `N` worker shards with deterministic load-aware bin
//! packing (see [`Placement`]), routes envelopes over lock-free bounded
//! [`jarvis_stdkit::sync::StealQueue`](jarvis_stdkit::sync::StealQueue)
//! ingest rings, and answers three kinds of events:
//!
//! - **Actions** are checked against the home's learned safe-transition
//!   table (the paper's runtime monitor): safe actions step the home's FSM
//!   state, violations are blocked and alarmed.
//! - **Sensor** events step the state unchecked (the environment is never
//!   "unsafe", only actions are).
//! - **Queries** are parked in a batching window (closed adaptively the
//!   moment the shard's ingest ring runs dry) and answered through one
//!   [`DqnAgent::q_values_batch`](jarvis_rl::DqnAgent::q_values_batch)
//!   matrix pass riding the blocked GEMM kernels, then walked down the Q
//!   ranking to the best action each home's safe set allows. Closed
//!   batches are published on per-shard run queues; an idle worker
//!   *steals* batches from its siblings in a fixed victim order, so one
//!   hot shard's inference backlog drains across the whole pool.
//!
//! **Entry points.** [`ServingRuntime::serve`] serves a stream;
//! [`ServingRuntime::serve_online`] adds a scheduled policy-swap plan
//! ([`SwapPoint`]s); [`ServingRuntime::serve_online_supervised`] serves
//! under WAL-backed supervision with optional chaos injection (pass `&[]`
//! for no swaps). All three run one serve core over the same shard loops,
//! and every loop shares one epoch mechanism: a swap takes effect at its
//! `at_seq` — the batching window closes at the epoch boundary and each
//! closed batch carries its epoch, so whichever worker executes it answers
//! under the right policy.
//!
//! **Determinism contract.** The batched forward is bit-identical per row
//! to a single-row forward, every event of one home is processed in global
//! sequence order whatever the shard count, and decisions draw no
//! randomness. Stealing moves only *closed* batches whose observations,
//! valid-action sets, and action maps were snapshotted at in-order
//! processing time — pure inference work — so for a fixed ingested stream,
//! the outcome list (sorted by sequence number) is byte-identical across
//! shard counts, steal schedules, batching modes, and between
//! deterministic and threaded-`Block` execution. Backpressure is explicit:
//! a full queue blocks, sheds with a reported [`Rejection`], or fails with
//! [`JarvisError::Overload`](jarvis::JarvisError), per [`OverloadPolicy`] —
//! never a silent drop. Shards snapshot and restore byte-identically via
//! [`ShardSnapshot`], carrying the fleet policy as a bit-exact
//! [`DqnCheckpoint`](jarvis_rl::DqnCheckpoint).
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

pub use event::{DecisionSource, Envelope, EventKind, Outcome, OverloadPolicy, Rejection};
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
