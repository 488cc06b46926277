//! The wire types of the serving runtime: envelopes in, outcomes out.

use jarvis::Verdict;
use jarvis_iot_model::MiniAction;
use jarvis_stdkit::{json_enum, json_struct};

/// What an [`Envelope`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A command observed in a home (an occupant or an app acting on a
    /// device). The runtime checks it against the home's safe-transition
    /// table before stepping the home's state — the monitor path.
    Action(MiniAction),
    /// An exogenous sensor attribute change (door opened, temperature band
    /// moved). Applied to the home's state unchecked — the environment is
    /// never "unsafe", only actions are.
    Sensor(MiniAction),
    /// A decision query: "what should this home do right now?" Answered by
    /// the batched policy path with the ambient telemetry carried here.
    Query {
        /// Indoor temperature, °C.
        indoor_c: f64,
        /// Outdoor temperature, °C.
        outdoor_c: f64,
        /// Current electricity price, $/kWh.
        price_per_kwh: f64,
    },
}

json_enum!(EventKind {
    Action(mini),
    Sensor(mini),
    Query { indoor_c, outdoor_c, price_per_kwh },
});

/// One routed unit of work: a home-tagged, globally sequenced event.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Global sequence number, assigned in arrival order at ingest. The
    /// determinism contract is stated over this ordering: outcomes are
    /// reported sorted by `seq` whatever the shard count.
    pub seq: u64,
    /// The home this event belongs to.
    pub home: u64,
    /// Minute-of-day timestamp.
    pub minute: u32,
    /// The payload.
    pub kind: EventKind,
}

json_struct!(Envelope { seq, home, minute, kind });

/// Which machinery answered a decision query — the degraded-mode telemetry
/// of the self-healing runtime (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// The neural policy path: a batched Q forward walked down the ranking
    /// to the best action the home's safe set allows.
    Policy,
    /// The SPL safe-table fallback: the policy path was quarantined or the
    /// shard had exhausted its restart budget, so the runtime answered with
    /// the always-safe no-op while the monitor kept enforcing. Enforcement
    /// never lapses; only *suggestions* degrade.
    SafeTableFallback,
}

json_enum!(DecisionSource { Policy, SafeTableFallback });

/// One per-event result emitted by a worker shard.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The safety verdict for an [`EventKind::Action`] event. `Violation`
    /// means the action was blocked (the home's state did not move) and the
    /// home's alarm counter was bumped.
    Verdict {
        /// The event's global sequence number.
        seq: u64,
        /// The home the event belonged to.
        home: u64,
        /// The monitor verdict.
        verdict: Verdict,
    },
    /// An [`EventKind::Sensor`] event was applied to the home's state.
    SensorApplied {
        /// The event's global sequence number.
        seq: u64,
        /// The home the event belonged to.
        home: u64,
    },
    /// The policy's answer to an [`EventKind::Query`]: the best *safe*
    /// action, found by walking the Q ranking down past unsafe entries
    /// (the `Max(Q, c)` loop of the paper's Algorithm 2).
    Decision {
        /// The event's global sequence number.
        seq: u64,
        /// The home the event belonged to.
        home: u64,
        /// The suggested mini-action (`None` = do nothing).
        action: Option<MiniAction>,
        /// The flat policy-head index of the suggestion (0 = no-op).
        flat: usize,
        /// The Q value of the suggestion.
        q_value: f64,
        /// How many higher-Q but unsafe actions were skipped.
        rank: usize,
        /// Which machinery produced the answer (policy vs degraded-mode
        /// safe-table fallback).
        source: DecisionSource,
    },
}

impl Outcome {
    /// The global sequence number of the event this outcome answers.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match *self {
            Outcome::Verdict { seq, .. }
            | Outcome::SensorApplied { seq, .. }
            | Outcome::Decision { seq, .. } => seq,
        }
    }

    /// The home the answered event belonged to.
    #[must_use]
    pub fn home(&self) -> u64 {
        match *self {
            Outcome::Verdict { home, .. }
            | Outcome::SensorApplied { home, .. }
            | Outcome::Decision { home, .. } => home,
        }
    }
}
