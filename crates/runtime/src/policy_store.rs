//! Versioned policy storage with shadow evaluation and deterministic
//! promotion gates (DESIGN.md §16).
//!
//! A [`PolicyStore`] keeps immutable, content-hashed policy versions. New
//! candidates (e.g. from [`ServingRuntime::fine_tune`]) are *staged*, then
//! run in **shadow**: the serving path scores the candidate against the
//! active policy on live traffic — per-decision agreement, safety parity of
//! the unconstrained argmax, and Q-regret under the active policy's value
//! estimate — without the candidate ever answering a query. Promotion is a
//! pure function of the accumulated [`ShadowScore`] and the configured
//! [`ShadowGates`]: same traffic ⇒ same decision, bit for bit.
//!
//! Swaps are explicit [`SwapRecord`]s; under supervised serving each shard
//! also logs a WAL swap record at the boundary, so crash recovery replays
//! onto the same active version. Rollback is
//! [`PolicyStore::rollback`] plus a byte-identical
//! [`RuntimeSnapshot`](crate::RuntimeSnapshot) restore.
//!
//! [`ServingRuntime::fine_tune`]: crate::ServingRuntime::fine_tune

use jarvis::JarvisError;
use jarvis_rl::DqnCheckpoint;
use jarvis_stdkit::json::{FromJson, Json, JsonError, ToJson};
use jarvis_stdkit::json_struct;
use std::collections::BTreeMap;

/// FNV-1a 64-bit over the checkpoint's canonical JSON — a cheap,
/// deterministic content address (integrity + dedup, not cryptography).
fn content_hash(json: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// One immutable policy version.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyVersion {
    /// The version id (dense, starting at 0 for the bootstrap policy).
    pub id: u64,
    /// FNV-1a 64 content hash of the checkpoint JSON.
    pub hash: String,
    /// The bit-exact policy weights.
    pub checkpoint: DqnCheckpoint,
}

json_struct!(PolicyVersion { id, hash, checkpoint });

/// One applied policy swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapRecord {
    /// First global sequence number served by the new version.
    pub at_seq: u64,
    /// The version that was active before.
    pub from: u64,
    /// The version that became active.
    pub to: u64,
}

json_struct!(SwapRecord { at_seq, from, to });

/// A scheduled mid-stream policy swap for
/// [`ServingRuntime::serve_online`](crate::ServingRuntime::serve_online):
/// every envelope with `seq >= at_seq` is served by `version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapPoint {
    /// First global sequence number the new version serves.
    pub at_seq: u64,
    /// The store version to swap in.
    pub version: u64,
}

/// One shadow-scored decision row, emitted by the batched decision path
/// when a candidate is staged. Rows are aggregated *sorted by seq*, so the
/// accumulated score is bitwise independent of shard count and batch
/// grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowRow {
    /// The decision's global sequence number.
    pub seq: u64,
    /// The candidate's constrained choice equalled the active policy's.
    pub agree: bool,
    /// Safety parity of the unconstrained argmax: the candidate's raw
    /// preference was safe-table-allowed iff the active policy's was. A
    /// `false` row means the candidate *wants* unsafe actions where the
    /// active policy does not (or vice versa).
    pub parity_ok: bool,
    /// Q-regret of the candidate's constrained choice under the *active*
    /// policy's value estimate, clamped at 0.
    pub regret: f64,
}

json_struct!(ShadowRow { seq, agree, parity_ok, regret });

/// Deterministic promotion gates over an accumulated [`ShadowScore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowGates {
    /// Minimum shadow-scored decisions before promotion is considered.
    pub min_decisions: u64,
    /// Minimum agreement rate (agreements / decisions).
    pub min_agreement: f64,
    /// Maximum mean Q-regret per decision.
    pub max_mean_regret: f64,
}

json_struct!(ShadowGates { min_decisions, min_agreement, max_mean_regret });

impl Default for ShadowGates {
    fn default() -> Self {
        ShadowGates { min_decisions: 64, min_agreement: 0.75, max_mean_regret: 0.25 }
    }
}

/// The accumulated shadow evaluation of the staged candidate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShadowScore {
    /// Decisions scored.
    pub decisions: u64,
    /// Decisions where the candidate's constrained choice agreed.
    pub agreements: u64,
    /// Decisions with a safety-parity violation — any non-zero count blocks
    /// promotion.
    pub parity_violations: u64,
    /// Sum of per-decision Q-regret, folded in seq order.
    pub regret_sum: f64,
}

json_struct!(ShadowScore { decisions, agreements, parity_violations, regret_sum });

impl ShadowScore {
    /// Agreement rate, or 0 with no decisions.
    #[must_use]
    pub fn agreement(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.agreements as f64 / self.decisions as f64
        }
    }

    /// Mean per-decision regret, or 0 with no decisions.
    #[must_use]
    pub fn mean_regret(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.regret_sum / self.decisions as f64
        }
    }
}

/// Immutable versioned policy storage with shadow evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyStore {
    versions: BTreeMap<u64, PolicyVersion>,
    active: u64,
    candidate: Option<u64>,
    next_id: u64,
    gates: ShadowGates,
    score: ShadowScore,
    swaps: Vec<SwapRecord>,
}

/// JSON row form (the version map serializes as a sorted list).
#[derive(Debug, Clone)]
struct StoreRepr {
    versions: Vec<PolicyVersion>,
    active: u64,
    candidate: Option<u64>,
    next_id: u64,
    gates: ShadowGates,
    score: ShadowScore,
    swaps: Vec<SwapRecord>,
}

json_struct!(StoreRepr { versions, active, candidate, next_id, gates, score, swaps });

impl ToJson for PolicyStore {
    fn to_json_value(&self) -> Json {
        StoreRepr {
            versions: self.versions.values().cloned().collect(),
            active: self.active,
            candidate: self.candidate,
            next_id: self.next_id,
            gates: self.gates.clone(),
            score: self.score.clone(),
            swaps: self.swaps.clone(),
        }
        .to_json_value()
    }
}

impl FromJson for PolicyStore {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let repr = StoreRepr::from_json_value(v)?;
        Ok(PolicyStore {
            versions: repr.versions.into_iter().map(|p| (p.id, p)).collect(),
            active: repr.active,
            candidate: repr.candidate,
            next_id: repr.next_id,
            gates: repr.gates,
            score: repr.score,
            swaps: repr.swaps,
        })
    }
}

impl PolicyStore {
    /// A store bootstrapped with `initial` as version 0, active.
    #[must_use]
    pub fn new(initial: DqnCheckpoint, gates: ShadowGates) -> Self {
        let hash = content_hash(&initial.to_json());
        let mut versions = BTreeMap::new();
        versions.insert(0, PolicyVersion { id: 0, hash, checkpoint: initial });
        PolicyStore {
            versions,
            active: 0,
            candidate: None,
            next_id: 1,
            gates,
            score: ShadowScore::default(),
            swaps: Vec::new(),
        }
    }

    /// The active version id.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.active
    }

    /// The staged candidate version id, if any.
    #[must_use]
    pub fn candidate(&self) -> Option<u64> {
        self.candidate
    }

    /// A version by id.
    #[must_use]
    pub fn version(&self, id: u64) -> Option<&PolicyVersion> {
        self.versions.get(&id)
    }

    /// Number of stored versions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the store holds no versions (never true: version 0 always
    /// exists).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Every applied swap, oldest first.
    #[must_use]
    pub fn swaps(&self) -> &[SwapRecord] {
        &self.swaps
    }

    /// The promotion gates.
    #[must_use]
    pub fn gates(&self) -> &ShadowGates {
        &self.gates
    }

    /// The candidate's accumulated shadow score.
    #[must_use]
    pub fn score(&self) -> &ShadowScore {
        &self.score
    }

    /// Register a checkpoint as a new immutable version and return its id.
    /// Content-addressed: re-registering bytes the store already holds
    /// returns the existing id instead of minting a duplicate.
    pub fn register(&mut self, checkpoint: DqnCheckpoint) -> u64 {
        let hash = content_hash(&checkpoint.to_json());
        if let Some(existing) = self.versions.values().find(|p| p.hash == hash) {
            return existing.id;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.versions.insert(id, PolicyVersion { id, hash, checkpoint });
        id
    }

    /// Stage `id` as the shadow candidate, resetting the shadow score.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for an unknown id or the active
    /// version (shadowing the active policy against itself scores nothing).
    pub fn stage(&mut self, id: u64) -> Result<(), JarvisError> {
        if !self.versions.contains_key(&id) {
            return Err(JarvisError::Config(format!("policy version {id} is not registered")));
        }
        if id == self.active {
            return Err(JarvisError::Config(format!(
                "policy version {id} is already active; nothing to shadow"
            )));
        }
        self.candidate = Some(id);
        self.score = ShadowScore::default();
        Ok(())
    }

    /// Unstage the candidate and drop its accumulated score.
    pub fn unstage(&mut self) {
        self.candidate = None;
        self.score = ShadowScore::default();
    }

    /// Fold shadow rows into the candidate's score. Callers pass rows
    /// sorted by `seq` so the floating-point fold is order-stable.
    pub fn absorb(&mut self, rows: &[ShadowRow]) {
        if self.candidate.is_none() {
            return;
        }
        for row in rows {
            self.score.decisions += 1;
            if row.agree {
                self.score.agreements += 1;
            }
            if !row.parity_ok {
                self.score.parity_violations += 1;
            }
            self.score.regret_sum += row.regret;
        }
    }

    /// Promote the candidate iff its score clears every gate: enough
    /// decisions, agreement rate at or above the floor, zero parity
    /// violations, and mean regret at or below the ceiling. On promotion
    /// the swap is recorded at `at_seq`, the candidate slot clears, and the
    /// new active version's id is returned inside the record. Purely
    /// deterministic — no clocks, no randomness.
    pub fn try_promote(&mut self, at_seq: u64) -> Option<SwapRecord> {
        let candidate = self.candidate?;
        let s = &self.score;
        let passes = s.decisions >= self.gates.min_decisions
            && s.agreement() >= self.gates.min_agreement
            && s.parity_violations == 0
            && s.mean_regret() <= self.gates.max_mean_regret;
        if !passes {
            return None;
        }
        // invariant: stage() only accepts registered ids, so the swap holds
        Some(self.force_swap(at_seq, candidate).expect("candidate is registered"))
    }

    /// Swap `to` in as the active version at `at_seq` unconditionally
    /// (scheduled swaps, rollback, disaster drills). Clears the candidate
    /// when it is the version being activated.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for an unregistered version.
    pub fn force_swap(&mut self, at_seq: u64, to: u64) -> Result<SwapRecord, JarvisError> {
        if !self.versions.contains_key(&to) {
            return Err(JarvisError::Config(format!("policy version {to} is not registered")));
        }
        let record = SwapRecord { at_seq, from: self.active, to };
        self.active = to;
        if self.candidate == Some(to) {
            self.candidate = None;
            self.score = ShadowScore::default();
        }
        self.swaps.push(record.clone());
        Ok(record)
    }

    /// Roll the active policy back to an earlier version, recording the
    /// swap. The caller restores the matching
    /// [`RuntimeSnapshot`](crate::RuntimeSnapshot) for byte-identical state.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for an unregistered version.
    pub fn rollback(&mut self, at_seq: u64, to: u64) -> Result<SwapRecord, JarvisError> {
        self.force_swap(at_seq, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jarvis_rl::{DqnAgent, DqnConfig};

    fn checkpoint(seed: u64) -> DqnCheckpoint {
        let mut config = DqnConfig::new(4, 3);
        config.hidden = vec![4];
        config.seed = seed;
        DqnAgent::new(config).unwrap().checkpoint()
    }

    fn rows(n: u64, agree: bool, parity_ok: bool, regret: f64) -> Vec<ShadowRow> {
        (0..n).map(|seq| ShadowRow { seq, agree, parity_ok, regret }).collect()
    }

    #[test]
    fn register_is_content_addressed() {
        let mut store = PolicyStore::new(checkpoint(1), ShadowGates::default());
        let a = store.register(checkpoint(2));
        let b = store.register(checkpoint(2));
        assert_eq!(a, b, "identical bytes must not mint a new version");
        assert_eq!(store.register(checkpoint(3)), a + 1);
        assert_eq!(store.len(), 3);
        assert_eq!(store.register(checkpoint(1)), 0, "the bootstrap version dedups too");
    }

    #[test]
    fn promotion_requires_every_gate() {
        let gates =
            ShadowGates { min_decisions: 10, min_agreement: 0.9, max_mean_regret: 0.05 };
        let mut store = PolicyStore::new(checkpoint(1), gates);
        let cand = store.register(checkpoint(2));
        store.stage(cand).unwrap();

        // Too few decisions.
        store.absorb(&rows(5, true, true, 0.0));
        assert!(store.try_promote(100).is_none());

        // Enough decisions, all agreeing and safe: promotes.
        store.absorb(&rows(5, true, true, 0.0));
        let record = store.try_promote(100).unwrap();
        assert_eq!(record, SwapRecord { at_seq: 100, from: 0, to: cand });
        assert_eq!(store.active(), cand);
        assert_eq!(store.candidate(), None);
        assert_eq!(store.swaps().len(), 1);
    }

    #[test]
    fn parity_violation_blocks_promotion() {
        let gates = ShadowGates { min_decisions: 1, min_agreement: 0.0, max_mean_regret: 1e9 };
        let mut store = PolicyStore::new(checkpoint(1), gates);
        let cand = store.register(checkpoint(2));
        store.stage(cand).unwrap();
        store.absorb(&rows(50, true, true, 0.0));
        store.absorb(&[ShadowRow { seq: 50, agree: true, parity_ok: false, regret: 0.0 }]);
        assert!(
            store.try_promote(51).is_none(),
            "a single safety-parity violation must block promotion"
        );
    }

    #[test]
    fn staging_the_active_version_is_rejected() {
        let mut store = PolicyStore::new(checkpoint(1), ShadowGates::default());
        assert!(store.stage(0).is_err());
        assert!(store.stage(99).is_err());
    }

    #[test]
    fn rollback_records_a_swap_back() {
        let mut store = PolicyStore::new(checkpoint(1), ShadowGates::default());
        let cand = store.register(checkpoint(2));
        store.force_swap(10, cand).unwrap();
        let back = store.rollback(20, 0).unwrap();
        assert_eq!(back, SwapRecord { at_seq: 20, from: cand, to: 0 });
        assert_eq!(store.active(), 0);
        assert_eq!(store.swaps().len(), 2);
    }

    #[test]
    fn store_round_trips_byte_for_byte() {
        let mut store = PolicyStore::new(checkpoint(1), ShadowGates::default());
        let cand = store.register(checkpoint(2));
        store.stage(cand).unwrap();
        store.absorb(&rows(3, true, true, 0.125));
        store.force_swap(40, cand).unwrap();
        let json = store.to_json();
        let back = PolicyStore::from_json(&json).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.to_json(), json, "serialization must be byte-stable");
    }
}
