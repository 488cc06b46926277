//! The shard event loop: monitor checks, sensor application, and the
//! batched decision path.
//!
//! [`process_sequential`] walks one shard's stream in seq order on one
//! thread: actions and sensor events apply inline, queries park in a
//! batching window, and the window closes into one batched forward whenever
//! it fills, whenever a query's policy epoch differs from the one its batch
//! was parked under, and at the end of the stream. The runtime's shard
//! executor runs it once per shard, on the caller's thread or on the worker
//! pool; a shard's output depends only on its own stream, so where it runs
//! never changes a byte.
//!
//! With supervision, a shard's [`ShardSupervisor`] guards each envelope in
//! place of [`apply_event`] (WAL, panic boundary, recovery), and batch
//! execution stays outside it.
//!
//! The loop reads the serve call's [`Roster`]: a scheduled policy swap takes
//! effect at its `at_seq`, because the window closes at the epoch boundary
//! and a batch always executes under the epoch it was parked in.
//!
//! The decision path allocates nothing per query or per decision: a query
//! encodes straight into its batch's row-major observation buffer and
//! copies its home's memoized valid-action bitmask beside it, the forward
//! reads the buffer as one matrix, and an executed batch keeps its emptied
//! buffers for the next one.

use crate::event::{DecisionSource, Envelope, EventKind, Outcome};
use crate::policy_store::{ShadowRow, SwapPoint};
use crate::slot::HomeSlot;
use crate::supervisor::ShardSupervisor;
use jarvis::JarvisError;
use jarvis_iot_model::MiniAction;
use jarvis_neural::{Matrix, NeuralError};
use jarvis_rl::policy::{self, argmax_mask, mask_contains};
use jarvis_rl::{DqnAgent, QuantizedPolicy};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The policies one batch executes against: the active agent, its optional
/// quantized deployment, and an optional shadow candidate scored alongside
/// the active policy without ever answering a query (DESIGN.md §16).
#[derive(Clone, Copy)]
pub(crate) struct PolicyView<'a> {
    /// The active f64 policy agent.
    pub policy: &'a DqnAgent,
    /// The active policy's deployed int8 snapshot, if any.
    pub quantized: Option<&'a QuantizedPolicy>,
    /// The staged shadow candidate, if any.
    pub shadow: Option<&'a DqnAgent>,
}

/// Everything a shard loop reads and never writes during one serve call:
/// the policy timeline, the batching-window bound, and the telemetry clock.
///
/// `views[0]` serves until `swaps[0].at_seq`, `views[k]` from
/// `swaps[k-1].at_seq` to `swaps[k].at_seq`, and so on (`views.len() ==
/// swaps.len() + 1`). The epoch of an envelope is a pure function of its
/// seq, so every shard — and every recovery replay — serves each envelope
/// under the same policy whatever the shard count or crash history.
pub(crate) struct Roster<'a> {
    /// Per-epoch policy views, in timeline order.
    pub views: Vec<PolicyView<'a>>,
    /// The swap schedule, strictly ascending by `at_seq`.
    pub swaps: &'a [SwapPoint],
    /// Maximum queries parked before a batched forward is forced.
    pub batch_window: usize,
    /// Injected telemetry clock (`None`: serving reads no clock).
    pub clock: Option<fn() -> u64>,
}

impl<'a> Roster<'a> {
    /// The epoch serving `seq`: swaps take effect *at* their seq.
    pub(crate) fn epoch_of(&self, seq: u64) -> usize {
        self.swaps.partition_point(|s| s.at_seq <= seq)
    }

    fn view(&self, epoch: usize) -> PolicyView<'a> {
        self.views[epoch.min(self.views.len() - 1)]
    }
}

/// What one shard produced: an outcome for every event of its stream.
#[derive(Debug, Default)]
pub(crate) struct ShardOutput {
    /// Outcomes in this shard's processing order (globally re-sorted by
    /// the runtime before reporting).
    pub outcomes: Vec<Outcome>,
    /// Nanoseconds from each query's first touch to its decision — window
    /// residency plus inference. Empty unless the caller injected a
    /// telemetry clock ([`crate::RuntimeConfig::telemetry`]); serving makes
    /// zero clock calls otherwise (lint rule R2).
    pub latencies_ns: Vec<u64>,
    /// Per-decision shadow-evaluation rows, when a candidate is staged.
    /// Aggregated sorted by seq, so the accumulated score is independent of
    /// shard count and batch grouping.
    pub shadow: Vec<ShadowRow>,
}

impl ShardOutput {
    /// An output sized for a shard stream of `events` events: one outcome
    /// each, and a latency each when a telemetry clock is injected — so the
    /// buffers never grow by doubling mid-stream.
    fn with_capacity(events: usize, clock: Option<fn() -> u64>) -> Self {
        ShardOutput {
            outcomes: Vec::with_capacity(events),
            latencies_ns: Vec::with_capacity(if clock.is_some() { events } else { 0 }),
            shadow: Vec::new(),
        }
    }
}

/// A query parked in the batching window. Its observation and valid-action
/// mask are its row of the batch's flat buffers.
struct Pending {
    seq: u64,
    home: u64,
    /// The home's flat-index → mini-action map (shared, immutable), so the
    /// batch materializes the decision without touching the slot.
    actions: Arc<Vec<MiniAction>>,
    /// Telemetry-clock reading at first touch; `None` without a clock.
    touched: Option<u64>,
}

/// The rows of one batch: each parked query's metadata, observation and
/// valid-action mask, snapshotted at in-order processing time so later
/// events cannot change the answer.
/// Observations form one row-major `len × cols` buffer that the forward
/// reads as a matrix; masks are `len × words` words. The buffers outlive
/// the batch: executing it empties them, capacity intact, for the next
/// window to fill.
#[derive(Default)]
struct Batch {
    entries: Vec<Pending>,
    obs: Vec<f64>,
    cols: usize,
    masks: Vec<u64>,
    words: usize,
}

impl Batch {
    /// Park one query with a `cols`-wide observation row and a
    /// `words`-wide mask row, handing both back for the caller to fill.
    /// Every row of a batch has the same widths.
    fn push(
        &mut self,
        pending: Pending,
        cols: usize,
        words: usize,
    ) -> Result<(&mut [f64], &mut [u64]), JarvisError> {
        if self.entries.is_empty() {
            (self.cols, self.words) = (cols, words);
        } else if (cols, words) != (self.cols, self.words) {
            return Err(NeuralError::BadBatch { reason: "ragged rows" }.into());
        }
        self.entries.push(pending);
        let (obs_at, mask_at) = (self.obs.len(), self.masks.len());
        self.obs.resize(obs_at + cols, 0.0);
        self.masks.resize(mask_at + words, 0);
        Ok((&mut self.obs[obs_at..], &mut self.masks[mask_at..]))
    }

    /// Keep the first `len` rows.
    fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
        self.obs.truncate(len * self.cols);
        self.masks.truncate(len * self.words);
    }
}

/// The batching window: queries parked for one batched forward, all under
/// the policy epoch they were parked in.
#[derive(Default)]
pub(crate) struct Window {
    batch: Batch,
    epoch: usize,
}

impl Window {
    fn is_full(&self, batch_window: usize) -> bool {
        self.batch.entries.len() >= batch_window
    }

    /// Number of parked queries.
    pub(crate) fn len(&self) -> usize {
        self.batch.entries.len()
    }

    /// Unpark every query parked after the first `len` (a failed attempt's).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.batch.truncate(len);
    }

    /// Move the window to `epoch`, first answering the batch parked under a
    /// different epoch, if any — a batch never spans a swap.
    fn enter(
        &mut self,
        epoch: usize,
        roster: &Roster<'_>,
        out: &mut ShardOutput,
    ) -> Result<(), JarvisError> {
        if epoch != self.epoch {
            self.flush(roster, out)?;
            self.epoch = epoch;
        }
        Ok(())
    }

    /// Answer the parked queries with one batched forward under the epoch
    /// they were parked in; the window keeps the emptied buffers.
    pub(crate) fn flush(
        &mut self,
        roster: &Roster<'_>,
        out: &mut ShardOutput,
    ) -> Result<(), JarvisError> {
        if self.batch.entries.is_empty() {
            return Ok(());
        }
        run_batch(&mut self.batch, roster.view(self.epoch), roster.clock, out)
    }
}

/// Apply one event to its slot: actions are monitor-checked, sensors step
/// the state, queries snapshot into the batching window.
///
/// `learn` gates the slot's continual-learning hooks: normal serving
/// passes `true`; quarantined and degraded-mode windows pass `false` so
/// anomalous traffic never feeds the SPL delta or the replay delta.
pub(crate) fn apply_event(
    slots: &mut BTreeMap<u64, HomeSlot>,
    env: &Envelope,
    clock: Option<fn() -> u64>,
    learn: bool,
    window: &mut Window,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    let slot = slots.get_mut(&env.home).ok_or_else(|| {
        JarvisError::Config(format!("event {} targets unregistered home {}", env.seq, env.home))
    })?;
    slot.note_event(env.minute, learn);
    match env.kind {
        EventKind::Action(mini) => {
            let verdict = slot.observe_action(mini, learn)?;
            out.outcomes.push(Outcome::Verdict { seq: env.seq, home: env.home, verdict });
        }
        EventKind::Sensor(mini) => {
            slot.apply_sensor(mini)?;
            out.outcomes.push(Outcome::SensorApplied { seq: env.seq, home: env.home });
        }
        EventKind::Query { indoor_c, outdoor_c, price_per_kwh } => {
            if learn {
                slot.note_ambient(indoor_c, outdoor_c, price_per_kwh);
            }
            let pending = Pending {
                seq: env.seq,
                home: env.home,
                actions: slot.actions(),
                touched: clock.map(|now| now()),
            };
            let (obs, mask) = window.batch.push(pending, slot.obs_dim(), slot.mask_words())?;
            slot.encode_into(env.minute, indoor_c, outdoor_c, price_per_kwh, obs);
            mask.copy_from_slice(slot.valid_mask());
        }
    }
    Ok(())
}

/// Execute one batch under its epoch's policy view: a single batched
/// forward over the batch's observation matrix, then per row the paper's
/// `Max(Q, c)` — the best action the home's safe set allows — in one pass
/// over the row's valid-action mask: the masked argmax (highest Q, lowest
/// index on ties, [`jarvis_rl::policy::argmax`]'s rule), reported with its
/// rank `c` in the row's full descending-Q ranking. Leaves the batch's
/// buffers empty.
///
/// When the view carries a deployed [`QuantizedPolicy`], the batched forward
/// runs through its int8 fixed-point network instead of the f64 agent —
/// the walk is identical, only the Q source changes. Quantized Q
/// values are bit-deterministic across SIMD tiers, pool sizes, and batch
/// groupings (i32 accumulation), so the serving determinism contract is
/// unchanged.
fn run_batch(
    batch: &mut Batch,
    view: PolicyView<'_>,
    clock: Option<fn() -> u64>,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    let obs = Matrix::from_vec(batch.entries.len(), batch.cols, std::mem::take(&mut batch.obs))?;
    let q = match view.quantized {
        Some(qp) => qp.q_values_matrix(&obs),
        None => view.policy.q_values_matrix(&obs),
    };
    // The shadow candidate sees the exact observations the active policy
    // answered — scored, never served.
    let shadow_q = view.shadow.map(|sh| sh.q_values_matrix(&obs)).transpose();
    batch.obs = obs.into_vec();
    let (q, shadow_q) = (q?, shadow_q?);
    let words = batch.words;
    for (i, p) in batch.entries.drain(..).enumerate() {
        let q_row = q.row(i);
        let mask = &batch.masks[i * words..(i + 1) * words];
        // The no-op is always in the valid set, so the walk always lands;
        // fall back to it defensively anyway.
        let (flat, q_value, rank) = match policy::max_q_c(q_row, mask) {
            Some((a, c)) => (a, q_row[a], c),
            None => (0, q_row.first().copied().unwrap_or(0.0), 0),
        };
        if let Some(shadow_q) = &shadow_q {
            out.shadow.push(score_shadow(p.seq, mask, flat, q_row, shadow_q.row(i)));
        }
        let action = if flat == 0 { None } else { p.actions.get(flat - 1).copied() };
        out.outcomes.push(Outcome::Decision {
            seq: p.seq,
            home: p.home,
            action,
            flat,
            q_value,
            rank,
            source: DecisionSource::Policy,
        });
        if let (Some(now), Some(t0)) = (clock, p.touched) {
            out.latencies_ns.push(now().saturating_sub(t0));
        }
    }
    batch.truncate(0);
    Ok(())
}

/// Score one shadow decision: the candidate's constrained choice under the
/// same `Max(Q, c)` walk, safety parity of the unconstrained argmaxes, and
/// Q-regret of the candidate's choice under the active policy's estimate.
fn score_shadow(
    seq: u64,
    mask: &[u64],
    active_flat: usize,
    active_q: &[f64],
    shadow_q: &[f64],
) -> ShadowRow {
    let shadow_flat = argmax_mask(shadow_q, mask).unwrap_or(0);
    let raw_argmax = |q: &[f64]| policy::argmax_of(q, 0..q.len()).unwrap_or(0);
    let parity_ok =
        mask_contains(mask, raw_argmax(active_q)) == mask_contains(mask, raw_argmax(shadow_q));
    let regret = (active_q.get(active_flat).copied().unwrap_or(0.0)
        - active_q.get(shadow_flat).copied().unwrap_or(0.0))
    .max(0.0);
    ShadowRow { seq, agree: shadow_flat == active_flat, parity_ok, regret }
}

/// Apply one event, under the shard's supervisor when it has one.
fn step(
    slots: &mut BTreeMap<u64, HomeSlot>,
    env: &Envelope,
    roster: &Roster<'_>,
    sup: Option<&mut ShardSupervisor<'_>>,
    window: &mut Window,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    match sup {
        Some(sup) => sup.guard(slots, env, roster, window, out),
        None => apply_event(slots, env, roster.clock, true, window, out),
    }
}

/// Drive `events` through one shard sequentially, in seq order. The window
/// is closed on every epoch change, whenever it fills, and at the end of
/// the stream (a supervisor also closes it at its checkpoints and
/// recoveries).
pub(crate) fn process_sequential(
    slots: &mut BTreeMap<u64, HomeSlot>,
    roster: &Roster<'_>,
    mut sup: Option<&mut ShardSupervisor<'_>>,
    events: &[Envelope],
) -> Result<ShardOutput, JarvisError> {
    let mut out = ShardOutput::with_capacity(events.len(), roster.clock);
    let mut window = Window::default();
    for env in events {
        window.enter(roster.epoch_of(env.seq), roster, &mut out)?;
        step(slots, env, roster, sup.as_deref_mut(), &mut window, &mut out)?;
        if window.is_full(roster.batch_window) {
            window.flush(roster, &mut out)?;
        }
    }
    window.flush(roster, &mut out)?;
    Ok(out)
}
