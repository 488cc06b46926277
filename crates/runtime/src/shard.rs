//! The worker-shard event loop: monitor checks, sensor application, and the
//! work-stealing batched decision path.
//!
//! Two execution flavours share one event-application core and one epoch
//! mechanism:
//!
//! - [`process_sequential`] — the deterministic reference: one thread walks
//!   one shard's stream, closing a decision batch whenever the window fills.
//! - [`run_worker`] — the threaded work-stealing loop: each worker drains
//!   its own lock-free ingest ring, parks queries in a batching window,
//!   publishes closed batches as [`InferenceTask`]s on its own run queue,
//!   and — when its own queues are dry — *steals* batches from sibling
//!   shards in a fixed victim order.
//!
//! Both loops run with or without supervision: a shard's
//! [`ShardSupervisor`] guards each envelope in place of [`apply_event`]
//! (WAL, panic boundary, recovery), and batch execution stays outside it.
//!
//! Both loops read the serve call's [`Roster`]: a scheduled policy swap
//! takes effect at its `at_seq` inside every loop, because the window
//! closes whenever a query's epoch differs from the one its batch was
//! parked under, and every task carries its epoch — a batch never spans a
//! swap, whoever executes it.
//!
//! Stealing cannot change any decision: a batch snapshots every query's
//! observation, valid-action mask, and flat→mini action map at in-order
//! processing time, and the batched forward is bit-identical per row to a
//! single-row forward, so an [`InferenceTask`] is a pure function of its
//! epoch's policy — whichever worker runs it, whenever, produces the same
//! bytes.
//!
//! The decision path allocates nothing per query or per decision: a query
//! encodes straight into its batch's row-major observation buffer and
//! copies its home's memoized valid-action bitmask beside it, the forward
//! reads the buffer as one matrix, and an executed batch hands its emptied
//! buffers back to the window for the next batch.

use crate::event::{DecisionSource, Envelope, EventKind, Outcome};
use crate::policy_store::{ShadowRow, SwapPoint};
use crate::slot::HomeSlot;
use crate::supervisor::ShardSupervisor;
use jarvis::JarvisError;
use jarvis_iot_model::MiniAction;
use jarvis_neural::{Matrix, NeuralError};
use jarvis_rl::policy::{self, argmax_mask, mask_contains};
use jarvis_rl::{DqnAgent, QuantizedPolicy};
use jarvis_stdkit::sync::{PushError, StealQueue};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bound on queued-but-unexecuted inference batches per shard. When the run
/// queue is full the owner executes the batch inline instead — lossless,
/// just momentarily unstealable.
const TASK_QUEUE_CAPACITY: usize = 32;

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
/// seq, so every loop — sequential, stealing, or a recovery replay —
/// serves each envelope under the same policy whatever the shard count,
/// steal schedule, or crash history.
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

/// What one shard's worker produced: outcomes for the events it applied
/// plus the decisions of every batch it executed (its own and stolen).
#[derive(Debug, Default)]
pub(crate) struct ShardOutput {
    /// Outcomes in this worker's processing order (globally re-sorted by
    /// the runtime before reporting).
    pub outcomes: Vec<Outcome>,
    /// Nanoseconds from each query's enqueue (router hand-off in threaded
    /// mode, first touch in deterministic mode) to its decision — true
    /// per-event latency including queueing, window residency, and
    /// inference. Empty unless the caller injected a telemetry clock
    /// ([`crate::RuntimeConfig::telemetry`]); the deterministic path makes
    /// zero clock calls otherwise (lint rule R2).
    pub latencies_ns: Vec<u64>,
    /// Per-decision shadow-evaluation rows, when a candidate is staged.
    /// Aggregated sorted by seq, so the accumulated score is independent of
    /// shard count, steal schedule, and batch grouping.
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

/// One routed event plus its telemetry enqueue stamp (`None` when no clock
/// is injected).
pub(crate) struct Job {
    pub env: Envelope,
    pub enqueued: Option<u64>,
}

/// A query parked in the batching window. Its observation and valid-action
/// mask are its row of the batch's flat buffers.
struct Pending {
    seq: u64,
    home: u64,
    /// The home's flat-index → mini-action map (shared, immutable), so a
    /// thief can materialize the decision without touching the slot.
    actions: Arc<Vec<MiniAction>>,
    /// Telemetry-clock reading at enqueue time; `None` without a clock.
    enqueued: Option<u64>,
}

/// The rows of one batch: each parked query's metadata, observation and
/// valid-action mask, snapshotted at in-order processing time so neither
/// later events nor the executing worker can change the answer.
/// Observations form one row-major `len × cols` buffer that the forward
/// reads as a matrix; masks are `len × words` words. The buffers outlive
/// the batch: an executed batch is handed back emptied, capacity intact,
/// for the next window to fill.
#[derive(Default)]
pub(crate) struct Batch {
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

/// A closed batch plus the policy epoch its queries were parked under:
/// self-contained inference work executable by any worker with
/// bitwise-identical results.
pub(crate) struct InferenceTask {
    batch: Batch,
    epoch: usize,
}

/// The batching window: queries parked for one batched forward, all under
/// the policy epoch they were parked in.
#[derive(Default)]
pub(crate) struct Window {
    batch: Batch,
    epoch: usize,
    /// An executed batch's emptied buffers, filled by the next close.
    spare: Option<Batch>,
}

impl Window {
    fn is_empty(&self) -> bool {
        self.batch.entries.is_empty()
    }

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

    /// Move the window to `epoch`, handing back the batch parked under a
    /// different epoch, if any — a batch never spans a swap.
    fn enter(&mut self, epoch: usize) -> Option<InferenceTask> {
        let closed = if epoch == self.epoch { None } else { self.close() };
        self.epoch = epoch;
        closed
    }

    /// Close the window: its parked queries as one task, `None` when empty.
    /// The window parks the next queries in its spare buffers, if it has
    /// some.
    fn close(&mut self) -> Option<InferenceTask> {
        if self.is_empty() {
            return None;
        }
        let batch = std::mem::replace(&mut self.batch, self.spare.take().unwrap_or_default());
        Some(InferenceTask { batch, epoch: self.epoch })
    }

    /// Execute `task` and keep its emptied buffers for the next close.
    fn run(
        &mut self,
        task: InferenceTask,
        roster: &Roster<'_>,
        out: &mut ShardOutput,
    ) -> Result<(), JarvisError> {
        self.spare = Some(run_batch(task, roster, out)?);
        Ok(())
    }

    /// Close the window and answer its queries inline, under the epoch
    /// they were parked in.
    pub(crate) fn flush(
        &mut self,
        roster: &Roster<'_>,
        out: &mut ShardOutput,
    ) -> Result<(), JarvisError> {
        match self.close() {
            Some(task) => self.run(task, roster, out),
            None => Ok(()),
        }
    }
}

/// Everything the worker threads share: per-shard ingest rings, per-shard
/// run queues of closed batches, per-shard done-publishing flags, per-shard
/// routed event counts (each worker's output capacity), and the abort
/// latch that fails the whole serve call fast.
pub(crate) struct WorkerShared {
    pub ingest: Vec<StealQueue<Job>>,
    pub tasks: Vec<StealQueue<InferenceTask>>,
    pub done: Vec<AtomicBool>,
    pub routed: Vec<usize>,
    pub abort: AtomicBool,
}

impl WorkerShared {
    /// Queues for `routed.len()` shards, shard `i` receiving `routed[i]`
    /// events.
    pub(crate) fn new(routed: Vec<usize>, ingest_capacity: usize) -> Self {
        let shards = routed.len();
        // The lock-free ring needs at least two slots (see
        // `StealQueue::new`); a configured capacity of 1 still gets honest
        // backpressure, just one event later.
        let ingest_capacity = ingest_capacity.max(2);
        WorkerShared {
            ingest: (0..shards).map(|_| StealQueue::new(ingest_capacity)).collect(),
            tasks: (0..shards).map(|_| StealQueue::new(TASK_QUEUE_CAPACITY)).collect(),
            done: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            routed,
            abort: AtomicBool::new(false),
        }
    }
}

/// The fixed victim order for shard `idx` among `shards` shards: ring
/// order `idx + 1`, `idx + 2`, … (mod `shards`). Deriving the order from
/// the shard id keeps every run's steal *schedule* reproducible; the steal
/// *timing* does not matter because stolen batches are pure.
pub(crate) fn steal_order(idx: usize, shards: usize) -> Vec<usize> {
    (1..shards).map(|k| (idx + k) % shards).collect()
}

/// Apply one event to its slot: actions are monitor-checked, sensors step
/// the state, queries snapshot into the batching window.
///
/// `learn` gates the slot's continual-learning hooks: normal serving
/// passes `true`; quarantined and degraded-mode windows pass `false` so
/// anomalous traffic never feeds the SPL delta or the replay delta.
pub(crate) fn apply_event(
    slots: &mut BTreeMap<u64, HomeSlot>,
    job: Job,
    clock: Option<fn() -> u64>,
    learn: bool,
    window: &mut Window,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    let env = job.env;
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
                // Deterministic mode stamps at first touch (enqueue ==
                // dequeue there); threaded mode keeps the router's stamp.
                enqueued: job.enqueued.or_else(|| clock.map(|now| now())),
            };
            let (obs, mask) = window.batch.push(pending, slot.obs_dim(), slot.mask_words())?;
            slot.encode_into(env.minute, indoor_c, outdoor_c, price_per_kwh, obs);
            mask.copy_from_slice(slot.valid_mask());
        }
    }
    Ok(())
}

/// Execute one closed batch under its epoch's policy view: a single batched
/// forward over the batch's observation matrix, then per row the paper's
/// `Max(Q, c)` — the best action the home's safe set allows — in one pass
/// over the row's valid-action mask: the masked argmax (highest Q, lowest
/// index on ties, [`jarvis_rl::policy::argmax`]'s rule), reported with its
/// rank `c` in the row's full descending-Q ranking. Hands the batch's
/// buffers back emptied.
///
/// When the view carries a deployed [`QuantizedPolicy`], the batched forward
/// runs through its int8 fixed-point network instead of the f64 agent —
/// the walk is identical, only the Q source changes. Quantized Q
/// values are bit-deterministic across SIMD tiers, pool sizes, and batch
/// groupings (i32 accumulation), so the serving determinism contract is
/// unchanged.
fn run_batch(
    task: InferenceTask,
    roster: &Roster<'_>,
    out: &mut ShardOutput,
) -> Result<Batch, JarvisError> {
    let InferenceTask { mut batch, epoch } = task;
    let view = roster.view(epoch);
    let clock = roster.clock;
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
        if let (Some(now), Some(t0)) = (clock, p.enqueued) {
            out.latencies_ns.push(now().saturating_sub(t0));
        }
    }
    batch.truncate(0);
    Ok(batch)
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

/// Publish a closed batch on this shard's run queue so an idle sibling can
/// steal it, or — when the run queue is full — execute it inline right now.
fn publish(
    run_queue: &StealQueue<InferenceTask>,
    task: Option<InferenceTask>,
    roster: &Roster<'_>,
    window: &mut Window,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    match task.map(|task| run_queue.try_push(task)) {
        Some(Err(PushError::Full(task))) => window.run(task, roster, out),
        _ => Ok(()),
    }
}

/// Apply one event, under the shard's supervisor when it has one.
fn step(
    slots: &mut BTreeMap<u64, HomeSlot>,
    job: Job,
    roster: &Roster<'_>,
    sup: Option<&mut ShardSupervisor<'_>>,
    window: &mut Window,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    match sup {
        Some(sup) => sup.guard(slots, job, roster, window, out),
        None => apply_event(slots, job, roster.clock, true, window, out),
    }
}

/// Drive `events` through one shard sequentially, in order — the bit-exact
/// deterministic reference for any shard count and any steal schedule. The
/// window is closed on every epoch change, whenever it fills, and at the
/// end of the stream (a supervisor also closes it at its checkpoints and
/// recoveries).
pub(crate) fn process_sequential(
    slots: &mut BTreeMap<u64, HomeSlot>,
    roster: &Roster<'_>,
    mut sup: Option<&mut ShardSupervisor<'_>>,
    events: Vec<Envelope>,
) -> Result<ShardOutput, JarvisError> {
    let mut out = ShardOutput::with_capacity(events.len(), roster.clock);
    let mut window = Window::default();
    for env in events {
        if let Some(task) = window.enter(roster.epoch_of(env.seq)) {
            window.run(task, roster, &mut out)?;
        }
        let job = Job { env, enqueued: None };
        step(slots, job, roster, sup.as_deref_mut(), &mut window, &mut out)?;
        if window.is_full(roster.batch_window) {
            window.flush(roster, &mut out)?;
        }
    }
    window.flush(roster, &mut out)?;
    Ok(out)
}

/// Marks this shard done-publishing on every exit path — including panics
/// and error returns — and trips the abort latch on the unclean ones, so
/// neither the router nor sibling workers can wait forever on a dead shard.
struct ExitGuard<'a> {
    done: &'a AtomicBool,
    abort: &'a AtomicBool,
    clean: bool,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        if !self.clean {
            self.abort.store(true, Ordering::Release);
        }
        self.done.store(true, Ordering::Release);
    }
}

/// The threaded work-stealing worker loop for shard `idx`.
pub(crate) fn run_worker(
    idx: usize,
    slots: &mut BTreeMap<u64, HomeSlot>,
    roster: &Roster<'_>,
    sup: Option<&mut ShardSupervisor<'_>>,
    throttle: Duration,
    shared: &WorkerShared,
) -> Result<ShardOutput, JarvisError> {
    let mut guard = ExitGuard { done: &shared.done[idx], abort: &shared.abort, clean: false };
    let result = worker_loop(idx, slots, roster, sup, throttle, shared);
    guard.clean = result.is_ok();
    drop(guard);
    result
}

fn worker_loop(
    idx: usize,
    slots: &mut BTreeMap<u64, HomeSlot>,
    roster: &Roster<'_>,
    mut sup: Option<&mut ShardSupervisor<'_>>,
    throttle: Duration,
    shared: &WorkerShared,
) -> Result<ShardOutput, JarvisError> {
    let ingest = &shared.ingest[idx];
    let run_queue = &shared.tasks[idx];
    let victims = steal_order(idx, shared.tasks.len());
    let mut out = ShardOutput::with_capacity(shared.routed[idx], roster.clock);
    let mut window = Window::default();
    let mut done_publishing = false;

    loop {
        let mut progress = false;

        // 1. Drain the ingest ring: monitor/sensor work applies inline,
        //    queries snapshot into the batching window, which closes on an
        //    epoch change and when it fills.
        while let Some(job) = ingest.pop() {
            progress = true;
            if !throttle.is_zero() {
                std::thread::sleep(throttle);
            }
            let closed = window.enter(roster.epoch_of(job.env.seq));
            publish(run_queue, closed, roster, &mut window, &mut out)?;
            step(slots, job, roster, sup.as_deref_mut(), &mut window, &mut out)?;
            if window.is_full(roster.batch_window) {
                let closed = window.close();
                publish(run_queue, closed, roster, &mut window, &mut out)?;
            }
        }

        // 2. Adaptive close: the ring ran dry with queries parked — answer
        //    them now instead of letting them age until the window fills.
        if !window.is_empty() {
            let closed = window.close();
            publish(run_queue, closed, roster, &mut window, &mut out)?;
            progress = true;
        }

        // 3. End of stream (the window is empty after step 2): announce
        //    that this shard will never publish another task.
        if !done_publishing && ingest.is_drained() {
            shared.done[idx].store(true, Ordering::Release);
            done_publishing = true;
        }

        // 4. Execute own batches first (freshest cache), then steal from
        //    the fixed victim schedule.
        if let Some(task) = run_queue.pop() {
            window.run(task, roster, &mut out)?;
            continue;
        }
        for &victim in &victims {
            if let Some(task) = shared.tasks[victim].pop() {
                window.run(task, roster, &mut out)?;
                progress = true;
                break;
            }
        }
        if progress {
            continue;
        }

        // 5. Nothing anywhere: abort fast if a sibling failed, terminate
        //    when every shard is done publishing and every run queue is
        //    empty, otherwise yield and look again.
        if shared.abort.load(Ordering::Acquire) {
            break;
        }
        if done_publishing
            && shared.done.iter().all(|d| d.load(Ordering::Acquire))
            && shared.tasks.iter().all(StealQueue::is_empty)
        {
            break;
        }
        std::thread::yield_now();
    }
    Ok(out)
}
