//! The supervision layer that makes the serving runtime self-healing.
//!
//! A [`ShardSupervisor`] is a per-envelope guard: the shard loop calls it
//! in place of applying an event. It logs the envelope in the shard's [`ShardWal`]
//! first, then applies it inside a `catch_unwind` panic boundary; batch
//! execution stays outside the boundary. When applying an envelope dies —
//! a worker panic, or a stall that overruns the virtual deadline — the
//! supervisor recovers deterministically, and never un-answers a decision:
//! it drops only what the failed attempt added, answers the queries still
//! parked (their snapshots predate the failure), restores the checkpoint
//! and re-applies the logged suffix to the slots with every output
//! discarded, then retries the envelope after a seeded exponential backoff
//! charged in *virtual ticks* — the supervised path performs zero
//! wall-clock calls unless a telemetry clock is injected (lint rule R2).
//! Decisions already answered stand: the rebuilt state is bitwise the state
//! they were snapshotted from.
//!
//! Failure containment is layered (DESIGN.md §15):
//!
//! 1. **Transient faults** (fewer consecutive failures than
//!    [`SupervisorConfig::quarantine_after`]) are invisible: the recovered
//!    run's outcomes, snapshot bytes, and accounting are bitwise identical
//!    to an uninterrupted run.
//! 2. **Poison pills** — a query whose processing keeps dying — are
//!    quarantined after `quarantine_after` consecutive failures: the query
//!    is answered by the SPL safe-table fallback (the always-valid no-op,
//!    [`DecisionSource::SafeTableFallback`]) with a [`QuarantineRecord`],
//!    and the shard moves on.
//! 3. **Budget exhaustion** — more restarts than
//!    [`SupervisorConfig::restart_budget`] — degrades the shard: its
//!    neural decision path is taken offline for the rest of the call, all
//!    remaining queries are answered by the safe-table fallback, and the
//!    monitor path keeps enforcing. Enforcement never lapses; only
//!    suggestions degrade.
//!
//! Injected chaos ([`ChaosSchedule`]) models failures *of the neural
//! decision path*; once a shard is degraded that path is offline, so chaos
//! stops firing for the shard — this is what guarantees liveness after
//! budget exhaustion. Injected panics unwind via
//! [`std::panic::resume_unwind`] with a typed payload, so they never
//! invoke the global panic hook (no stderr spam under test), while *real*
//! panics from bugs still report normally — and are recovered through the
//! exact same path.

use crate::event::{DecisionSource, Envelope, EventKind, Outcome};
use crate::runtime::ServeReport;
use crate::shard::{self, Roster, ShardOutput, Window};
use crate::slot::HomeSlot;
use crate::wal::{ShardWal, WalRecord};
use jarvis::JarvisError;
use jarvis_sim::{ChaosKind, ChaosSchedule};
use jarvis_stdkit::rng::{ChaCha8Rng, Rng, SeedableRng};
use jarvis_stdkit::{json_enum, json_struct};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Supervision policy for [`crate::ServingRuntime::serve_online_supervised`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Maximum shard restarts per serve call; one more failure degrades the
    /// shard to safe-table-only serving.
    pub restart_budget: u32,
    /// Base of the seeded exponential backoff, in virtual ticks: restart
    /// `n` charges `base · 2^(n-1)` plus uniform jitter below `base`.
    pub backoff_base_ticks: u64,
    /// Seed of the per-shard backoff jitter streams.
    pub backoff_seed: u64,
    /// Virtual-tick budget one envelope may charge before the watchdog
    /// treats the worker as hung and recovers it like a panic.
    pub deadline_ticks: u64,
    /// Consecutive failures on the same query before it is quarantined as a
    /// poison pill and answered by the safe-table fallback.
    pub quarantine_after: u32,
    /// Envelopes between WAL checkpoints (per shard). Smaller = shorter
    /// replays, more snapshot work. A checkpoint re-snapshots only the
    /// homes its envelopes touched, sharing their safe tables
    /// copy-on-write, so its cost scales with homes touched per window,
    /// not homes owned by the shard.
    pub checkpoint_every: u64,
    /// Serve degraded from the start: the neural path is treated as offline
    /// everywhere and every query gets the safe-table fallback. For
    /// disaster-recovery drills and the degraded-throughput benchmark.
    pub policy_offline: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            restart_budget: 8,
            backoff_base_ticks: 16,
            backoff_seed: 0xB0FF,
            deadline_ticks: 1_000,
            quarantine_after: 3,
            checkpoint_every: 64,
            policy_offline: false,
        }
    }
}

impl SupervisorConfig {
    pub(crate) fn validate(&self) -> Result<(), JarvisError> {
        if self.backoff_base_ticks == 0 {
            return Err(JarvisError::Config("backoff base must be at least 1 tick".into()));
        }
        if self.deadline_ticks == 0 {
            return Err(JarvisError::Config("deadline must be at least 1 tick".into()));
        }
        if self.quarantine_after == 0 {
            return Err(JarvisError::Config("quarantine threshold must be at least 1".into()));
        }
        if self.checkpoint_every == 0 {
            return Err(JarvisError::Config("checkpoint cadence must be at least 1".into()));
        }
        Ok(())
    }
}

/// Why a shard was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// Processing the envelope panicked (injected or real).
    Panic,
    /// Processing the envelope charged more virtual ticks than
    /// [`SupervisorConfig::deadline_ticks`] — a hung worker.
    DeadlineOverrun,
}

json_enum!(FailureCause { Panic, DeadlineOverrun });

/// One shard restart: failure, backoff, restore, state replay, retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartRecord {
    /// The recovered shard.
    pub shard: usize,
    /// Sequence number of the envelope whose processing failed.
    pub seq: u64,
    /// What killed the worker.
    pub cause: FailureCause,
    /// Consecutive failures of this envelope so far (this one included).
    pub failures: u32,
    /// Virtual ticks of seeded exponential backoff charged before retry.
    pub backoff_ticks: u64,
    /// WAL entries re-applied to rebuild the shard's slot state.
    pub replayed: usize,
}

json_struct!(RestartRecord { shard, seq, cause, failures, backoff_ticks, replayed });

/// One poison-pill quarantine: a query answered by the safe-table fallback
/// after repeated failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The shard that quarantined the query.
    pub shard: usize,
    /// The quarantined query's sequence number.
    pub seq: u64,
    /// The home the query belonged to.
    pub home: u64,
    /// Consecutive failures that triggered the quarantine.
    pub failures: u32,
}

json_struct!(QuarantineRecord { shard, seq, home, failures });

/// Everything the supervisor did during one serve call. All fields except
/// `recovery_ns` are deterministic accounting — bitwise identical across
/// deterministic/threaded execution and across runs; `recovery_ns` is
/// informational wall-clock telemetry, populated only when
/// [`crate::RuntimeConfig::telemetry`] injects a clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Every restart, in shard order then occurrence order.
    pub restarts: Vec<RestartRecord>,
    /// Every poison-pill quarantine.
    pub quarantined: Vec<QuarantineRecord>,
    /// Shards that exhausted their restart budget and degraded to
    /// safe-table-only serving.
    pub degraded_shards: Vec<usize>,
    /// Decisions answered by the safe-table fallback
    /// ([`DecisionSource::SafeTableFallback`]).
    pub fallback_decisions: u64,
    /// WAL checkpoints taken across all shards.
    pub checkpoints: u64,
    /// Stall ticks charged but tolerated (within the deadline).
    pub tolerated_stall_ticks: u64,
    /// Total virtual ticks charged: one per applied envelope, plus stall
    /// charges, plus backoff.
    pub virtual_ticks: u64,
    /// Crash → first post-recovery decision, in telemetry-clock
    /// nanoseconds; empty without an injected clock.
    pub recovery_ns: Vec<u64>,
}

json_struct!(RecoveryReport {
    restarts,
    quarantined,
    degraded_shards,
    fallback_decisions,
    checkpoints,
    tolerated_stall_ticks,
    virtual_ticks,
    recovery_ns,
});

impl RecoveryReport {
    /// Fold one shard's accounting into the runtime-wide report (called in
    /// shard order, so merged records stay deterministic).
    pub(crate) fn absorb(&mut self, other: RecoveryReport) {
        self.restarts.extend(other.restarts);
        self.quarantined.extend(other.quarantined);
        self.degraded_shards.extend(other.degraded_shards);
        self.fallback_decisions += other.fallback_decisions;
        self.checkpoints += other.checkpoints;
        self.tolerated_stall_ticks += other.tolerated_stall_ticks;
        self.virtual_ticks += other.virtual_ticks;
        self.recovery_ns.extend(other.recovery_ns);
    }
}

/// A [`ServeReport`] plus the supervisor's recovery accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedReport {
    /// The ordinary serve results: outcomes sorted by seq.
    pub report: ServeReport,
    /// What the supervisor did.
    pub recovery: RecoveryReport,
    /// Each shard's final write-ahead log, in shard order — the last
    /// checkpoint, the envelope suffix since, and the full
    /// continual-learning record trail ([`WalRecord`]).
    pub wals: Vec<ShardWal>,
}

/// Typed payload of an injected chaos panic. Unwinding with
/// [`resume_unwind`] skips the global panic hook, so chaos-heavy test runs
/// stay quiet while real panics still report.
struct ChaosPanicPayload {
    /// Carried for debuggability of escaped payloads; the supervisor itself
    /// recovers injected and real panics identically and never reads it.
    #[allow(dead_code)]
    seq: u64,
}

/// What one supervised processing attempt produced.
enum Attempt {
    /// The envelope applied cleanly.
    Applied,
    /// The watchdog killed a stall that overran the deadline.
    Overrun,
    /// The worker panicked (payload dropped; injected and real panics are
    /// recovered identically).
    Panicked,
}

/// One shard's supervision state, WAL and accounting: the per-envelope
/// guard the shard loop calls in place of [`shard::apply_event`].
pub(crate) struct ShardSupervisor<'a> {
    shard: usize,
    sup: &'a SupervisorConfig,
    chaos: Option<&'a ChaosSchedule>,
    wal: ShardWal,
    quarantined: BTreeSet<u64>,
    degraded: bool,
    restarts_used: u32,
    backoff_rng: ChaCha8Rng,
    /// Per-home `(folds, admitted)` already committed to the WAL record
    /// trail. Recovery replays re-run folds in slot state but never move a
    /// counter past its committed value, so records are exactly-once.
    recorded_folds: BTreeMap<u64, (u64, u64)>,
    /// Swap points already committed to the WAL record trail.
    recorded_swaps: usize,
    recovery: RecoveryReport,
}

impl<'a> ShardSupervisor<'a> {
    /// Supervise the shard owning `slots`, its WAL opened at a checkpoint of
    /// every slot.
    pub(crate) fn new(
        shard: usize,
        sup: &'a SupervisorConfig,
        chaos: Option<&'a ChaosSchedule>,
        slots: &BTreeMap<u64, HomeSlot>,
    ) -> Self {
        // SplitMix-style fold keeps per-shard jitter streams independent.
        let mut z = sup.backoff_seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        ShardSupervisor {
            shard,
            sup,
            chaos,
            wal: ShardWal::new(shard, slots.values().map(HomeSlot::snapshot).collect()),
            quarantined: BTreeSet::new(),
            degraded: sup.policy_offline,
            restarts_used: 0,
            backoff_rng: ChaCha8Rng::seed_from_u64(z),
            // Folds that predate this serve call (resumed snapshots) are not
            // this WAL's to report.
            recorded_folds: slots
                .iter()
                .filter_map(|(&id, slot)| Some((id, slot.online_stats()?)))
                .collect(),
            recorded_swaps: 0,
            recovery: RecoveryReport::default(),
        }
    }

    /// The shard's accounting and final WAL.
    pub(crate) fn finish(self) -> (RecoveryReport, ShardWal) {
        (self.recovery, self.wal)
    }

    /// Guard one envelope: log it ahead of any attempt, commit the swap
    /// points its epoch crossed, apply it inside the panic boundary (or
    /// answer it by fallback on a degraded shard), recover from failures,
    /// commit the folds it landed, and checkpoint on cadence.
    pub(crate) fn guard(
        &mut self,
        slots: &mut BTreeMap<u64, HomeSlot>,
        env: &Envelope,
        roster: &Roster<'_>,
        window: &mut Window,
        out: &mut ShardOutput,
    ) -> Result<(), JarvisError> {
        self.wal.append(env.clone());
        let epoch = roster.epoch_of(env.seq);
        while self.recorded_swaps < epoch.min(roster.swaps.len()) {
            let sp = roster.swaps[self.recorded_swaps];
            self.wal.append_record(WalRecord::Swap { at_seq: sp.at_seq, version: sp.version });
            self.recorded_swaps += 1;
        }
        if self.degraded && matches!(env.kind, EventKind::Query { .. }) {
            self.fallback_decision(slots, env, out)?;
        } else {
            self.supervise(slots, env, roster, window, out)?;
        }
        // Commit any fold this envelope landed — after the slot mutation
        // survived every failure path, never before.
        self.commit_fold_records(slots, env.home);
        if self.wal.len() as u64 >= self.sup.checkpoint_every {
            // Answer the parked queries first: the close bounds window
            // residency, and keeps the snapshot cost out of their latency.
            window.flush(roster, out)?;
            self.wal.checkpoint(slots);
            self.recovery.checkpoints += 1;
        }
        Ok(())
    }

    /// Apply `env` until it lands, recovering after every failed attempt:
    /// drop what the attempt added, answer the queries still parked (their
    /// snapshots predate the failure), rebuild the slots from the WAL, then
    /// retry — or quarantine the query, or degrade the shard.
    fn supervise(
        &mut self,
        slots: &mut BTreeMap<u64, HomeSlot>,
        env: &Envelope,
        roster: &Roster<'_>,
        window: &mut Window,
        out: &mut ShardOutput,
    ) -> Result<(), JarvisError> {
        let clock = roster.clock;
        let is_query = matches!(env.kind, EventKind::Query { .. });
        let mut fired = 0u32;
        let mut failures = 0u32;
        let mut crashed_at = None;
        loop {
            let marks = (out.outcomes.len(), window.len());
            let cause = match self.attempt(slots, env, clock, &mut fired, window, out)? {
                Attempt::Applied => break,
                Attempt::Overrun => FailureCause::DeadlineOverrun,
                Attempt::Panicked => FailureCause::Panic,
            };
            crashed_at = clock.map(|now| now());
            failures += 1;
            // Drop only what the failed attempt added, then answer the
            // queries still parked now, so recovery time stays out of their
            // latency: their snapshots predate the failure.
            out.outcomes.truncate(marks.0);
            window.truncate(marks.1);
            window.flush(roster, out)?;
            let replayed = self.restore_and_replay(slots)?;
            if is_query && failures >= self.sup.quarantine_after {
                // Poison pill: stop retrying, serve the safe-table answer.
                self.quarantined.insert(env.seq);
                self.recovery.quarantined.push(QuarantineRecord {
                    shard: self.shard,
                    seq: env.seq,
                    home: env.home,
                    failures,
                });
                self.fallback_decision(slots, env, out)?;
                break;
            }
            if self.restarts_used >= self.sup.restart_budget {
                // Budget exhausted: the neural path goes offline for the
                // rest of the call.
                self.degraded = true;
                self.recovery.degraded_shards.push(self.shard);
                if is_query {
                    self.fallback_decision(slots, env, out)?;
                } else if !matches!(
                    self.attempt(slots, env, clock, &mut fired, window, out)?,
                    Attempt::Applied
                ) {
                    // Monitor-path work continues directly (chaos no longer
                    // fires); a *real* panic here has no budget left to
                    // recover with — fail loudly, never drop.
                    return Err(JarvisError::Config(format!(
                        "shard {} failed at seq {} after its restart budget was exhausted",
                        self.shard, env.seq
                    )));
                }
                break;
            }
            // Ordinary restart: seeded exponential backoff in virtual ticks,
            // then retry on the rebuilt state.
            self.restarts_used += 1;
            let shift = u32::min(self.restarts_used - 1, 32);
            let backoff_ticks = self
                .sup
                .backoff_base_ticks
                .saturating_mul(1u64 << shift)
                .saturating_add(self.backoff_rng.gen_range(0..self.sup.backoff_base_ticks));
            self.recovery.virtual_ticks += backoff_ticks;
            self.recovery.restarts.push(RestartRecord {
                shard: self.shard,
                seq: env.seq,
                cause,
                failures,
                backoff_ticks,
                replayed,
            });
        }
        // A recovery just landed: answer the retried query now, and stamp
        // crash → first post-recovery decision.
        if failures > 0 {
            window.flush(roster, out)?;
            if let (Some(now), Some(t0)) = (clock, crashed_at) {
                self.recovery.recovery_ns.push(now().saturating_sub(t0));
            }
        }
        Ok(())
    }

    /// The chaos fire armed for `seq` after `fired` fires, if any: scheduled,
    /// still below its attempt count, and the shard's neural path is up.
    fn armed(&self, seq: u64, fired: u32) -> Option<ChaosKind> {
        if self.degraded {
            return None;
        }
        let fire = self.chaos?.get(&seq)?;
        let attempts = match fire.kind {
            ChaosKind::Panic { attempts } | ChaosKind::Stall { attempts, .. } => attempts,
        };
        (fired < attempts).then_some(fire.kind)
    }

    /// One guarded attempt at applying `env`: arm any scheduled chaos,
    /// apply the event inside a panic boundary, and classify the result.
    /// `fired` counts the envelope's chaos fires; it models the external
    /// failure process, so recovery never rolls it back.
    fn attempt(
        &mut self,
        slots: &mut BTreeMap<u64, HomeSlot>,
        env: &Envelope,
        clock: Option<fn() -> u64>,
        fired: &mut u32,
        window: &mut Window,
        out: &mut ShardOutput,
    ) -> Result<Attempt, JarvisError> {
        let seq = env.seq;
        let armed = self.armed(seq, *fired);
        if let Some(ChaosKind::Stall { ticks, .. }) = armed {
            *fired += 1;
            self.recovery.virtual_ticks += ticks;
            if ticks > self.sup.deadline_ticks {
                // The watchdog kills the hung worker before the envelope
                // touches any state.
                return Ok(Attempt::Overrun);
            }
            self.recovery.tolerated_stall_ticks += ticks;
        }
        let learn = !self.degraded;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let applied = shard::apply_event(slots, env, clock, learn, window, out);
            if applied.is_ok() {
                if let Some(ChaosKind::Panic { .. }) = armed {
                    // Fire *after* the event mutated the slot: recovery must
                    // genuinely discard dirty state, not skip clean state.
                    *fired += 1;
                    resume_unwind(Box::new(ChaosPanicPayload { seq }));
                }
            }
            applied
        }));
        match caught {
            Ok(Ok(())) => {
                self.recovery.virtual_ticks += 1;
                Ok(Attempt::Applied)
            }
            Ok(Err(err)) => Err(err),
            Err(_payload) => Ok(Attempt::Panicked),
        }
    }

    /// Restore the WAL checkpoint (the dirty homes only — see
    /// [`ShardWal::restore`]) and re-apply the logged suffix to the slots,
    /// discarding every output: recovery rebuilds state and never answers a
    /// query again. Learning is off for quarantined seqs, as it was for
    /// their fallback answers, and on a degraded shard. Returns the number
    /// of envelopes replayed.
    fn restore_and_replay(
        &self,
        slots: &mut BTreeMap<u64, HomeSlot>,
    ) -> Result<usize, JarvisError> {
        self.wal.restore(slots)?;
        let suffix = self.wal.replay_suffix();
        let (mut window, mut out) = (Window::default(), ShardOutput::default());
        for env in suffix {
            let learn = !self.degraded && !self.quarantined.contains(&env.seq);
            shard::apply_event(slots, env, None, learn, &mut window, &mut out)?;
        }
        Ok(suffix.len())
    }

    /// Emit the degraded-mode answer for a query: the always-valid no-op
    /// from the SPL safe table, with full bookkeeping on the slot.
    fn fallback_decision(
        &mut self,
        slots: &mut BTreeMap<u64, HomeSlot>,
        env: &Envelope,
        out: &mut ShardOutput,
    ) -> Result<(), JarvisError> {
        let slot = slots.get_mut(&env.home).ok_or_else(|| {
            JarvisError::Config(format!(
                "event {} targets unregistered home {}",
                env.seq, env.home
            ))
        })?;
        // Fallback answers come from anomalous windows (quarantine,
        // degraded mode); they must never feed the continual learner.
        slot.note_event(env.minute, false);
        out.outcomes.push(Outcome::Decision {
            seq: env.seq,
            home: env.home,
            action: None,
            flat: 0,
            q_value: 0.0,
            rank: 0,
            source: DecisionSource::SafeTableFallback,
        });
        self.recovery.fallback_decisions += 1;
        Ok(())
    }

    /// Commit any fold the slot performed while handling the last envelope
    /// to the WAL record trail. Counters only ever move forward past their
    /// committed marks on first application — recovery replays rebuild slot
    /// state up to (never beyond) the committed counters — so each fold is
    /// recorded exactly once, at the envelope that first landed it.
    fn commit_fold_records(&mut self, slots: &BTreeMap<u64, HomeSlot>, home: u64) {
        let Some(slot) = slots.get(&home) else { return };
        let Some((folds, admitted)) = slot.online_stats() else { return };
        let committed = self.recorded_folds.entry(home).or_insert((0, 0));
        if folds > committed.0 {
            self.wal.append_record(WalRecord::Fold {
                home,
                fold: folds,
                admitted: admitted - committed.1,
            });
            *committed = (folds, admitted);
        }
    }
}
