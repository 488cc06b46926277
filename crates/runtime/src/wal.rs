//! The per-shard write-ahead log behind deterministic crash recovery.
//!
//! A [`ShardWal`] pairs the shard's last state checkpoint (the
//! [`HomeSnapshot`]s of every slot the shard owns) with the envelopes
//! logged since. The supervisor appends each envelope *before* processing
//! it — classic write-ahead discipline — so after a caught panic the log
//! always contains the complete suffix of work since the checkpoint,
//! including the envelope that failed. Recovery is then purely mechanical:
//! restore the checkpoint, re-apply every logged envelope but the last to
//! the slots (state only: outcomes are discarded, because every decision
//! the suffix produced was already answered from a snapshot of this same
//! state), and retry the last one.
//!
//! Checkpoints and recovery cost what changed, not what the shard owns.
//! Serving an envelope touches only its own home's slot (decision batches
//! touch none), and every envelope is logged before it is applied, so the
//! homes the suffix names — the *dirty* homes — are the only slots that
//! can differ from the checkpoint. [`ShardWal::checkpoint`] re-snapshots
//! just those and [`ShardWal::restore`] restores just those; every other
//! home's snapshot is left as it was, and still equals its slot. Snapshots
//! share each home's `P_safe` table with its slot copy-on-write
//! ([`HomeSnapshot::table`]), so a dirty home costs its small mutable
//! state, not a table clone.
//!
//! The log is an in-memory structure serialized through stdkit's strict
//! JSON codec ([`jarvis_stdkit::json`]), so a WAL — checkpoint, suffix and
//! all — round-trips byte-for-byte. A checkpoint may fall anywhere, even
//! with queries parked: the replay re-parks nothing, and a parked query's
//! snapshot already holds everything its decision needs. The shard loops
//! still close the batching window at each checkpoint, to bound window
//! residency; that close cannot change any decision — batch grouping only
//! clusters pure per-row forwards (DESIGN.md §13).

use crate::event::Envelope;
use crate::slot::{HomeSlot, HomeSnapshot};
use jarvis::JarvisError;
use jarvis_stdkit::{json_enum, json_struct};
use std::collections::BTreeMap;

/// A durable continual-learning record (DESIGN.md §16). Unlike envelope
/// entries, records are *not* cleared at checkpoints: they are the audit
/// trail that lets recovery — and offline verification — reconstruct which
/// SPL folds landed and which policy version was active at every seq,
/// independent of where the last checkpoint fell.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A slot folded its SPL delta into `P_safe`.
    Fold {
        /// The home whose delta folded.
        home: u64,
        /// The slot's lifetime fold ordinal (1-based, == `folds` after).
        fold: u64,
        /// Pairs admitted into the safe table by this fold.
        admitted: u64,
    },
    /// The active policy version changed.
    Swap {
        /// The stream seq at which the swap took effect: decisions with
        /// `seq >= at_seq` were served by `version`.
        at_seq: u64,
        /// The now-active policy version id.
        version: u64,
    },
}

json_enum!(WalRecord {
    Fold { home, fold, admitted },
    Swap { at_seq, version },
});

/// One shard's write-ahead log: last checkpoint + envelope suffix.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWal {
    /// The shard this log belongs to.
    pub shard: usize,
    /// Every slot the shard owns as of the last checkpoint, ordered by
    /// home id. Always the full set: a checkpoint refreshes only the homes
    /// its suffix named, and the rest are unchanged since their own last
    /// refresh, so the set equals a full snapshot taken at the checkpoint.
    pub snapshot: Vec<HomeSnapshot>,
    /// Envelopes logged since the checkpoint, in processing (seq) order.
    /// The last entry is the envelope currently being processed.
    pub entries: Vec<Envelope>,
    /// Continual-learning records for the whole run, in commit order.
    /// Checkpoints do not clear them.
    pub records: Vec<WalRecord>,
}

json_struct!(ShardWal { shard, snapshot, entries, records });

impl ShardWal {
    /// Open a log for `shard` at an initial checkpoint: a snapshot of every
    /// slot the shard owns, ordered by home id.
    #[must_use]
    pub fn new(shard: usize, snapshot: Vec<HomeSnapshot>) -> Self {
        ShardWal { shard, snapshot, entries: Vec::new(), records: Vec::new() }
    }

    /// Log an envelope ahead of processing it.
    pub fn append(&mut self, env: Envelope) {
        self.entries.push(env);
    }

    /// Commit a continual-learning record. Appended *after* the learning
    /// state change it describes lands in slot state, so a crash between
    /// the two replays the change rather than double-reporting it.
    pub fn append_record(&mut self, record: WalRecord) {
        self.records.push(record);
    }

    /// The homes the envelope suffix names, ascending and deduplicated —
    /// the only slots that can have moved since the checkpoint.
    #[must_use]
    pub fn dirty_homes(&self) -> Vec<u64> {
        let mut homes: Vec<u64> = self.entries.iter().map(|env| env.home).collect();
        homes.sort_unstable();
        homes.dedup();
        homes
    }

    /// Checkpoint the slots' current state and clear the suffix —
    /// everything before now is durable state. Only the dirty homes are
    /// re-snapshotted. Learning records survive: they describe the whole
    /// run, not the suffix.
    pub(crate) fn checkpoint(&mut self, slots: &BTreeMap<u64, HomeSlot>) {
        let dirty = self.dirty_homes();
        for snap in &mut self.snapshot {
            if dirty.binary_search(&snap.id).is_ok() {
                if let Some(slot) = slots.get(&snap.id) {
                    *snap = slot.snapshot();
                }
            }
        }
        self.entries.clear();
    }

    /// Roll the dirty homes' slots back to the checkpoint; the other
    /// slots already hold it.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when the checkpoint names a home
    /// `slots` lacks, and whatever [`HomeSlot::restore`] rejects.
    pub(crate) fn restore(&self, slots: &mut BTreeMap<u64, HomeSlot>) -> Result<(), JarvisError> {
        let dirty = self.dirty_homes();
        for snap in self.snapshot.iter().filter(|snap| dirty.binary_search(&snap.id).is_ok()) {
            let slot = slots.get_mut(&snap.id).ok_or_else(|| {
                JarvisError::Config(format!("WAL names unregistered home {}", snap.id))
            })?;
            slot.restore(snap)?;
        }
        Ok(())
    }

    /// The envelopes whose state effects recovery re-applies: every logged
    /// entry except the failing last one (which the supervisor retries
    /// separately).
    /// Empty when the failure hit the first envelope after a checkpoint.
    #[must_use]
    pub fn replay_suffix(&self) -> &[Envelope] {
        match self.entries.split_last() {
            Some((_failing, prefix)) => prefix,
            None => &[],
        }
    }

    /// Number of envelopes logged since the checkpoint.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suffix is empty (a checkpoint just happened).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use jarvis_policy::{MatchMode, SafeTransitionTable};
    use jarvis_smart_home::SmartHome;
    use jarvis_stdkit::json::{FromJson, ToJson};

    fn slots(ids: &[u64]) -> BTreeMap<u64, HomeSlot> {
        ids.iter()
            .map(|&id| {
                let home = SmartHome::evaluation_home();
                (id, HomeSlot::new(id, home, SafeTransitionTable::new(), MatchMode::Exact))
            })
            .collect()
    }

    fn snapshot() -> Vec<HomeSnapshot> {
        slots(&[3]).values().map(HomeSlot::snapshot).collect()
    }

    fn env(seq: u64) -> Envelope {
        env_for(3, seq)
    }

    fn env_for(home: u64, seq: u64) -> Envelope {
        Envelope {
            seq,
            home,
            minute: 10 + seq as u32,
            kind: EventKind::Query { indoor_c: 21.0, outdoor_c: 5.0, price_per_kwh: 0.12 },
        }
    }

    #[test]
    fn write_ahead_then_checkpoint_clears_suffix() {
        let mut wal = ShardWal::new(0, snapshot());
        assert!(wal.is_empty());
        for seq in 0..5 {
            wal.append(env(seq));
        }
        assert_eq!(wal.len(), 5);
        assert_eq!(wal.replay_suffix().len(), 4);
        assert_eq!(wal.entries.last().unwrap().seq, 4);
        wal.checkpoint(&slots(&[3]));
        assert!(wal.is_empty());
        assert_eq!(wal.replay_suffix(), &[]);
    }

    #[test]
    fn checkpoint_and_restore_touch_only_dirty_homes() {
        let mut live = slots(&[3, 5, 9]);
        let mut wal = ShardWal::new(0, live.values().map(HomeSlot::snapshot).collect());
        let processed = |wal: &ShardWal| -> Vec<u64> {
            wal.snapshot.iter().map(|snap| snap.processed).collect()
        };
        wal.append(env_for(9, 0));
        wal.append(env_for(3, 1));
        wal.append(env_for(9, 2));
        assert_eq!(wal.dirty_homes(), vec![3, 9]);
        // Move every slot, home 5 included, to expose what gets re-read.
        for slot in live.values_mut() {
            slot.note_event(1, false);
        }
        wal.checkpoint(&live);
        assert!(wal.dirty_homes().is_empty());
        assert_eq!(processed(&wal), vec![1, 0, 1], "home 5 was not named, so not re-read");
        let ids: Vec<u64> = wal.snapshot.iter().map(|snap| snap.id).collect();
        assert_eq!(ids, vec![3, 5, 9], "the checkpoint stays the full set, by home id");

        wal.append(env_for(5, 3));
        for slot in live.values_mut() {
            slot.note_event(2, false);
        }
        wal.restore(&mut live).unwrap();
        let now: Vec<u64> = live.values().map(HomeSlot::processed).collect();
        assert_eq!(now, vec![2, 0, 2], "only the dirty home 5 rolls back");
    }

    #[test]
    fn wal_round_trips_byte_for_byte() {
        let mut wal = ShardWal::new(2, snapshot());
        wal.append(env(7));
        wal.append(Envelope {
            seq: 8,
            home: 3,
            minute: 30,
            kind: EventKind::Action(jarvis_iot_model::MiniAction {
                device: jarvis_iot_model::DeviceId(0),
                action: jarvis_iot_model::ActionIdx(0),
            }),
        });
        wal.append_record(WalRecord::Fold { home: 3, fold: 1, admitted: 2 });
        wal.append_record(WalRecord::Swap { at_seq: 9, version: 1 });
        let json = wal.to_json();
        let back = ShardWal::from_json(&json).unwrap();
        assert_eq!(back, wal);
        assert_eq!(back.to_json(), json, "serialization must be byte-stable");
    }

    #[test]
    fn learning_records_survive_checkpoints() {
        let mut wal = ShardWal::new(0, snapshot());
        wal.append(env(0));
        wal.append_record(WalRecord::Fold { home: 3, fold: 1, admitted: 0 });
        wal.checkpoint(&slots(&[3]));
        assert!(wal.is_empty(), "checkpoint clears the envelope suffix");
        assert_eq!(
            wal.records,
            vec![WalRecord::Fold { home: 3, fold: 1, admitted: 0 }],
            "checkpoint must not clear the learning audit trail"
        );
        wal.append_record(WalRecord::Swap { at_seq: 5, version: 2 });
        wal.checkpoint(&slots(&[3]));
        assert_eq!(wal.records.len(), 2);
    }

    #[test]
    fn wal_record_round_trips_byte_for_byte() {
        for record in [
            WalRecord::Fold { home: 11, fold: 4, admitted: 1 },
            WalRecord::Swap { at_seq: 1024, version: 3 },
        ] {
            let json = record.to_json();
            let back = WalRecord::from_json(&json).unwrap();
            assert_eq!(back, record);
            assert_eq!(back.to_json(), json, "serialization must be byte-stable");
        }
    }
}
