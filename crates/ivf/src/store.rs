//! Crash-consistent mutable index: checkpoint (GKSC) + journal (GKSL).
//!
//! A [`MutableStore`] pairs an in-memory [`IvfIndex`] with a write-ahead log
//! so that **every acknowledged mutation is durable before it is applied**:
//!
//! 1. the mutation is encoded and appended to the journal;
//! 2. the journal is fsynced ([`vecstore::wal::WalWriter::sync`] — batches
//!    share one sync, the group commit the `mutate_throughput` bench
//!    measures);
//! 3. only then is it applied to the in-memory index and acknowledged.
//!
//! A crash at any point loses *at most* unacknowledged work.  Recovery loads
//! the last checkpoint and replays the journal's valid prefix; the
//! checkpoint's `applied_seq` cursor (the `IVFMUT` section) says where to
//! resume, so a crash **between** checkpoint publication and journal
//! truncation merely re-reads already-folded records and skips them — no
//! double apply, no loss.
//!
//! Checkpointed compaction ([`MutableStore::compact`]) turns the mutable
//! state into the next clean generation: rebuild contiguous panels from the
//! live set, atomically publish the new GKSC file, then truncate the journal
//! (itself an atomic replacement).  The crash matrix is in ARCHITECTURE §7.
//!
//! # Journal record encoding
//!
//! The WAL body (after the sequence number the segment format carries) is:
//!
//! ```text
//! insert: 0x01 | id u32 LE | d × f32 LE
//! delete: 0x02 | id u32 LE
//! ```
//!
//! Inserts journal the id they *will* assign, so replay reproduces the exact
//! id assignment; deletes are idempotent on replay.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ffi::OsString;
use std::path::{Path, PathBuf};

use vecstore::io::f32s_from_bytes;
use vecstore::matrix::check_finite_row;
use vecstore::wal::{WalObs, WalWriter, MAX_WAL_RECORD};
use vecstore::{Error, Result, StoreError, VectorSet};

use crate::index::IvfIndex;

/// Store-level side-channel instruments (all-disabled until
/// [`MutableStore::set_obs`]).
#[derive(Clone, Default)]
struct StoreObs {
    compact_nanos: obs::HistogramHandle,
    tombstoned: obs::GaugeHandle,
    append_rows: obs::GaugeHandle,
    live_rows: obs::GaugeHandle,
}

impl std::fmt::Debug for StoreObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StoreObs { .. }")
    }
}

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const RECORD_SECTION: &str = "GKSL record";

/// One decoded journal operation.
#[derive(Clone, Debug, PartialEq)]
pub enum MutationOp {
    /// Insert `vector` under external id `id`.
    Insert {
        /// External id the insert assigns.
        id: u32,
        /// The inserted vector (`dim` values).
        vector: Vec<f32>,
    },
    /// Tombstone external id `id` (idempotent).
    Delete {
        /// External id to tombstone.
        id: u32,
    },
}

/// Encodes a mutation into a journal record body.
pub fn encode_op(op: &MutationOp) -> Vec<u8> {
    match op {
        MutationOp::Insert { id, vector } => {
            let mut out = Vec::with_capacity(5 + vector.len() * 4);
            out.push(OP_INSERT);
            out.extend_from_slice(&id.to_le_bytes());
            for v in vector {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
        MutationOp::Delete { id } => {
            let mut out = Vec::with_capacity(5);
            out.push(OP_DELETE);
            out.extend_from_slice(&id.to_le_bytes());
            out
        }
    }
}

/// Decodes a journal record body, validating shape against `dim`.
///
/// # Errors
///
/// Returns [`StoreError::Invariant`] (corruption class) on an unknown opcode,
/// a payload whose length disagrees with the declared dimensionality, or an
/// insert carrying a NaN or infinity (no correct writer journals one) — the
/// journal passed its CRCs but cannot describe a real mutation.
pub fn decode_op(body: &[u8], dim: usize) -> Result<MutationOp> {
    let invariant = |detail: String| -> Error {
        StoreError::Invariant {
            section: RECORD_SECTION.to_string(),
            detail,
        }
        .into()
    };
    if body.is_empty() {
        return Err(invariant("empty mutation body".to_string()));
    }
    match body[0] {
        OP_INSERT => {
            let want = 5 + dim * 4;
            if body.len() != want {
                return Err(invariant(format!(
                    "insert body of {} bytes (expected {want} for dim {dim})",
                    body.len()
                )));
            }
            let mut a = [0u8; 4];
            a.copy_from_slice(&body[1..5]);
            let id = u32::from_le_bytes(a);
            let vector = f32s_from_bytes(&body[5..], RECORD_SECTION)?;
            if let Some(column) = vector.iter().position(|v| !v.is_finite()) {
                return Err(invariant(format!(
                    "insert of id {id} holds non-finite value {} at column {column}",
                    vector[column]
                )));
            }
            Ok(MutationOp::Insert { id, vector })
        }
        OP_DELETE => {
            if body.len() != 5 {
                return Err(invariant(format!(
                    "delete body of {} bytes (expected 5)",
                    body.len()
                )));
            }
            let mut a = [0u8; 4];
            a.copy_from_slice(&body[1..5]);
            Ok(MutationOp::Delete {
                id: u32::from_le_bytes(a),
            })
        }
        op => Err(invariant(format!("unknown mutation opcode {op:#04x}"))),
    }
}

/// What [`MutableStore::open`] found and did during recovery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed onto the checkpoint.
    pub replayed: usize,
    /// Records skipped because the checkpoint had already folded them in
    /// (a crash landed between checkpoint publication and WAL truncation).
    pub skipped: usize,
    /// `true` when a torn tail (an unacknowledged partial append) was
    /// dropped and truncated away.
    pub torn_tail_dropped: bool,
}

/// The path of the journal that rides shotgun with an index checkpoint:
/// the checkpoint path with `.wal` appended (`serving.ivf` → `serving.ivf.wal`).
pub fn wal_path(index_path: impl AsRef<Path>) -> PathBuf {
    let mut os: OsString = index_path.as_ref().as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// A crash-consistent, mutable IVF index: checkpoint + write-ahead log.
///
/// All mutation methods follow journal → fsync → apply; see the module docs.
/// The store owns the in-memory index — search through [`MutableStore::index`].
#[derive(Debug)]
pub struct MutableStore {
    index: IvfIndex,
    wal: WalWriter,
    index_path: PathBuf,
    obs: StoreObs,
}

impl MutableStore {
    /// Publishes `index` as a fresh checkpoint at `index_path` (atomically)
    /// with a fresh, empty journal beside it, and opens the pair.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] when `index` is dirty (a checkpoint is
    ///   a compacted generation by definition);
    /// * I/O and store errors from writing either file.
    pub fn create(index_path: impl AsRef<Path>, index: IvfIndex) -> Result<MutableStore> {
        let index_path = index_path.as_ref().to_path_buf();
        index.save(&index_path)?;
        let wal = WalWriter::create(wal_path(&index_path), index.dim() as u32, index.applied_seq)?;
        Ok(MutableStore {
            index,
            wal,
            index_path,
            obs: StoreObs::default(),
        })
    }

    /// Opens the checkpoint at `index_path` and replays its journal's valid
    /// prefix: torn tail dropped (and truncated), already-applied records
    /// skipped, the rest re-applied in sequence order.
    ///
    /// # Errors
    ///
    /// * checkpoint corruption via [`IvfIndex::load`]'s typed taxonomy;
    /// * journal corruption via [`vecstore::wal::replay_wal`];
    /// * [`StoreError::Invariant`] when the journal starts *beyond* the
    ///   checkpoint's `applied_seq` cursor — journalled records are missing,
    ///   so the pair cannot reconstruct an acknowledged state.
    pub fn open(index_path: impl AsRef<Path>) -> Result<(MutableStore, RecoveryReport)> {
        let index_path = index_path.as_ref().to_path_buf();
        let mut index = IvfIndex::load(&index_path)?;
        let (replay, wal) =
            WalWriter::recover(wal_path(&index_path), index.dim() as u32, index.applied_seq)?;
        if replay.start_seq > index.applied_seq {
            return Err(StoreError::Invariant {
                section: "GKSL header".to_string(),
                detail: format!(
                    "journal starts at sequence {} but the checkpoint only covers up to {} — \
                     journalled mutations are missing",
                    replay.start_seq, index.applied_seq
                ),
            }
            .into());
        }
        let mut report = RecoveryReport {
            torn_tail_dropped: replay.torn,
            ..RecoveryReport::default()
        };
        let dim = index.dim();
        for record in &replay.records {
            if record.seq < index.applied_seq {
                report.skipped += 1;
                continue;
            }
            match decode_op(&record.body, dim)? {
                MutationOp::Insert { id, vector } => index.apply_insert(id, &vector)?,
                MutationOp::Delete { id } => {
                    index.delete(id);
                }
            }
            index.applied_seq = record.seq + 1;
            report.replayed += 1;
        }
        Ok((
            MutableStore {
                index,
                wal,
                index_path,
                obs: StoreObs::default(),
            },
            report,
        ))
    }

    /// Attaches observability instruments: WAL append/fsync latency and
    /// journal depth (via [`vecstore::wal::WalObs`]), compaction duration,
    /// and live/tombstone/append-region gauges.  A metrics side channel
    /// only — mutation behaviour, journal bytes and sync points are
    /// identical with or without it.
    pub fn set_obs(&mut self, handle: &obs::ObsHandle) {
        self.wal.set_obs(WalObs::register(handle));
        self.obs = StoreObs {
            compact_nanos: handle.histogram(
                "compaction_nanos",
                "Duration of one checkpointed compaction (rebuild + publish + truncate)",
            ),
            tombstoned: handle.gauge(
                "index_tombstoned_rows",
                "Tombstoned rows awaiting compaction",
            ),
            append_rows: handle.gauge(
                "index_append_rows",
                "Rows living in the mutable append regions",
            ),
            live_rows: handle.gauge("index_live_rows", "Live rows the index serves"),
        };
        self.refresh_gauges();
    }

    /// Re-publishes the index-shape gauges after a mutation or compaction.
    fn refresh_gauges(&self) {
        self.obs.tombstoned.set(self.index.tombstoned() as i64);
        self.obs
            .append_rows
            .set(self.index.pending_appends() as i64);
        self.obs.live_rows.set(self.index.live_len() as i64);
    }

    /// The served index.  Searches read this; it already reflects every
    /// acknowledged mutation.
    #[inline]
    pub fn index(&self) -> &IvfIndex {
        &self.index
    }

    /// Path of the checkpoint file.
    pub fn path(&self) -> &Path {
        &self.index_path
    }

    /// Sequence number the next journalled mutation will carry.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Inserts one vector: journal, fsync, apply.  Returns the assigned id,
    /// which is durable by the time the call returns.
    pub fn insert(&mut self, vector: &[f32]) -> Result<u32> {
        Ok(self.insert_batch_rows(&[vector])?[0])
    }

    /// Inserts a batch under **one** fsync (group commit): every row is
    /// journalled, the journal is synced once, then all rows are applied.
    /// Returns the assigned ids in row order.
    ///
    /// # Errors
    ///
    /// A wrong-length row ([`Error::DimensionMismatch`]) or a NaN or
    /// infinite component ([`Error::NonFinite`], naming the row and column)
    /// rejects the whole batch before anything is journalled.
    pub fn insert_batch(&mut self, vectors: &VectorSet) -> Result<Vec<u32>> {
        let rows: Vec<&[f32]> = vectors.rows().collect();
        self.insert_batch_rows(&rows)
    }

    fn insert_batch_rows(&mut self, rows: &[&[f32]]) -> Result<Vec<u32>> {
        let dim = self.index.dim();
        // Validate the whole batch before journalling any of it: a rejected
        // row must leave neither a journal record nor an applied row.
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(Error::DimensionMismatch {
                    expected: dim,
                    found: row.len(),
                });
            }
            check_finite_row(i, row)?;
        }
        let span = rows.len() as u64;
        if u64::from(self.index.next_id) + span > u64::from(u32::MAX) {
            return Err(Error::InvalidParameter(
                "u32 id space exhausted; compact and re-shard".to_string(),
            ));
        }
        debug_assert!(5 + dim as u64 * 4 <= MAX_WAL_RECORD);
        // Journal every row first …
        let mut ids = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let id = self.index.next_id + i as u32;
            self.wal.append(&encode_op(&MutationOp::Insert {
                id,
                vector: row.to_vec(),
            }))?;
            ids.push(id);
        }
        // … make the whole batch durable with one fsync …
        self.wal.sync()?;
        // … and only then apply (acknowledged = durable).
        for (&id, row) in ids.iter().zip(rows) {
            self.index.apply_insert(id, row)?;
            self.index.applied_seq += 1;
        }
        self.refresh_gauges();
        Ok(ids)
    }

    /// Tombstones one id: journal, fsync, apply.  Returns `true` when the id
    /// was live.
    pub fn delete(&mut self, id: u32) -> Result<bool> {
        Ok(self.delete_batch(&[id])?[0])
    }

    /// Tombstones a batch of ids under one fsync.  Every request is
    /// journalled (deletes are idempotent on replay, so journalling a no-op
    /// is harmless); the returned flags say which ids were actually live.
    pub fn delete_batch(&mut self, ids: &[u32]) -> Result<Vec<bool>> {
        for &id in ids {
            self.wal.append(&encode_op(&MutationOp::Delete { id }))?;
        }
        self.wal.sync()?;
        let mut was_live = Vec::with_capacity(ids.len());
        for &id in ids {
            was_live.push(self.index.delete(id));
            self.index.applied_seq += 1;
        }
        self.refresh_gauges();
        Ok(was_live)
    }

    /// Checkpointed compaction: folds the mutable tier into the next clean
    /// generation, atomically publishes it, then truncates the journal.
    /// Returns the new generation (the caller hot-swaps its serving handle).
    ///
    /// Crash safety: the checkpoint save is atomic (old or new generation,
    /// never torn) and carries the `applied_seq` cursor; the journal
    /// truncation is an atomic replacement.  A crash between the two leaves
    /// the *new* checkpoint with the *old* journal — recovery skips every
    /// record below the cursor, so nothing double-applies.
    pub fn compact(&mut self) -> Result<()> {
        let started = self
            .obs
            .compact_nanos
            .is_enabled()
            .then(std::time::Instant::now);
        let mut next = self.index.compact()?;
        // Everything journalled so far is applied (journal → fsync → apply
        // is synchronous), so the cursor is exactly the next sequence.
        debug_assert_eq!(self.index.applied_seq, self.wal.next_seq());
        next.applied_seq = self.index.applied_seq;
        next.save(&self.index_path)?;
        self.wal.reset(next.applied_seq)?;
        self.index = next;
        if let Some(t) = started {
            self.obs.compact_nanos.record_duration(t.elapsed());
        }
        self.refresh_gauges();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IvfSearchParams;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gkm-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_index() -> IvfIndex {
        let data = VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![9.0, 9.0],
            vec![0.0, 1.0],
            vec![9.0, 8.0],
        ])
        .unwrap();
        let centroids = VectorSet::from_rows(vec![vec![0.0, 0.5], vec![9.0, 8.5]]).unwrap();
        IvfIndex::build(&data, &centroids, &[0, 1, 0, 1]).unwrap()
    }

    #[test]
    fn op_encoding_round_trips_and_rejects_garbage() {
        let ops = vec![
            MutationOp::Insert {
                id: 7,
                vector: vec![1.5, -2.0],
            },
            MutationOp::Delete { id: 3 },
        ];
        for op in &ops {
            assert_eq!(&decode_op(&encode_op(op), 2).unwrap(), op);
        }
        assert!(decode_op(&[], 2).unwrap_err().is_corruption());
        assert!(decode_op(&[9, 0, 0, 0, 0], 2).unwrap_err().is_corruption());
        // insert body sized for the wrong dim
        let body = encode_op(&ops[0]);
        assert!(decode_op(&body, 3).unwrap_err().is_corruption());
    }

    #[test]
    fn acknowledged_mutations_survive_reopen() {
        let dir = tempdir("reopen");
        let path = dir.join("serving.ivf");
        let mut store = MutableStore::create(&path, small_index()).unwrap();
        let a = store.insert(&[0.2, 0.8]).unwrap();
        let ids = store
            .insert_batch(&VectorSet::from_rows(vec![vec![8.8, 8.8], vec![0.1, 0.1]]).unwrap())
            .unwrap();
        assert_eq!((a, ids.as_slice()), (4, &[5, 6][..]));
        assert!(store.delete(1).unwrap());
        assert!(!store.delete(1).unwrap());
        let live = store.index().live_len();
        drop(store);

        let (store, report) = MutableStore::open(&path).unwrap();
        assert_eq!(report.replayed, 5); // 3 inserts + 2 deletes
        assert_eq!(report.skipped, 0);
        assert!(!report.torn_tail_dropped);
        assert_eq!(store.index().live_len(), live);
        assert!(store.index().is_live(a));
        assert!(!store.index().is_live(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_truncates_journal_and_preserves_answers() {
        let dir = tempdir("compact");
        let path = dir.join("serving.ivf");
        let mut store = MutableStore::create(&path, small_index()).unwrap();
        store.insert(&[0.2, 0.8]).unwrap();
        store.delete(0).unwrap();
        let params = IvfSearchParams::default().nprobe(2).threads(1);
        let before = store.index().search(&[0.0, 0.5], 3, params);

        store.compact().unwrap();
        assert!(!store.index().is_dirty());
        assert_eq!(store.index().search(&[0.0, 0.5], 3, params), before);

        // Reopen: the journal is empty, the checkpoint carries everything.
        drop(store);
        let (store, report) = MutableStore::open(&path).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(store.index().search(&[0.0, 0.5], 3, params), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_checkpoint_and_truncation_does_not_double_apply() {
        let dir = tempdir("cursor");
        let path = dir.join("serving.ivf");
        let mut store = MutableStore::create(&path, small_index()).unwrap();
        store.insert(&[0.2, 0.8]).unwrap();
        store.delete(3).unwrap();
        // Simulate the crash window: keep the pre-truncation journal bytes,
        // compact (checkpoint + truncate), then put the old journal back.
        let old_journal = std::fs::read(wal_path(&path)).unwrap();
        store.compact().unwrap();
        let expected_live = store.index().live_len();
        let expected_next = store.index().next_id();
        drop(store);
        std::fs::write(wal_path(&path), &old_journal).unwrap();

        let (store, report) = MutableStore::open(&path).unwrap();
        assert_eq!(report.replayed, 0, "cursor must skip folded records");
        assert_eq!(report.skipped, 2);
        assert_eq!(store.index().live_len(), expected_live);
        assert_eq!(store.index().next_id(), expected_next);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn instruments_track_wal_mutations_and_compaction() {
        let dir = tempdir("obs");
        let path = dir.join("serving.ivf");
        let handle = obs::ObsHandle::enabled();
        let mut store = MutableStore::create(&path, small_index()).unwrap();
        store.set_obs(&handle);

        store
            .insert_batch(&VectorSet::from_rows(vec![vec![0.5, 0.5], vec![8.5, 8.5]]).unwrap())
            .unwrap();
        store.delete(0).unwrap();

        let gauge = |snap: &obs::RegistrySnapshot, name: &str| match snap.get(name) {
            Some(e) => match e.value {
                obs::MetricValue::Gauge(v) => v,
                _ => panic!("{name} has the wrong kind"),
            },
            None => panic!("{name} not registered"),
        };
        let snap = handle.snapshot().unwrap();
        // 2 inserts + 1 delete journalled, one fsync per mutation call.
        assert_eq!(snap.histogram("wal_append_nanos").unwrap().count(), 3);
        assert_eq!(snap.histogram("wal_fsync_nanos").unwrap().count(), 2);
        assert_eq!(gauge(&snap, "wal_unsynced_records"), 0, "all acked");
        assert_eq!(gauge(&snap, "index_append_rows"), 2);
        assert_eq!(gauge(&snap, "index_tombstoned_rows"), 1);
        assert_eq!(gauge(&snap, "index_live_rows"), 5);

        store.compact().unwrap();
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.histogram("compaction_nanos").unwrap().count(), 1);
        assert_eq!(gauge(&snap, "index_append_rows"), 0, "folded into panels");
        assert_eq!(gauge(&snap, "index_tombstoned_rows"), 0, "reclaimed");
        assert_eq!(gauge(&snap, "index_live_rows"), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_from_the_future_is_rejected() {
        let dir = tempdir("future");
        let path = dir.join("serving.ivf");
        let store = MutableStore::create(&path, small_index()).unwrap();
        drop(store);
        // Replace the journal with one that starts beyond the checkpoint.
        let mut w = WalWriter::create(wal_path(&path), 2, 40).unwrap();
        w.append(&encode_op(&MutationOp::Delete { id: 0 })).unwrap();
        w.sync().unwrap();
        drop(w);
        let err = MutableStore::open(&path).unwrap_err();
        assert!(err.is_corruption(), "unexpected class: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_after_acked_writes_loses_nothing_acknowledged() {
        let dir = tempdir("torn");
        let path = dir.join("serving.ivf");
        let mut store = MutableStore::create(&path, small_index()).unwrap();
        store.insert(&[0.3, 0.3]).unwrap(); // acked
        drop(store);
        // A torn unacknowledged append at the tail.
        let wal_file = wal_path(&path);
        let mut bytes = std::fs::read(&wal_file).unwrap();
        bytes.extend_from_slice(&[42u8; 5]);
        std::fs::write(&wal_file, &bytes).unwrap();

        let (store, report) = MutableStore::open(&path).unwrap();
        assert!(report.torn_tail_dropped);
        assert_eq!(report.replayed, 1);
        assert!(store.index().is_live(4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
