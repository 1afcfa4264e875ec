//! The durable store: WAL + snapshot, glued by one recovery procedure.
//!
//! # Commit protocol
//!
//! * An append checks the record against the in-memory state (the same
//!   transition function recovery uses), frames it into the WAL, and
//!   applies it to memory only once the write (and, for a synced append,
//!   the fsync) succeeded, so a failed append changes nothing a reader
//!   sees. A record is *committed* once its frame is fully on stable
//!   storage, and
//!   there are exactly two ways to get it there:
//!   [`DurableStore::append_synced`] syncs before it returns (forced), and
//!   [`DurableStore::append_nosync`] leaves the sync to the next
//!   [`DurableStore::sync`] (group commit). The store bounds that queue
//!   itself: a group-commit append that finds [`COMMIT_QUEUE_LIMIT`]
//!   records waiting syncs them along with itself, so no caller needs a
//!   fallback and memory ahead of disk never outgrows the bound.
//! * A snapshot is written to `snapshot.tmp`, synced, then renamed onto
//!   `snapshot.bin` — the rename is the atomic commit point. Only after
//!   the rename does compaction truncate the WAL: at every instant the
//!   disk holds either the old snapshot plus a WAL covering everything
//!   since it, or the new snapshot (plus a WAL whose records it already
//!   covers, which replay skips by sequence number).
//!
//! # Recovery
//!
//! [`DurableStore::open`] loads the snapshot, replays the WAL's valid
//! prefix (skipping records the snapshot already covers), then writes a
//! *fresh* snapshot and compacts. Recovery never truncates the WAL before
//! the new snapshot has landed, so a crash anywhere inside recovery is
//! itself recoverable — the crash-matrix tests enumerate those points too.
//!
//! If any write fails mid-operation (including an injected crash), the
//! store marks itself broken and refuses further appends: the disk may
//! then hold part of a frame, or lack group-committed records memory
//! already shows, and the only safe continuation is to reopen and
//! recover.

use crate::record::Record;
use crate::state::{MetaInfo, StoreState};
use crate::vfs::{NullVfs, Vfs};
use crate::wal::{self, Wal, WAL_MAGIC};
use crate::StoreError;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// The current snapshot file name.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The snapshot staging file (atomically renamed onto [`SNAPSHOT_FILE`]).
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Identifies a snapshot file (and its format revision). The magic is
/// followed by one frame in the WAL layout (`len`, `crc`, body), parsed by
/// [`wal::split_frame`] with no bound beyond `u32`. A revision-1
/// (`PUFATTS1`) snapshot, whose devices still held an event tail, is
/// refused as corrupt.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PUFATTS2";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Records a group-commit append may find awaiting their sync before it
/// commits them itself: the append that finds this many queued writes its
/// frame and then syncs, exactly as [`DurableStore::append_synced`] does.
/// Memory ahead of disk is bounded by the store, whatever its caller.
pub const COMMIT_QUEUE_LIMIT: u32 = 4096;

/// Durability counters, surfaced in fleet snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes currently in the WAL (magic + frames, including unsynced).
    pub wal_bytes: u64,
    /// Records appended (and committed) by this process.
    pub records_appended: u64,
    /// Records replayed from the WAL at open.
    pub records_replayed: u64,
    /// Snapshots written (open writes one; checkpoints add more).
    pub snapshots_written: u64,
    /// Opens that found (and discarded) a torn or corrupted WAL tail.
    pub torn_tails_recovered: u64,
    /// Shards backing these counters (0 for a plain single store — the
    /// shard-health fields below are then meaningless and not displayed).
    pub shards_total: u32,
    /// Shards currently Degraded (read-only after a storage failure).
    pub shards_degraded: u32,
    /// Shards currently Failed (a reopen attempt also failed).
    pub shards_failed: u32,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wal {} B, {} appended, {} replayed, {} snapshots, {} torn tails recovered",
            self.wal_bytes,
            self.records_appended,
            self.records_replayed,
            self.snapshots_written,
            self.torn_tails_recovered
        )?;
        if self.shards_total > 0 {
            let sick = self.shards_degraded + self.shards_failed;
            write!(f, ", {}/{} shards healthy", self.shards_total - sick, self.shards_total)?;
            if sick > 0 {
                write!(f, " ({} degraded, {} failed)", self.shards_degraded, self.shards_failed)?;
            }
        }
        Ok(())
    }
}

struct Inner {
    vfs: Arc<dyn Vfs>,
    wal: Wal,
    state: StoreState,
    history_capacity: usize,
    stats: StoreStats,
    unsynced: u32,
    broken: bool,
    scratch: Vec<u8>,
    wal_path: String,
    snapshot_path: String,
    snapshot_tmp: String,
}

/// A durable verifier-state store over a [`Vfs`].
pub struct DurableStore {
    inner: Mutex<Inner>,
}

fn read_snapshot(vfs: &dyn Vfs, history_capacity: usize, path: &str) -> Result<StoreState, StoreError> {
    let Some(bytes) = vfs.read(path)? else {
        return Ok(StoreState::new(history_capacity));
    };
    // The snapshot only ever appears via atomic rename of a synced temp
    // file, so damage here is real corruption, never a torn write — the
    // fail-safe response is to stop, not to silently restart the campaign.
    let frame = bytes
        .strip_prefix(&SNAPSHOT_MAGIC)
        .ok_or_else(|| StoreError::Corrupt("snapshot header invalid".into()))?;
    let (body, end) = wal::split_frame(frame, u32::MAX).map_err(|e| StoreError::Corrupt(format!("snapshot {e}")))?;
    if end != frame.len() {
        return Err(StoreError::Corrupt(format!("{} trailing bytes after snapshot", frame.len() - end)));
    }
    StoreState::decode(body)
}

fn write_snapshot(vfs: &dyn Vfs, state: &StoreState, tmp: &str, path: &str) -> Result<(), StoreError> {
    let mut body = Vec::new();
    state.encode(&mut body);
    let mut file = Vec::with_capacity(SNAPSHOT_MAGIC.len() + wal::FRAME_HEADER + body.len());
    file.extend_from_slice(&SNAPSHOT_MAGIC);
    wal::encode_frame(&body, &mut file);
    vfs.truncate(tmp, &file)?;
    vfs.sync(tmp)?;
    // The commit point: after this rename the new snapshot is the
    // authoritative state; before it the old snapshot (or none) is.
    vfs.rename(tmp, path)
}

/// The shared recovery procedure: replay snapshot + valid WAL prefix,
/// write a fresh snapshot, compact, and hand back a fresh WAL handle.
/// Used by [`DurableStore::open_at`] and [`DurableStore::reopen`] — the
/// returned stats are the *deltas* of this recovery run.
fn recover(
    vfs: &Arc<dyn Vfs>,
    history_capacity: usize,
    wal_path: &str,
    snapshot_path: &str,
    snapshot_tmp: &str,
) -> Result<(StoreState, Wal, StoreStats), StoreError> {
    let mut stats = StoreStats::default();
    let mut state = read_snapshot(&**vfs, history_capacity, snapshot_path)?;
    // Stream the WAL's valid prefix frame by frame: one borrowed
    // payload is alive at a time, so recovery memory is the image
    // plus the materialised state — never a second copy of every
    // record, which matters when a million-device campaign reopens.
    let image = vfs.read(wal_path)?;
    let mut frames = wal::frames(image.as_deref())?;
    for payload in frames.by_ref() {
        let (seq, record) = Record::decode(payload)?;
        if seq <= state.last_seq {
            continue; // the snapshot already covers it
        }
        state.apply(seq, &record)?;
        stats.records_replayed += 1;
    }
    if frames.is_torn() {
        stats.torn_tails_recovered += 1;
    }
    let _ = frames;
    drop(image);
    // Rebuild: snapshot first (atomic), truncate the WAL only after.
    write_snapshot(&**vfs, &state, snapshot_tmp, snapshot_path)?;
    stats.snapshots_written += 1;
    let wal = Wal::create(Arc::clone(vfs), wal_path)?;
    stats.wal_bytes = wal.bytes();
    Ok((state, wal, stats))
}

impl DurableStore {
    /// Opens (recovering if needed) a store over `vfs`, retaining
    /// `history_capacity` outcomes per device.
    ///
    /// Replays the snapshot and the WAL's valid prefix, counts any torn
    /// tail, then writes a fresh snapshot and compacts the WAL.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the snapshot or a checksum-valid WAL
    /// record is structurally invalid; I/O errors from the backend.
    pub fn open(vfs: Arc<dyn Vfs>, history_capacity: usize) -> Result<Self, StoreError> {
        Self::open_at(vfs, history_capacity, "")
    }

    /// Opens a store whose files live under `prefix` (e.g. `shard-003/`) —
    /// how a sharded store keeps many independent WAL + snapshot pairs in
    /// one directory. An empty prefix is the classic single-store layout.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::open`].
    pub fn open_at(vfs: Arc<dyn Vfs>, history_capacity: usize, prefix: &str) -> Result<Self, StoreError> {
        let wal_path = format!("{prefix}{WAL_FILE}");
        let snapshot_path = format!("{prefix}{SNAPSHOT_FILE}");
        let snapshot_tmp = format!("{prefix}{SNAPSHOT_TMP}");
        let (state, wal, stats) = recover(&vfs, history_capacity, &wal_path, &snapshot_path, &snapshot_tmp)?;
        Ok(DurableStore {
            inner: Mutex::new(Inner {
                vfs,
                wal,
                state,
                history_capacity,
                stats,
                unsynced: 0,
                broken: false,
                scratch: Vec::new(),
                wal_path,
                snapshot_path,
                snapshot_tmp,
            }),
        })
    }

    /// An empty store over [`NullVfs`], retaining `history_capacity`
    /// outcomes per device: the state of a fresh [`DurableStore::open`]
    /// over it, reached without writing the snapshot and WAL header that
    /// `NullVfs` would drop. Appends still run the whole commit path.
    pub fn in_memory(history_capacity: usize) -> Self {
        let vfs: Arc<dyn Vfs> = Arc::new(NullVfs);
        let wal = Wal::opened(Arc::clone(&vfs), WAL_FILE, WAL_MAGIC.len() as u64);
        DurableStore {
            inner: Mutex::new(Inner {
                vfs,
                wal,
                state: StoreState::new(history_capacity),
                history_capacity,
                stats: StoreStats { wal_bytes: WAL_MAGIC.len() as u64, ..StoreStats::default() },
                unsynced: 0,
                broken: false,
                scratch: Vec::new(),
                wal_path: WAL_FILE.into(),
                snapshot_path: SNAPSHOT_FILE.into(),
                snapshot_tmp: SNAPSHOT_TMP.into(),
            }),
        }
    }

    /// Re-runs recovery in place on the same backend and paths — the
    /// operator path out of [`StoreError::Broken`].
    ///
    /// A broken handle means the in-memory state may be ahead of the disk;
    /// in particular, after a *failed fsync* the kernel may have discarded
    /// the dirty pages while clearing the error, so retrying the fsync on
    /// the same file would report success for bytes that never landed (the
    /// fsyncgate failure mode). This store therefore never re-syncs a
    /// poisoned handle. `reopen` instead discards the in-memory state,
    /// re-reads what is *actually* durable (snapshot + valid WAL prefix on
    /// a fresh handle), writes a fresh snapshot, and un-breaks the store.
    /// Records acknowledged as committed are preserved by construction;
    /// records lost to the failure were never acknowledged as durable.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::open`] — if the backend is still failing, the
    /// store stays broken and the error is returned.
    pub fn reopen(&self) -> Result<(), StoreError> {
        let mut inner = lock(&self.inner);
        let (state, wal, fresh) =
            recover(&inner.vfs, inner.history_capacity, &inner.wal_path, &inner.snapshot_path, &inner.snapshot_tmp)?;
        inner.state = state;
        inner.wal = wal;
        // Lifetime counters accumulate across the reopen; point-in-time
        // gauges (wal_bytes) take the recovered value.
        inner.stats.records_replayed += fresh.records_replayed;
        inner.stats.snapshots_written += fresh.snapshots_written;
        inner.stats.torn_tails_recovered += fresh.torn_tails_recovered;
        inner.stats.wal_bytes = fresh.wal_bytes;
        inner.unsynced = 0;
        inner.broken = false;
        Ok(())
    }

    /// Checks, writes and applies `record`; with `force`, or when
    /// [`COMMIT_QUEUE_LIMIT`] records already await their sync, the frame
    /// is synced before it is applied, otherwise a group committer (or an
    /// explicit sync) owns the fsync. A failed write or sync breaks the
    /// store and changes nothing in memory.
    fn append_inner(&self, record: &Record, force: bool) -> Result<u64, StoreError> {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        if inner.broken {
            return Err(StoreError::Broken);
        }
        let sync = force || inner.unsynced >= COMMIT_QUEUE_LIMIT;
        let seq = inner.state.last_seq + 1;
        // Check before touching the disk: an illegal record must never
        // reach the WAL, where replay would refuse it forever.
        let checked = inner.state.check(seq, record)?;
        let mut payload = std::mem::take(&mut inner.scratch);
        payload.clear();
        record.encode(seq, &mut payload);
        let write = inner.wal.append(&payload);
        inner.scratch = payload;
        if let Err(e) = write {
            inner.broken = true; // the disk may hold part of the frame: reopen to recover
            return Err(e);
        }
        inner.unsynced += 1;
        if sync {
            if let Err(e) = inner.wal.sync() {
                inner.broken = true;
                return Err(e);
            }
            inner.unsynced = 0;
        }
        // Commit only now: no reader sees a record its write (or, when
        // synced, its fsync) failed to land.
        checked.commit();
        inner.stats.records_appended += 1;
        inner.stats.wal_bytes = inner.wal.bytes();
        Ok(seq)
    }

    /// Appends a record without syncing — the group-commit path. The
    /// record is acknowledged once it is in the OS write queue; it
    /// *commits* when the next [`DurableStore::sync`] (typically a
    /// committer thread on a latency bound) returns. A crash before that
    /// sync loses the record; group-commit callers must be able to re-run
    /// the work that produced it. An append that finds
    /// [`COMMIT_QUEUE_LIMIT`] records queued syncs them along with itself,
    /// so the queue never grows past the bound. Returns the record's
    /// sequence number.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::append_synced`].
    pub fn append_nosync(&self, record: &Record) -> Result<u64, StoreError> {
        self.append_inner(record, false)
    }

    /// Appends a record and syncs unconditionally: when this returns the
    /// record (and every unsynced one before it) is committed. Decisions
    /// another party may already have observed — campaign identity,
    /// admissions, operator transitions — take this path. Returns the
    /// record's sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::IllegalTransition`] / [`StoreError::Corrupt`] if the
    /// record is invalid against the current state (nothing is written);
    /// [`StoreError::Broken`] once any earlier write failed.
    pub fn append_synced(&self, record: &Record) -> Result<u64, StoreError> {
        self.append_inner(record, true)
    }

    /// Flushes any batched appends to stable storage.
    ///
    /// A failed flush permanently poisons this handle (fsyncgate
    /// semantics): the kernel may clear the error state while discarding
    /// the dirty pages, so a retried fsync on the same file could claim
    /// durability for bytes that never landed. The store never retries —
    /// every later call reports [`StoreError::Broken`] until
    /// [`DurableStore::reopen`] re-reads what is actually durable.
    ///
    /// # Errors
    ///
    /// I/O errors from the backend; [`StoreError::Broken`] after a failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut inner = lock(&self.inner);
        if inner.broken {
            return Err(StoreError::Broken);
        }
        if inner.unsynced > 0 {
            if let Err(e) = inner.wal.sync() {
                inner.broken = true;
                return Err(e);
            }
            inner.unsynced = 0;
        }
        Ok(())
    }

    /// Writes a fresh snapshot and compacts the WAL (bounding recovery
    /// time and disk use on long campaigns).
    ///
    /// # Errors
    ///
    /// I/O errors from the backend; [`StoreError::Broken`] after a failure.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let mut inner = lock(&self.inner);
        if inner.broken {
            return Err(StoreError::Broken);
        }
        let result = (|| {
            write_snapshot(&*inner.vfs, &inner.state, &inner.snapshot_tmp, &inner.snapshot_path)?;
            Wal::create(Arc::clone(&inner.vfs), &inner.wal_path)
        })();
        match result {
            Ok(wal) => {
                inner.wal = wal;
                inner.unsynced = 0;
                inner.stats.snapshots_written += 1;
                inner.stats.wal_bytes = inner.wal.bytes();
                Ok(())
            }
            Err(e) => {
                inner.broken = true;
                Err(e)
            }
        }
    }

    /// A copy of the current materialised state.
    pub fn state(&self) -> StoreState {
        lock(&self.inner).state.clone()
    }

    /// Runs `f` against the materialised state under the store lock —
    /// the clone-free way to walk a million devices at restore time.
    pub fn with_state<T>(&self, f: impl FnOnce(&StoreState) -> T) -> T {
        f(&lock(&self.inner).state)
    }

    /// Records appended but not yet synced (the group-commit queue depth).
    pub fn unsynced(&self) -> u32 {
        lock(&self.inner).unsynced
    }

    /// Campaign identity, if recorded.
    pub fn meta(&self) -> Option<MetaInfo> {
        lock(&self.inner).state.meta
    }

    /// Durability counters.
    pub fn stats(&self) -> StoreStats {
        lock(&self.inner).stats
    }

    /// Whether a write failure has poisoned this handle (reopen to
    /// recover).
    pub fn is_broken(&self) -> bool {
        lock(&self.inner).broken
    }
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("DurableStore")
            .field("last_seq", &inner.state.last_seq)
            .field("stats", &inner.stats)
            .field("broken", &inner.broken)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::record::StoredStatus;
    use crate::vfs::{SimVfs, TornMode};

    fn open_sim(vfs: &SimVfs) -> DurableStore {
        DurableStore::open(Arc::new(vfs.clone()), 64).unwrap()
    }

    #[test]
    fn fresh_open_then_reopen_replays_nothing() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        assert_eq!(store.state().last_seq, 0);
        drop(store);
        let store = open_sim(&vfs);
        assert_eq!(store.stats().records_replayed, 0);
        assert_eq!(store.stats().torn_tails_recovered, 0);
    }

    #[test]
    fn appended_records_survive_reopen_via_snapshot() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        store.append_synced(&Record::DeviceEnrolled { id: 4 }).unwrap();
        store.append_synced(&Record::DeviceEnrolled { id: 5 }).unwrap();
        store
            .append_synced(&Record::StatusChanged { id: 5, status: StoredStatus::Quarantined })
            .unwrap();
        assert_eq!(store.stats().records_appended, 3);
        drop(store);
        let store = open_sim(&vfs);
        // Replayed from the WAL…
        assert_eq!(store.stats().records_replayed, 3);
        assert_eq!(store.state().devices[&5].status, StoredStatus::Quarantined);
        assert_eq!(store.state().devices[&4].status, StoredStatus::Active);
        drop(store);
        // …then covered by the open-time snapshot: the third open replays
        // nothing because compaction emptied the WAL.
        let store = open_sim(&vfs);
        assert_eq!(store.stats().records_replayed, 0);
        assert_eq!(store.state().devices[&5].status, StoredStatus::Quarantined);
    }

    #[test]
    fn unsynced_tail_is_recovered_and_counted() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        store.append_nosync(&Record::DeviceEnrolled { id: 1 }).unwrap();
        store.sync().unwrap();
        // Never synced: a power cut with a torn tail half-writes its frame.
        store.append_nosync(&Record::DeviceEnrolled { id: 2 }).unwrap();
        let disk = vfs.power_cut(TornMode::Torn);
        let store = open_sim(&disk);
        assert_eq!(store.stats().records_replayed, 1, "only the committed record");
        assert_eq!(store.stats().torn_tails_recovered, 1);
        assert!(store.state().devices.contains_key(&1));
        assert!(!store.state().devices.contains_key(&2));
    }

    #[test]
    fn illegal_records_never_reach_the_wal() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        store.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap();
        let err = store.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap_err();
        assert!(matches!(err, StoreError::IllegalTransition { id: 1, .. }));
        // The refused record left no trace: reopen replays only the good one.
        drop(store);
        let store = open_sim(&vfs);
        assert_eq!(store.stats().records_replayed, 1);
    }

    #[test]
    fn write_failure_breaks_the_handle() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        store.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap();
        let ops = vfs.ops();
        vfs.set_crash_at(Some(ops)); // next mutating op dies
        assert!(matches!(store.append_synced(&Record::DeviceEnrolled { id: 2 }), Err(StoreError::Crashed)));
        assert!(store.is_broken());
        assert!(matches!(store.append_synced(&Record::DeviceEnrolled { id: 3 }), Err(StoreError::Broken)));
        assert!(matches!(store.sync(), Err(StoreError::Broken)));
        assert!(matches!(store.checkpoint(), Err(StoreError::Broken)));
    }

    #[test]
    fn fsync_failure_poisons_the_handle_until_reopen() {
        use crate::vfs::{ErrorInjection, InjectedErrorKind};
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        store.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap();
        // The next WAL append lands in the cache, but its fsync fails.
        vfs.inject(ErrorInjection::at_op(vfs.ops() + 1, InjectedErrorKind::SyncFail));
        assert!(matches!(store.append_synced(&Record::DeviceEnrolled { id: 2 }), Err(StoreError::Io(_))));
        // fsyncgate: the handle is poisoned — no retry ever re-syncs it.
        assert!(store.is_broken());
        assert!(matches!(store.sync(), Err(StoreError::Broken)));
        // reopen re-reads what is actually durable on a fresh handle. The
        // record whose fsync failed was never acknowledged durable; it may
        // or may not survive (here the cache still holds it, so replay
        // finds it — durable now, which is sound either way).
        store.reopen().unwrap();
        assert!(!store.is_broken());
        assert!(store.state().devices.contains_key(&1));
        // The store is writable again after recovery.
        store.append_synced(&Record::DeviceEnrolled { id: 7 }).unwrap();
        assert!(store.state().devices.contains_key(&7));
    }

    #[test]
    fn a_failed_write_or_fsync_changes_nothing_in_memory() {
        use crate::record::{CursorInfo, OutcomeRec};
        use crate::vfs::{ErrorInjection, InjectedErrorKind, TORN_MODES};
        let outcome = OutcomeRec {
            accepted: true,
            response_ok: true,
            time_ok: true,
            timed_out: false,
            attempts: 1,
            elapsed_bits: 0.01f64.to_bits(),
            retried: 0,
            dropped: 0,
            lost: false,
            latency_slot: 13,
            crp_hits: 56,
            crp_misses: 8,
        };
        let cursor = CursorInfo {
            session_pos: 4,
            noise_pos: 64,
            noise_evals: 4,
            tamper_parity: false,
        };
        let records = [
            Record::DeviceEnrolled { id: 2 },
            Record::SessionClosed {
                id: 1,
                outcome,
                status: StoredStatus::Active,
                fails: 0,
                succs: 1,
                cursor,
            },
            Record::StatusChanged { id: 1, status: StoredStatus::Revoked },
        ];
        // The frame's write fails (the op after the last), or the write
        // lands and the fsync after it fails; a group-commit append issues
        // no fsync of its own.
        let failures = [
            (0, InjectedErrorKind::Eio, false),
            (0, InjectedErrorKind::NoSpace, false),
            (0, InjectedErrorKind::Eio, true),
            (0, InjectedErrorKind::NoSpace, true),
            (1, InjectedErrorKind::SyncFail, true),
        ];
        for mode in TORN_MODES {
            for record in &records {
                for (offset, kind, synced) in failures {
                    let case = format!("{kind:?} on a synced={synced} append of {record:?}, then a {mode:?} power cut");
                    let vfs = SimVfs::new();
                    let store = open_sim(&vfs);
                    store.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap();
                    let before = store.state();
                    vfs.inject(ErrorInjection::at_op(vfs.ops() + offset, kind));
                    let append = if synced { store.append_synced(record) } else { store.append_nosync(record) };
                    assert!(append.is_err() && store.is_broken(), "{case}: the append fails");
                    assert_eq!(store.state(), before, "{case}: device, counters and last_seq stay put");
                    // What the disk kept is the state before, or, when only
                    // the fsync failed, possibly the record too — never more.
                    let mut after = before.clone();
                    after.apply(before.last_seq + 1, record).unwrap();
                    let recovered = open_sim(&vfs.power_cut(mode)).state();
                    if kind == InjectedErrorKind::SyncFail {
                        assert!(recovered == before || recovered == after, "{case}: recovered {recovered:?}");
                    } else {
                        assert_eq!(recovered, before, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn reopen_on_a_still_sick_disk_stays_broken() {
        use crate::vfs::{ErrorInjection, InjectedErrorKind};
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        store.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap();
        vfs.inject(ErrorInjection::on_prefix("", InjectedErrorKind::Eio).sticky());
        assert!(store.append_synced(&Record::DeviceEnrolled { id: 2 }).is_err());
        assert!(store.is_broken());
        assert!(store.reopen().is_err(), "recovery on a dead disk must fail");
        assert!(store.is_broken(), "a failed reopen leaves the handle poisoned");
        // Disk replaced: recovery succeeds and the committed record is back.
        vfs.clear_injections("");
        store.reopen().unwrap();
        assert!(store.state().devices.contains_key(&1));
    }

    #[test]
    fn checkpoint_compacts_the_wal() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        for id in 0..10 {
            store.append_synced(&Record::DeviceEnrolled { id }).unwrap();
        }
        let before = store.stats().wal_bytes;
        store.checkpoint().unwrap();
        let after = store.stats().wal_bytes;
        assert!(after < before, "compaction must shrink the WAL ({before} -> {after})");
        assert_eq!(after, wal::WAL_MAGIC.len() as u64);
        drop(store);
        let store = open_sim(&vfs);
        assert_eq!(store.stats().records_replayed, 0, "snapshot covers everything");
        assert_eq!(store.state().devices.len(), 10);
    }

    #[test]
    fn a_full_commit_queue_commits_with_the_next_append() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        for id in 0..COMMIT_QUEUE_LIMIT {
            store.append_nosync(&Record::DeviceEnrolled { id }).unwrap();
        }
        assert_eq!(store.unsynced(), COMMIT_QUEUE_LIMIT);
        // Unsynced group-commit records are volatile: a power cut that
        // drops the cache loses the whole unsynced suffix below the bound.
        assert_eq!(open_sim(&vfs.power_cut(TornMode::Drop)).stats().records_replayed, 0);
        // The append that finds the queue full writes its frame and then
        // syncs, committing every queued record along with itself.
        let ops = vfs.ops();
        store.append_nosync(&Record::DeviceEnrolled { id: COMMIT_QUEUE_LIMIT }).unwrap();
        assert_eq!(vfs.ops() - ops, 2, "one write and one fsync");
        assert_eq!(store.unsynced(), 0);
        // The next append queues again, and is the only record a cut loses.
        store
            .append_nosync(&Record::DeviceEnrolled { id: COMMIT_QUEUE_LIMIT + 1 })
            .unwrap();
        assert_eq!(store.unsynced(), 1);
        let disk = vfs.power_cut(TornMode::Drop);
        let store = open_sim(&disk);
        assert_eq!(store.stats().records_replayed, u64::from(COMMIT_QUEUE_LIMIT) + 1);
        assert!(store.state().devices.contains_key(&COMMIT_QUEUE_LIMIT));
        assert!(!store.state().devices.contains_key(&(COMMIT_QUEUE_LIMIT + 1)));
    }

    #[test]
    fn prefixed_stores_share_a_directory_without_interfering() {
        let vfs = SimVfs::new();
        let a = DurableStore::open_at(Arc::new(vfs.clone()), 64, "shard-000/").unwrap();
        let b = DurableStore::open_at(Arc::new(vfs.clone()), 64, "shard-001/").unwrap();
        a.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap();
        b.append_synced(&Record::DeviceEnrolled { id: 2 }).unwrap();
        b.checkpoint().unwrap();
        drop(a);
        drop(b);
        assert!(vfs.exists("shard-000/wal.log"));
        assert!(vfs.exists("shard-001/snapshot.bin"));
        let a = DurableStore::open_at(Arc::new(vfs.clone()), 64, "shard-000/").unwrap();
        let b = DurableStore::open_at(Arc::new(vfs.clone()), 64, "shard-001/").unwrap();
        assert!(a.state().devices.contains_key(&1));
        assert!(!a.state().devices.contains_key(&2));
        assert!(b.state().devices.contains_key(&2));
    }

    #[test]
    fn meta_round_trips_and_conflicts_are_refused() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        let meta = Record::Meta { config_hash: 7, devices: 3, sessions_per_device: 2, seed: 11 };
        store.append_synced(&meta).unwrap();
        assert_eq!(store.meta().unwrap().config_hash, 7);
        // Re-stating the same identity is idempotent; changing it is not.
        store.append_synced(&meta).unwrap();
        assert!(store
            .append_synced(&Record::Meta { config_hash: 8, devices: 3, sessions_per_device: 2, seed: 11 })
            .is_err());
        drop(store);
        let store = open_sim(&vfs);
        assert_eq!(store.meta().unwrap().seed, 11);
    }

    #[test]
    fn snapshot_corruption_is_fatal_not_silent() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs);
        store.append_synced(&Record::DeviceEnrolled { id: 1 }).unwrap();
        drop(store);
        // Flip one byte inside the (synced, atomically renamed) snapshot:
        // this is disk rot, not a torn write, and must stop recovery.
        let mut img = vfs.read(SNAPSHOT_FILE).unwrap().unwrap();
        let last = img.len() - 1;
        img[last] ^= 0x40;
        vfs.truncate(SNAPSHOT_FILE, &img).unwrap();
        vfs.sync(SNAPSHOT_FILE).unwrap();
        let err = DurableStore::open(Arc::new(vfs), 64).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
    }
}
