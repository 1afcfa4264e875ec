//! The sharded store: many independent WAL + snapshot pairs behind one
//! facade, with group commit and a background committer.
//!
//! # Why shard
//!
//! A single WAL serialises every fsync behind one file, and a single
//! snapshot rewrites the whole fleet's state on every checkpoint. For a
//! million-device campaign both become the bottleneck. Sharding by
//! device-id range gives each shard its own [`DurableStore`] (own WAL,
//! own snapshot, own compaction schedule) under one directory:
//!
//! ```text
//! state-dir/
//!   manifest.bin          "PUFATTM1" | version | shard_count | range_width | crc
//!   shard-000/wal.log
//!   shard-000/snapshot.bin
//!   shard-001/...
//! ```
//!
//! The manifest is written once at creation (temp file → fsync → rename,
//! like a snapshot) and is authoritative thereafter: reopening with
//! different options keeps the on-disk geometry, because a record's home
//! shard must never move between runs. A directory that holds a legacy
//! single-WAL layout (a root `wal.log` with no manifest) is refused as
//! corrupt rather than silently restarted.
//!
//! # Group commit
//!
//! [`ShardedStore::append`] validates, applies, and writes the frame but
//! does **not** fsync: records accumulate in the OS write queue until the
//! next [`ShardedStore::flush`] — typically issued by a [`Committer`]
//! thread every few milliseconds — commits the whole batch with one fsync
//! per dirty shard. A crash loses at most the unflushed tail, which the
//! deterministic campaign layer re-runs on resume; per-shard recovery
//! still yields exactly a committed prefix. When more records than
//! [`ShardedOptions::commit_queue_limit`] are awaiting their sync on one
//! shard, further appends fail with [`StoreError::Backpressure`] — a
//! typed, retryable refusal rather than unbounded memory-ahead-of-disk.

use crate::record::Record;
use crate::state::{Counters, DeviceState, MetaInfo, StoreState};
use crate::store::{DurableStore, StoreOptions, StoreStats};
use crate::vfs::Vfs;
use crate::wal::crc32;
use crate::StoreError;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The shard manifest file name inside a state directory.
pub const MANIFEST_FILE: &str = "manifest.bin";
/// The manifest staging file (atomically renamed onto [`MANIFEST_FILE`]).
pub const MANIFEST_TMP: &str = "manifest.tmp";
/// Identifies a shard manifest (and its format revision).
pub const MANIFEST_MAGIC: [u8; 8] = *b"PUFATTM1";
const MANIFEST_VERSION: u32 = 1;
/// Sanity bound on the shard count a manifest may declare.
pub const MAX_SHARDS: u32 = 1024;

/// Tuning knobs for a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Retained outcomes per device (mirrors the registry's bound).
    pub history_capacity: usize,
    /// Shards to create. Ignored on reopen — the manifest is
    /// authoritative once a directory exists.
    pub shards: u32,
    /// Consecutive device ids per range stripe: device `id` lives in
    /// shard `(id / range_width) % shards`. Ignored on reopen.
    pub range_width: u32,
    /// Per-shard bound on group-commit records awaiting their sync
    /// before [`ShardedStore::append`] refuses with
    /// [`StoreError::Backpressure`]. `0` means unbounded.
    pub commit_queue_limit: u32,
    /// Compact a shard (snapshot + truncate its WAL) once its WAL grows
    /// past this many bytes. `0` disables size-triggered compaction;
    /// [`ShardedStore::checkpoint`] still compacts on demand.
    pub compact_wal_bytes: u64,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            history_capacity: 64,
            shards: 8,
            range_width: 1024,
            commit_queue_limit: 4096,
            compact_wal_bytes: 16 << 20,
        }
    }
}

fn encode_manifest(shards: u32, range_width: u32) -> Vec<u8> {
    let mut out = MANIFEST_MAGIC.to_vec();
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&shards.to_le_bytes());
    out.extend_from_slice(&range_width.to_le_bytes());
    let crc = crc32(&out[MANIFEST_MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<(u32, u32), StoreError> {
    if bytes.len() != MANIFEST_MAGIC.len() + 16 || bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err(StoreError::Corrupt("shard manifest header invalid".into()));
    }
    let word = |i: usize| {
        let o = MANIFEST_MAGIC.len() + 4 * i;
        u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]])
    };
    if crc32(&bytes[MANIFEST_MAGIC.len()..MANIFEST_MAGIC.len() + 12]) != word(3) {
        return Err(StoreError::Corrupt("shard manifest checksum mismatch".into()));
    }
    if word(0) != MANIFEST_VERSION {
        return Err(StoreError::Corrupt(format!("shard manifest version {} unsupported", word(0))));
    }
    let (shards, range_width) = (word(1), word(2));
    if shards == 0 || shards > MAX_SHARDS || range_width == 0 {
        return Err(StoreError::Corrupt(format!(
            "shard manifest geometry implausible ({shards} shards, range width {range_width})"
        )));
    }
    Ok((shards, range_width))
}

/// One shard's position in the storage-failure state machine.
///
/// ```text
///             write/sync/checkpoint failure
///   Healthy ────────────────────────────────▶ Degraded (read-only)
///      ▲                                          │
///      │ reopen_shard succeeds          reopen_shard│fails
///      └──────────────────────────────────┬────────┘
///                                         ▼
///                                       Failed (reopen_shard may retry)
/// ```
///
/// A sick shard refuses appends with [`StoreError::ShardUnavailable`]
/// *before* anything is applied or written; reads (device lookups,
/// counters) keep serving the last recovered in-memory state. Healthy
/// shards are entirely unaffected. Recovery is operator-driven via
/// [`ShardedStore::reopen_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard accepts appends and commits normally.
    Healthy,
    /// A storage failure poisoned the shard's handle: it is read-only
    /// until an operator reopens it (fsyncgate semantics — the failed
    /// handle is never retried).
    Degraded,
    /// A reopen attempt also failed: the backing device is still sick.
    /// Another [`ShardedStore::reopen_shard`] may be tried once the disk
    /// is replaced.
    Failed,
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_FAILED: u8 = 2;

/// A device-id-range-sharded durable store: one [`DurableStore`] per
/// shard, a manifest pinning the geometry, and group-commit appends.
pub struct ShardedStore {
    shards: Vec<DurableStore>,
    /// Per-shard [`ShardHealth`], encoded as u8 — atomics so the hot
    /// append path checks health without adding a lock class.
    health: Vec<AtomicU8>,
    /// Commit-tick failures observed by the background committer (each
    /// one degraded a shard) — the committer reports, never swallows.
    commit_failures: AtomicU64,
    shard_count: u32,
    range_width: u32,
    compact_wal_bytes: u64,
}

impl ShardedStore {
    /// Opens (creating or recovering) a sharded store over `vfs`.
    ///
    /// On a fresh directory the manifest is committed first (temp file →
    /// fsync → rename), then each shard recovers independently. On
    /// reopen the manifest's geometry overrides `opts.shards` /
    /// `opts.range_width`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a damaged manifest, a legacy
    /// single-WAL layout (a root `wal.log` without a manifest — migrate
    /// it explicitly rather than letting a typo'd path restart a
    /// campaign), implausible geometry in `opts`, or shard-level
    /// corruption; I/O errors from the backend.
    pub fn open(vfs: Arc<dyn Vfs>, opts: ShardedOptions) -> Result<Self, StoreError> {
        let (shard_count, range_width) = match vfs.read(MANIFEST_FILE)? {
            Some(bytes) => decode_manifest(&bytes)?,
            None => {
                if vfs.exists(crate::store::WAL_FILE) || vfs.exists(crate::store::SNAPSHOT_FILE) {
                    return Err(StoreError::Corrupt(
                        "directory holds a legacy single-WAL store (no shard manifest); refusing to overlay a sharded layout on it"
                            .into(),
                    ));
                }
                if opts.shards == 0 || opts.shards > MAX_SHARDS || opts.range_width == 0 {
                    return Err(StoreError::Corrupt(format!(
                        "implausible shard geometry requested ({} shards, range width {})",
                        opts.shards, opts.range_width
                    )));
                }
                let manifest = encode_manifest(opts.shards, opts.range_width);
                vfs.truncate(MANIFEST_TMP, &manifest)?;
                vfs.sync(MANIFEST_TMP)?;
                vfs.rename(MANIFEST_TMP, MANIFEST_FILE)?;
                (opts.shards, opts.range_width)
            }
        };
        let store_opts = StoreOptions {
            history_capacity: opts.history_capacity,
            commit_queue_limit: opts.commit_queue_limit,
        };
        let mut shards = Vec::with_capacity(shard_count as usize);
        for i in 0..shard_count {
            shards.push(DurableStore::open_at(Arc::clone(&vfs), store_opts, &format!("shard-{i:03}/"))?);
        }
        let health = (0..shard_count).map(|_| AtomicU8::new(HEALTH_HEALTHY)).collect();
        Ok(ShardedStore {
            shards,
            health,
            commit_failures: AtomicU64::new(0),
            shard_count,
            range_width,
            compact_wal_bytes: opts.compact_wal_bytes,
        })
    }

    /// The health of one shard (see [`ShardHealth`] for the machine).
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        match self.health[shard].load(Ordering::Acquire) {
            HEALTH_HEALTHY => ShardHealth::Healthy,
            HEALTH_DEGRADED => ShardHealth::Degraded,
            _ => ShardHealth::Failed,
        }
    }

    /// Marks a shard Degraded after a storage failure. Never downgrades
    /// Failed (a failed reopen outranks a later write error).
    fn mark_degraded(&self, shard: usize) {
        let _ =
            self.health[shard].compare_exchange(HEALTH_HEALTHY, HEALTH_DEGRADED, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Refuses the operation up front when `shard` is sick — nothing is
    /// applied or written past this point.
    fn guard(&self, shard: usize) -> Result<(), StoreError> {
        if self.shard_health(shard) == ShardHealth::Healthy {
            Ok(())
        } else {
            Err(StoreError::ShardUnavailable { shard: shard as u32 })
        }
    }

    /// Routes a shard-level error into the health machine: real storage
    /// failures (I/O, ENOSPC, crash, poisoned handle) degrade the shard;
    /// validation refusals and backpressure do not — they left no doubt
    /// about the disk. The error passes through unchanged.
    fn note(&self, shard: usize, e: StoreError) -> StoreError {
        match &e {
            StoreError::Io(_) | StoreError::NoSpace(_) | StoreError::Crashed | StoreError::Broken => {
                self.mark_degraded(shard);
            }
            StoreError::Corrupt(_)
            | StoreError::IllegalTransition { .. }
            | StoreError::Backpressure
            | StoreError::ShardUnavailable { .. } => {}
        }
        e
    }

    /// Re-runs shard-local recovery on `shard` and, on success, rejoins it
    /// to the fleet as Healthy — the operator path out of Degraded. The
    /// shard's committed prefix is preserved by construction (recovery
    /// re-reads the snapshot and valid WAL frames on a fresh handle); a
    /// resumed campaign re-derives anything the failure lost, so rejoined
    /// verdicts are bit-identical to a run that never failed.
    ///
    /// # Errors
    ///
    /// If recovery itself fails (the device is still sick) the shard is
    /// marked [`ShardHealth::Failed`] and the error returned; healthy
    /// shards are untouched either way. Reopening may be retried.
    pub fn reopen_shard(&self, shard: usize) -> Result<(), StoreError> {
        match self.shards[shard].reopen() {
            Ok(()) => {
                self.health[shard].store(HEALTH_HEALTHY, Ordering::Release);
                Ok(())
            }
            Err(e) => {
                self.health[shard].store(HEALTH_FAILED, Ordering::Release);
                Err(e)
            }
        }
    }

    /// The shard a device id lives in.
    pub fn shard_of_id(&self, id: u32) -> usize {
        ((id / self.range_width) % self.shard_count) as usize
    }

    /// The shard a record routes to — exposed so invariant tests can
    /// shadow the store's routing decision for any record.
    pub fn shard_of_record(&self, record: &Record) -> usize {
        self.shard_of(record)
    }

    /// Copies of every shard's materialised state, in shard order. An
    /// inspection hook for invariant tests; production paths use the
    /// clone-free accessors.
    pub fn shard_states(&self) -> Vec<StoreState> {
        self.shards.iter().map(DurableStore::state).collect()
    }

    fn shard_of(&self, record: &Record) -> usize {
        match record {
            // Campaign identity lives in shard 0 — one authoritative copy.
            Record::Meta { .. } => 0,
            Record::DeviceEnrolled { id }
            | Record::DeviceReEnrolled { id }
            | Record::StatusChanged { id, .. }
            | Record::SessionClosed { id, .. }
            | Record::SessionRefused { id }
            | Record::SessionFault { id, .. }
            | Record::DeviceAbandoned { id }
            | Record::DeviceCursor { id, .. } => self.shard_of_id(*id),
        }
    }

    /// Appends a record on the group-commit path: acknowledged once it is
    /// in its shard's write queue, committed at the next flush (the
    /// committer's latency bound).
    ///
    /// # Errors
    ///
    /// [`StoreError::ShardUnavailable`] when the record's home shard is
    /// Degraded or Failed (refused before anything is applied — other
    /// shards keep accepting); [`StoreError::Backpressure`] when the
    /// shard's commit queue is full (nothing applied — flush and retry);
    /// otherwise as [`DurableStore::append_nosync`]. A storage failure
    /// here degrades the home shard.
    pub fn append(&self, record: &Record) -> Result<(), StoreError> {
        let shard = self.shard_of(record);
        self.guard(shard)?;
        self.shards[shard].append_nosync(record).map_err(|e| self.note(shard, e))?;
        Ok(())
    }

    /// Appends a record and syncs its shard before returning: the record
    /// is committed when this returns. Campaign identity, synced
    /// enrollment admissions and operator transitions use this.
    ///
    /// # Errors
    ///
    /// [`StoreError::ShardUnavailable`] when the record's home shard is
    /// sick; otherwise as [`DurableStore::append_synced`]. A storage
    /// failure here degrades the home shard.
    pub fn append_synced(&self, record: &Record) -> Result<(), StoreError> {
        let shard = self.shard_of(record);
        self.guard(shard)?;
        self.shards[shard].append_synced(record).map_err(|e| self.note(shard, e))?;
        Ok(())
    }

    /// Runs `op` on every healthy shard, attempting all of them even after
    /// one fails; each failing shard degrades, and sick shards (read-only
    /// until [`ShardedStore::reopen_shard`]) are skipped. Returns how many
    /// shards failed and the first failure.
    fn for_each_healthy(&self, op: impl Fn(&DurableStore) -> Result<(), StoreError>) -> (usize, Option<StoreError>) {
        let mut failures = 0;
        let mut first_err = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if self.shard_health(i) != ShardHealth::Healthy {
                continue;
            }
            if let Err(e) = op(shard) {
                failures += 1;
                first_err.get_or_insert(self.note(i, e));
            }
        }
        (failures, first_err)
    }

    /// Commits every healthy shard's pending group-commit batch: one
    /// fsync per dirty shard. Every healthy shard is attempted even if
    /// one fails; a failing shard degrades (its poisoned handle is never
    /// re-synced — fsyncgate) and sick shards are skipped, so a dying
    /// disk does not wedge the rest of the fleet's commits.
    ///
    /// # Errors
    ///
    /// The first *new* failure encountered, after all healthy shards were
    /// attempted. Already-sick shards are not re-reported.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.for_each_healthy(DurableStore::sync).1.map_or(Ok(()), Err)
    }

    /// Writes a fresh snapshot and compacts the WAL on every healthy
    /// shard (sick shards are skipped — their last durable snapshot
    /// already holds everything they acknowledged).
    ///
    /// # Errors
    ///
    /// The first *new* failure, after all healthy shards were attempted;
    /// the failing shard degrades.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.for_each_healthy(DurableStore::checkpoint).1.map_or(Ok(()), Err)
    }

    /// Campaign identity, if recorded (held by shard 0).
    pub fn meta(&self) -> Option<MetaInfo> {
        self.shards[0].meta()
    }

    /// A copy of one device's durable state, if it is enrolled.
    pub fn device(&self, id: u32) -> Option<DeviceState> {
        self.shards[self.shard_of_id(id)].with_state(|s| s.devices.get(&id).cloned())
    }

    /// Runs `f` for every enrolled device, shard by shard (ids within a
    /// shard ascend; across shards they interleave by range stripe).
    /// Clone-free: the restore path walks a million devices through here.
    pub fn for_each_device(&self, mut f: impl FnMut(u32, &DeviceState)) {
        for shard in &self.shards {
            shard.with_state(|s: &StoreState| {
                for (id, d) in &s.devices {
                    f(*id, d);
                }
            });
        }
    }

    /// Runs `f` for every enrolled device on one shard (ids ascend) —
    /// how a service rebuilds exactly the devices a reopened shard
    /// recovered, leaving the rest of the fleet untouched.
    pub fn for_each_device_in(&self, shard: usize, mut f: impl FnMut(u32, &DeviceState)) {
        self.shards[shard].with_state(|s: &StoreState| {
            for (id, d) in &s.devices {
                f(*id, d);
            }
        });
    }

    /// Fleet-wide counters, merged across shards.
    pub fn counters(&self) -> Counters {
        let mut total = Counters::default();
        for shard in &self.shards {
            shard.with_state(|s| total.merge(&s.counters));
        }
        total
    }

    /// Durability counters summed across shards, plus the shard-health
    /// tally ([`StoreStats::shards_total`] and friends).
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            total.wal_bytes += s.wal_bytes;
            total.records_appended += s.records_appended;
            total.records_replayed += s.records_replayed;
            total.snapshots_written += s.snapshots_written;
            total.torn_tails_recovered += s.torn_tails_recovered;
        }
        total.shards_total = self.shard_count;
        for i in 0..self.shards.len() {
            match self.shard_health(i) {
                ShardHealth::Healthy => {}
                ShardHealth::Degraded => total.shards_degraded += 1,
                ShardHealth::Failed => total.shards_failed += 1,
            }
        }
        total
    }

    /// Commit ticks that hit a new storage failure (each degraded a
    /// shard) since this handle opened.
    pub fn commit_failures(&self) -> u64 {
        self.commit_failures.load(Ordering::Acquire)
    }

    /// Whether any shard's handle has been poisoned by a write failure.
    pub fn is_broken(&self) -> bool {
        self.shards.iter().any(DurableStore::is_broken)
    }

    /// Records awaiting their group-commit sync, summed across shards.
    pub fn unsynced(&self) -> u32 {
        self.shards.iter().map(DurableStore::unsynced).sum()
    }

    /// One committer heartbeat: flush every healthy shard's pending batch,
    /// then compact any shard whose WAL has outgrown
    /// [`ShardedOptions::compact_wal_bytes`] — shards compact
    /// independently, so a hot range never forces a cold shard to rewrite
    /// its snapshot. A shard that hits a storage failure degrades. Returns
    /// how many shards *newly* failed this tick (also accumulated into
    /// [`ShardedStore::commit_failures`]) — a count, not a `Result`,
    /// because a tick always does everything it can: healthy shards
    /// commit even while a sick one waits for its operator, and the
    /// failure is reported through the health machine rather than
    /// swallowed.
    pub fn commit_tick(&self) -> usize {
        let (failures, _) = self.for_each_healthy(|shard| {
            shard.sync()?;
            if self.compact_wal_bytes > 0 && shard.stats().wal_bytes > self.compact_wal_bytes {
                shard.checkpoint()?;
            }
            Ok(())
        });
        if failures > 0 {
            self.commit_failures.fetch_add(failures as u64, Ordering::AcqRel);
        }
        failures
    }

    /// Spawns a background committer that runs [`ShardedStore::commit_tick`]
    /// every `interval` — the group-commit latency bound. A shard that
    /// fails mid-campaign degrades and is skipped; the committer keeps
    /// servicing the healthy shards (per-shard failures are reported via
    /// shard health and [`ShardedStore::commit_failures`], never
    /// swallowed). Dropping the returned [`Committer`] stops the thread
    /// after one final tick, so shutdown never strands a batch.
    pub fn committer(self: &Arc<Self>, interval: Duration) -> Committer {
        let stop = Arc::new(AtomicBool::new(false));
        let store = Arc::clone(self);
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                store.commit_tick();
            }
            // The final tick commits anything appended right before the
            // stop; a failure here degrades the shard, which the owner's
            // shutdown path surfaces through stats and health.
            store.commit_tick();
        });
        Committer { stop, handle: Some(handle) }
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shard_count)
            .field("range_width", &self.range_width)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Handle to a background group-commit thread (see
/// [`ShardedStore::committer`]). Dropping it requests a stop, waits for
/// the thread, and flushes one last time — flush-on-shutdown is
/// structural, not a convention callers must remember.
pub struct Committer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Committer {
    /// Stops the committer and waits for its final flush.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Committer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::record::StoredStatus;
    use crate::vfs::{SimVfs, TornMode};

    fn small_opts() -> ShardedOptions {
        ShardedOptions {
            shards: 4,
            range_width: 2,
            commit_queue_limit: 0,
            ..ShardedOptions::default()
        }
    }

    fn open_sim(vfs: &SimVfs, opts: ShardedOptions) -> ShardedStore {
        ShardedStore::open(Arc::new(vfs.clone()), opts).unwrap()
    }

    #[test]
    fn records_route_by_range_and_survive_reopen() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, small_opts());
        // range_width 2, 4 shards: ids 0,1 → shard 0; 2,3 → 1; 8,9 → 0.
        assert_eq!(store.shard_of_id(0), 0);
        assert_eq!(store.shard_of_id(1), 0);
        assert_eq!(store.shard_of_id(2), 1);
        assert_eq!(store.shard_of_id(7), 3);
        assert_eq!(store.shard_of_id(8), 0);
        store
            .append_synced(&Record::Meta { config_hash: 5, devices: 9, sessions_per_device: 1, seed: 3 })
            .unwrap();
        for id in 0..9 {
            store.append(&Record::DeviceEnrolled { id }).unwrap();
        }
        let cursor = Record::DeviceCursor {
            id: 5,
            events_done: 0,
            session_pos: 11,
            noise_pos: 22,
            noise_evals: 0,
            tamper_parity: false,
        };
        store.append(&cursor).unwrap();
        store.flush().unwrap();
        drop(store);
        assert!(vfs.exists("manifest.bin"));
        assert!(vfs.exists("shard-000/wal.log"));
        let store = open_sim(&vfs, small_opts());
        assert_eq!(store.meta().unwrap().devices, 9);
        let mut active = 0;
        store.for_each_device(|_, d| active += usize::from(d.status == StoredStatus::Active));
        assert_eq!(active, 9);
        assert_eq!(store.device(5).unwrap().cursor.map(|c| (c.session_pos, c.noise_pos)), Some((11, 22)));
        assert!(store.device(8).is_some());
        assert!(store.device(9).is_none());
        let mut seen = Vec::new();
        store.for_each_device(|id, d| {
            assert_eq!(d.status, StoredStatus::Active);
            seen.push(id);
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn manifest_geometry_is_authoritative_on_reopen() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, small_opts());
        store.append(&Record::DeviceEnrolled { id: 6 }).unwrap();
        store.flush().unwrap();
        drop(store);
        // Reopening with different (even implausible-to-change) geometry
        // keeps the on-disk layout: device 6 is still found in shard 3.
        let store = open_sim(&vfs, ShardedOptions { shards: 2, range_width: 64, ..ShardedOptions::default() });
        assert_eq!(store.stats().shards_total, 4);
        assert_eq!(store.shard_of_id(6), 3);
        assert!(store.device(6).is_some());
    }

    #[test]
    fn legacy_single_wal_layout_is_refused() {
        let vfs = SimVfs::new();
        let single = DurableStore::open(Arc::new(vfs.clone()), StoreOptions::default()).unwrap();
        single.append_synced(&Record::DeviceEnrolled { id: 0 }).unwrap();
        drop(single);
        let err = ShardedStore::open(Arc::new(vfs), small_opts()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn damaged_manifest_is_fatal_not_silent() {
        let vfs = SimVfs::new();
        drop(open_sim(&vfs, small_opts()));
        let mut img = vfs.read(MANIFEST_FILE).unwrap().unwrap();
        img[10] ^= 0x04;
        vfs.truncate(MANIFEST_FILE, &img).unwrap();
        vfs.sync(MANIFEST_FILE).unwrap();
        let err = ShardedStore::open(Arc::new(vfs), small_opts()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
    }

    #[test]
    fn backpressure_is_per_shard_and_retryable_after_flush() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, ShardedOptions { commit_queue_limit: 1, ..small_opts() });
        store.append(&Record::DeviceEnrolled { id: 0 }).unwrap();
        // Shard 0's queue is full; shard 1 still accepts.
        assert_eq!(store.append(&Record::DeviceEnrolled { id: 1 }), Err(StoreError::Backpressure));
        store.append(&Record::DeviceEnrolled { id: 2 }).unwrap();
        store.flush().unwrap();
        assert_eq!(store.unsynced(), 0);
        store.append(&Record::DeviceEnrolled { id: 1 }).unwrap();
    }

    #[test]
    fn group_commit_loses_at_most_the_unflushed_tail_per_shard() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, small_opts());
        for id in 0..8 {
            store.append(&Record::DeviceEnrolled { id }).unwrap();
        }
        store.flush().unwrap();
        for id in 8..16 {
            store.append(&Record::DeviceEnrolled { id }).unwrap();
        }
        // Power cut with the batch still volatile: the flushed prefix
        // survives on every shard, the unflushed tail is gone.
        let disk = vfs.power_cut(TornMode::Drop);
        let store = open_sim(&disk, small_opts());
        let mut active = 0;
        store.for_each_device(|_, d| active += usize::from(d.status == StoredStatus::Active));
        assert_eq!(active, 8);
        for id in 0..8 {
            assert!(store.device(id).is_some(), "committed device {id} lost");
        }
        for id in 8..16 {
            assert!(store.device(id).is_none(), "uncommitted device {id} resurrected");
        }
    }

    #[test]
    fn size_triggered_compaction_is_per_shard() {
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, ShardedOptions { compact_wal_bytes: 64, ..small_opts() });
        store.append(&Record::DeviceEnrolled { id: 0 }).unwrap();
        store.append(&Record::DeviceEnrolled { id: 2 }).unwrap();
        // Only shard 0's WAL outgrows the bound.
        for _ in 0..16 {
            store
                .append(&Record::StatusChanged { id: 0, status: StoredStatus::Active })
                .unwrap();
        }
        let before = store.stats().snapshots_written;
        assert_eq!(store.commit_tick(), 0, "the tick commits and compacts without failure");
        assert_eq!(store.stats().snapshots_written, before + 1, "exactly the hot shard compacts");
    }

    #[test]
    fn sick_shard_degrades_and_healthy_shards_keep_committing() {
        use crate::vfs::{ErrorInjection, InjectedErrorKind};
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, small_opts());
        store.append_synced(&Record::DeviceEnrolled { id: 0 }).unwrap();
        store.append_synced(&Record::DeviceEnrolled { id: 2 }).unwrap();
        // Shard 1 (ids 2,3) dies: every op on its directory now fails.
        vfs.inject(ErrorInjection::on_prefix("shard-001/", InjectedErrorKind::Eio).sticky());
        let err = store.append_synced(&Record::DeviceEnrolled { id: 3 }).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "first failure surfaces raw: {err:?}");
        assert_eq!(store.shard_health(1), ShardHealth::Degraded);
        // Further traffic to the sick shard refuses up front, typed.
        assert_eq!(
            store.append_synced(&Record::DeviceEnrolled { id: 3 }),
            Err(StoreError::ShardUnavailable { shard: 1 })
        );
        // The sick shard still reads its recovered state.
        assert!(store.device(2).is_some());
        // Healthy shards are completely unaffected, and flush/checkpoint
        // skip the degraded shard instead of failing the fleet.
        store.append(&Record::DeviceEnrolled { id: 4 }).unwrap();
        store.flush().unwrap();
        store.checkpoint().unwrap();
        let stats = store.stats();
        assert_eq!((stats.shards_total, stats.shards_degraded, stats.shards_failed), (4, 1, 0));
        assert!(stats.to_string().contains("3/4 shards healthy (1 degraded, 0 failed)"), "display: {stats}");
    }

    #[test]
    fn reopen_shard_rejoins_after_the_disk_recovers() {
        use crate::vfs::{ErrorInjection, InjectedErrorKind};
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, small_opts());
        store.append_synced(&Record::DeviceEnrolled { id: 2 }).unwrap();
        vfs.inject(ErrorInjection::on_prefix("shard-001/", InjectedErrorKind::NoSpace).sticky());
        assert!(store.append_synced(&Record::DeviceEnrolled { id: 3 }).is_err());
        assert_eq!(store.shard_health(1), ShardHealth::Degraded);
        // Reopening against the still-sick disk fails → Failed (retryable).
        assert!(store.reopen_shard(1).is_err());
        assert_eq!(store.shard_health(1), ShardHealth::Failed);
        assert_eq!(store.stats().shards_failed, 1);
        // Disk replaced: reopen recovers the committed prefix and rejoins.
        vfs.clear_injections("shard-001/");
        store.reopen_shard(1).unwrap();
        assert_eq!(store.shard_health(1), ShardHealth::Healthy);
        assert!(store.device(2).is_some(), "committed record survives the reopen");
        store.append_synced(&Record::DeviceEnrolled { id: 3 }).unwrap();
        assert!(store.device(3).is_some());
        let mut ids = Vec::new();
        store.for_each_device_in(1, |id, _| ids.push(id));
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn commit_tick_reports_failures_and_spares_healthy_shards() {
        use crate::vfs::{ErrorInjection, InjectedErrorKind};
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, small_opts());
        store.append(&Record::DeviceEnrolled { id: 0 }).unwrap(); // shard 0, queued
        store.append(&Record::DeviceEnrolled { id: 2 }).unwrap(); // shard 1, queued
                                                                  // Shard 0's fsync will fail at its next sync.
        vfs.inject(ErrorInjection::on_prefix("shard-000/", InjectedErrorKind::SyncFail).sticky());
        assert_eq!(store.commit_tick(), 1, "exactly the sick shard fails");
        assert_eq!(store.commit_failures(), 1);
        assert_eq!(store.shard_health(0), ShardHealth::Degraded);
        assert_eq!(store.shards[1].unsynced(), 0, "healthy shard still committed");
        // Later ticks skip the degraded shard: no repeat failures.
        assert_eq!(store.commit_tick(), 0);
        assert_eq!(store.commit_failures(), 1);
    }

    #[test]
    fn committer_flushes_within_its_latency_bound() {
        let vfs = SimVfs::new();
        let store = Arc::new(open_sim(&vfs, small_opts()));
        let committer = store.committer(Duration::from_millis(1));
        store.append(&Record::DeviceEnrolled { id: 0 }).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.unsynced() > 0 {
            assert!(std::time::Instant::now() < deadline, "committer never flushed");
            std::thread::yield_now();
        }
        // Stop flushes one final time; a fresh append right before the
        // stop is still committed.
        store.append(&Record::DeviceEnrolled { id: 1 }).unwrap();
        committer.stop();
        assert_eq!(store.unsynced(), 0);
        let disk = vfs.power_cut(TornMode::Drop);
        let store = open_sim(&disk, small_opts());
        assert!(store.device(0).is_some());
        assert!(store.device(1).is_some());
    }
}
