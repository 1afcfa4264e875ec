//! The `Vfs` trait: every byte the store persists goes through here.
//!
//! Durability claims are only as good as the failure model they were
//! tested against, so the store never touches `std::fs` directly. It
//! writes through a [`Vfs`], and three implementations exist:
//!
//! * [`StdVfs`] — the production backend over a real directory, with
//!   cached append handles, `sync_all` for flushes, and a best-effort
//!   directory sync after renames;
//! * [`NullVfs`] — no disk at all: writes are dropped and reads find
//!   nothing, so a store over it is a plain in-memory state machine (an
//!   unjournaled fleet service's device table);
//! * [`SimVfs`] — an in-memory disk with an explicit *volatile / synced*
//!   split per file and a crash plan: the `n`-th mutating operation fails
//!   with [`StoreError::Crashed`] and the backend refuses all further
//!   writes, modelling the process dying at that exact boundary. A
//!   [`SimVfs::power_cut`] then yields the disk an observer would find
//!   after reboot — synced prefixes survive, unsynced tails are dropped,
//!   kept, torn in half, or bit-flipped per [`TornMode`].
//!
//! Because every mutating call is one numbered operation, a test can run
//! a workload once to count its operations and then re-run it crashing at
//! *every* boundary — recovery is proven by exhaustive enumeration, not
//! sampling.

use crate::StoreError;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-tolerant lock: the store's state is a counters-and-bytes record
/// that stays internally consistent under any interleaving, and a panic
/// on one session thread must not wedge persistence for the rest.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Abstract file operations the store is written against.
///
/// Paths are store-relative names (`wal.log`, `snapshot.bin`); the backend
/// decides where they live. All methods take `&self` — implementations
/// carry their own interior mutability, since WAL appends arrive from
/// many worker threads.
pub trait Vfs: Send + Sync {
    /// Reads a whole file; `Ok(None)` if it does not exist.
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>, StoreError>;
    /// Whether the file exists.
    fn exists(&self, path: &str) -> bool;
    /// Appends bytes to the end of a file, creating it if missing. The
    /// bytes are *volatile* until [`Vfs::sync`] returns.
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), StoreError>;
    /// Flushes a file's volatile bytes to stable storage.
    fn sync(&self, path: &str) -> Result<(), StoreError>;
    /// Creates or replaces a file with exactly `bytes` (volatile until
    /// synced).
    fn truncate(&self, path: &str, bytes: &[u8]) -> Result<(), StoreError>;
    /// Atomically renames `from` onto `to` (replacing it). The rename
    /// either happened or it did not; there is no torn intermediate.
    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError>;
    /// Removes a file; missing files are not an error.
    fn remove(&self, path: &str) -> Result<(), StoreError>;
}

// ---------------------------------------------------------------- StdVfs

/// The production backend: a directory on the real filesystem.
pub struct StdVfs {
    root: PathBuf,
    // Append handles are cached so a WAL append is one `write` syscall,
    // not an open/write/close per record.
    handles: Mutex<HashMap<String, fs::File>>,
}

impl StdVfs {
    /// Opens (creating if needed) `root` as the store directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError::Io(format!("create {}: {e}", root.display())))?;
        Ok(StdVfs { root, handles: Mutex::new(HashMap::new()) })
    }

    /// The directory this backend writes into.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn abs(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }

    /// Sharded stores name files inside per-shard subdirectories
    /// (`shard-000/wal.log`); creating files there must create the
    /// directory first.
    fn ensure_parent(&self, path: &str) -> Result<(), StoreError> {
        let abs = self.abs(path);
        if let Some(parent) = abs.parent() {
            if parent != self.root && !parent.exists() {
                fs::create_dir_all(parent).map_err(|e| StoreError::Io(format!("create {}: {e}", parent.display())))?;
            }
        }
        Ok(())
    }

    fn io(&self, op: &str, path: &str, e: std::io::Error) -> StoreError {
        StoreError::Io(format!("{op} {}: {e}", self.abs(path).display()))
    }

    /// Best-effort directory sync so a rename's metadata survives power
    /// loss; ignored on platforms where opening a directory fails.
    fn sync_dir(&self) {
        if let Ok(dir) = fs::File::open(&self.root) {
            // analyze: allow(dur: documented best-effort dir sync; data-file fsync already happened and some platforms cannot sync a directory)
            let _ = dir.sync_all();
        }
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(self.abs(path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(self.io("read", path, e)),
        }
    }

    fn exists(&self, path: &str) -> bool {
        self.abs(path).exists()
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut handles = lock(&self.handles);
        if !handles.contains_key(path) {
            self.ensure_parent(path)?;
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.abs(path))
                .map_err(|e| self.io("open", path, e))?;
            handles.insert(path.to_string(), file);
        }
        match handles.get_mut(path) {
            Some(file) => file.write_all(bytes).map_err(|e| self.io("append", path, e)),
            None => Err(StoreError::Io(format!("append {path}: handle vanished"))),
        }
    }

    fn sync(&self, path: &str) -> Result<(), StoreError> {
        let handles = lock(&self.handles);
        match handles.get(path) {
            Some(file) => file.sync_all().map_err(|e| self.io("sync", path, e)),
            // Nothing appended through us yet: sync the file if it exists,
            // else there is nothing volatile to flush.
            None => match fs::File::open(self.abs(path)) {
                Ok(file) => file.sync_all().map_err(|e| self.io("sync", path, e)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(self.io("sync", path, e)),
            },
        }
    }

    fn truncate(&self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        // Drop any cached append handle: its position is stale after the
        // file is replaced.
        lock(&self.handles).remove(path);
        self.ensure_parent(path)?;
        fs::write(self.abs(path), bytes).map_err(|e| self.io("truncate", path, e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        let mut handles = lock(&self.handles);
        handles.remove(from);
        handles.remove(to);
        fs::rename(self.abs(from), self.abs(to)).map_err(|e| {
            StoreError::Io(format!("rename {} -> {}: {e}", self.abs(from).display(), self.abs(to).display()))
        })?;
        drop(handles);
        self.sync_dir();
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<(), StoreError> {
        lock(&self.handles).remove(path);
        match fs::remove_file(self.abs(path)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(self.io("remove", path, e)),
        }
    }
}

// --------------------------------------------------------------- NullVfs

/// A backend that keeps nothing: every write succeeds and is dropped,
/// and every read finds no file. A store over it holds its state in
/// memory only — how an unjournaled service keeps its device table in
/// the same store a journaled one writes through.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullVfs;

impl Vfs for NullVfs {
    fn read(&self, _path: &str) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(None)
    }

    fn exists(&self, _path: &str) -> bool {
        false
    }

    fn append(&self, _path: &str, _bytes: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }

    fn sync(&self, _path: &str) -> Result<(), StoreError> {
        Ok(())
    }

    fn truncate(&self, _path: &str, _bytes: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }

    fn rename(&self, _from: &str, _to: &str) -> Result<(), StoreError> {
        Ok(())
    }

    fn remove(&self, _path: &str) -> Result<(), StoreError> {
        Ok(())
    }
}

// ---------------------------------------------------------------- SimVfs

/// What happens to a file's *unsynced* bytes when the power is cut.
///
/// The synced prefix always survives; the modes enumerate the fates a
/// real disk cache can hand the unsynced tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornMode {
    /// The cache never reached the platter: unsynced bytes vanish.
    Drop,
    /// The cache made it out just in time: unsynced bytes survive intact.
    Keep,
    /// The write was cut mid-flight: half of the unsynced bytes survive.
    Torn,
    /// The tail landed but a bit rotted: all unsynced bytes survive with
    /// the last one corrupted.
    Flip,
}

/// All torn modes, for exhaustive matrices.
pub const TORN_MODES: [TornMode; 4] = [TornMode::Drop, TornMode::Keep, TornMode::Torn, TornMode::Flip];

/// The flavour of *recoverable* I/O failure an [`ErrorInjection`] fires —
/// unlike a crash, the process model survives and sees a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedErrorKind {
    /// A generic I/O error (EIO): the operation did not happen at all.
    Eio,
    /// The device is out of space (ENOSPC): the operation did not happen.
    NoSpace,
    /// The flush itself failed (the fsyncgate failure mode): volatile
    /// bytes stay volatile, and the store must treat the handle as
    /// poisoned — never retry the fsync against the same file.
    SyncFail,
}

/// All injected error kinds, for exhaustive matrices.
pub const INJECTED_ERROR_KINDS: [InjectedErrorKind; 3] = [
    InjectedErrorKind::Eio,
    InjectedErrorKind::NoSpace,
    InjectedErrorKind::SyncFail,
];

/// One planned recoverable I/O failure on a [`SimVfs`].
///
/// An injection *triggers* when its target operation arrives: the
/// `at_op`-th mutating operation, the `at_read`-th read, or (with neither
/// set) the first operation touching a matching path. A triggered
/// injection fails that operation with a typed error and **no partial
/// effect** — the disk is exactly as it was. One-shot injections then
/// retire (a transient fault); sticky ones keep failing every matching
/// operation *and read* from then on (a dying disk), until
/// [`SimVfs::clear_injections`] models its replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorInjection {
    /// Trigger on this mutating-operation number (same 0-based counter as
    /// the crash plan, so one probe run calibrates both matrices).
    pub at_op: Option<u64>,
    /// Trigger on this read number (reads have their own 0-based counter;
    /// they are not mutating operations and never shift crash points).
    pub at_read: Option<u64>,
    /// Only paths starting with this prefix are affected (`""` = every
    /// path). Prefix scoping is how a test makes exactly one shard
    /// directory sick while the rest of the disk stays healthy.
    pub path_prefix: String,
    /// What error the failing operation reports.
    pub kind: InjectedErrorKind,
    /// `false`: fail exactly once. `true`: once triggered, fail every
    /// matching operation and read until the injection is cleared.
    pub sticky: bool,
}

impl ErrorInjection {
    /// A one-shot failure of the `op`-th mutating operation, any path.
    pub fn at_op(op: u64, kind: InjectedErrorKind) -> Self {
        ErrorInjection {
            at_op: Some(op),
            at_read: None,
            path_prefix: String::new(),
            kind,
            sticky: false,
        }
    }

    /// A one-shot failure of the `read`-th read, any path.
    pub fn at_read(read: u64, kind: InjectedErrorKind) -> Self {
        ErrorInjection {
            at_op: None,
            at_read: Some(read),
            path_prefix: String::new(),
            kind,
            sticky: false,
        }
    }

    /// A failure armed on the next operation touching `prefix` (one-shot;
    /// chain [`ErrorInjection::sticky`] for a dead disk).
    pub fn on_prefix(prefix: &str, kind: InjectedErrorKind) -> Self {
        ErrorInjection {
            at_op: None,
            at_read: None,
            path_prefix: prefix.to_string(),
            kind,
            sticky: false,
        }
    }

    /// Builder: make this injection sticky.
    #[must_use]
    pub fn sticky(mut self) -> Self {
        self.sticky = true;
        self
    }

    /// Builder: scope this injection to paths under `prefix`.
    #[must_use]
    pub fn under(mut self, prefix: &str) -> Self {
        self.path_prefix = prefix.to_string();
        self
    }

    fn matches_path(&self, path: &str) -> bool {
        self.path_prefix.is_empty() || path.starts_with(&self.path_prefix)
    }
}

/// Derives a deterministic failure plan from a seed: `count` injections
/// with pseudo-random trigger points below `op_bound`, kinds, and
/// stickiness. The schedule is a pure function of the arguments — the
/// determinism property the proptest suite pins — so a failing seed
/// reproduces exactly.
pub fn error_plan(seed: u64, count: usize, op_bound: u64) -> Vec<ErrorInjection> {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    let mut x = seed;
    let mut next = || {
        x = x.wrapping_add(1);
        splitmix64(x)
    };
    (0..count)
        .map(|_| {
            let word = next();
            let kind = INJECTED_ERROR_KINDS[(word % 3) as usize];
            let at = next() % op_bound.max(1);
            let mut inj = if word & 4 == 0 {
                ErrorInjection::at_op(at, kind)
            } else {
                ErrorInjection::at_read(at, kind)
            };
            inj.sticky = word & 8 == 0;
            inj
        })
        .collect()
}

fn injection_error(kind: InjectedErrorKind, path: &str) -> StoreError {
    match kind {
        InjectedErrorKind::Eio => StoreError::Io(format!("injected I/O error (EIO) on {path}")),
        InjectedErrorKind::NoSpace => StoreError::NoSpace(format!("injected ENOSPC on {path}")),
        InjectedErrorKind::SyncFail => StoreError::Io(format!("injected fsync failure on {path}")),
    }
}

#[derive(Debug, Clone, Default)]
struct SimFile {
    data: Vec<u8>,
    synced_len: usize,
}

/// An [`ErrorInjection`] plus its runtime trigger state.
#[derive(Debug, Clone)]
struct Injected {
    plan: ErrorInjection,
    /// Sticky injections latch here; one-shot ones retire through `done`.
    triggered: bool,
    done: bool,
}

#[derive(Debug, Default)]
struct SimState {
    files: BTreeMap<String, SimFile>,
    ops: u64,
    reads: u64,
    crash_at: Option<u64>,
    crashed: bool,
    injections: Vec<Injected>,
    injected_failures: u64,
}

impl SimState {
    /// First injection due at this (path, op/read) point, if any. Firing
    /// consumes one-shot injections and latches sticky ones.
    fn injected(&mut self, path: &str, op: Option<u64>, read: Option<u64>) -> Option<InjectedErrorKind> {
        for inj in &mut self.injections {
            if inj.done || !inj.plan.matches_path(path) {
                continue;
            }
            let due = if inj.triggered {
                true // sticky and latched: everything matching fails
            } else {
                match (&inj.plan.at_op, &inj.plan.at_read) {
                    (Some(at), _) => op == Some(*at),
                    (None, Some(at)) => read == Some(*at),
                    // No trigger point: arm on the first matching
                    // mutating operation (reads alone never arm it).
                    (None, None) => op.is_some(),
                }
            };
            if due {
                if inj.plan.sticky {
                    inj.triggered = true;
                } else {
                    inj.done = true;
                }
                self.injected_failures += 1;
                return Some(inj.plan.kind);
            }
        }
        None
    }
}

/// An in-memory disk with crash-point injection. Cloning shares the
/// underlying disk (the clone sees the same files).
#[derive(Clone, Default)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
}

impl SimVfs {
    /// An empty disk with no crash planned.
    pub fn new() -> Self {
        SimVfs::default()
    }

    /// An empty disk that crashes on its `op`-th mutating operation
    /// (0-based).
    pub fn crashing_at(op: u64) -> Self {
        let vfs = SimVfs::new();
        vfs.set_crash_at(Some(op));
        vfs
    }

    /// Plans (or cancels) a crash at mutating operation `op`.
    pub fn set_crash_at(&self, op: Option<u64>) {
        lock(&self.state).crash_at = op;
    }

    /// Mutating operations performed so far. Running a workload once on a
    /// crash-free disk and reading this gives the exhaustive enumeration
    /// bound for the crash matrix.
    pub fn ops(&self) -> u64 {
        lock(&self.state).ops
    }

    /// Whether the planned crash has fired.
    pub fn has_crashed(&self) -> bool {
        lock(&self.state).crashed
    }

    /// The disk as found after reboot: synced prefixes survive verbatim,
    /// each file's unsynced tail meets the fate `mode` prescribes. The
    /// returned disk is independent (further writes do not affect `self`)
    /// and has no crash planned.
    pub fn power_cut(&self, mode: TornMode) -> SimVfs {
        let state = lock(&self.state);
        let mut files = BTreeMap::new();
        for (name, file) in &state.files {
            let synced = file.synced_len.min(file.data.len());
            let tail = &file.data[synced..];
            let mut data = file.data[..synced].to_vec();
            match mode {
                TornMode::Drop => {}
                TornMode::Keep => data.extend_from_slice(tail),
                TornMode::Torn => data.extend_from_slice(&tail[..tail.len() / 2]),
                TornMode::Flip => {
                    data.extend_from_slice(tail);
                    if !tail.is_empty() {
                        let last = data.len() - 1;
                        data[last] ^= 0x01;
                    }
                }
            }
            let synced_len = data.len();
            files.insert(name.clone(), SimFile { data, synced_len });
        }
        SimVfs {
            state: Arc::new(Mutex::new(SimState {
                files,
                ops: 0,
                reads: 0,
                crash_at: None,
                crashed: false,
                // The replacement disk carries no planned failures; tests
                // that want a sick reopened disk inject again explicitly.
                injections: Vec::new(),
                injected_failures: 0,
            })),
        }
    }

    /// Plans a recoverable I/O failure. Multiple injections may be
    /// queued; each operation checks them in insertion order.
    pub fn inject(&self, plan: ErrorInjection) {
        lock(&self.state)
            .injections
            .push(Injected { plan, triggered: false, done: false });
    }

    /// Removes every injection scoped under `prefix` (`""` removes all) —
    /// the "operator replaced the disk" hook a sticky-failure test calls
    /// before exercising the reopen path.
    pub fn clear_injections(&self, prefix: &str) {
        lock(&self.state)
            .injections
            .retain(|inj| !(prefix.is_empty() || inj.plan.path_prefix.starts_with(prefix)));
    }

    /// How many operations have failed by injection so far.
    pub fn injected_failures(&self) -> u64 {
        lock(&self.state).injected_failures
    }

    /// The read counter (reads are numbered separately from mutating
    /// operations and never shift crash points).
    pub fn reads(&self) -> u64 {
        lock(&self.state).reads
    }

    /// Runs one mutating operation: counts it, fires the planned crash at
    /// its boundary, fires any due error injection (instead of the
    /// operation — no partial effect), and otherwise applies `apply`.
    /// `volatile_on_crash` runs instead when the crash fires — it models
    /// the part of the operation that may have reached the (volatile)
    /// cache before the process died.
    fn mutate(
        &self,
        path: &str,
        apply: impl FnOnce(&mut SimState),
        volatile_on_crash: impl FnOnce(&mut SimState),
    ) -> Result<(), StoreError> {
        let mut state = lock(&self.state);
        if state.crashed {
            return Err(StoreError::Crashed);
        }
        let op = state.ops;
        state.ops += 1;
        if state.crash_at == Some(op) {
            state.crashed = true;
            volatile_on_crash(&mut state);
            return Err(StoreError::Crashed);
        }
        if let Some(kind) = state.injected(path, Some(op), None) {
            return Err(injection_error(kind, path));
        }
        apply(&mut state);
        Ok(())
    }
}

impl Vfs for SimVfs {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let mut state = lock(&self.state);
        if state.crashed {
            return Err(StoreError::Crashed);
        }
        let read = state.reads;
        state.reads += 1;
        if let Some(kind) = state.injected(path, None, Some(read)) {
            return Err(injection_error(kind, path));
        }
        Ok(state.files.get(path).map(|f| f.data.clone()))
    }

    fn exists(&self, path: &str) -> bool {
        lock(&self.state).files.contains_key(path)
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let write = |state: &mut SimState| {
            state.files.entry(path.to_string()).or_default().data.extend_from_slice(bytes);
        };
        // A crashing append still reaches the volatile cache: whether any
        // of it survives is decided by the power-cut mode.
        self.mutate(path, write, write)
    }

    fn sync(&self, path: &str) -> Result<(), StoreError> {
        self.mutate(
            path,
            |state| {
                if let Some(f) = state.files.get_mut(path) {
                    f.synced_len = f.data.len();
                }
            },
            |_| {},
        )
    }

    fn truncate(&self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let replace = |state: &mut SimState| {
            state
                .files
                .insert(path.to_string(), SimFile { data: bytes.to_vec(), synced_len: 0 });
        };
        self.mutate(path, replace, replace)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {
        self.mutate(
            from,
            |state| {
                if let Some(file) = state.files.remove(from) {
                    state.files.insert(to.to_string(), file);
                }
            },
            // Renames are atomic metadata operations: a crash at this
            // boundary means the rename did not happen.
            |_| {},
        )
    }

    fn remove(&self, path: &str) -> Result<(), StoreError> {
        self.mutate(
            path,
            |state| {
                state.files.remove(path);
            },
            |_| {},
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn sim_append_sync_read_roundtrip() {
        let vfs = SimVfs::new();
        vfs.append("f", b"hello ").unwrap();
        vfs.append("f", b"world").unwrap();
        assert_eq!(vfs.read("f").unwrap().unwrap(), b"hello world");
        vfs.sync("f").unwrap();
        assert!(vfs.exists("f"));
        assert!(!vfs.exists("g"));
        assert_eq!(vfs.ops(), 3);
    }

    #[test]
    fn power_cut_modes_shape_the_unsynced_tail() {
        let make = || {
            let vfs = SimVfs::new();
            vfs.append("f", b"safe").unwrap();
            vfs.sync("f").unwrap();
            vfs.append("f", b"1234").unwrap();
            vfs
        };
        let read = |vfs: &SimVfs| vfs.read("f").unwrap().unwrap();
        assert_eq!(read(&make().power_cut(TornMode::Drop)), b"safe");
        assert_eq!(read(&make().power_cut(TornMode::Keep)), b"safe1234");
        assert_eq!(read(&make().power_cut(TornMode::Torn)), b"safe12");
        assert_eq!(read(&make().power_cut(TornMode::Flip)), b"safe123\x35");
    }

    #[test]
    fn crash_fires_once_and_sticks() {
        let vfs = SimVfs::crashing_at(1);
        vfs.append("f", b"a").unwrap();
        assert_eq!(vfs.append("f", b"b"), Err(StoreError::Crashed));
        assert!(vfs.has_crashed());
        assert_eq!(vfs.sync("f"), Err(StoreError::Crashed));
        assert_eq!(vfs.read("f"), Err(StoreError::Crashed));
        // The crashing append reached the cache; Keep preserves it, Drop
        // loses everything unsynced.
        assert_eq!(vfs.power_cut(TornMode::Keep).read("f").unwrap().unwrap(), b"ab");
        assert_eq!(vfs.power_cut(TornMode::Drop).read("f").unwrap().unwrap(), b"");
    }

    #[test]
    fn crashing_rename_does_not_happen() {
        let vfs = SimVfs::new();
        vfs.truncate("tmp", b"x").unwrap();
        vfs.sync("tmp").unwrap();
        vfs.set_crash_at(Some(2));
        assert_eq!(vfs.rename("tmp", "final"), Err(StoreError::Crashed));
        let disk = vfs.power_cut(TornMode::Keep);
        assert!(disk.exists("tmp"));
        assert!(!disk.exists("final"));
    }

    #[test]
    fn one_shot_injection_fires_once_with_no_partial_effect() {
        let vfs = SimVfs::new();
        vfs.inject(ErrorInjection::at_op(1, InjectedErrorKind::Eio));
        vfs.append("f", b"aa").unwrap();
        let err = vfs.append("f", b"bb").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
        // No partial effect: the refused append left the file untouched.
        assert_eq!(vfs.read("f").unwrap().unwrap(), b"aa");
        // One-shot: the next attempt succeeds, and op numbering counted
        // the failed attempt (crash matrices rely on stable numbering).
        vfs.append("f", b"bb").unwrap();
        assert_eq!(vfs.read("f").unwrap().unwrap(), b"aabb");
        assert_eq!(vfs.ops(), 3);
        assert_eq!(vfs.injected_failures(), 1);
    }

    #[test]
    fn sticky_injection_kills_matching_ops_and_reads() {
        let vfs = SimVfs::new();
        vfs.append("shard-001/wal", b"x").unwrap();
        vfs.append("shard-000/wal", b"y").unwrap();
        vfs.inject(ErrorInjection::on_prefix("shard-001/", InjectedErrorKind::NoSpace).sticky());
        assert_eq!(
            vfs.append("shard-001/wal", b"z"),
            Err(StoreError::NoSpace("injected ENOSPC on shard-001/wal".into()))
        );
        // Once latched, the sick prefix fails reads and syncs too...
        assert!(vfs.read("shard-001/wal").is_err());
        assert!(vfs.sync("shard-001/wal").is_err());
        // ...while the healthy shard is completely unaffected.
        vfs.append("shard-000/wal", b"y").unwrap();
        vfs.sync("shard-000/wal").unwrap();
        assert_eq!(vfs.read("shard-000/wal").unwrap().unwrap(), b"yy");
        // Replacing the disk clears the fault; the surviving bytes are
        // whatever was on the platter before it died.
        vfs.clear_injections("shard-001/");
        assert_eq!(vfs.read("shard-001/wal").unwrap().unwrap(), b"x");
        vfs.append("shard-001/wal", b"z").unwrap();
        assert!(vfs.injected_failures() >= 3);
    }

    #[test]
    fn sync_failure_leaves_the_tail_volatile() {
        let vfs = SimVfs::new();
        vfs.append("f", b"tail").unwrap();
        vfs.inject(ErrorInjection::at_op(1, InjectedErrorKind::SyncFail));
        assert!(vfs.sync("f").is_err());
        // The failed fsync durable-ized nothing: a power cut drops the tail.
        assert_eq!(vfs.power_cut(TornMode::Drop).read("f").unwrap().unwrap(), b"");
    }

    #[test]
    fn read_injection_uses_its_own_counter() {
        let vfs = SimVfs::new();
        vfs.append("f", b"abc").unwrap();
        vfs.inject(ErrorInjection::at_read(1, InjectedErrorKind::Eio));
        assert_eq!(vfs.read("f").unwrap().unwrap(), b"abc");
        assert!(vfs.read("f").is_err());
        assert_eq!(vfs.read("f").unwrap().unwrap(), b"abc");
        assert_eq!(vfs.reads(), 3);
        // Reads never consumed mutating-op numbers.
        assert_eq!(vfs.ops(), 1);
    }

    #[test]
    fn power_cut_disks_carry_no_injections() {
        let vfs = SimVfs::new();
        vfs.inject(ErrorInjection::on_prefix("", InjectedErrorKind::Eio).sticky());
        assert!(vfs.append("f", b"x").is_err());
        let disk = vfs.power_cut(TornMode::Keep);
        disk.append("f", b"x").unwrap();
        assert_eq!(disk.injected_failures(), 0);
    }

    #[test]
    fn error_plan_is_a_pure_function_of_its_seed() {
        let a = error_plan(42, 16, 100);
        let b = error_plan(42, 16, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let c = error_plan(43, 16, 100);
        assert_ne!(a, c, "different seeds should give different schedules");
        for inj in &a {
            let at = inj.at_op.or(inj.at_read).expect("plan entries carry a trigger point");
            assert!(at < 100);
        }
    }

    #[test]
    fn std_vfs_roundtrip_in_a_temp_dir() {
        let dir = std::env::temp_dir().join(format!("pufatt-store-vfs-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let vfs = StdVfs::open(&dir).unwrap();
        assert_eq!(vfs.read("wal").unwrap(), None);
        vfs.append("wal", b"abc").unwrap();
        vfs.sync("wal").unwrap();
        vfs.append("wal", b"def").unwrap();
        assert_eq!(vfs.read("wal").unwrap().unwrap(), b"abcdef");
        vfs.truncate("tmp", b"snap").unwrap();
        vfs.sync("tmp").unwrap();
        vfs.rename("tmp", "snapshot").unwrap();
        assert!(!vfs.exists("tmp"));
        assert_eq!(vfs.read("snapshot").unwrap().unwrap(), b"snap");
        vfs.remove("snapshot").unwrap();
        vfs.remove("snapshot").unwrap(); // idempotent
        assert!(!vfs.exists("snapshot"));
        // Nested shard paths create their directory on first write.
        vfs.append("shard-003/wal", b"xyz").unwrap();
        assert_eq!(vfs.read("shard-003/wal").unwrap().unwrap(), b"xyz");
        vfs.truncate("shard-003/snap.tmp", b"s").unwrap();
        vfs.rename("shard-003/snap.tmp", "shard-003/snap").unwrap();
        assert_eq!(vfs.read("shard-003/snap").unwrap().unwrap(), b"s");
        let _ = fs::remove_dir_all(&dir);
    }
}
