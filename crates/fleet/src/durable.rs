//! The durable campaign journal: how fleet transitions are recorded in
//! [`pufatt_store::ShardedStore`] and how a device resumes from them.
//!
//! # What is journaled
//!
//! A journaled [`FleetService`](crate::FleetService) — behind
//! `pufatt serve --state-dir` or a [`RunningCampaign`](crate::RunningCampaign)
//! — records campaign identity ([`Record::Meta`]), enrollments, one record
//! per scheduled session ([`Record::SessionClosed`] with verdict +
//! post-transition lifecycle state + streaks + metric deltas,
//! [`Record::SessionRefused`], [`Record::SessionFault`], or
//! [`Record::DeviceAbandoned`]), and — after every scheduled session — a
//! [`Record::DeviceCursor`] snapshot of the device's deterministic
//! position: its session RNG word offset, its PUF noise-RNG word offset
//! and evaluation count, and the tamper-parity bit. Records route to
//! per-device-range WAL shards and ride a *group commit*: appends are
//! acknowledged when applied and queued, and a background
//! [`pufatt_store::Committer`] fsyncs each dirty shard within
//! the configured latency bound ([`CampaignConfig::commit_interval_s`]).
//!
//! # Why resume reproduces the uninterrupted run
//!
//! Campaigns are deterministic in their configuration (see
//! [`crate::campaign`]): every per-device random stream derives from the
//! seed and device id, and one device's sessions run in order. Resume
//! exploits this twice over. The lifecycles, metrics, and histories are
//! restored from the store. Then each device, provisioned when its first
//! session needs it, fast-forwards: its journaled cursor restores the RNG
//! positions directly (no replay), any committed session events *after*
//! the last cursor are re-run, uncounted, purely to advance RNG and
//! channel state (refusals consumed no randomness and are skipped), and
//! the remaining sessions run live. A crash can lose at most the
//! unflushed group-commit tail of each shard — and every lost record is
//! re-derived identically by re-running those sessions, so the final
//! report is bit-identical to a run that was never interrupted (modulo
//! wall-clock time and store statistics).
//!
//! Resuming under a different configuration is refused via the persisted
//! config fingerprint ([`config_fingerprint`]) rather than silently
//! blending two campaigns. Worker count, slot shard count and the
//! commit interval are deliberately *excluded* from the fingerprint —
//! they change scheduling and durability latency, never verdicts.
//!
//! # Online enrollment
//!
//! A device admitted while the campaign runs (a wire `Enroll`, or
//! [`RunningCampaign::enroll`](crate::RunningCampaign::enroll)) is
//! journaled with a forced sync before it becomes visible anywhere, so at
//! every crash point it is either fully admitted or entirely absent.
//! Devices past the configured fleet size are re-counted on resume as
//! [`devices_enrolled_online`](crate::metrics::FleetSnapshot::devices_enrolled_online)
//! by their id alone.

use crate::campaign::{run_session, CampaignConfig, DeviceSession};
use crate::metrics::LatencyHistogram;
use pufatt::PufattError;
use pufatt_store::record::{OutcomeRec, Record};
use pufatt_store::state::{CursorInfo, EV_REFUSED};
use pufatt_store::{ShardedOptions, ShardedStore, StdVfs, StoreError};
use std::path::Path;
use std::sync::Arc;

/// Fingerprint of the verdict-affecting configuration fields, persisted
/// in [`Record::Meta`]. Scheduling knobs (workers, shards, commit
/// interval) are excluded: a campaign may legitimately be resumed
/// on a machine with a different core count or durability budget.
pub fn config_fingerprint(cfg: &CampaignConfig) -> u64 {
    let text = format!(
        "pufatt-campaign-v1|devices={}|sessions={}|seed={}|tamper={:016x}|timeout={:016x}|history={}|puf={:?}|params={:?}|policy={:?}|chaos={:?}",
        cfg.devices,
        cfg.sessions_per_device,
        cfg.seed,
        cfg.tamper_fraction.to_bits(),
        cfg.timeout_s.to_bits(),
        cfg.history_capacity,
        cfg.puf,
        cfg.params,
        cfg.policy,
        cfg.chaos,
    );
    // FNV-1a: tiny, dependency-free, and collision resistance is not a
    // security property here — the fingerprint guards against operator
    // mistakes, not adversaries (a forged state directory already implies
    // a compromised verifier host).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Maps a store error onto the fleet error type, preserving the typed
/// per-shard refusal ([`StoreError::ShardUnavailable`] →
/// [`PufattError::StorageUnavailable`]) instead of flattening it to text.
pub(crate) fn storage_err(e: StoreError) -> PufattError {
    match e {
        StoreError::ShardUnavailable { shard } => PufattError::StorageUnavailable { shard },
        other => PufattError::Storage(other.to_string()),
    }
}

pub(crate) fn to_outcome_rec(
    o: &crate::registry::SessionOutcome,
    retried: u32,
    dropped: u32,
    lost: bool,
    crp_hits: u32,
    crp_misses: u32,
) -> OutcomeRec {
    OutcomeRec {
        accepted: o.accepted,
        response_ok: o.response_ok,
        time_ok: o.time_ok,
        timed_out: o.timed_out,
        attempts: o.attempts,
        elapsed_bits: o.elapsed_s.to_bits(),
        retried,
        dropped,
        lost,
        latency_slot: LatencyHistogram::bucket_index(o.elapsed_s) as u8,
        crp_hits,
        crp_misses,
    }
}

pub(crate) fn from_outcome_rec(r: &OutcomeRec) -> crate::registry::SessionOutcome {
    crate::registry::SessionOutcome {
        accepted: r.accepted,
        response_ok: r.response_ok,
        time_ok: r.time_ok,
        timed_out: r.timed_out,
        attempts: r.attempts,
        elapsed_s: r.elapsed_s(),
    }
}

/// Commits one record through the group-commit path, falling back to a
/// forced sync when the shard's commit queue is full (backpressure
/// degrades throughput, never loses the record). A hard failure comes
/// back typed: the store has already degraded the record's home shard, so
/// the caller stops routing work there and the campaign keeps attesting
/// the healthy shards — the lost record is re-derived bit-identically on
/// resume after the shard reopens.
pub(crate) fn journal(store: &ShardedStore, record: &Record) -> Result<(), StoreError> {
    match store.append(record) {
        Err(StoreError::Backpressure) => store.append_synced(record),
        other => other,
    }
}

/// A device's committed position when the store was opened: what its
/// session must fast-forward past, once provisioned, before running live
/// sessions. The default is a freshly enrolled device's.
#[derive(Debug, Clone, Default)]
pub(crate) struct DevicePrior {
    /// Session events after the last cursor (full history if none).
    pub events: Vec<u8>,
    /// The last committed cursor, if any.
    pub cursor: Option<CursorInfo>,
}

impl DevicePrior {
    pub(crate) fn from_state(d: &pufatt_store::DeviceState) -> Self {
        DevicePrior { events: d.events.clone(), cursor: d.cursor }
    }
}

/// Fast-forwards a freshly provisioned session to a device's committed
/// position: jump to the cursor (absolute RNG word positions — nothing
/// before it is replayed), then re-run only the post-cursor event tail,
/// discarding its events (the counters were already restored from the
/// store; refusals consumed no randomness and are skipped).
pub(crate) fn fast_forward(session: &mut DeviceSession, prior: &DevicePrior) {
    if let Some(cursor) = &prior.cursor {
        session.restore_cursor(cursor);
    }
    for &event in &prior.events {
        if event != EV_REFUSED {
            run_session(session);
        }
    }
}

/// Opens (creating if needed) `dir` as a sharded campaign state directory
/// with the production file backend and the configuration's history bound.
///
/// # Errors
///
/// [`PufattError::Storage`] if the directory cannot be created or its
/// existing state fails recovery (including a legacy single-WAL layout,
/// which is refused rather than silently shadowed).
pub fn open_state_dir(dir: &Path, history_capacity: usize) -> Result<Arc<ShardedStore>, PufattError> {
    let vfs = StdVfs::open(dir).map_err(|e| PufattError::Storage(e.to_string()))?;
    let opts = ShardedOptions {
        history_capacity: history_capacity.max(1),
        ..ShardedOptions::default()
    };
    ShardedStore::open(Arc::new(vfs), opts).map(Arc::new).map_err(storage_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::small_test_config;

    #[test]
    fn fingerprint_ignores_scheduling_but_not_verdicts() {
        let cfg = small_test_config(8, 2, 1);
        let mut other_workers = cfg.clone();
        other_workers.workers = 7;
        other_workers.shards = 3;
        other_workers.commit_interval_s = 0.25;
        assert_eq!(config_fingerprint(&cfg), config_fingerprint(&other_workers));
        let mut other_seed = cfg.clone();
        other_seed.seed ^= 1;
        assert_ne!(config_fingerprint(&cfg), config_fingerprint(&other_seed));
        let mut other_timeout = cfg;
        other_timeout.timeout_s *= 2.0;
        assert_ne!(config_fingerprint(&other_timeout), config_fingerprint(&other_seed));
    }
}
