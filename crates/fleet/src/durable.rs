//! The durable campaign journal: how fleet transitions are recorded in
//! [`pufatt_store::ShardedStore`] and how a device resumes from them.
//!
//! # What is journaled
//!
//! A journaled [`FleetService`](crate::FleetService) — behind
//! `pufatt serve --state-dir` or a [`RunningCampaign`](crate::RunningCampaign)
//! — records campaign identity ([`Meta`](pufatt_store::Record::Meta)), enrollments,
//! abandonments ([`DeviceAbandoned`](pufatt_store::Record::DeviceAbandoned)) and
//! exactly one record per scheduled session:
//! [`SessionRefused`](pufatt_store::Record::SessionRefused), or
//! [`SessionClosed`](pufatt_store::Record::SessionClosed) (verdict, post-transition
//! lifecycle state, streaks, metric deltas) or
//! [`SessionFault`](pufatt_store::Record::SessionFault) (metric deltas), each of the
//! last two carrying the device's deterministic position after the
//! session as a [`CursorInfo`](pufatt_store::CursorInfo): its session
//! RNG word offset, its PUF noise-RNG word offset and evaluation count,
//! and the tamper-parity bit. A refusal consumes no randomness and
//! carries no cursor. Records route to per-device-range WAL shards and
//! ride a *group commit*: [`ShardedStore::append_nosync`] acknowledges
//! an append when it is applied and queued, and a background
//! [`pufatt_store::Committer`] fsyncs each dirty shard within the
//! configured latency bound ([`CampaignConfig::commit_interval_s`]). The
//! store bounds each shard's queue itself
//! ([`pufatt_store::COMMIT_QUEUE_LIMIT`]: the append that finds it full
//! commits it inline), so the service has no fallback of its own.
//!
//! # Why resume reproduces the uninterrupted run
//!
//! Campaigns are deterministic in their configuration (see
//! [`crate::campaign`]): every per-device random stream derives from the
//! seed and device id, and one device's sessions run in order. Resume
//! exploits this twice over. Each device's record — lifecycle, history,
//! session count and cursor — and the fleet's counters live only in the
//! store, which the service reads and appends to (in memory too, over
//! [`pufatt_store::NullVfs`], when nothing is journaled), so a restore
//! copies nothing: the recovered table is the service's state. Then each
//! device, provisioned when its first session needs it, jumps to the
//! cursor of its last journaled session (absolute RNG positions: nothing
//! is re-run), and the remaining sessions run live.
//! A session's verdict and its cursor are one record, so no crash can
//! keep one without the other. A crash can lose at most the unflushed
//! group-commit tail of each shard — and every lost record is re-derived
//! identically by re-running those sessions, so the final report is
//! bit-identical to a run that was never interrupted (modulo wall-clock
//! time and store statistics).
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
//! Devices past the configured fleet size are counted as
//! [`devices_enrolled_online`](crate::metrics::FleetSnapshot::devices_enrolled_online)
//! by their id alone, live and on resume.

use crate::campaign::CampaignConfig;
use crate::metrics::bucket_index;
use pufatt::PufattError;
use pufatt_store::record::OutcomeRec;
use pufatt_store::{ShardedOptions, ShardedStore, StdVfs, StoreError};
use std::path::Path;
use std::sync::Arc;

/// Fingerprint of the verdict-affecting configuration fields, persisted
/// in [`Record::Meta`](pufatt_store::Record::Meta). Scheduling knobs
/// (workers, shards, commit interval) are excluded: a campaign may
/// legitimately be resumed on a machine with a different core count or
/// durability budget.
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
        latency_slot: bucket_index(o.elapsed_s) as u8,
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
