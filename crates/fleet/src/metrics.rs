//! Campaign metrics: the fleet snapshot and its latency buckets.
//!
//! The service keeps no counters of its own. Its store counts every
//! record it applies (`pufatt_store::Counters::count`, the rule journal
//! replay runs), so the totals a [`FleetSnapshot`] reports are the store's,
//! live and after a restore alike. Two fields are the service's own:
//! `sessions_unavailable`, a live-only count of sessions refused on a sick
//! shard (see the field for why it is not journaled), and
//! `devices_enrolled_online`, the enrolled ids past the configured fleet.
//!
//! A [`FleetSnapshot`] is a point-in-time copy for reporting: the counters
//! and the device statuses are read shard by shard, so a snapshot taken
//! mid-campaign can be off by in-flight sessions; taken after drain it is
//! exact.

use crate::registry::StatusCounts;
use pufatt_store::{Counter, Counters, StoreStats};
use std::fmt;

// The durable store persists latency as fixed-width slot counts; the two
// layers must agree on the histogram shape or restores silently shift
// buckets.
const _: () = assert!(LATENCY_BUCKETS == pufatt_store::record::LATENCY_SLOTS);

/// Number of log-scale latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, with the last bucket open-ended.
/// Log-scale buckets give constant relative resolution: a 100 µs honest
/// session and a 3 s retried-into-backoff session land far apart without
/// either tail needing thousands of linear bins.
pub const LATENCY_BUCKETS: usize = 32;

/// The latency bucket an elapsed time lands in, journaled with each
/// session outcome — persisted and live sessions bucket identically, so a
/// resumed campaign's histogram matches an uninterrupted run's.
pub fn bucket_index(elapsed_s: f64) -> usize {
    let us = (elapsed_s * 1e6).max(0.0) as u64;
    // 0 and 1 µs share bucket 0; everything ≥ 2^31 µs (~36 min)
    // lands in the open-ended last bucket.
    (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// Point-in-time view of a campaign, suitable for printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Sessions that ran, to a verdict or into a device fault.
    pub sessions_started: u64,
    /// Sessions accepted by the verifier.
    pub sessions_accepted: u64,
    /// Sessions rejected (includes timed-out ones).
    pub sessions_rejected: u64,
    /// Rejected sessions whose cause was the session timeout.
    pub sessions_timed_out: u64,
    /// Retries, counted per the campaign's retry policy: every retried
    /// attempt in a plain campaign, every session that retried at all in
    /// a chaos campaign (`pufatt::protocol::RetryMode`).
    pub attempts_retried: u64,
    /// Sessions refused up front because the device was revoked.
    pub sessions_refused: u64,
    /// Sessions refused because the device's storage shard was sick
    /// (Degraded or Failed) — typed availability refusals, never
    /// verdicts. Zero whenever storage stayed healthy.
    pub sessions_unavailable: u64,
    /// Sessions that faulted outside the protocol, plus devices abandoned
    /// at provisioning.
    pub device_faults: u64,
    /// Protocol messages lost in transit (chaos campaigns).
    pub messages_dropped: u64,
    /// Sessions that ended without a verdict — deadline expired or every
    /// attempt lost to the channel (subset of `sessions_rejected`).
    pub sessions_lost: u64,
    /// Reference responses the verifiers served from their CRP caches.
    pub crp_hits: u64,
    /// Reference responses the verifiers had to emulate (cache misses).
    pub crp_misses: u64,
    /// Devices admitted beyond the configured fleet size while the
    /// campaign ran (online enrollment).
    pub devices_enrolled_online: u64,
    /// Device counts by lifecycle state.
    pub devices: StatusCounts,
    /// Non-empty latency buckets as `(lower_bound_us, count)`.
    pub latency_buckets_us: Vec<(u64, u64)>,
    /// Durable-store health for persistent campaigns (`None` for purely
    /// in-memory runs): WAL bytes, records appended/replayed, snapshots
    /// written, torn tails recovered.
    pub store: Option<StoreStats>,
}

impl FleetSnapshot {
    /// A snapshot of a store's `counters` and the fleet's `devices`, with
    /// the two counts the store does not hold.
    pub(crate) fn from_counters(
        counters: &Counters,
        devices: StatusCounts,
        devices_enrolled_online: u64,
        sessions_unavailable: u64,
    ) -> Self {
        FleetSnapshot {
            sessions_started: counters[Counter::Started],
            sessions_accepted: counters[Counter::Accepted],
            sessions_rejected: counters[Counter::Rejected],
            sessions_timed_out: counters[Counter::TimedOut],
            attempts_retried: counters[Counter::Retried],
            sessions_refused: counters[Counter::Refused],
            sessions_unavailable,
            device_faults: counters[Counter::Faults],
            messages_dropped: counters[Counter::Dropped],
            sessions_lost: counters[Counter::Lost],
            crp_hits: counters[Counter::CrpHits],
            crp_misses: counters[Counter::CrpMisses],
            devices_enrolled_online,
            devices,
            latency_buckets_us: (counters.latency.iter().enumerate())
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (1u64 << i, n))
                .collect(),
            store: None,
        }
    }

    /// Sessions that reached a verdict, accepted or rejected.
    pub(crate) fn sessions_closed(&self) -> u64 {
        self.sessions_accepted + self.sessions_rejected
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.0}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.0}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

impl fmt::Display for FleetSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "devices   {} active / {} quarantined / {} revoked ({} total)",
            self.devices.active,
            self.devices.quarantined,
            self.devices.revoked,
            self.devices.total()
        )?;
        if self.devices_enrolled_online > 0 {
            writeln!(f, "          {} enrolled online (beyond the configured fleet)", self.devices_enrolled_online)?;
        }
        writeln!(
            f,
            "sessions  {} started / {} accepted / {} rejected ({} timed out) / {} refused",
            self.sessions_started,
            self.sessions_accepted,
            self.sessions_rejected,
            self.sessions_timed_out,
            self.sessions_refused
        )?;
        if self.sessions_unavailable > 0 {
            writeln!(f, "          {} refused: storage shard unavailable", self.sessions_unavailable)?;
        }
        writeln!(f, "attempts  {} retried, {} device faults", self.attempts_retried, self.device_faults)?;
        if self.crp_hits > 0 || self.crp_misses > 0 {
            let total = self.crp_hits + self.crp_misses;
            writeln!(
                f,
                "crp cache {} hits / {} misses ({:.1}% hit rate)",
                self.crp_hits,
                self.crp_misses,
                self.crp_hits as f64 * 100.0 / total as f64
            )?;
        }
        if self.messages_dropped > 0 || self.sessions_lost > 0 {
            writeln!(f, "chaos     {} messages dropped, {} sessions lost", self.messages_dropped, self.sessions_lost)?;
        }
        if let Some(store) = &self.store {
            writeln!(f, "store     {store}")?;
        }
        writeln!(f, "latency (end-to-end, simulated):")?;
        let peak = self.latency_buckets_us.iter().map(|&(_, n)| n).max().unwrap_or(0);
        for &(lower, count) in &self.latency_buckets_us {
            let bar = "#".repeat(((count * 40).div_ceil(peak.max(1))) as usize);
            writeln!(f, "  {:>7} – {:<7} {:>7}  {}", fmt_us(lower), fmt_us(lower * 2), count, bar)?;
        }
        if self.latency_buckets_us.is_empty() {
            writeln!(f, "  (no sessions recorded)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, small_test_config, ChaosConfig};
    use crate::durable::to_outcome_rec;
    use crate::registry::SessionOutcome;
    use pufatt_faults::FaultPlan;
    use pufatt_store::{CursorInfo, Record, StoredStatus};

    #[test]
    fn bucket_indexing_is_log_scale() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-6), 0);
        assert_eq!(bucket_index(3e-6), 1); // 3 µs → [2,4)
        assert_eq!(bucket_index(1e-3), 9); // 1000 µs → [512, 1024)
        assert_eq!(bucket_index(1e6), LATENCY_BUCKETS - 1);
    }

    /// A closed-session record built the way the service builds one.
    fn closed(accepted: bool, timed_out: bool, elapsed_s: f64, retried: u32) -> Record {
        let outcome = SessionOutcome {
            accepted,
            response_ok: accepted,
            time_ok: !timed_out,
            timed_out,
            attempts: 1,
            elapsed_s,
        };
        // The counters never read the device's generator positions.
        let cursor = CursorInfo {
            session_pos: 0,
            noise_pos: 0,
            noise_evals: 0,
            tamper_parity: false,
        };
        let outcome = to_outcome_rec(&outcome, retried, 0, false, 56, 8);
        Record::SessionClosed {
            id: 0,
            outcome,
            status: StoredStatus::Active,
            fails: 0,
            succs: 0,
            cursor,
        }
    }

    #[test]
    fn snapshot_copies_counters() {
        let mut counters = Counters::default();
        counters.count(&closed(true, false, 100e-6, 0));
        counters.count(&closed(false, true, 110e-6, 1));
        counters.count(&closed(true, false, 0.5, 0));
        let snap =
            FleetSnapshot::from_counters(&counters, StatusCounts { active: 3, quarantined: 1, revoked: 0 }, 2, 5);
        assert_eq!(snap.sessions_started, 3);
        assert_eq!(snap.sessions_accepted, 2);
        assert_eq!(snap.sessions_rejected, 1);
        assert_eq!(snap.sessions_closed(), 3);
        assert_eq!(snap.sessions_timed_out, 1);
        assert_eq!(snap.attempts_retried, 1);
        assert_eq!((snap.crp_hits, snap.crp_misses), (3 * 56, 3 * 8));
        assert_eq!((snap.devices_enrolled_online, snap.sessions_unavailable), (2, 5));
        assert_eq!(snap.devices.total(), 4);
        // 100 µs and 110 µs share [64, 128); 0.5 s lands alone.
        assert_eq!(snap.latency_buckets_us, [(64, 2), (1 << bucket_index(0.5), 1)]);
        let rendered = snap.to_string();
        assert!(rendered.contains("accepted"), "display mentions acceptances: {rendered}");
        assert!(rendered.contains('#'), "display draws histogram bars: {rendered}");
    }

    #[test]
    fn drained_chaos_campaign_accounts_for_every_started_session() {
        let mut cfg = small_test_config(12, 3, 0xACC7);
        cfg.chaos = Some(ChaosConfig {
            plan: FaultPlan::clean(0xACC7).with_drops(0.5).with_bit_flips(0.02),
            flaky_fraction: 0.5,
        });
        let snap = run_campaign(&cfg).expect("campaign runs").snapshot;
        assert!(snap.sessions_lost > 0 && snap.messages_dropped > 0, "the plan must bite: {snap}");
        assert_eq!(snap.sessions_started, snap.sessions_accepted + snap.sessions_rejected + snap.device_faults);
    }
}
