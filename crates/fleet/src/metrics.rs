//! Campaign metrics: lock-free counters and a latency histogram.
//!
//! The durable counters (sessions started, accepted, rejected, …, and the
//! latency histogram) are never bumped directly. The service counts each
//! session record it emits through [`FleetMetrics::count`], which applies
//! the store's one counting rule ([`Counters::tally`]) — the same function
//! journal replay runs. Live totals therefore equal the totals replayed
//! from the journal by construction. Only two counters are live-only:
//! `sessions_unavailable` and `devices_enrolled_online` (see their
//! mutators for why neither is journaled).
//!
//! Workers on many threads record outcomes concurrently; everything here
//! is an [`AtomicU64`] with relaxed ordering — the counters are monotonic
//! statistics, not synchronisation, so no ordering stronger than the
//! individual increments is needed. A [`FleetSnapshot`] is a point-in-time
//! copy for reporting (counters are read independently, so a snapshot
//! taken mid-campaign can be off by in-flight sessions; taken after
//! drain it is exact).

use crate::registry::StatusCounts;
use pufatt_store::state::COUNTERS;
use pufatt_store::{Counter, Counters, Record, StoreStats};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

// The durable store persists latency as fixed-width slot counts; the two
// layers must agree on the histogram shape or restores silently shift
// buckets.
const _: () = assert!(LATENCY_BUCKETS == pufatt_store::record::LATENCY_SLOTS);

/// Number of log-scale latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, with the last bucket open-ended.
pub const LATENCY_BUCKETS: usize = 32;

/// A log₂-bucketed histogram of session latencies.
///
/// Log-scale buckets give constant relative resolution: a 100 µs honest
/// session and a 3 s retried-into-backoff session land far apart without
/// either tail needing thousands of linear bins.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The bucket an elapsed time lands in. Public because the durable
    /// campaign journals this slot with each session outcome — persisted
    /// and live sessions must bucket identically for a resumed campaign's
    /// histogram to match an uninterrupted run's.
    pub fn bucket_index(elapsed_s: f64) -> usize {
        let us = (elapsed_s * 1e6).max(0.0) as u64;
        // 0 and 1 µs share bucket 0; everything ≥ 2^31 µs (~36 min)
        // lands in the open-ended last bucket.
        (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one session's elapsed time.
    pub fn record(&self, elapsed_s: f64) {
        self.buckets[Self::bucket_index(elapsed_s)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded sessions.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Non-empty buckets as `(lower_bound_us, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((1u64 << i, n))
            })
            .collect()
    }
}

/// Shared counters for one campaign, incremented by workers and read by
/// the reporter.
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// The durable counters, indexed by [`Counter`].
    durable: [AtomicU64; COUNTERS],
    sessions_unavailable: AtomicU64,
    devices_enrolled_online: AtomicU64,
    latency: LatencyHistogram,
}

impl FleetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        FleetMetrics::default()
    }

    /// Counts one session record — closed, faulted, refused, or a device
    /// abandoned at provisioning — by the store's own rule
    /// ([`Counters::tally`]), so the live totals equal what replaying the
    /// same records gives.
    pub fn count(&self, record: &Record) {
        let slot = Counters::tally(record, |counter, n| {
            if n > 0 {
                self.durable[counter as usize].fetch_add(n, Ordering::Relaxed);
            }
        });
        if let Some(slot) = slot {
            self.latency.buckets[slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A session was refused because its device's storage shard is sick
    /// (Degraded or Failed). Not journaled — the sick shard could not
    /// record it anyway — and deliberately *not* restored from store
    /// counters: after the shard reopens, a resumed campaign runs these
    /// sessions for real, so carrying the refusal count forward would
    /// double-book them.
    pub fn sessions_unavailable(&self, n: u64) {
        self.sessions_unavailable.fetch_add(n, Ordering::Relaxed);
    }

    /// A device beyond the configured fleet size was admitted while the
    /// campaign ran (online enrollment). Derived on resume by counting
    /// restored ids past the configured range, so the counter survives
    /// restarts without its own journal record.
    pub fn device_enrolled_online(&self) {
        self.devices_enrolled_online.fetch_add(1, Ordering::Relaxed);
    }

    /// Rebuilds metrics from a durable store's recovered counters, so a
    /// resumed campaign continues counting where the interrupted run's
    /// *committed* records left off and its final snapshot equals an
    /// uninterrupted run's.
    pub fn from_store_counters(c: &Counters) -> Self {
        let m = FleetMetrics::new();
        let live = m.durable.iter().chain(&m.latency.buckets);
        for (counter, &n) in live.zip(c.values.iter().chain(&c.latency)) {
            counter.store(n, Ordering::Relaxed);
        }
        m
    }

    /// Point-in-time copy of all counters, paired with the fleet's
    /// device counts.
    pub fn snapshot(&self, devices: StatusCounts) -> FleetSnapshot {
        let get = |counter: Counter| self.durable[counter as usize].load(Ordering::Relaxed);
        FleetSnapshot {
            sessions_started: get(Counter::Started),
            sessions_accepted: get(Counter::Accepted),
            sessions_rejected: get(Counter::Rejected),
            sessions_timed_out: get(Counter::TimedOut),
            attempts_retried: get(Counter::Retried),
            sessions_refused: get(Counter::Refused),
            sessions_unavailable: self.sessions_unavailable.load(Ordering::Relaxed),
            device_faults: get(Counter::Faults),
            messages_dropped: get(Counter::Dropped),
            sessions_lost: get(Counter::Lost),
            crp_hits: get(Counter::CrpHits),
            crp_misses: get(Counter::CrpMisses),
            devices_enrolled_online: self.devices_enrolled_online.load(Ordering::Relaxed),
            devices,
            latency_buckets_us: self.latency.nonzero_buckets(),
            store: None,
        }
    }
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
    use pufatt_store::{CursorInfo, StoredStatus};

    #[test]
    fn bucket_indexing_is_log_scale() {
        assert_eq!(LatencyHistogram::bucket_index(0.0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1e-6), 0);
        assert_eq!(LatencyHistogram::bucket_index(3e-6), 1); // 3 µs → [2,4)
        assert_eq!(LatencyHistogram::bucket_index(1e-3), 9); // 1000 µs → [512, 1024)
        assert_eq!(LatencyHistogram::bucket_index(1e6), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_and_reports() {
        let h = LatencyHistogram::new();
        h.record(100e-6);
        h.record(110e-6);
        h.record(0.5);
        assert_eq!(h.count(), 3);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (64, 2)); // 100 µs and 110 µs share [64,128)
        assert_eq!(buckets[1].1, 1);
    }

    /// A device's generator positions; the counters never read them.
    const CURSOR: CursorInfo = CursorInfo {
        session_pos: 0,
        noise_pos: 0,
        noise_evals: 0,
        tamper_parity: false,
    };

    /// A closed-session record built the way the service builds one.
    fn closed(id: u32, outcome: &SessionOutcome, retried: u32, lost: bool, status: StoredStatus, fails: u32) -> Record {
        let rec = to_outcome_rec(outcome, retried, 0, lost, 56, 8);
        Record::SessionClosed { id, outcome: rec, status, fails, succs: 0, cursor: CURSOR }
    }

    fn outcome(accepted: bool, timed_out: bool, elapsed_s: f64) -> SessionOutcome {
        SessionOutcome {
            accepted,
            response_ok: accepted,
            time_ok: !timed_out,
            timed_out,
            attempts: 1,
            elapsed_s,
        }
    }

    #[test]
    fn restored_counters_continue_where_the_store_left_off() {
        // One record of every counted kind, as the service emits them.
        // Counting them live and replaying them into the store must give
        // the same snapshot.
        let records = [
            Record::DeviceEnrolled { id: 0 },
            Record::DeviceEnrolled { id: 1 },
            Record::DeviceEnrolled { id: 2 },
            closed(0, &outcome(true, false, 1e-3), 1, false, StoredStatus::Active, 0),
            closed(0, &outcome(false, true, 1.5), 2, false, StoredStatus::Active, 1),
            // A lost session, as `abort_session` builds it.
            closed(0, &outcome(false, true, 1.0), 0, true, StoredStatus::Quarantined, 2),
            Record::SessionFault {
                id: 1,
                retried: 1,
                dropped: 3,
                crp_hits: 4,
                crp_misses: 5,
                cursor: CURSOR,
            },
            Record::StatusChanged { id: 1, status: StoredStatus::Revoked },
            Record::SessionRefused { id: 1 },
            Record::DeviceAbandoned { id: 2 },
        ];
        let live = FleetMetrics::new();
        let mut persisted = pufatt_store::StoreState::new(8);
        for (seq, record) in (1..).zip(&records) {
            live.count(record);
            persisted.apply(seq, record).expect("legal record");
        }

        let devices = StatusCounts { active: 1, quarantined: 1, revoked: 1 };
        let snap = live.snapshot(devices);
        assert_eq!(FleetMetrics::from_store_counters(&persisted.counters).snapshot(devices), snap);
        let counted = [
            snap.sessions_started,
            snap.sessions_accepted,
            snap.sessions_rejected,
            snap.sessions_timed_out,
            snap.attempts_retried,
            snap.sessions_refused,
            snap.device_faults,
            snap.messages_dropped,
            snap.sessions_lost,
            snap.crp_hits,
            snap.crp_misses,
        ];
        assert_eq!(counted, [4, 1, 2, 2, 4, 1, 2, 3, 1, 3 * 56 + 4, 3 * 8 + 5]);
        assert_eq!(snap.latency_buckets_us.iter().map(|&(_, n)| n).sum::<u64>(), 3);
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = FleetMetrics::new();
        m.count(&closed(0, &outcome(true, false, 1e-3), 0, false, StoredStatus::Active, 0));
        m.count(&closed(0, &outcome(false, true, 1e-3), 1, false, StoredStatus::Active, 1));
        let snap = m.snapshot(StatusCounts { active: 3, quarantined: 1, revoked: 0 });
        assert_eq!(snap.sessions_started, 2);
        assert_eq!(snap.sessions_accepted, 1);
        assert_eq!(snap.sessions_rejected, 1);
        assert_eq!(snap.sessions_timed_out, 1);
        assert_eq!(snap.attempts_retried, 1);
        assert_eq!(snap.devices.total(), 4);
        assert_eq!(snap.latency_buckets_us.len(), 1);
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
