//! Campaign metrics: lock-free counters and a latency histogram.
//!
//! Workers on many threads record outcomes concurrently; everything here
//! is an [`AtomicU64`] with relaxed ordering — the counters are monotonic
//! statistics, not synchronisation, so no ordering stronger than the
//! individual increments is needed. A [`FleetSnapshot`] is a point-in-time
//! copy for reporting (counters are read independently, so a snapshot
//! taken mid-campaign can be off by in-flight sessions; taken after
//! drain it is exact).

use crate::registry::{SessionOutcome, StatusCounts};
use pufatt_store::{Counters, StoreStats};
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
    sessions_started: AtomicU64,
    sessions_accepted: AtomicU64,
    sessions_rejected: AtomicU64,
    sessions_timed_out: AtomicU64,
    attempts_retried: AtomicU64,
    sessions_refused: AtomicU64,
    sessions_unavailable: AtomicU64,
    device_faults: AtomicU64,
    messages_dropped: AtomicU64,
    sessions_lost: AtomicU64,
    crp_hits: AtomicU64,
    crp_misses: AtomicU64,
    devices_enrolled_online: AtomicU64,
    latency: LatencyHistogram,
}

impl FleetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        FleetMetrics::default()
    }

    /// A session left the queue and began its first attempt.
    pub fn session_started(&self) {
        self.sessions_started.fetch_add(1, Ordering::Relaxed);
    }

    /// A session ended accepted.
    pub fn session_accepted(&self) {
        self.sessions_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A session ended rejected (response/time check failed after all
    /// attempts).
    pub fn session_rejected(&self) {
        self.sessions_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A session ended rejected specifically by exceeding the scheduler's
    /// session timeout (also counted in `rejected`).
    pub fn session_timed_out(&self) {
        self.sessions_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// One attempt failed and the session is retrying.
    pub fn attempt_retried(&self) {
        self.attempts_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// A session was refused without running (device revoked).
    pub fn session_refused(&self) {
        self.sessions_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// A session was refused because its device's storage shard is sick
    /// (Degraded or Failed). Not journaled — the sick shard could not
    /// record it anyway — and deliberately *not* restored from store
    /// counters: after the shard reopens, a resumed campaign runs these
    /// sessions for real, so carrying the refusal count forward would
    /// double-book them.
    pub fn session_unavailable(&self) {
        self.sessions_unavailable.fetch_add(1, Ordering::Relaxed);
    }

    /// A device errored outside the protocol (trap, provisioning fault).
    pub fn device_fault(&self) {
        self.device_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` protocol messages were lost in transit during a chaos session.
    pub fn messages_dropped(&self, n: u64) {
        self.messages_dropped.fetch_add(n, Ordering::Relaxed);
    }

    /// A session died without a verdict: the deadline expired or the
    /// channel ate every attempt (also counted in `rejected` — a lost
    /// session is a failed session for lifecycle purposes).
    pub fn session_lost(&self) {
        self.sessions_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// A session's verifier served `hits` reference responses from its CRP
    /// cache and emulated `misses`.
    pub fn record_crp(&self, hits: u64, misses: u64) {
        self.crp_hits.fetch_add(hits, Ordering::Relaxed);
        self.crp_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// A device beyond the configured fleet size was admitted while the
    /// campaign ran (online enrollment). Derived on resume by counting
    /// restored ids past the configured range, so the counter survives
    /// restarts without its own journal record.
    pub fn device_enrolled_online(&self) {
        self.devices_enrolled_online.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a finished session's end-to-end latency.
    pub fn observe_latency(&self, elapsed_s: f64) {
        self.latency.record(elapsed_s);
    }

    /// Counts a closed session's verdict — accepted, or rejected (and
    /// possibly timed out) — and records its latency.
    pub(crate) fn session_closed(&self, outcome: &SessionOutcome) {
        if outcome.accepted {
            self.session_accepted();
        } else {
            self.session_rejected();
            if outcome.timed_out {
                self.session_timed_out();
            }
        }
        self.observe_latency(outcome.elapsed_s);
    }

    /// The latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Rebuilds metrics from a durable store's recovered counters, so a
    /// resumed campaign continues counting where the interrupted run's
    /// *committed* records left off and its final snapshot equals an
    /// uninterrupted run's.
    pub fn from_store_counters(c: &Counters) -> Self {
        let m = FleetMetrics::new();
        m.sessions_started.store(c.started, Ordering::Relaxed);
        m.sessions_accepted.store(c.accepted, Ordering::Relaxed);
        m.sessions_rejected.store(c.rejected, Ordering::Relaxed);
        m.sessions_timed_out.store(c.timed_out, Ordering::Relaxed);
        m.attempts_retried.store(c.retried, Ordering::Relaxed);
        m.sessions_refused.store(c.refused, Ordering::Relaxed);
        m.device_faults.store(c.faults, Ordering::Relaxed);
        m.messages_dropped.store(c.dropped, Ordering::Relaxed);
        m.sessions_lost.store(c.lost, Ordering::Relaxed);
        m.crp_hits.store(c.crp_hits, Ordering::Relaxed);
        m.crp_misses.store(c.crp_misses, Ordering::Relaxed);
        for (bucket, &n) in m.latency.buckets.iter().zip(c.latency.iter()) {
            bucket.store(n, Ordering::Relaxed);
        }
        m
    }

    /// Point-in-time copy of all counters, paired with the registry's
    /// device counts.
    pub fn snapshot(&self, devices: StatusCounts) -> FleetSnapshot {
        FleetSnapshot {
            sessions_started: self.sessions_started.load(Ordering::Relaxed),
            sessions_accepted: self.sessions_accepted.load(Ordering::Relaxed),
            sessions_rejected: self.sessions_rejected.load(Ordering::Relaxed),
            sessions_timed_out: self.sessions_timed_out.load(Ordering::Relaxed),
            attempts_retried: self.attempts_retried.load(Ordering::Relaxed),
            sessions_refused: self.sessions_refused.load(Ordering::Relaxed),
            sessions_unavailable: self.sessions_unavailable.load(Ordering::Relaxed),
            device_faults: self.device_faults.load(Ordering::Relaxed),
            messages_dropped: self.messages_dropped.load(Ordering::Relaxed),
            sessions_lost: self.sessions_lost.load(Ordering::Relaxed),
            crp_hits: self.crp_hits.load(Ordering::Relaxed),
            crp_misses: self.crp_misses.load(Ordering::Relaxed),
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
    /// Sessions that began their first attempt.
    pub sessions_started: u64,
    /// Sessions accepted by the verifier.
    pub sessions_accepted: u64,
    /// Sessions rejected (includes timed-out ones).
    pub sessions_rejected: u64,
    /// Rejected sessions whose cause was the session timeout.
    pub sessions_timed_out: u64,
    /// Individual attempts that failed and were retried.
    pub attempts_retried: u64,
    /// Sessions refused up front because the device was revoked.
    pub sessions_refused: u64,
    /// Sessions refused because the device's storage shard was sick
    /// (Degraded or Failed) — typed availability refusals, never
    /// verdicts. Zero whenever storage stayed healthy.
    pub sessions_unavailable: u64,
    /// Devices that faulted outside the protocol.
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

    #[test]
    fn restored_counters_continue_where_the_store_left_off() {
        let live = FleetMetrics::new();
        live.session_started();
        live.session_started();
        live.session_accepted();
        live.session_rejected();
        live.session_timed_out();
        live.attempt_retried();
        live.session_refused();
        live.device_fault();
        live.messages_dropped(3);
        live.session_lost();
        live.record_crp(56, 8);
        live.observe_latency(1e-3);
        live.observe_latency(0.5);

        let mut persisted = Counters {
            started: 2,
            accepted: 1,
            rejected: 1,
            timed_out: 1,
            retried: 1,
            refused: 1,
            faults: 1,
            dropped: 3,
            lost: 1,
            crp_hits: 56,
            crp_misses: 8,
            ..Counters::default()
        };
        persisted.latency[LatencyHistogram::bucket_index(1e-3)] += 1;
        persisted.latency[LatencyHistogram::bucket_index(0.5)] += 1;

        let restored = FleetMetrics::from_store_counters(&persisted);
        let devices = StatusCounts { active: 1, quarantined: 0, revoked: 0 };
        assert_eq!(restored.snapshot(devices), live.snapshot(devices));
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = FleetMetrics::new();
        m.session_started();
        m.session_started();
        m.session_accepted();
        m.session_rejected();
        m.session_timed_out();
        m.attempt_retried();
        m.observe_latency(1e-3);
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
}
