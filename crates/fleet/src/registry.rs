//! Device lifecycle: the per-device record the verifier keeps.
//!
//! Per device the fleet keeps a [`FleetStatus`] lifecycle, the two streak
//! counters its transitions are decided by, and a bounded [`RingBuffer`]
//! of recent [`SessionOutcome`]s — enough history for an operator to ask
//! "why was this device quarantined?" without the record growing without
//! bound on a long-lived service.
//!
//! `DeviceLifecycle` is a plain value with no lock of its own: it lives
//! in the device's entry of [`FleetService`](crate::FleetService)'s slot
//! map, next to the live session, and is only touched under that entry's
//! slot-shard lock.

use pufatt::RingBuffer;

/// Identifier of a fleet device.
pub type DeviceId = u32;

/// Lifecycle state of one fleet device. It is the store's status enum,
/// so the registry, the journal and the wire share one type and one byte
/// codec, and no conversion sits between them.
pub use pufatt_store::record::StoredStatus as FleetStatus;

/// Outcome of one attestation session (possibly after retries).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Whether the verifier accepted the final attempt.
    pub accepted: bool,
    /// Whether the final attempt's response matched.
    pub response_ok: bool,
    /// Whether the final attempt met the time bound δ.
    pub time_ok: bool,
    /// Whether the session exceeded the scheduler's session timeout.
    pub timed_out: bool,
    /// Attempts spent (1 = no retry).
    pub attempts: u32,
    /// End-to-end time of the session in (simulated) seconds, including
    /// retry backoff.
    pub elapsed_s: f64,
}

/// When to retry, quarantine, and revoke.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecyclePolicy {
    /// Attempts per session before it counts as failed (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `backoff_base_s * 2^(k-1)` of simulated
    /// time, added to the session's elapsed time.
    pub backoff_base_s: f64,
    /// Consecutive failed sessions before an [`FleetStatus::Active`]
    /// device is quarantined.
    pub quarantine_after: u32,
    /// Further consecutive failed sessions a quarantined device is allowed
    /// before revocation.
    pub revoke_after: u32,
    /// Consecutive *successes* a quarantined device must string together
    /// before it returns to [`FleetStatus::Active`]. This is the
    /// hysteresis half of the lifecycle: entering quarantine takes
    /// `quarantine_after` failures, leaving it takes `reactivate_after`
    /// successes, so a device on a marginal link (alternating pass/fail)
    /// settles in quarantine instead of flapping between states.
    pub reactivate_after: u32,
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        LifecyclePolicy {
            max_attempts: 3,
            backoff_base_s: 0.05,
            quarantine_after: 2,
            revoke_after: 2,
            reactivate_after: 2,
        }
    }
}

/// Device counts by lifecycle state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Devices currently [`FleetStatus::Active`].
    pub active: usize,
    /// Devices currently [`FleetStatus::Quarantined`].
    pub quarantined: usize,
    /// Devices currently [`FleetStatus::Revoked`].
    pub revoked: usize,
}

impl StatusCounts {
    /// Total devices across all states.
    pub fn total(&self) -> usize {
        self.active + self.quarantined + self.revoked
    }

    /// Counts one more device in `status`.
    pub(crate) fn add(&mut self, status: FleetStatus) {
        match status {
            FleetStatus::Active => self.active += 1,
            FleetStatus::Quarantined => self.quarantined += 1,
            FleetStatus::Revoked => self.revoked += 1,
        }
    }
}

/// One device's lifecycle: its status, the streak counters that decide
/// its transitions, and its bounded session history.
#[derive(Debug, Clone)]
pub(crate) struct DeviceLifecycle {
    status: FleetStatus,
    consecutive_failures: u32,
    consecutive_successes: u32,
    history: RingBuffer<SessionOutcome>,
}

impl DeviceLifecycle {
    /// A freshly enrolled device: [`FleetStatus::Active`], keeping at
    /// most `history_capacity` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `history_capacity` is zero.
    pub(crate) fn new(history_capacity: usize) -> Self {
        DeviceLifecycle {
            status: FleetStatus::Active,
            consecutive_failures: 0,
            consecutive_successes: 0,
            history: RingBuffer::new(history_capacity),
        }
    }

    /// Rebuilds a device from persisted state (durable-store recovery).
    /// `history` is oldest-first; `total_recorded` is the all-time session
    /// count, so the rebuilt [`RingBuffer`] reports the same
    /// retention/eviction numbers as the uninterrupted original.
    ///
    /// # Panics
    ///
    /// Panics if `history_capacity` is zero.
    pub(crate) fn restore(
        history_capacity: usize,
        status: FleetStatus,
        consecutive_failures: u32,
        consecutive_successes: u32,
        history: Vec<SessionOutcome>,
        total_recorded: u64,
    ) -> Self {
        DeviceLifecycle {
            status,
            consecutive_failures,
            consecutive_successes,
            history: RingBuffer::rehydrate(history_capacity, history, total_recorded),
        }
    }

    /// The device's current status.
    pub(crate) fn status(&self) -> FleetStatus {
        self.status
    }

    /// The retained session history, oldest first.
    pub(crate) fn history(&self) -> Vec<SessionOutcome> {
        self.history.iter().cloned().collect()
    }

    /// Records a session outcome and applies `policy`'s lifecycle
    /// transitions with hysteresis: `quarantine_after` consecutive failures
    /// demote an active device, `reactivate_after` consecutive successes
    /// promote a quarantined one back (a `0` reactivates on the first
    /// success), and `revoke_after` further consecutive failures inside
    /// quarantine revoke it. Returns the post-transition `(status,
    /// consecutive_failures, consecutive_successes)`, which the service
    /// journals with each session so recovery can restore a device
    /// without re-deriving the policy's decisions.
    pub(crate) fn record(&mut self, outcome: SessionOutcome, policy: &LifecyclePolicy) -> (FleetStatus, u32, u32) {
        if outcome.accepted {
            self.consecutive_failures = 0;
            self.consecutive_successes += 1;
            if self.status == FleetStatus::Quarantined && self.consecutive_successes >= policy.reactivate_after.max(1) {
                self.status = FleetStatus::Active;
                self.consecutive_successes = 0;
            }
        } else {
            self.consecutive_successes = 0;
            self.consecutive_failures += 1;
            if self.status == FleetStatus::Active && self.consecutive_failures >= policy.quarantine_after {
                self.status = FleetStatus::Quarantined;
                self.consecutive_failures = 0;
            } else if self.status == FleetStatus::Quarantined && self.consecutive_failures >= policy.revoke_after {
                self.status = FleetStatus::Revoked;
            }
        }
        self.history.push(outcome);
        (self.status, self.consecutive_failures, self.consecutive_successes)
    }

    /// Re-enrollment: back to [`FleetStatus::Active`] with both streaks
    /// cleared. History is kept — the record of *why* the device was
    /// revoked survives the decision to trust it again.
    pub(crate) fn re_enroll(&mut self) {
        self.status = FleetStatus::Active;
        self.consecutive_failures = 0;
        self.consecutive_successes = 0;
    }

    /// Manual revocation.
    pub(crate) fn revoke(&mut self) {
        self.status = FleetStatus::Revoked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed() -> SessionOutcome {
        SessionOutcome {
            accepted: false,
            response_ok: false,
            time_ok: true,
            timed_out: false,
            attempts: 3,
            elapsed_s: 0.2,
        }
    }

    fn passed() -> SessionOutcome {
        SessionOutcome {
            accepted: true,
            response_ok: true,
            time_ok: true,
            timed_out: false,
            attempts: 1,
            elapsed_s: 0.1,
        }
    }

    #[test]
    fn failures_quarantine_then_revoke() {
        let policy = LifecyclePolicy {
            quarantine_after: 2,
            revoke_after: 2,
            ..LifecyclePolicy::default()
        };
        let mut device = DeviceLifecycle::new(8);
        assert_eq!(device.record(failed(), &policy).0, FleetStatus::Active);
        assert_eq!(device.record(failed(), &policy).0, FleetStatus::Quarantined);
        assert_eq!(device.record(failed(), &policy).0, FleetStatus::Quarantined);
        assert_eq!(device.record(failed(), &policy).0, FleetStatus::Revoked);
        let mut counts = StatusCounts::default();
        counts.add(device.status());
        assert_eq!(counts, StatusCounts { active: 0, quarantined: 0, revoked: 1 });
    }

    #[test]
    fn reactivation_needs_consecutive_successes() {
        let policy = LifecyclePolicy {
            quarantine_after: 1,
            reactivate_after: 2,
            ..LifecyclePolicy::default()
        };
        let mut device = DeviceLifecycle::new(8);
        assert_eq!(device.record(failed(), &policy).0, FleetStatus::Quarantined);
        assert_eq!(device.record(passed(), &policy).0, FleetStatus::Quarantined, "one success is not enough");
        assert_eq!(device.record(passed(), &policy).0, FleetStatus::Active, "the second one is");
    }

    #[test]
    fn flapping_device_settles_in_quarantine() {
        // Alternating pass/fail never strings together the two successes
        // reactivation demands, and quarantine failures only revoke when
        // *consecutive* — the hysteresis holds the device in quarantine.
        let policy = LifecyclePolicy {
            quarantine_after: 2,
            revoke_after: 2,
            reactivate_after: 2,
            ..LifecyclePolicy::default()
        };
        let mut device = DeviceLifecycle::new(8);
        device.record(failed(), &policy);
        device.record(failed(), &policy);
        assert_eq!(device.status(), FleetStatus::Quarantined);
        for _ in 0..6 {
            device.record(passed(), &policy);
            assert_eq!(device.record(failed(), &policy).0, FleetStatus::Quarantined, "no flapping");
        }
    }

    #[test]
    fn re_enrollment_reactivates_a_revoked_device() {
        let policy = LifecyclePolicy::default();
        let mut device = DeviceLifecycle::new(8);
        device.record(failed(), &policy);
        device.revoke();
        assert_eq!(device.status(), FleetStatus::Revoked);
        device.re_enroll();
        assert_eq!(device.status(), FleetStatus::Active);
        assert_eq!(device.record(failed(), &policy), (FleetStatus::Active, 1, 0), "streaks start over");
        assert_eq!(device.history().len(), 2, "history survives re-enrollment");
    }

    #[test]
    fn history_is_bounded_per_device() {
        let policy = LifecyclePolicy::default();
        let mut device = DeviceLifecycle::new(3);
        for _ in 0..5 {
            device.record(passed(), &policy);
        }
        assert_eq!(device.history().len(), 3);
        assert_eq!(device.history.total_pushed(), 5);
    }

    #[test]
    fn restore_rebuilds_lifecycle_and_history() {
        let mut device = DeviceLifecycle::restore(3, FleetStatus::Quarantined, 1, 0, vec![passed(), failed()], 5);
        assert_eq!(device.status(), FleetStatus::Quarantined);
        assert_eq!(device.history().len(), 2);
        assert_eq!(device.history.total_pushed(), 5, "all-time count survives restore");
        let policy = LifecyclePolicy { revoke_after: 2, ..LifecyclePolicy::default() };
        assert_eq!(
            device.record(failed(), &policy),
            (FleetStatus::Revoked, 2, 0),
            "restored streaks feed straight into the lifecycle policy"
        );
    }
}
