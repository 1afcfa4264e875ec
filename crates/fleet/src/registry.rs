//! Device lifecycle: the policy that decides a device's trust.
//!
//! Per device the verifier keeps one record, the store's
//! [`DeviceState`](pufatt_store::DeviceState): a [`FleetStatus`]
//! lifecycle, the two streak counters its transitions are decided by, a
//! bounded history of recent outcomes — enough for an operator to ask
//! "why was this device quarantined?" without the record growing without
//! bound on a long-lived service — and the session count and cursor a
//! resume starts from. [`FleetService`](crate::FleetService) keeps it
//! once, in its store, which advances it with
//! [`DeviceState::apply`](pufatt_store::DeviceState::apply), the same
//! transition that replays the journal, so the live record and a
//! recovered one cannot differ. What this module adds is the decision a
//! closed session's record carries: `LifecyclePolicy::next`.

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

impl LifecyclePolicy {
    /// The lifecycle transition one closed session makes, with
    /// hysteresis: `quarantine_after` consecutive failures demote an
    /// active device, `reactivate_after` consecutive successes promote a
    /// quarantined one back (a `0` reactivates on the first success), and
    /// `revoke_after` further consecutive failures inside quarantine
    /// revoke it. Takes the device's `(status, fails, succs)` before the
    /// session and returns them after it; the service journals the result
    /// with the session, so recovery restores a device without re-deriving
    /// the policy's decisions.
    pub(crate) fn next(&self, status: FleetStatus, fails: u32, succs: u32, accepted: bool) -> (FleetStatus, u32, u32) {
        if accepted {
            let succs = succs + 1;
            if status == FleetStatus::Quarantined && succs >= self.reactivate_after.max(1) {
                return (FleetStatus::Active, 0, 0);
            }
            (status, 0, succs)
        } else {
            let fails = fails + 1;
            if status == FleetStatus::Active && fails >= self.quarantine_after {
                return (FleetStatus::Quarantined, 0, 0);
            }
            if status == FleetStatus::Quarantined && fails >= self.revoke_after {
                return (FleetStatus::Revoked, fails, 0);
            }
            (status, fails, 0)
        }
    }
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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::durable::to_outcome_rec;
    use pufatt_store::record::{CursorInfo, Record};
    use pufatt_store::DeviceState;

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

    /// Closes one session on `device` the way the service does: the
    /// policy decides, and the journaled record carries the decision into
    /// the device's state. Returns the post-session `(status, fails,
    /// succs)`.
    fn close(
        device: &mut DeviceState,
        policy: &LifecyclePolicy,
        outcome: SessionOutcome,
        cap: usize,
    ) -> (FleetStatus, u32, u32) {
        let (status, fails, succs) = policy.next(device.status, device.fails, device.succs, outcome.accepted);
        let outcome = to_outcome_rec(&outcome, 0, 0, false, 0, 0);
        let cursor = CursorInfo {
            session_pos: 0,
            noise_pos: 0,
            noise_evals: 0,
            tamper_parity: false,
        };
        device
            .apply(&Record::SessionClosed { id: 0, outcome, status, fails, succs, cursor }, cap)
            .unwrap();
        (device.status, device.fails, device.succs)
    }

    #[test]
    fn failures_quarantine_then_revoke() {
        let policy = LifecyclePolicy {
            quarantine_after: 2,
            revoke_after: 2,
            ..LifecyclePolicy::default()
        };
        let mut device = DeviceState::default();
        assert_eq!(close(&mut device, &policy, failed(), 8).0, FleetStatus::Active);
        assert_eq!(close(&mut device, &policy, failed(), 8).0, FleetStatus::Quarantined);
        assert_eq!(close(&mut device, &policy, failed(), 8).0, FleetStatus::Quarantined);
        assert_eq!(close(&mut device, &policy, failed(), 8).0, FleetStatus::Revoked);
        let mut counts = StatusCounts::default();
        counts.add(device.status);
        assert_eq!(counts, StatusCounts { active: 0, quarantined: 0, revoked: 1 });
    }

    #[test]
    fn reactivation_needs_consecutive_successes() {
        let policy = LifecyclePolicy {
            quarantine_after: 1,
            reactivate_after: 2,
            ..LifecyclePolicy::default()
        };
        assert_eq!(policy.next(FleetStatus::Active, 0, 0, false), (FleetStatus::Quarantined, 0, 0));
        assert_eq!(
            policy.next(FleetStatus::Quarantined, 0, 0, true),
            (FleetStatus::Quarantined, 0, 1),
            "one success is not enough"
        );
        assert_eq!(policy.next(FleetStatus::Quarantined, 0, 1, true), (FleetStatus::Active, 0, 0), "the second one is");
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
        let mut device = DeviceState::default();
        close(&mut device, &policy, failed(), 8);
        close(&mut device, &policy, failed(), 8);
        assert_eq!(device.status, FleetStatus::Quarantined);
        for _ in 0..6 {
            close(&mut device, &policy, passed(), 8);
            assert_eq!(close(&mut device, &policy, failed(), 8).0, FleetStatus::Quarantined, "no flapping");
        }
    }

    #[test]
    fn re_enrollment_reactivates_a_revoked_device() {
        let policy = LifecyclePolicy::default();
        let mut device = DeviceState::default();
        close(&mut device, &policy, failed(), 8);
        device
            .apply(&Record::StatusChanged { id: 0, status: FleetStatus::Revoked }, 8)
            .unwrap();
        assert_eq!(device.status, FleetStatus::Revoked);
        device.apply(&Record::DeviceReEnrolled { id: 0 }, 8).unwrap();
        assert_eq!(device.status, FleetStatus::Active);
        assert_eq!(close(&mut device, &policy, failed(), 8), (FleetStatus::Active, 1, 0), "streaks start over");
        assert_eq!(device.outcomes.len(), 2, "history survives re-enrollment");
    }

    #[test]
    fn history_is_bounded_per_device() {
        let policy = LifecyclePolicy::default();
        let mut device = DeviceState::default();
        for _ in 0..5 {
            close(&mut device, &policy, passed(), 3);
        }
        assert_eq!(device.outcomes.len(), 3);
        assert_eq!(device.outcomes_total, 5);
    }

    #[test]
    fn restored_streaks_feed_the_policy() {
        // A device recovered from the journal mid-quarantine, one failure
        // into its revocation streak.
        let mut device = DeviceState {
            status: FleetStatus::Quarantined,
            fails: 1,
            ..DeviceState::default()
        };
        let policy = LifecyclePolicy { revoke_after: 2, ..LifecyclePolicy::default() };
        assert_eq!(
            close(&mut device, &policy, failed(), 3),
            (FleetStatus::Revoked, 2, 0),
            "restored streaks feed straight into the lifecycle policy"
        );
    }
}
