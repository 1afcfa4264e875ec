//! Fleet-engine integration: scheduling must never change verdicts.
//!
//! The `pufatt-fleet` campaign simulates all session time (cycle-accurate
//! clock + channel model) and derives every random stream from the
//! campaign seed and the device id, so the accept/reject totals are a
//! pure function of the configuration. These tests pin that property at
//! fleet scale, plus the lifecycle behaviour an operator relies on.

use pufatt_fleet::{device_is_tampered, run_campaign, small_test_config, FleetService, FleetStatus, SessionGate};

/// The headline determinism claim: a multi-worker campaign over ≥64
/// devices produces exactly the same accept/reject totals as the same
/// campaign run on a single worker.
#[test]
fn multi_worker_campaign_matches_single_worker_totals() {
    let devices = 64;
    let seed = 0xD15C0;

    let single = run_campaign(&small_test_config(devices, 1, seed)).expect("single-worker campaign");
    let multi = run_campaign(&small_test_config(devices, 4, seed)).expect("multi-worker campaign");

    let s = &single.snapshot;
    let m = &multi.snapshot;
    assert_eq!(
        s.sessions_accepted, m.sessions_accepted,
        "accepted totals differ:\n--- 1 worker ---\n{s}\n--- 4 workers ---\n{m}"
    );
    assert_eq!(s.sessions_rejected, m.sessions_rejected, "rejected totals differ");
    assert_eq!(s.sessions_started, m.sessions_started);
    assert_eq!(s.sessions_timed_out, m.sessions_timed_out);
    assert_eq!(s.attempts_retried, m.attempts_retried);
    assert_eq!(s.sessions_refused, m.sessions_refused);
    assert_eq!(s.devices, m.devices, "final device states differ");
    assert_eq!(s.latency_buckets_us, m.latency_buckets_us, "latency is simulated, so even the histogram matches");

    // And the campaign actually exercised both outcomes.
    assert!(s.sessions_accepted > 0, "honest devices accepted: {s}");
    assert!(s.sessions_rejected > 0, "compromised devices rejected: {s}");
    assert_eq!(s.device_faults, 0);
    assert_eq!(single.panicked_jobs, 0);
    assert_eq!(multi.panicked_jobs, 0);
}

/// Exactly the compromised devices leave Active: honest devices never
/// accumulate failures, and every tampered device is caught (the
/// memory-copy attack always breaks the time bound).
#[test]
fn compromised_devices_are_isolated_and_honest_ones_stay_active() {
    let cfg = small_test_config(48, 3, 0xACE);
    let report = run_campaign(&cfg).expect("campaign");
    let tampered = (0..cfg.devices as u32)
        .filter(|&id| device_is_tampered(cfg.seed, id, cfg.tamper_fraction))
        .count();
    assert!(tampered > 0, "seed should produce some compromised devices");
    let snap = &report.snapshot;
    assert_eq!(snap.devices.active, cfg.devices - tampered, "honest devices stay active: {snap}");
    assert_eq!(
        snap.devices.quarantined + snap.devices.revoked,
        tampered,
        "all compromised devices isolated: {snap}"
    );
}

/// The device lifecycle from the operator's side: revoked devices are
/// refused, and re-enrollment makes a device eligible again.
#[test]
fn revocation_refusal_and_re_enrollment() {
    let mut cfg = small_test_config(16, 1, 0x0BE7);
    cfg.shards = 8;
    let service = FleetService::new(cfg).expect("valid config");
    for id in 0..16 {
        assert!(service.enroll(id).expect("provision").fresh);
    }
    assert_eq!(service.revoke(3).expect("unjournaled"), Some(FleetStatus::Revoked));
    assert_eq!(service.status(3), Some(FleetStatus::Revoked));
    assert_eq!(service.snapshot().devices.revoked, 1);
    assert_eq!(service.open_session(3), SessionGate::Refused, "revoked devices are refused");
    assert!(service.re_enroll(3).expect("unjournaled"));
    assert_eq!(service.status(3), Some(FleetStatus::Active));
    assert!(matches!(service.open_session(3), SessionGate::Granted { .. }));
    assert_eq!(service.snapshot().devices.revoked, 0);
    assert_eq!(service.snapshot().devices.active, 16);
    assert_eq!(service.status(99), None);
    assert!(!service.re_enroll(99).expect("unjournaled"), "unknown devices cannot re-enroll");
}
