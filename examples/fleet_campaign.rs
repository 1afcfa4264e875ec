//! A fleet operator's day: enroll a product line, attest the whole fleet
//! concurrently, watch the lifecycle machinery isolate the compromised
//! devices, and read the campaign metrics.
//!
//! Run with `cargo run --release --example fleet_campaign`.
//!
//! This drives the `pufatt-fleet` engine end to end: the service keeps
//! each device's lifecycle and live session in one sharded slot map, a
//! worker pool runs sessions concurrently, and
//! every verdict comes from the full PUFatt protocol (PE32 checksum, ALU
//! PUF, time bound δ). Compromised devices mount the memory-copy attack
//! and are caught by the time bound, retried per policy, quarantined, and
//! — if they keep failing — revoked. The campaign is deterministic in its
//! seed: rerunning with a different worker count changes only wall-clock
//! time, never the verdicts.

use pufatt_fleet::{
    device_is_tampered, run_campaign, CampaignConfig, FleetService, FleetStatus, LifecyclePolicy, SessionGate,
};

fn main() {
    // A mid-sized sensor fleet: 96 devices, 1 in 6 compromised, three
    // sessions each so the lifecycle has room to quarantine repeat
    // offenders.
    let cfg = CampaignConfig {
        devices: 96,
        workers: 6,
        sessions_per_device: 3,
        tamper_fraction: 1.0 / 6.0,
        policy: LifecyclePolicy {
            max_attempts: 2,
            quarantine_after: 1,
            revoke_after: 1,
            ..LifecyclePolicy::default()
        },
        ..CampaignConfig::default()
    };
    println!(
        "enrolling {} devices ({} workers, {} slot shards, ~{:.0}% compromised)\n",
        cfg.devices,
        cfg.workers,
        cfg.shards,
        cfg.tamper_fraction * 100.0
    );

    let report = run_campaign(&cfg).expect("campaign");
    print!("{}", report.snapshot);
    println!(
        "\nwall time {:.2} s  ({:.0} sessions/s across {} workers)",
        report.wall_time.as_secs_f64(),
        report.sessions_per_second(),
        cfg.workers
    );

    // The tamper set is a pure function of the seed, so the operator's
    // ground truth is reproducible: compare it against what the campaign
    // actually caught.
    let tampered: Vec<u32> = (0..cfg.devices as u32)
        .filter(|&id| device_is_tampered(cfg.seed, id, cfg.tamper_fraction))
        .collect();
    println!("\nground truth: {} compromised devices: {:?}", tampered.len(), tampered);
    assert_eq!(
        report.snapshot.devices.quarantined + report.snapshot.devices.revoked,
        tampered.len(),
        "every compromised device (and only those) should be quarantined or revoked"
    );
    println!("all of them ended the campaign quarantined or revoked; every honest device stayed active");

    // The same engine answers operator actions one request at a time —
    // e.g. revoking a device, then re-trusting it once it is repaired.
    let service = FleetService::new(cfg).expect("service");
    service.enroll(7).expect("enroll");
    assert_eq!(service.revoke(7).expect("unjournaled"), Some(FleetStatus::Revoked));
    assert_eq!(service.open_session(7), SessionGate::Refused);
    assert!(service.re_enroll(7).expect("unjournaled"));
    assert_eq!(service.status(7), Some(FleetStatus::Active));
    assert!(matches!(service.open_session(7), SessionGate::Granted { .. }));
    println!("manual lifecycle check: revoke → re-enroll round-trips");
}
