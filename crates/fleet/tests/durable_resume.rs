//! Exhaustive interrupt/resume proof for persistent campaigns: a campaign
//! crashed at *every* backend operation and resumed must produce verdicts
//! identical to a run that was never interrupted. The same holds for a
//! service crashed at every operation of an aborted session.

// Panicking on a broken fixture is exactly what a test should do.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pufatt::PufattError;
use pufatt_fleet::campaign::ChaosConfig;
use pufatt_fleet::registry::DeviceId;
use pufatt_fleet::service::{ServiceVerdict, SessionGate};
use pufatt_fleet::{
    run_campaign, run_persistent_campaign, small_test_config, CampaignConfig, CampaignReport, DeviceRecord,
    FleetService, FleetSnapshot, RunningCampaign,
};
use pufatt_store::{DeviceState, ShardedOptions, ShardedStore, SimVfs, TornMode, TORN_MODES};
use std::sync::Arc;

/// Narrow ranges over several shards so even these small fleets exercise
/// cross-shard recovery: device n lives in WAL shard (n/2)%4.
fn open(cfg: &CampaignConfig, vfs: &SimVfs) -> Result<Arc<ShardedStore>, PufattError> {
    let opts = ShardedOptions {
        history_capacity: cfg.history_capacity,
        shards: 4,
        range_width: 2,
        ..ShardedOptions::default()
    };
    ShardedStore::open(Arc::new(vfs.clone()), opts)
        .map(Arc::new)
        .map_err(|e| PufattError::Storage(e.to_string()))
}

fn attempt(cfg: &CampaignConfig, vfs: &SimVfs, resume: bool) -> Result<CampaignReport, PufattError> {
    run_persistent_campaign(cfg, &open(cfg, vfs)?, resume)
}

/// Launches the campaign, admits `extra` devices online while the pool is
/// attesting, and finishes. Re-admitting an already-enrolled device is a
/// no-op, so resumes pass the same list.
fn attempt_online(
    cfg: &CampaignConfig,
    vfs: &SimVfs,
    resume: bool,
    extra: &[DeviceId],
) -> Result<CampaignReport, PufattError> {
    let campaign = RunningCampaign::launch(cfg, &open(cfg, vfs)?, resume)?;
    for &id in extra {
        campaign.enroll(id)?;
    }
    campaign.finish()
}

fn assert_matches_reference(resumed: &CampaignReport, reference: &CampaignReport, context: &str) {
    assert_eq!(resumed.device_records, reference.device_records, "verdicts diverged: {context}");
    let mut snap = resumed.snapshot.clone();
    snap.store = None;
    assert_eq!(snap, reference.snapshot, "metrics diverged: {context}");
}

#[test]
fn campaign_interrupted_anywhere_resumes_to_identical_verdicts() {
    let mut cfg = small_test_config(4, 1, 0x0DDB);
    cfg.sessions_per_device = 3;
    let reference = run_campaign(&cfg).expect("reference run");

    // A crash-free persistent run both validates the journal and counts
    // the backend operations the matrix must cover.
    let probe = SimVfs::new();
    let probe_report = attempt(&cfg, &probe, false).expect("crash-free persistent run");
    assert_matches_reference(&probe_report, &reference, "crash-free persistent run");
    let total_ops = probe.ops();
    assert!(total_ops > 30, "campaign should cross many crash points, got {total_ops}");

    for k in 0..=total_ops {
        for mode in [TornMode::Drop, TornMode::Flip] {
            let vfs = SimVfs::crashing_at(k);
            // The interrupted run may stop anywhere: during store open, a
            // main-thread append, or a worker's journal (which degrades
            // the device's home shard and refuses the rest of its
            // schedule — no panic, no partial admission).
            let _ = attempt(&cfg, &vfs, false);
            let disk = vfs.power_cut(mode);
            let resumed = attempt(&cfg, &disk, true)
                .unwrap_or_else(|e| panic!("resume after crash at op {k} ({mode:?}) failed: {e}"));
            assert_matches_reference(&resumed, &reference, &format!("crash at op {k} ({mode:?})"));
        }
    }
}

#[test]
fn online_enrollment_survives_interruption() {
    let mut cfg = small_test_config(3, 1, 0x0E11);
    cfg.sessions_per_device = 2;
    // Ids past the configured range, landing in different WAL shards.
    let extra: [DeviceId; 2] = [9, 12];

    let probe = SimVfs::new();
    let mut reference = attempt_online(&cfg, &probe, false, &extra).expect("crash-free online run");
    // The reference is itself a persistent run; drop its store statistics
    // so assert_matches_reference compares fleet state only.
    reference.snapshot.store = None;
    assert_eq!(reference.snapshot.devices.total(), 5);
    assert_eq!(reference.snapshot.devices_enrolled_online, 2);
    let total_ops = probe.ops();

    for k in (0..=total_ops).step_by(3) {
        for mode in [TornMode::Drop, TornMode::Torn] {
            let vfs = SimVfs::crashing_at(k);
            // The interrupted run may die anywhere — including inside an
            // online enrollment's forced sync, which must leave the device
            // fully admitted or entirely absent.
            let _ = attempt_online(&cfg, &vfs, false, &extra);
            let disk = vfs.power_cut(mode);
            let resumed = attempt_online(&cfg, &disk, true, &extra)
                .unwrap_or_else(|e| panic!("online resume after crash at op {k} ({mode:?}) failed: {e}"));
            assert_matches_reference(&resumed, &reference, &format!("online crash at op {k} ({mode:?})"));
            assert_eq!(resumed.snapshot.devices_enrolled_online, 2, "crash at op {k} ({mode:?})");
        }
    }
}

#[test]
fn chaos_campaign_survives_interruption() {
    let mut cfg = small_test_config(6, 2, 0xFA57);
    cfg.sessions_per_device = 4;
    cfg.chaos = Some(ChaosConfig {
        plan: pufatt_faults::FaultPlan::clean(0).with_drops(0.4).with_jitter_ms(1.0),
        flaky_fraction: 0.5,
    });
    let reference = run_campaign(&cfg).expect("reference chaos run");

    let probe = SimVfs::new();
    let total_ops = {
        attempt(&cfg, &probe, false).expect("crash-free persistent chaos run");
        probe.ops()
    };
    // Chaos sessions are costlier; sample the crash space instead of
    // enumerating it — the store-level matrix already proves every crash
    // point recovers, this checks the fleet replay on top of it.
    for k in (0..=total_ops).step_by(7) {
        let vfs = SimVfs::crashing_at(k);
        let _ = attempt(&cfg, &vfs, false);
        let disk = vfs.power_cut(TornMode::Torn);
        let resumed =
            attempt(&cfg, &disk, true).unwrap_or_else(|e| panic!("chaos resume after crash at op {k} failed: {e}"));
        assert_matches_reference(&resumed, &reference, &format!("chaos crash at op {k}"));
    }
}

/// How many devices a resume from `disk` restores to a cursor whose
/// tamper parity is set: devices that still owe sessions and whose last
/// journaled session left the tamper XOR in memory.
fn set_parities_to_restore(cfg: &CampaignConfig, disk: &SimVfs) -> usize {
    // Inspect an independent copy, so the resume opens `disk` untouched.
    let store = open(cfg, &disk.power_cut(TornMode::Keep)).expect("store opens");
    (0..cfg.devices as DeviceId)
        .filter_map(|id| store.device(id))
        .filter(|device| device.events_seen < cfg.sessions_per_device)
        .filter(|device| device.cursor.is_some_and(|cursor| cursor.tamper_parity))
        .count()
}

#[test]
fn tamper_parity_survives_interruption() {
    // The mid-traversal tamper's XOR stays in a device's memory after the
    // session that applied it. A resume provisions a pristine device, so
    // it must re-apply the XOR its cursor's parity records, or the device
    // attests memory its uninterrupted twin no longer has.
    let mut cfg = small_test_config(4, 1, 0x7A3B);
    cfg.sessions_per_device = 4;
    cfg.chaos = Some(ChaosConfig {
        plan: pufatt_faults::FaultPlan::parse("drop=0.3,tamper=2", 0).unwrap(),
        flaky_fraction: 1.0,
    });
    let reference = run_campaign(&cfg).expect("reference chaos run");

    let probe = SimVfs::new();
    attempt(&cfg, &probe, false).expect("crash-free persistent chaos run");
    let mut set_parities = 0;
    for k in 0..=probe.ops() {
        let vfs = SimVfs::crashing_at(k);
        let _ = attempt(&cfg, &vfs, false);
        let disk = vfs.power_cut(TornMode::Torn);
        set_parities += set_parities_to_restore(&cfg, &disk);
        let resumed =
            attempt(&cfg, &disk, true).unwrap_or_else(|e| panic!("tamper resume after crash at op {k} failed: {e}"));
        assert_matches_reference(&resumed, &reference, &format!("tamper crash at op {k}"));
    }
    assert!(set_parities > 0, "no resume restored a set tamper parity, so the re-apply never ran");
}

/// The device whose session is aborted in the abort crash matrix.
const ABORTED: DeviceId = 1;

/// Sessions every device runs before the abort.
const ROUNDS: u32 = 2;

/// A journaled service on `vfs` with no committer (so the backend's
/// operations are a function of the calls alone): every device enrolled
/// and attested [`ROUNDS`] times, then flushed, so everything before the
/// abort is durable.
fn before_the_abort(cfg: &CampaignConfig, vfs: &SimVfs) -> (FleetService, Arc<ShardedStore>) {
    let store = open(cfg, vfs).expect("store opens");
    let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("fresh journal");
    for id in 0..cfg.devices as DeviceId {
        service.enroll(id).expect("device enrolls");
    }
    for _ in 0..ROUNDS {
        for id in 0..cfg.devices as DeviceId {
            assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
            assert!(matches!(service.attest(id), ServiceVerdict::Closed { .. }));
        }
    }
    store.flush().expect("flush");
    (service, store)
}

/// A granted session whose client vanished.
fn abort(service: &FleetService) {
    assert!(matches!(service.open_session(ABORTED), SessionGate::Granted { .. }));
    service.abort_session(ABORTED);
}

/// Three more sessions of the aborted device, then what the pass
/// condition compares: every device's verdicts, the counters, and the
/// aborted device's journaled record, cursor included.
fn finish(service: &FleetService, store: &ShardedStore) -> (Vec<DeviceRecord>, FleetSnapshot, Option<DeviceState>) {
    for _ in 0..3 {
        assert!(matches!(service.open_session(ABORTED), SessionGate::Granted { .. }));
        assert!(matches!(service.attest(ABORTED), ServiceVerdict::Closed { .. }));
    }
    let mut snapshot = service.snapshot();
    snapshot.store = None;
    (service.device_records(), snapshot, store.device(ABORTED))
}

#[test]
fn a_crash_anywhere_in_an_abort_resumes_like_the_unrestarted_service() {
    let mut cfg = small_test_config(4, 1, 0xAB07);
    cfg.tamper_fraction = 0.0;
    cfg.commit_interval_s = 0.0;

    // The unrestarted service, which also counts the abort's operations.
    let vfs = SimVfs::new();
    let (service, store) = before_the_abort(&cfg, &vfs);
    let first = vfs.ops();
    abort(&service);
    store.flush().expect("flush");
    let end = vfs.ops();
    assert!(end > first, "the abort reaches the backend");
    let reference = finish(&service, &store);

    for k in first..end {
        for mode in TORN_MODES {
            let vfs = SimVfs::crashing_at(k);
            let (service, store) = before_the_abort(&cfg, &vfs);
            abort(&service);
            let _ = store.flush();
            assert!(vfs.has_crashed(), "crash point {k} lies in the abort");
            drop((service, store));

            // Restart on what the power cut left, and re-drive the abort
            // if the journal lost it.
            let store = open(&cfg, &vfs.power_cut(mode)).expect("recovery");
            let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("restore");
            if store.device(ABORTED).expect("enrolled").events_seen == ROUNDS {
                abort(&service);
            }
            assert_eq!(finish(&service, &store), reference, "crash at op {k} ({mode:?})");
        }
    }
}
