//! One journal, two entry points: a state directory written by a
//! persistent campaign restores into a `FleetService`, and a journal a
//! `FleetService` started is finished by a resumed campaign — with the
//! same verdicts and counters either way.

// Panicking on a broken fixture is exactly what a test should do.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pufatt_fleet::service::SessionGate;
use pufatt_fleet::{
    run_campaign, run_persistent_campaign, small_test_config, CampaignConfig, CampaignReport, FleetService,
    FleetSnapshot,
};
use pufatt_store::{ShardedOptions, ShardedStore, SimVfs};
use std::sync::Arc;

fn open(cfg: &CampaignConfig, vfs: &SimVfs) -> Arc<ShardedStore> {
    let opts = ShardedOptions {
        history_capacity: cfg.history_capacity,
        shards: 4,
        range_width: 2,
        ..ShardedOptions::default()
    };
    Arc::new(ShardedStore::open(Arc::new(vfs.clone()), opts).expect("recovery"))
}

/// Tampered devices get revoked mid-schedule, so the journal holds
/// verdicts, refusals and cursors.
fn config() -> CampaignConfig {
    let mut cfg = small_test_config(10, 2, 0x1D0C);
    cfg.sessions_per_device = 6;
    cfg
}

fn without_store(report: &CampaignReport) -> FleetSnapshot {
    let mut snapshot = report.snapshot.clone();
    snapshot.store = None;
    snapshot
}

#[test]
fn campaign_journal_restores_into_a_service() {
    let cfg = config();
    let vfs = SimVfs::new();
    let report = run_persistent_campaign(&cfg, &open(&cfg, &vfs), false).unwrap();
    assert!(report.snapshot.sessions_refused > 0, "the journal must hold refusals: {}", report.snapshot);

    let service = FleetService::with_journal(cfg.clone(), open(&cfg, &vfs)).expect("restore");
    assert_eq!(service.device_records(), report.device_records);
    assert_eq!(service.snapshot(), without_store(&report));
}

#[test]
fn service_journal_finishes_as_a_resumed_campaign() {
    let cfg = config();
    let reference = run_campaign(&cfg).unwrap();

    let vfs = SimVfs::new();
    let service = FleetService::with_journal(cfg.clone(), open(&cfg, &vfs)).expect("fresh journal");
    for id in 0..cfg.devices as u32 {
        service.enroll(id).expect("enroll");
        assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
        service.attest(id);
    }
    drop(service);

    let resumed = run_persistent_campaign(&cfg, &open(&cfg, &vfs), true).unwrap();
    assert_eq!(resumed.device_records, reference.device_records);
    assert_eq!(without_store(&resumed), reference.snapshot);
}

#[test]
fn every_session_appends_exactly_one_record() {
    // A persistent campaign journals its identity, each enrollment, and
    // one record per scheduled session: a verdict, a refusal or a fault,
    // with the device's cursor inside.
    let cfg = config();
    let report = run_persistent_campaign(&cfg, &open(&cfg, &SimVfs::new()), false).unwrap();
    let sessions = (cfg.devices * cfg.sessions_per_device as usize) as u64;
    assert!(report.snapshot.sessions_refused > 0, "the campaign must refuse: {}", report.snapshot);
    let stats = report.snapshot.store.expect("journaled");
    assert_eq!(stats.records_appended, 1 + cfg.devices as u64 + sessions);

    // The same through the service's entry points, aborts included.
    let store = open(&cfg, &SimVfs::new());
    let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("fresh journal");
    for id in 0..cfg.devices as u32 {
        service.enroll(id).expect("enroll");
    }
    let before = store.stats().records_appended;
    let mut sessions = 0;
    for round in 0..cfg.sessions_per_device {
        for id in 0..cfg.devices as u32 {
            match service.open_session(id) {
                SessionGate::Granted { .. } if (id + round).is_multiple_of(3) => service.abort_session(id),
                SessionGate::Granted { .. } => {
                    service.attest(id);
                }
                gate => assert_eq!(gate, SessionGate::Refused),
            }
            sessions += 1;
        }
    }
    assert!(service.snapshot().sessions_lost > 0 && service.snapshot().sessions_refused > 0);
    assert_eq!(store.stats().records_appended - before, sessions);
}
