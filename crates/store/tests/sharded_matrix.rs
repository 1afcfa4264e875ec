//! Crash-point enumeration for the sharded, group-committed store.
//!
//! The single-store crash matrix (`crash_matrix.rs`) proves recovery
//! under fsync-per-record. This matrix proves the two properties the
//! sharded layer adds:
//!
//! 1. **Per-shard committed prefix under group commit** — a workload of
//!    unsynced appends punctuated by flushes is crashed at *every*
//!    backend operation under every torn-tail mode; after recovery each
//!    shard's state equals the state after some prefix of the records
//!    routed to it, and that prefix covers every record a successful
//!    flush (or synced append) made durable.
//! 2. **Enrollment atomicity** — a synced enrollment crashed at any
//!    operation leaves the device either fully admitted or absent, and
//!    an acknowledged enrollment is never lost.
//!
//! A third enumeration crashes the sharded *open* itself (manifest
//! commit + per-shard recovery) at every operation and proves a clean
//! open afterwards still lands on the full state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pufatt_store::record::{OutcomeRec, Record, StoredStatus};
use pufatt_store::state::StoreState;
use pufatt_store::{ShardedOptions, ShardedStore, SimVfs, StoreError, TORN_MODES};
use std::sync::Arc;

const HISTORY_CAPACITY: usize = 2;
const SHARDS: u32 = 4;
const RANGE_WIDTH: u32 = 2;

fn opts() -> ShardedOptions {
    ShardedOptions {
        history_capacity: HISTORY_CAPACITY,
        shards: SHARDS,
        range_width: RANGE_WIDTH,
        commit_queue_limit: 0,
        compact_wal_bytes: 0,
    }
}

fn outcome(accepted: bool) -> OutcomeRec {
    OutcomeRec {
        accepted,
        response_ok: accepted,
        time_ok: true,
        timed_out: false,
        attempts: 1,
        elapsed_bits: 0.25f64.to_bits(),
        retried: 0,
        dropped: 0,
        lost: false,
        latency_slot: 5,
        crp_hits: 4,
        crp_misses: 2,
    }
}

/// One step of the workload: a group-commit append, a synced append, or
/// an explicit flush (standing in for the committer's tick).
enum Op {
    Append(Record),
    AppendSynced(Record),
    Flush,
}

/// Exercises every record type across all four shards with group-commit
/// batches of varying sizes between flushes.
fn workload() -> Vec<Op> {
    use Record::*;
    let closed = |id, ok, status, fails, succs| SessionClosed { id, outcome: outcome(ok), status, fails, succs };
    vec![
        Op::AppendSynced(Meta {
            config_hash: 0xABCD,
            devices: 8,
            sessions_per_device: 2,
            seed: 3,
        }),
        Op::Append(DeviceEnrolled { id: 0 }),
        Op::Append(DeviceEnrolled { id: 2 }),
        Op::Append(DeviceEnrolled { id: 4 }),
        Op::Flush,
        Op::Append(DeviceEnrolled { id: 6 }),
        Op::AppendSynced(DeviceEnrolled { id: 1 }),
        Op::Append(closed(0, true, StoredStatus::Active, 0, 1)),
        Op::Append(DeviceCursor {
            id: 0,
            events_done: 1,
            session_pos: 40,
            noise_pos: 640,
            noise_evals: 32,
            tamper_parity: false,
        }),
        Op::Append(closed(6, true, StoredStatus::Active, 0, 1)),
        Op::Flush,
        Op::Append(closed(2, false, StoredStatus::Active, 1, 0)),
        Op::Append(SessionFault { id: 4, retried: 1, dropped: 2, crp_hits: 0, crp_misses: 8 }),
        Op::Append(StatusChanged { id: 2, status: StoredStatus::Revoked }),
        Op::Append(SessionRefused { id: 2 }),
        Op::Append(DeviceCursor {
            id: 2,
            events_done: 2,
            session_pos: 80,
            noise_pos: 1280,
            noise_evals: 64,
            tamper_parity: true,
        }),
        Op::Append(DeviceReEnrolled { id: 2 }),
        Op::Append(DeviceAbandoned { id: 6 }),
        Op::Flush,
        Op::Append(closed(1, true, StoredStatus::Active, 0, 1)),
        Op::AppendSynced(DeviceEnrolled { id: 8 }),
        Op::Append(closed(0, true, StoredStatus::Active, 0, 2)),
    ]
}

/// Shadow routing: mirror of the store's record routing, checked against
/// `shard_of_record` on a live store before use.
fn shadow_states(store: &ShardedStore, durable_counts: &[usize]) -> Vec<StoreState> {
    let mut states: Vec<StoreState> = (0..SHARDS).map(|_| StoreState::new(HISTORY_CAPACITY)).collect();
    let mut applied = vec![0usize; SHARDS as usize];
    for op in workload() {
        let record = match op {
            Op::Append(r) | Op::AppendSynced(r) => r,
            Op::Flush => continue,
        };
        let s = store.shard_of_record(&record);
        if applied[s] < durable_counts[s] {
            let seq = states[s].last_seq + 1;
            states[s].apply(seq, &record).expect("workload must be legal");
            applied[s] += 1;
        }
    }
    states
}

/// Runs the workload; returns per-shard counts of records known durable
/// (covered by a successful flush or synced append) when the run ended.
fn run_workload(vfs: &SimVfs) -> Vec<usize> {
    let mut appended = vec![0usize; SHARDS as usize];
    let mut durable = vec![0usize; SHARDS as usize];
    let store = match ShardedStore::open(Arc::new(vfs.clone()), opts()) {
        Ok(store) => store,
        Err(_) => return durable,
    };
    for op in workload() {
        match op {
            Op::Append(record) => {
                let s = store.shard_of_record(&record);
                if store.append(&record).is_err() {
                    break;
                }
                appended[s] += 1;
            }
            Op::AppendSynced(record) => {
                let s = store.shard_of_record(&record);
                if store.append_synced(&record).is_err() {
                    break;
                }
                appended[s] += 1;
                // The sync committed everything queued on this shard.
                durable[s] = appended[s];
            }
            Op::Flush => {
                if store.flush().is_err() {
                    break;
                }
                durable.copy_from_slice(&appended);
            }
        }
    }
    durable
}

#[test]
fn workload_is_legal_and_replayable() {
    let vfs = SimVfs::new();
    let durable = run_workload(&vfs);
    let records = workload().iter().filter(|op| !matches!(op, Op::Flush)).count();
    assert!(durable.iter().sum::<usize>() <= records);
    // No power cut intervened, so a reopen sees even the unflushed tail.
    let store = ShardedStore::open(Arc::new(vfs), opts()).unwrap();
    assert_eq!(store.meta().unwrap().devices, 8);
    let mut active = 0;
    store.for_each_device(|_, d| active += usize::from(d.status == StoredStatus::Active));
    assert_eq!(active, 6, "devices 0,1,2,4,6,8 all end Active");
    assert_eq!(store.device(6).unwrap().outcomes_total, 1);
    assert_eq!(store.device(8).unwrap().events_seen, 0, "the online enrollment ran no session");
    let d0 = store.device(0).unwrap();
    assert_eq!(d0.events_seen, 2);
    assert_eq!(d0.events.len(), 1, "the cursor dropped the covered event");
    assert_eq!(d0.cursor.unwrap().events_done, 1);
    assert!(store.device(6).unwrap().abandoned);
}

/// Invariants 1–2 at one crash point, one torn mode.
fn check_crash_point(k: u64, mode: pufatt_store::TornMode) {
    let vfs = SimVfs::crashing_at(k);
    let durable = run_workload(&vfs);
    let disk = vfs.power_cut(mode);
    let store = ShardedStore::open(Arc::new(disk.clone()), opts())
        .unwrap_or_else(|e| panic!("recovery must succeed at crash op {k} ({mode:?}): {e}"));

    // Invariant 1: each shard recovered a committed prefix of its own
    // record stream covering everything a flush made durable.
    let recovered = store.shard_states();
    let counts: Vec<usize> = recovered.iter().map(|s| s.last_seq as usize).collect();
    for (s, (&n, &floor)) in counts.iter().zip(durable.iter()).enumerate() {
        assert!(n >= floor, "crash op {k} ({mode:?}): shard {s} flushed {floor} records but recovered {n}");
    }
    let shadow = shadow_states(&store, &counts);
    for (s, (got, want)) in recovered.iter().zip(shadow.iter()).enumerate() {
        assert_eq!(got, want, "crash op {k} ({mode:?}): shard {s} state is not a committed prefix");
    }

    // Invariant 2: a second clean open lands on the same state (recovery
    // left self-contained snapshots on every shard).
    drop(store);
    let reopened = ShardedStore::open(Arc::new(disk), opts()).unwrap();
    assert_eq!(reopened.shard_states(), recovered, "second open after recovery diverged at op {k} ({mode:?})");
}

#[test]
fn every_crash_point_recovers_per_shard_committed_prefixes() {
    let probe = SimVfs::new();
    let total_ops = {
        run_workload(&probe);
        probe.ops()
    };
    assert!(total_ops > 40, "workload should exercise many crash points, got {total_ops}");
    for k in 0..=total_ops {
        for mode in TORN_MODES {
            check_crash_point(k, mode);
        }
    }
}

#[test]
fn online_enrollment_is_admitted_or_absent_at_every_crash_point() {
    // A base campaign is fully committed; then a batch of *online*
    // enrollments (synced appends, as the enrollment pipeline issues)
    // lands while session records flow. Crash everywhere: after
    // recovery every new device is fully admitted or absent — never a
    // device that exists with inconsistent state — and an enrollment
    // whose sync was acknowledged is always admitted.
    let base_ops = {
        let probe = SimVfs::new();
        let store = ShardedStore::open(Arc::new(probe.clone()), opts()).unwrap();
        for id in 0..4 {
            store.append(&Record::DeviceEnrolled { id }).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        probe.ops()
    };
    let enroll_run = |vfs: &SimVfs| -> Vec<u32> {
        let store = match ShardedStore::open(Arc::new(vfs.clone()), opts()) {
            Ok(store) => store,
            Err(_) => return Vec::new(),
        };
        let mut acked = Vec::new();
        for new_id in [9u32, 64, 65, 200] {
            if store.append_synced(&Record::DeviceEnrolled { id: new_id }).is_err() {
                break;
            }
            acked.push(new_id);
            // Interleave campaign traffic on the group-commit path.
            if store
                .append(&Record::SessionClosed {
                    id: 0,
                    outcome: outcome(true),
                    status: StoredStatus::Active,
                    fails: 0,
                    succs: 1,
                })
                .is_err()
            {
                break;
            }
        }
        let _ = store.flush();
        acked
    };
    let probe = SimVfs::new();
    {
        let setup = ShardedStore::open(Arc::new(probe.clone()), opts()).unwrap();
        for id in 0..4 {
            setup.append(&Record::DeviceEnrolled { id }).unwrap();
        }
        setup.flush().unwrap();
    }
    let total_ops = {
        enroll_run(&probe);
        probe.ops()
    };
    assert!(total_ops > base_ops);
    for k in base_ops..=total_ops {
        for mode in TORN_MODES {
            let vfs = SimVfs::new();
            {
                let setup = ShardedStore::open(Arc::new(vfs.clone()), opts()).unwrap();
                for id in 0..4 {
                    setup.append(&Record::DeviceEnrolled { id }).unwrap();
                }
                setup.flush().unwrap();
            }
            vfs.set_crash_at(Some(k));
            let acked = enroll_run(&vfs);
            let disk = vfs.power_cut(mode);
            let store = ShardedStore::open(Arc::new(disk), opts())
                .unwrap_or_else(|e| panic!("recovery after enrollment crash {k} ({mode:?}): {e}"));
            for id in &acked {
                let device = store
                    .device(*id)
                    .unwrap_or_else(|| panic!("acked enrollment {id} lost at op {k} ({mode:?})"));
                assert_eq!(device.status, StoredStatus::Active);
            }
            for id in [9u32, 64, 65, 200] {
                if let Some(device) = store.device(id) {
                    // Fully admitted: a fresh Active device with no
                    // history — the single-record admit is atomic.
                    assert_eq!(device.status, StoredStatus::Active, "half-enrolled {id} at op {k}");
                    assert_eq!(device.events_seen, 0);
                    assert_eq!(device.outcomes_total, 0);
                }
            }
        }
    }
}

#[test]
fn crashes_during_sharded_open_lose_nothing() {
    // Fully commit the workload, then crash the sharded open (manifest
    // read + per-shard recovery, each writing fresh snapshots) at every
    // operation; a clean open afterwards must land on the full state.
    let base = SimVfs::new();
    run_workload(&base);
    let committed = base.power_cut(pufatt_store::TornMode::Drop);
    let final_states = ShardedStore::open(Arc::new(committed.clone()), opts()).unwrap().shard_states();

    let recovery_ops = {
        let probe = committed.power_cut(pufatt_store::TornMode::Keep);
        let before = probe.ops();
        ShardedStore::open(Arc::new(probe.clone()), opts()).unwrap();
        probe.ops() - before
    };
    assert!(recovery_ops > 0);
    for k in 0..recovery_ops {
        for mode in TORN_MODES {
            let disk = committed.power_cut(pufatt_store::TornMode::Keep);
            disk.set_crash_at(Some(disk.ops() + k));
            match ShardedStore::open(Arc::new(disk.clone()), opts()) {
                Ok(store) => assert_eq!(store.shard_states(), final_states),
                Err(StoreError::Crashed) => {}
                Err(e) => panic!("open crash at op {k} must be Crashed, got {e}"),
            }
            let after = disk.power_cut(mode);
            let store = ShardedStore::open(Arc::new(after), opts())
                .unwrap_or_else(|e| panic!("clean open after open-crash {k} ({mode:?}): {e}"));
            assert_eq!(store.shard_states(), final_states, "open crash at op {k} ({mode:?}) lost records");
        }
    }
}
