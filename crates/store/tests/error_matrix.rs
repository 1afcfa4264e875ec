//! Recoverable-I/O-error enumeration for the sharded store.
//!
//! The crash matrices (`crash_matrix.rs`, `sharded_matrix.rs`) prove
//! recovery when the *process* dies. This matrix proves the robustness
//! contract when the process survives and the *disk* fails: an EIO,
//! ENOSPC, or fsync failure injected at **every** backend operation and
//! every read, one-shot and sticky, must leave the store in a state
//! where
//!
//! 1. every failure surfaces as a typed [`StoreError`] — never a panic;
//! 2. every record the store *acknowledged as durable* (a synced append,
//!    or an append covered by a successful flush) survives a subsequent
//!    power cut and reopen — no accepted-but-undurable record exists at
//!    any injection point;
//! 3. each shard's recovered state is a committed prefix of the records
//!    the store acknowledged for that shard — a sick shard never
//!    contaminates a healthy one;
//! 4. the health machine is one-way until the operator acts: a storage
//!    failure degrades exactly the failing shard, healthy shards keep
//!    accepting traffic, and [`ShardedStore::reopen_shard`] rejoins the
//!    sick shard with its committed prefix intact.
//!
//! A proptest section pins the fault model itself: [`error_plan`] is a
//! pure function of its seed, and a seeded plan replayed against the
//! same workload produces an *identical* failure schedule — the property
//! that makes any failing matrix point reproducible from its seed.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use pufatt_store::record::{CursorInfo, OutcomeRec, Record, StoredStatus};
use pufatt_store::state::StoreState;
use pufatt_store::{
    error_plan, ErrorInjection, InjectedErrorKind, ShardHealth, ShardedOptions, ShardedStore, SimVfs, StoreError,
    TornMode, INJECTED_ERROR_KINDS,
};
use std::sync::Arc;

const HISTORY_CAPACITY: usize = 2;
const SHARDS: u32 = 4;
const RANGE_WIDTH: u32 = 2;

fn opts() -> ShardedOptions {
    ShardedOptions {
        history_capacity: HISTORY_CAPACITY,
        shards: SHARDS,
        range_width: RANGE_WIDTH,
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

/// A device's generator positions after a session, its session RNG at
/// word `session_pos`.
fn at(session_pos: u64) -> CursorInfo {
    CursorInfo {
        session_pos,
        noise_pos: 16 * session_pos,
        noise_evals: session_pos / 5 * 4,
        tamper_parity: false,
    }
}

/// One step of the workload: a group-commit append, a synced append, or
/// an explicit flush (the committer's tick).
enum Op {
    Append(Record),
    AppendSynced(Record),
    Flush,
}

/// Every record class across all four shards, with synced admissions and
/// group-commit batches between flushes — the journal shape a durable
/// campaign writes.
fn workload() -> Vec<Op> {
    use Record::*;
    let closed = |id, ok, status, fails, succs, pos| SessionClosed {
        id,
        outcome: outcome(ok),
        status,
        fails,
        succs,
        cursor: at(pos),
    };
    vec![
        Op::AppendSynced(Meta {
            config_hash: 0x51C6,
            devices: 8,
            sessions_per_device: 2,
            seed: 9,
        }),
        Op::AppendSynced(DeviceEnrolled { id: 0 }),
        Op::AppendSynced(DeviceEnrolled { id: 2 }),
        Op::AppendSynced(DeviceEnrolled { id: 4 }),
        Op::AppendSynced(DeviceEnrolled { id: 6 }),
        Op::Append(closed(0, true, StoredStatus::Active, 0, 1, 40)),
        Op::Append(SessionFault {
            id: 6,
            retried: 0,
            dropped: 0,
            crp_hits: 0,
            crp_misses: 0,
            cursor: at(0),
        }),
        Op::Flush,
        Op::Append(closed(2, false, StoredStatus::Active, 1, 0, 40)),
        Op::Append(SessionFault {
            id: 4,
            retried: 1,
            dropped: 2,
            crp_hits: 0,
            crp_misses: 8,
            cursor: at(40),
        }),
        Op::Append(StatusChanged { id: 2, status: StoredStatus::Revoked }),
        Op::Flush,
        Op::Append(closed(6, true, StoredStatus::Active, 0, 1, 40)),
        Op::AppendSynced(DeviceEnrolled { id: 8 }),
        Op::Append(closed(0, true, StoredStatus::Active, 0, 2, 80)),
        Op::Flush,
    ]
}

/// What one error-ridden run acknowledged, per shard.
#[derive(Debug, Clone, PartialEq)]
struct RunLog {
    /// Records the store accepted (Ok from append/append_synced), in
    /// order, per shard — the only candidates for recovered state.
    acked: Vec<Vec<Record>>,
    /// Per-shard count of acked records covered by a successful sync:
    /// the durability floor nothing may sink below.
    durable: Vec<usize>,
    /// Typed errors observed (every one must match the allowed set).
    errors: usize,
}

/// Runs the workload, tolerating injected failures: a failed operation
/// is simply not acknowledged. Panics on any error outside the typed
/// storage set — the matrix's "no panic, typed errors only" oracle.
fn run_with_errors(vfs: &SimVfs) -> RunLog {
    let mut log = RunLog {
        acked: vec![Vec::new(); SHARDS as usize],
        durable: vec![0; SHARDS as usize],
        errors: 0,
    };
    let assert_typed = |e: &StoreError| {
        assert!(
            matches!(
                e,
                StoreError::Io(_) | StoreError::NoSpace(_) | StoreError::Broken | StoreError::ShardUnavailable { .. }
            ),
            "storage failure must surface typed, got {e}"
        );
    };
    let store = match ShardedStore::open(Arc::new(vfs.clone()), opts()) {
        Ok(store) => store,
        Err(e) => {
            // An injection during open (manifest commit, shard recovery)
            // fails the open as a whole, before any handle is usable.
            assert!(
                matches!(e, StoreError::Io(_) | StoreError::NoSpace(_)),
                "open failure must surface typed, got {e}"
            );
            log.errors += 1;
            return log;
        }
    };
    for op in workload() {
        match op {
            Op::Append(record) => {
                let s = store.shard_of_record(&record);
                match store.append_nosync(&record) {
                    Ok(()) => log.acked[s].push(record),
                    Err(e) => {
                        assert_typed(&e);
                        log.errors += 1;
                    }
                }
            }
            Op::AppendSynced(record) => {
                let s = store.shard_of_record(&record);
                match store.append_synced(&record) {
                    Ok(()) => {
                        log.acked[s].push(record);
                        // The sync committed everything queued on this shard.
                        log.durable[s] = log.acked[s].len();
                    }
                    Err(e) => {
                        assert_typed(&e);
                        log.errors += 1;
                    }
                }
            }
            Op::Flush => match store.flush() {
                Ok(()) => {
                    // Ok means every *healthy* shard committed; a sick
                    // shard is skipped (read-only until reopen), so its
                    // acked-but-unsynced tail is not durable — the fleet
                    // layer re-derives those sessions after reopen.
                    for s in 0..SHARDS as usize {
                        if store.shard_health(s) == ShardHealth::Healthy {
                            log.durable[s] = log.acked[s].len();
                        }
                    }
                }
                Err(e) => {
                    // A partial flush may have committed some shards; the
                    // floor stays conservative — durability never claims
                    // more than an acknowledged sync.
                    assert_typed(&e);
                    log.errors += 1;
                }
            },
        }
    }
    log
}

/// The state reached by applying the first `n` acked records of a shard.
fn replayed(acked: &[Record], n: usize) -> StoreState {
    let mut state = StoreState::new(HISTORY_CAPACITY);
    for (i, record) in acked.iter().take(n).enumerate() {
        state.apply(i as u64 + 1, record).expect("acked workload must be legal");
    }
    state
}

/// Invariants 1–3 at one injection point.
fn check_error_point(plan: ErrorInjection, label: &str) {
    let vfs = SimVfs::new();
    vfs.inject(plan);
    let log = run_with_errors(&vfs);

    // The process survived; now the power fails too. Only synced bytes
    // survive — exactly the durability the store acknowledged.
    let disk = vfs.power_cut(TornMode::Drop);
    let store = ShardedStore::open(Arc::new(disk), opts())
        .unwrap_or_else(|e| panic!("{label}: reopen on a healthy disk must succeed: {e}"));
    let recovered = store.shard_states();
    for (s, state) in recovered.iter().enumerate() {
        let n = state.last_seq as usize;
        assert!(
            n >= log.durable[s],
            "{label}: shard {s} acknowledged {} durable records but recovered {n}",
            log.durable[s]
        );
        assert!(
            n <= log.acked[s].len(),
            "{label}: shard {s} recovered {n} records but only {} were acknowledged",
            log.acked[s].len()
        );
        assert_eq!(
            *state,
            replayed(&log.acked[s], n),
            "{label}: shard {s} state is not a committed prefix of its acknowledged records"
        );
    }
}

#[test]
fn an_error_at_every_op_leaves_acknowledged_durability_intact() {
    // Probe: how many mutating ops does a clean run issue (open included)?
    let probe = SimVfs::new();
    let clean = run_with_errors(&probe);
    assert_eq!(clean.errors, 0, "clean run must see no errors");
    assert!(clean.acked.iter().all(|a| !a.is_empty()), "workload must touch every shard");
    let total_ops = probe.ops();
    assert!(total_ops > 30, "workload should exercise many error points, got {total_ops}");

    for k in 0..total_ops {
        for kind in INJECTED_ERROR_KINDS {
            check_error_point(ErrorInjection::at_op(k, kind), &format!("one-shot {kind:?} at op {k}"));
            check_error_point(ErrorInjection::at_op(k, kind).sticky(), &format!("sticky {kind:?} at op {k}"));
        }
    }
}

#[test]
fn an_error_at_every_read_is_typed_and_loses_nothing() {
    // Commit the workload cleanly, then fail each *read* of the reopen
    // path (manifest, snapshots, WAL replay) in both arities: the open
    // either succeeds on the full state or fails typed, and a clean
    // retry always lands on the full state.
    let base = SimVfs::new();
    run_with_errors(&base);
    let committed = base.power_cut(TornMode::Drop);
    let reads_before = committed.reads();
    let final_states = ShardedStore::open(Arc::new(committed.clone()), opts()).unwrap().shard_states();
    let total_reads = committed.reads() - reads_before;
    assert!(total_reads > 0, "reopen must read the disk");

    for r in 0..total_reads {
        for kind in INJECTED_ERROR_KINDS {
            for sticky in [false, true] {
                let disk = committed.power_cut(TornMode::Keep);
                let mut plan = ErrorInjection::at_read(r, kind);
                if sticky {
                    plan = plan.sticky();
                }
                let label = format!("read {r} {kind:?} sticky={sticky}");
                match ShardedStore::open(Arc::new(disk.clone()), opts()) {
                    Ok(store) => assert_eq!(store.shard_states(), final_states, "{label}: partial state"),
                    Err(e) => assert!(
                        matches!(e, StoreError::Io(_) | StoreError::NoSpace(_)),
                        "{label}: open failure must be typed, got {e}"
                    ),
                }
                disk.clear_injections("");
                let store = ShardedStore::open(Arc::new(disk), opts())
                    .unwrap_or_else(|e| panic!("{label}: clean retry must succeed: {e}"));
                assert_eq!(store.shard_states(), final_states, "{label}: retry lost records");
            }
        }
    }
}

#[test]
fn a_dying_shard_degrades_alone_and_rejoins_via_reopen() {
    let vfs = SimVfs::new();
    let store = ShardedStore::open(Arc::new(vfs.clone()), opts()).unwrap();
    // Shard 1 (ids 2, 3, 10, 11, … under range width 2) loses its disk.
    vfs.inject(ErrorInjection::on_prefix("shard-001/", InjectedErrorKind::Eio).sticky());

    let sick_ids: Vec<u32> = (0..16).filter(|id| store.shard_of_id(*id) == 1).collect();
    let mut refused = 0;
    for id in 0..16u32 {
        match store.append_synced(&Record::DeviceEnrolled { id }) {
            Ok(()) => assert_ne!(store.shard_of_id(id), 1, "device {id} landed on the dead shard"),
            Err(e) => {
                refused += 1;
                assert_eq!(store.shard_of_id(id), 1, "healthy shard refused device {id}: {e}");
                assert!(
                    matches!(e, StoreError::Io(_) | StoreError::ShardUnavailable { .. }),
                    "dead-shard refusal must be typed, got {e}"
                );
            }
        }
    }
    assert_eq!(refused, sick_ids.len(), "exactly the dead shard's devices are refused");
    assert_eq!(store.shard_health(1), ShardHealth::Degraded, "first failure degrades the shard");
    for s in [0usize, 2, 3] {
        assert_eq!(store.shard_health(s), ShardHealth::Healthy, "shard {s} caught the neighbour's disease");
    }
    let stats = store.stats();
    assert_eq!((stats.shards_total, stats.shards_degraded, stats.shards_failed), (SHARDS, 1, 0));

    // Reopening against the still-dead disk fails typed and marks Failed.
    assert!(store.reopen_shard(1).is_err(), "reopen against a dead disk must fail");
    assert_eq!(store.shard_health(1), ShardHealth::Failed);
    assert_eq!(store.stats().shards_failed, 1);

    // The operator replaces the disk; reopen rejoins the shard Healthy
    // and it accepts traffic again.
    vfs.clear_injections("shard-001/");
    store.reopen_shard(1).expect("reopen after the disk is back");
    assert_eq!(store.shard_health(1), ShardHealth::Healthy);
    for id in &sick_ids {
        store
            .append_synced(&Record::DeviceEnrolled { id: *id })
            .unwrap_or_else(|e| panic!("rejoined shard must accept device {id}: {e}"));
    }
    // Every healthy-shard admission survived the whole episode.
    let reopened = ShardedStore::open(Arc::new(vfs.power_cut(TornMode::Drop)), opts()).unwrap();
    let mut seen = 0;
    reopened.for_each_device(|_, _| seen += 1);
    assert_eq!(seen, 16, "all 16 admissions durable after degrade + reopen");
}

#[test]
fn a_failed_fsync_poisons_the_handle_until_reopen() {
    // fsyncgate: after a failed sync the dirty pages may be gone, so the
    // store must never report durability off a retried fsync on the same
    // handle — the shard goes read-only and only reopen_shard (a fresh
    // handle + recovery) brings it back.
    let vfs = SimVfs::new();
    let store = ShardedStore::open(Arc::new(vfs.clone()), opts()).unwrap();
    store.append_nosync(&Record::DeviceEnrolled { id: 2 }).unwrap();
    vfs.inject(ErrorInjection::on_prefix("shard-001/", InjectedErrorKind::SyncFail));
    assert!(store.flush().is_err(), "the injected fsync failure must surface");
    assert_eq!(store.shard_health(1), ShardHealth::Degraded);
    // The injection was one-shot — the disk would accept a retried fsync —
    // but the handle is poisoned: the store refuses instead of retrying.
    assert!(
        matches!(
            store.append_synced(&Record::DeviceEnrolled { id: 3 }),
            Err(StoreError::ShardUnavailable { shard: 1 })
        ),
        "poisoned shard must refuse, not retry the fsync"
    );
    assert!(store.flush().is_ok(), "sick shards are skipped, not retried");
    store.reopen_shard(1).expect("reopen recovers on a fresh handle");
    store
        .append_synced(&Record::DeviceEnrolled { id: 3 })
        .expect("rejoined shard accepts traffic");
}

// --------------------------------------------------------------- proptest

proptest! {
    /// The fault model is a pure function of its seed: the same
    /// `(seed, count, bound)` always derives the same plan, and every
    /// trigger respects the bound.
    #[test]
    fn error_plans_are_pure_functions_of_their_seed(
        seed in any::<u64>(),
        count in 0usize..32,
        bound in 1u64..400,
    ) {
        let a = error_plan(seed, count, bound);
        let b = error_plan(seed, count, bound);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), count);
        for inj in &a {
            let at = inj.at_op.or(inj.at_read).expect("derived plans always have a trigger");
            prop_assert!(at < bound, "trigger {at} outside bound {bound}");
        }
    }

    /// A seeded plan driven against the same workload twice produces an
    /// identical failure schedule: same acknowledged records, same
    /// durability floors, same error count, same op/read/failure
    /// counters. This is what makes a failing matrix seed reproducible.
    #[test]
    fn seeded_failure_schedules_replay_identically(seed in any::<u64>(), count in 1usize..5) {
        let drive = |vfs: &SimVfs| {
            for inj in error_plan(seed, count, 60) {
                vfs.inject(inj);
            }
            run_with_errors(vfs)
        };
        let first_vfs = SimVfs::new();
        let first = drive(&first_vfs);
        let second_vfs = SimVfs::new();
        let second = drive(&second_vfs);
        prop_assert_eq!(first, second);
        prop_assert_eq!(first_vfs.ops(), second_vfs.ops());
        prop_assert_eq!(first_vfs.reads(), second_vfs.reads());
        prop_assert_eq!(first_vfs.injected_failures(), second_vfs.injected_failures());
    }

    /// Sticky-vs-one-shot semantics, pinned: a one-shot injection fails
    /// exactly one matching operation; the same injection made sticky
    /// fails every matching operation until cleared.
    #[test]
    fn sticky_latches_where_one_shot_retires(kind_idx in 0usize..3) {
        let kind = INJECTED_ERROR_KINDS[kind_idx];
        let one_shot = SimVfs::new();
        let store = ShardedStore::open(Arc::new(one_shot.clone()), opts()).unwrap();
        one_shot.inject(ErrorInjection::on_prefix("shard-000/", kind));
        prop_assert!(store.append_synced(&Record::DeviceEnrolled { id: 0 }).is_err());
        prop_assert_eq!(one_shot.injected_failures(), 1);
        // The fault was transient, but the health machine still demands
        // an explicit reopen — silent self-healing would hide the error.
        prop_assert_eq!(store.shard_health(0), ShardHealth::Degraded);
        store.reopen_shard(0).expect("reopen after a transient fault");
        prop_assert!(store.append_synced(&Record::DeviceEnrolled { id: 0 }).is_ok());
        prop_assert_eq!(one_shot.injected_failures(), 1, "one-shot fired exactly once");

        let sticky = SimVfs::new();
        let store = ShardedStore::open(Arc::new(sticky.clone()), opts()).unwrap();
        sticky.inject(ErrorInjection::on_prefix("shard-000/", kind).sticky());
        prop_assert!(store.append_synced(&Record::DeviceEnrolled { id: 0 }).is_err());
        prop_assert!(store.reopen_shard(0).is_err(), "sticky fault keeps killing the reopen");
        prop_assert_eq!(store.shard_health(0), ShardHealth::Failed);
        prop_assert!(sticky.injected_failures() >= 2, "sticky keeps firing");
        sticky.clear_injections("");
        store.reopen_shard(0).expect("reopen once the fault is cleared");
        prop_assert!(store.append_synced(&Record::DeviceEnrolled { id: 0 }).is_ok());
    }
}
