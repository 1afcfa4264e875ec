//! The durability proof: exhaustive crash-point enumeration and
//! randomized WAL corruption.
//!
//! The matrix test runs one synthetic campaign workload crash-free to
//! count the backend operations it performs, then re-runs it crashing at
//! *every* operation index under *every* torn-tail mode. After each crash
//! the store is reopened and two invariants are checked against the
//! shadow history of the crash-free run:
//!
//! 1. **Committed prefix** — the recovered state equals the state after
//!    some prefix of the workload's records, and that prefix covers every
//!    append the workload saw acknowledged before the crash.
//! 2. **Monotone lifecycle** — implied by (1): prefix states only ever
//!    contain transitions the state machine admitted.
//!
//! A second enumeration crashes *recovery itself* at every operation and
//! proves a subsequent clean open still lands on the same state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use pufatt_store::record::{CursorInfo, OutcomeRec, Record, StoredStatus, LATENCY_SLOTS};
use pufatt_store::state::StoreState;
use pufatt_store::wal;
use pufatt_store::{DurableStore, SimVfs, StoreError, TORN_MODES};
use std::sync::Arc;

const HISTORY_CAPACITY: usize = 2;

fn outcome(accepted: bool) -> OutcomeRec {
    OutcomeRec {
        accepted,
        response_ok: accepted,
        time_ok: true,
        timed_out: false,
        attempts: if accepted { 1 } else { 2 },
        elapsed_bits: 0.25f64.to_bits(),
        retried: u32::from(!accepted),
        dropped: 0,
        lost: false,
        latency_slot: 5,
        crp_hits: 56,
        crp_misses: 8,
    }
}

/// A device's generator positions after a session, its session RNG at
/// word `session_pos`.
fn at(session_pos: u64, tamper_parity: bool) -> CursorInfo {
    CursorInfo {
        session_pos,
        noise_pos: 16 * session_pos,
        noise_evals: session_pos / 5 * 4,
        tamper_parity,
    }
}

/// A small campaign exercising every record type, in an order the state
/// machine admits: enrollment, a lifecycle walk to revocation, a refusal,
/// re-enrollment, faults, an abandonment, and aborted sessions, which
/// leave the cursor where it was.
fn workload() -> Vec<Record> {
    use Record::*;
    vec![
        Meta {
            config_hash: 0xC0FFEE,
            devices: 4,
            sessions_per_device: 4,
            seed: 9,
        },
        DeviceEnrolled { id: 0 },
        DeviceEnrolled { id: 1 },
        DeviceEnrolled { id: 2 },
        DeviceEnrolled { id: 3 },
        SessionClosed {
            id: 0,
            outcome: outcome(true),
            status: StoredStatus::Active,
            fails: 0,
            succs: 1,
            cursor: at(40, false),
        },
        SessionClosed {
            id: 1,
            outcome: outcome(false),
            status: StoredStatus::Active,
            fails: 1,
            succs: 0,
            cursor: at(40, false),
        },
        SessionClosed {
            id: 1,
            outcome: outcome(false),
            status: StoredStatus::Quarantined,
            fails: 0,
            succs: 0,
            cursor: at(80, true),
        },
        SessionClosed {
            id: 1,
            outcome: outcome(false),
            status: StoredStatus::Quarantined,
            fails: 1,
            succs: 0,
            cursor: at(80, true),
        },
        SessionClosed {
            id: 1,
            outcome: outcome(false),
            status: StoredStatus::Revoked,
            fails: 2,
            succs: 0,
            cursor: at(200, true),
        },
        SessionRefused { id: 1 },
        DeviceReEnrolled { id: 1 },
        SessionClosed {
            id: 1,
            outcome: outcome(true),
            status: StoredStatus::Active,
            fails: 0,
            succs: 1,
            cursor: at(240, true),
        },
        SessionFault {
            id: 2,
            retried: 1,
            dropped: 2,
            crp_hits: 8,
            crp_misses: 16,
            cursor: at(48, false),
        },
        StatusChanged { id: 2, status: StoredStatus::Quarantined },
        DeviceAbandoned { id: 3 },
        SessionClosed {
            id: 0,
            outcome: outcome(true),
            status: StoredStatus::Active,
            fails: 0,
            succs: 2,
            cursor: at(80, false),
        },
        SessionClosed {
            id: 0,
            outcome: outcome(false),
            status: StoredStatus::Active,
            fails: 1,
            succs: 0,
            cursor: at(80, false),
        },
        SessionFault {
            id: 2,
            retried: 0,
            dropped: 1,
            crp_hits: 4,
            crp_misses: 4,
            cursor: at(96, false),
        },
        SessionClosed {
            id: 2,
            outcome: outcome(true),
            status: StoredStatus::Quarantined,
            fails: 0,
            succs: 1,
            cursor: at(144, false),
        },
    ]
}

/// The states reached after applying each prefix of the workload:
/// `prefixes()[n]` is the state once records `0..n` are committed.
fn prefix_states(records: &[Record]) -> Vec<StoreState> {
    let mut states = Vec::with_capacity(records.len() + 1);
    let mut state = StoreState::new(HISTORY_CAPACITY);
    states.push(state.clone());
    for (i, record) in records.iter().enumerate() {
        state.apply(i as u64 + 1, record).expect("workload must be legal");
        states.push(state.clone());
    }
    states
}

/// Runs the workload against `vfs`, returning how many appends were
/// acknowledged (committed from the caller's point of view) before the
/// first failure.
fn run_workload(vfs: &SimVfs) -> usize {
    let store = match DurableStore::open(Arc::new(vfs.clone()), HISTORY_CAPACITY) {
        Ok(store) => store,
        Err(_) => return 0,
    };
    let mut acked = 0usize;
    for record in workload() {
        match store.append_synced(&record) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    acked
}

#[test]
fn workload_is_legal_and_replayable() {
    let vfs = SimVfs::new();
    let total = workload().len();
    assert_eq!(run_workload(&vfs), total, "crash-free workload commits fully");
    let store = DurableStore::open(Arc::new(vfs), HISTORY_CAPACITY).unwrap();
    assert_eq!(store.state(), prefix_states(&workload())[total], "replay lands on the final prefix state");
}

/// Invariants 1–2 at one crash point, one torn mode.
fn check_crash_point(k: u64, mode: pufatt_store::TornMode) {
    let records = workload();
    let prefixes = prefix_states(&records);

    let vfs = SimVfs::crashing_at(k);
    let acked = run_workload(&vfs);
    let disk = vfs.power_cut(mode);
    let store = DurableStore::open(Arc::new(disk.clone()), HISTORY_CAPACITY)
        .unwrap_or_else(|e| panic!("recovery must succeed at crash op {k} ({mode:?}): {e}"));

    // Invariant 1: committed prefix. The recovered sequence number names
    // the prefix; the full state must equal that prefix's state, and the
    // prefix must cover every acknowledged append (an ack means the sync
    // completed, so the record is on stable storage whatever the torn
    // mode did to the unsynced tail).
    let state = store.state();
    let n = state.last_seq as usize;
    assert!(n <= records.len(), "recovered seq {n} beyond the workload at crash op {k} ({mode:?})");
    assert!(n >= acked, "crash op {k} ({mode:?}): {acked} appends acknowledged but only {n} recovered");
    assert_eq!(state, prefixes[n], "crash op {k} ({mode:?}): recovered state is not a committed prefix");

    // Invariant 2 (monotone lifecycle) is implied by invariant 1.

    // Recovery must also have left a self-contained snapshot: a second
    // clean open replays nothing new and lands on the same state.
    drop(store);
    let reopened = DurableStore::open(Arc::new(disk), HISTORY_CAPACITY).unwrap();
    assert_eq!(reopened.state(), prefixes[n], "second open after recovery diverged at op {k} ({mode:?})");
}

#[test]
fn every_crash_point_recovers_a_committed_prefix() {
    // Count the backend operations of a crash-free run, then crash at
    // every single one of them, under every torn-tail mode. Exhaustive by
    // construction: a crash index past the total is the crash-free case.
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
fn crashes_during_recovery_lose_nothing() {
    // Build a fully committed image, then crash the *recovery* (open
    // replays the WAL, writes a fresh snapshot, compacts) at every
    // operation. Whatever recovery was doing when it died, a clean open
    // afterwards must land on the full workload state.
    let records = workload();
    let final_state = prefix_states(&records)[records.len()].clone();
    let base = SimVfs::new();
    run_workload(&base);

    let recovery_ops = {
        let probe = base.power_cut(pufatt_store::TornMode::Keep);
        let before = probe.ops();
        DurableStore::open(Arc::new(probe.clone()), HISTORY_CAPACITY).unwrap();
        probe.ops() - before
    };
    assert!(recovery_ops > 0);
    for k in 0..recovery_ops {
        for mode in TORN_MODES {
            let disk = base.power_cut(pufatt_store::TornMode::Keep);
            disk.set_crash_at(Some(disk.ops() + k));
            match DurableStore::open(Arc::new(disk.clone()), HISTORY_CAPACITY) {
                Ok(store) => assert_eq!(store.state(), final_state),
                Err(StoreError::Crashed) => {}
                Err(e) => panic!("recovery crash at op {k} must be Crashed, got {e}"),
            }
            let after = disk.power_cut(mode);
            let store = DurableStore::open(Arc::new(after), HISTORY_CAPACITY)
                .unwrap_or_else(|e| panic!("clean open after recovery crash {k} ({mode:?}): {e}"));
            assert_eq!(store.state(), final_state, "recovery crash at op {k} ({mode:?}) lost records");
        }
    }
}

// --------------------------------------------------------------- proptest

proptest! {
    /// Randomized counterpart of the exhaustive frame tests: any single
    /// truncation of a valid log yields a clean committed prefix, never
    /// garbage and never an error.
    #[test]
    fn truncation_recovers_a_frame_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..8),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut image = wal::WAL_MAGIC.to_vec();
        let mut offsets = vec![image.len()];
        for p in &payloads {
            wal::encode_frame(p, &mut image);
            offsets.push(image.len());
        }
        let cut = 8 + ((image.len() - 8) as f64 * cut_fraction) as usize;
        let recovered = wal::recover(Some(&image[..cut])).unwrap();
        // The recovered frames are exactly the ones wholly inside the cut.
        let expect = offsets.iter().filter(|&&end| end <= cut).count() - 1;
        prop_assert_eq!(recovered.payloads.len(), expect);
        for (got, want) in recovered.payloads.iter().zip(payloads.iter()) {
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(recovered.torn_tail, cut > offsets[expect]);
    }

    /// Flipping any single bit anywhere in the frame area still recovers
    /// a prefix of the original payloads (possibly shorter — the damaged
    /// frame and everything after it are discarded; a flip inside a
    /// payload must kill that frame, never corrupt it silently).
    #[test]
    fn bit_flips_never_yield_corrupt_payloads(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..6),
        flip_pos in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut image = wal::WAL_MAGIC.to_vec();
        for p in &payloads {
            wal::encode_frame(p, &mut image);
        }
        let pos = 8 + flip_pos % (image.len() - 8);
        image[pos] ^= 1 << flip_bit;
        let recovered = wal::recover(Some(&image)).unwrap();
        prop_assert!(recovered.payloads.len() <= payloads.len());
        for (got, want) in recovered.payloads.iter().zip(payloads.iter()) {
            prop_assert_eq!(got, want, "recovered payloads must be an exact prefix");
        }
    }

    /// Encode/decode round-trip for every record type under arbitrary
    /// field values the codec admits.
    #[test]
    fn record_roundtrip(seq in any::<u64>(), tag in 0usize..8, a in any::<u64>(), b in any::<u64>(),
                        id in any::<u32>(), small in any::<u32>(), flag in any::<bool>(),
                        slot in 0u8..(LATENCY_SLOTS as u8)) {
        let out = OutcomeRec {
            accepted: flag,
            response_ok: !flag,
            time_ok: flag,
            timed_out: !flag,
            attempts: small,
            elapsed_bits: a,
            retried: small,
            dropped: small ^ 1,
            lost: flag,
            latency_slot: slot,
            crp_hits: small ^ 2,
            crp_misses: small ^ 3,
        };
        let cursor = CursorInfo { session_pos: a, noise_pos: b, noise_evals: a ^ b, tamper_parity: flag };
        let record = match tag {
            0 => Record::Meta { config_hash: a, devices: id, sessions_per_device: small, seed: b },
            1 => Record::DeviceEnrolled { id },
            2 => Record::DeviceReEnrolled { id },
            3 => Record::StatusChanged { id, status: StoredStatus::Quarantined },
            4 => Record::SessionClosed { id, outcome: out, status: StoredStatus::Active, fails: small, succs: small, cursor },
            5 => Record::SessionRefused { id },
            6 => Record::SessionFault { id, retried: small, dropped: small, crp_hits: small ^ 2, crp_misses: small ^ 3, cursor },
            _ => Record::DeviceAbandoned { id },
        };
        let mut buf = Vec::new();
        record.encode(seq, &mut buf);
        let (got_seq, got) = Record::decode(&buf).unwrap();
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got, record);
    }
}
