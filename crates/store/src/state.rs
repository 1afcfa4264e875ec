//! The materialised store state: what replaying the snapshot + WAL yields.
//!
//! [`StoreState::apply`] is the single transition function — the live
//! store and crash recovery both go through it, so "state after a crash"
//! and "state during normal operation" cannot drift apart. It enforces the
//! monotone-lifecycle invariant on every record: a device leaves
//! `Revoked` only through an explicit re-enrollment, sessions cannot close
//! against revoked or unknown devices, and sequence numbers only move
//! forward. A WAL whose checksum-valid frames violate these rules is
//! refused as corrupt rather than replayed into nonsense.

use crate::codec::{Reader, Writer};
use crate::record::{read_outcome, write_outcome, OutcomeRec, Record, StoredStatus, LATENCY_SLOTS};
use crate::StoreError;
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Index, IndexMut};

/// Per-device session event kinds, in schedule order — enough for a
/// resumed campaign to know how many sessions already ran and which of
/// them consumed the device's random stream (refusals consume nothing).
pub const EV_CLOSED: u8 = 0;
/// The session was refused up front (device revoked).
pub const EV_REFUSED: u8 = 1;
/// The session died in a device fault before reaching a verdict.
pub const EV_FAULT: u8 = 2;

/// Campaign identity stored with the state; resuming under a different
/// configuration is refused instead of silently blending campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaInfo {
    /// Fingerprint of the verdict-affecting configuration fields.
    pub config_hash: u64,
    /// Devices in the campaign.
    pub devices: u32,
    /// Sessions scheduled per device.
    pub sessions_per_device: u32,
    /// The campaign master seed.
    pub seed: u64,
}

/// The deterministic generator positions a device had reached after its
/// most recent journaled event (see [`crate::Record::DeviceCursor`]).
/// With a cursor present, resume fast-forwards the RNGs in O(1) instead
/// of replaying every earlier session; event entries the cursor covers
/// are dropped from [`DeviceState::events`], which is what bounds both
/// replay work and resident state for million-device campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorInfo {
    /// Session events covered by the cursor (the live loop resumes here).
    pub events_done: u32,
    /// The session RNG's keystream word position.
    pub session_pos: u64,
    /// The device PUF noise RNG's keystream word position.
    pub noise_pos: u64,
    /// The device PUF's evaluation count (burst-fault scheduling).
    pub noise_evals: u64,
    /// Whether the mid-traversal tamper mark is present in the prover's
    /// memory.
    pub tamper_parity: bool,
}

/// One device's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    /// Current lifecycle state.
    pub status: StoredStatus,
    /// Consecutive-failure streak (mirrors the registry).
    pub fails: u32,
    /// Consecutive-success streak (mirrors the registry).
    pub succs: u32,
    /// Session events in schedule order ([`EV_CLOSED`] / [`EV_REFUSED`] /
    /// [`EV_FAULT`]) *after* the cursor — events a cursor covers are
    /// dropped, so this is a tail, not the full history. The absolute
    /// index of `events[0]` is `events_seen - events.len()`.
    pub events: Vec<u8>,
    /// Session events ever recorded for this device, including those the
    /// cursor already covers.
    pub events_seen: u32,
    /// The resume fast-forward point, if any cursor has been journaled.
    pub cursor: Option<CursorInfo>,
    /// Retained outcomes, oldest first, bounded by the history capacity.
    pub outcomes: VecDeque<OutcomeRec>,
    /// Outcomes ever recorded (retained + rolled off).
    pub outcomes_total: u64,
    /// Sessions refused for this device.
    pub refused: u64,
    /// Faults charged to this device (session faults + abandonment).
    pub faults: u64,
    /// Whether provisioning failed and the device ran no sessions.
    pub abandoned: bool,
}

impl DeviceState {
    fn new() -> Self {
        DeviceState {
            status: StoredStatus::Active,
            fails: 0,
            succs: 0,
            events: Vec::new(),
            events_seen: 0,
            cursor: None,
            outcomes: VecDeque::new(),
            outcomes_total: 0,
            refused: 0,
            faults: 0,
            abandoned: false,
        }
    }
}

/// The durable campaign counters, in on-disk order: a counter's
/// discriminant is its index in [`Counters::values`] and its position in
/// the snapshot body, so reordering this list changes the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Sessions that ran, to a verdict or into a device fault.
    Started,
    /// Sessions accepted.
    Accepted,
    /// Sessions rejected (includes timed-out and lost ones).
    Rejected,
    /// Rejected sessions whose cause was the timeout.
    TimedOut,
    /// Attempts retried.
    Retried,
    /// Sessions refused up front.
    Refused,
    /// Device faults (session faults + provisioning failures).
    Faults,
    /// Protocol messages lost in transit.
    Dropped,
    /// Sessions that ended without a verdict.
    Lost,
    /// Verifier CRP-cache hits across all sessions.
    CrpHits,
    /// Verifier CRP-cache misses (emulations) across all sessions.
    CrpMisses,
}

/// Number of durable counters.
pub const COUNTERS: usize = Counter::CrpMisses as usize + 1;

/// Global campaign counters, mirroring the fleet metrics so a recovered
/// snapshot reports the same totals an uninterrupted run would.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Counter values, indexed by [`Counter`].
    pub values: [u64; COUNTERS],
    /// Latency histogram occupancy by log₂ slot.
    pub latency: [u64; LATENCY_SLOTS],
}

impl Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.values[counter as usize]
    }
}

impl IndexMut<Counter> for Counters {
    fn index_mut(&mut self, counter: Counter) -> &mut u64 {
        &mut self.values[counter as usize]
    }
}

impl Counters {
    /// The one rule for which record bumps which counter: calls `add` with
    /// every counter `record` contributes to and the amount, and returns
    /// the latency slot of a closed session. Replay
    /// ([`StoreState::apply`]) and the fleet's live metrics both count
    /// through this, so live totals equal replayed ones by construction.
    pub fn tally(record: &Record, mut add: impl FnMut(Counter, u64)) -> Option<usize> {
        match record {
            Record::SessionClosed { outcome: o, .. } => {
                add(if o.accepted { Counter::Accepted } else { Counter::Rejected }, 1);
                add(Counter::TimedOut, u64::from(o.timed_out));
                add(Counter::Lost, u64::from(o.lost));
                Self::ran(&mut add, o.retried, o.dropped, o.crp_hits, o.crp_misses);
                return Some(usize::from(o.latency_slot));
            }
            Record::SessionFault { retried, dropped, crp_hits, crp_misses, .. } => {
                add(Counter::Faults, 1);
                Self::ran(&mut add, *retried, *dropped, *crp_hits, *crp_misses);
            }
            Record::SessionRefused { .. } => add(Counter::Refused, 1),
            Record::DeviceAbandoned { .. } => add(Counter::Faults, 1),
            _ => {}
        }
        None
    }

    /// What every session that ran — to a verdict or into a fault — adds.
    fn ran(add: &mut impl FnMut(Counter, u64), retried: u32, dropped: u32, crp_hits: u32, crp_misses: u32) {
        add(Counter::Started, 1);
        add(Counter::Retried, u64::from(retried));
        add(Counter::Dropped, u64::from(dropped));
        add(Counter::CrpHits, u64::from(crp_hits));
        add(Counter::CrpMisses, u64::from(crp_misses));
    }

    /// Counts one record into these totals (see [`Counters::tally`]). A
    /// closed session's latency slot must be in range.
    pub fn count(&mut self, record: &Record) {
        if let Some(slot) = Self::tally(record, |counter, n| self[counter] += n) {
            self.latency[slot] += 1;
        }
    }

    /// Adds `other`'s totals into `self` — used to aggregate per-shard
    /// counters into a fleet-wide view.
    pub fn merge(&mut self, other: &Counters) {
        let theirs = other.values.iter().chain(&other.latency);
        for (mine, theirs) in self.values.iter_mut().chain(&mut self.latency).zip(theirs) {
            *mine += theirs;
        }
    }
}

/// The full durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreState {
    /// Campaign identity, if a Meta record has been applied.
    pub meta: Option<MetaInfo>,
    /// Per-device state, keyed by device id.
    pub devices: BTreeMap<u32, DeviceState>,
    /// Global campaign counters.
    pub counters: Counters,
    /// Highest applied record sequence number (0 = none).
    pub last_seq: u64,
    history_capacity: usize,
}

impl StoreState {
    /// An empty state retaining at most `history_capacity` outcomes per
    /// device (capacity 0 is treated as 1).
    pub fn new(history_capacity: usize) -> Self {
        StoreState {
            meta: None,
            devices: BTreeMap::new(),
            counters: Counters::default(),
            last_seq: 0,
            history_capacity: history_capacity.max(1),
        }
    }

    /// The per-device outcome retention bound.
    pub fn history_capacity(&self) -> usize {
        self.history_capacity
    }

    fn device_mut(&mut self, id: u32) -> Result<&mut DeviceState, StoreError> {
        self.devices
            .get_mut(&id)
            .ok_or_else(|| StoreError::Corrupt(format!("record references unknown device {id}")))
    }

    /// Applies one record. `seq` must be strictly greater than
    /// [`StoreState::last_seq`] — replay skips already-covered records
    /// *before* calling this.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for regressing sequence numbers, unknown
    /// devices, or out-of-range fields; [`StoreError::IllegalTransition`]
    /// when a record asks for a lifecycle move the state machine forbids.
    pub fn apply(&mut self, seq: u64, record: &Record) -> Result<(), StoreError> {
        if seq <= self.last_seq {
            return Err(StoreError::Corrupt(format!("sequence regressed: {seq} after {}", self.last_seq)));
        }
        match record {
            Record::Meta { config_hash, devices, sessions_per_device, seed } => {
                let info = MetaInfo {
                    config_hash: *config_hash,
                    devices: *devices,
                    sessions_per_device: *sessions_per_device,
                    seed: *seed,
                };
                match self.meta {
                    None => self.meta = Some(info),
                    Some(existing) if existing == info => {}
                    Some(_) => return Err(StoreError::Corrupt("conflicting campaign metadata records".into())),
                }
            }
            Record::DeviceEnrolled { id } => {
                if let Some(existing) = self.devices.get(id) {
                    return Err(StoreError::IllegalTransition {
                        id: *id,
                        from: existing.status,
                        event: "enroll an already-enrolled device",
                    });
                }
                self.devices.insert(*id, DeviceState::new());
            }
            Record::DeviceReEnrolled { id } => {
                let device = self.device_mut(*id)?;
                device.status = StoredStatus::Active;
                device.fails = 0;
                device.succs = 0;
            }
            Record::StatusChanged { id, status } => {
                let device = self.device_mut(*id)?;
                if device.status == StoredStatus::Revoked && *status != StoredStatus::Revoked {
                    return Err(StoreError::IllegalTransition {
                        id: *id,
                        from: device.status,
                        event: "leave Revoked without re-enrollment",
                    });
                }
                device.status = *status;
            }
            Record::SessionClosed { id, outcome, status, fails, succs } => {
                if outcome.latency_slot as usize >= LATENCY_SLOTS {
                    return Err(StoreError::Corrupt(format!("latency slot {} out of range", outcome.latency_slot)));
                }
                let cap = self.history_capacity;
                let device = self.device_mut(*id)?;
                let legal = match (device.status, *status) {
                    // A session never runs against a revoked device, and a
                    // single outcome can demote Active at most one step.
                    (StoredStatus::Revoked, _) | (StoredStatus::Active, StoredStatus::Revoked) => false,
                    _ => true,
                };
                if !legal {
                    return Err(StoreError::IllegalTransition {
                        id: *id,
                        from: device.status,
                        event: "close a session with a non-monotone transition",
                    });
                }
                device.status = *status;
                device.fails = *fails;
                device.succs = *succs;
                device.events.push(EV_CLOSED);
                device.events_seen += 1;
                device.outcomes.push_back(*outcome);
                while device.outcomes.len() > cap {
                    device.outcomes.pop_front();
                }
                device.outcomes_total += 1;
            }
            Record::SessionRefused { id } => {
                let device = self.device_mut(*id)?;
                if device.status != StoredStatus::Revoked {
                    return Err(StoreError::IllegalTransition {
                        id: *id,
                        from: device.status,
                        event: "refuse a session on a non-revoked device",
                    });
                }
                device.events.push(EV_REFUSED);
                device.events_seen += 1;
                device.refused += 1;
            }
            Record::SessionFault { id, .. } => {
                let device = self.device_mut(*id)?;
                if device.status == StoredStatus::Revoked {
                    return Err(StoreError::IllegalTransition {
                        id: *id,
                        from: device.status,
                        event: "fault a session on a revoked device",
                    });
                }
                device.events.push(EV_FAULT);
                device.events_seen += 1;
                device.faults += 1;
            }
            Record::DeviceAbandoned { id } => {
                let device = self.device_mut(*id)?;
                device.abandoned = true;
                device.faults += 1;
            }
            Record::DeviceCursor {
                id,
                events_done,
                session_pos,
                noise_pos,
                noise_evals,
                tamper_parity,
            } => {
                let device = self.device_mut(*id)?;
                if *events_done > device.events_seen {
                    return Err(StoreError::Corrupt(format!(
                        "cursor for device {id} covers {events_done} events but only {} were journaled",
                        device.events_seen
                    )));
                }
                if let Some(prev) = &device.cursor {
                    if *events_done < prev.events_done {
                        return Err(StoreError::Corrupt(format!("cursor regressed for device {id}")));
                    }
                }
                // Events the cursor covers will never be replayed again —
                // drop them from the retained tail. `events[0]`'s absolute
                // index is `events_seen - events.len()`.
                let tail_start = device.events_seen - device.events.len() as u32;
                if *events_done > tail_start {
                    device.events.drain(..(*events_done - tail_start) as usize);
                }
                device.cursor = Some(CursorInfo {
                    events_done: *events_done,
                    session_pos: *session_pos,
                    noise_pos: *noise_pos,
                    noise_evals: *noise_evals,
                    tamper_parity: *tamper_parity,
                });
            }
        }
        self.counters.count(record);
        self.last_seq = seq;
        Ok(())
    }

    // ------------------------------------------------------------- codec

    /// Serialises the state into a snapshot body.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        w.u64(self.last_seq);
        w.u64(self.history_capacity as u64);
        w.flag(self.meta.is_some());
        if let Some(m) = &self.meta {
            w.u64(m.config_hash);
            w.u32(m.devices);
            w.u32(m.sessions_per_device);
            w.u64(m.seed);
        }
        for &v in self.counters.values.iter().chain(&self.counters.latency) {
            w.u64(v);
        }
        w.u32(self.devices.len() as u32);
        for (id, d) in &self.devices {
            w.u32(*id);
            w.u8(d.status.to_byte());
            w.u32(d.fails);
            w.u32(d.succs);
            w.flag(d.abandoned);
            w.u64(d.refused);
            w.u64(d.faults);
            w.u64(d.outcomes_total);
            w.u32(d.events.len() as u32);
            w.bytes(&d.events);
            w.u32(d.events_seen);
            w.flag(d.cursor.is_some());
            if let Some(c) = &d.cursor {
                w.u32(c.events_done);
                w.u64(c.session_pos);
                w.u64(c.noise_pos);
                w.u64(c.noise_evals);
                w.flag(c.tamper_parity);
            }
            w.u32(d.outcomes.len() as u32);
            for o in &d.outcomes {
                write_outcome(&mut w, o);
            }
        }
        // Reserved: the spent-challenge count of the retired `CrpConsumed`
        // kind, always 0, so snapshots keep their layout in both directions.
        w.u32(0);
    }

    /// Parses a snapshot body back into a state.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation, trailing bytes, or
    /// out-of-range fields — the snapshot CRC is checked before this runs,
    /// so a decode failure is a format break, not disk damage.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes);
        let last_seq = r.u64()?;
        let history_capacity = usize::try_from(r.u64()?)
            .ok()
            .filter(|&c| c > 0)
            .ok_or_else(|| StoreError::Corrupt("bad history capacity".into()))?;
        let meta = match r.u8()? {
            0 => None,
            1 => Some(MetaInfo {
                config_hash: r.u64()?,
                devices: r.u32()?,
                sessions_per_device: r.u32()?,
                seed: r.u64()?,
            }),
            other => return Err(StoreError::Corrupt(format!("bad meta flag {other}"))),
        };
        let mut counters = Counters::default();
        for v in counters.values.iter_mut().chain(&mut counters.latency) {
            *v = r.u64()?;
        }
        let device_count = r.u32()?;
        let mut devices = BTreeMap::new();
        for _ in 0..device_count {
            let id = r.u32()?;
            let status = StoredStatus::from_byte(r.u8()?).map_err(StoreError::Corrupt)?;
            let fails = r.u32()?;
            let succs = r.u32()?;
            let abandoned = r.flag()?;
            let refused = r.u64()?;
            let faults = r.u64()?;
            let outcomes_total = r.u64()?;
            let event_count = r.u32()? as usize;
            let events = r.bytes(event_count)?.to_vec();
            if let Some(ev) = events.iter().find(|&&ev| ev > EV_FAULT) {
                return Err(StoreError::Corrupt(format!("bad event kind {ev}")));
            }
            let events_seen = r.u32()?;
            if (events_seen as usize) < events.len() {
                return Err(StoreError::Corrupt(format!("device {id} events_seen below retained tail")));
            }
            let cursor = match r.u8()? {
                0 => None,
                1 => {
                    let c = CursorInfo {
                        events_done: r.u32()?,
                        session_pos: r.u64()?,
                        noise_pos: r.u64()?,
                        noise_evals: r.u64()?,
                        tamper_parity: r.flag()?,
                    };
                    if c.events_done > events_seen {
                        return Err(StoreError::Corrupt(format!("device {id} cursor ahead of its events")));
                    }
                    Some(c)
                }
                other => return Err(StoreError::Corrupt(format!("bad cursor flag {other}"))),
            };
            let outcome_count = r.u32()? as usize;
            let mut outcomes = VecDeque::with_capacity(outcome_count.min(1 << 16));
            for _ in 0..outcome_count {
                let o = read_outcome(&mut r)?;
                if o.latency_slot as usize >= LATENCY_SLOTS {
                    return Err(StoreError::Corrupt("latency slot out of range".into()));
                }
                outcomes.push_back(o);
            }
            if devices
                .insert(
                    id,
                    DeviceState {
                        status,
                        fails,
                        succs,
                        events,
                        events_seen,
                        cursor,
                        outcomes,
                        outcomes_total,
                        refused,
                        faults,
                        abandoned,
                    },
                )
                .is_some()
            {
                return Err(StoreError::Corrupt(format!("duplicate device {id} in snapshot")));
            }
        }
        let spent = r.u32()?;
        if spent != 0 {
            return Err(StoreError::Corrupt(format!(
                "snapshot holds {spent} spent challenges of the retired CrpConsumed kind"
            )));
        }
        r.done()?;
        Ok(StoreState { meta, devices, counters, last_seq, history_capacity })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn outcome(accepted: bool) -> OutcomeRec {
        OutcomeRec {
            accepted,
            response_ok: accepted,
            time_ok: true,
            timed_out: false,
            attempts: 1,
            elapsed_bits: 0.01f64.to_bits(),
            retried: 0,
            dropped: 0,
            lost: false,
            latency_slot: 13,
            crp_hits: 56,
            crp_misses: 8,
        }
    }

    fn closed(id: u32, accepted: bool, status: StoredStatus, fails: u32) -> Record {
        Record::SessionClosed { id, outcome: outcome(accepted), status, fails, succs: 0 }
    }

    #[test]
    fn a_small_campaign_replays_into_consistent_state() {
        let mut s = StoreState::new(8);
        let mut seq = 0u64;
        let mut apply = |s: &mut StoreState, r: Record| {
            seq += 1;
            s.apply(seq, &r).unwrap();
        };
        apply(&mut s, Record::Meta { config_hash: 1, devices: 2, sessions_per_device: 2, seed: 9 });
        apply(&mut s, Record::DeviceEnrolled { id: 0 });
        apply(&mut s, Record::DeviceEnrolled { id: 1 });
        apply(&mut s, closed(0, true, StoredStatus::Active, 0));
        apply(&mut s, closed(1, false, StoredStatus::Quarantined, 0));
        apply(&mut s, Record::StatusChanged { id: 1, status: StoredStatus::Revoked });
        apply(&mut s, Record::SessionRefused { id: 1 });
        apply(
            &mut s,
            Record::DeviceCursor {
                id: 0,
                events_done: 1,
                session_pos: 5,
                noise_pos: 6,
                noise_evals: 7,
                tamper_parity: false,
            },
        );
        assert_eq!(s.counters[Counter::Started], 2);
        assert_eq!(s.counters[Counter::Accepted], 1);
        assert_eq!(s.counters[Counter::Rejected], 1);
        assert_eq!(s.counters[Counter::Refused], 1);
        assert_eq!(s.counters.latency[13], 2);
        let statuses: Vec<StoredStatus> = s.devices.values().map(|d| d.status).collect();
        assert_eq!(statuses, vec![StoredStatus::Active, StoredStatus::Revoked]);
        assert_eq!(s.devices[&0].cursor.map(|c| (c.session_pos, c.noise_pos)), Some((5, 6)));
        assert!(s.devices[&1].cursor.is_none());
        assert_eq!(s.devices[&1].events, vec![EV_CLOSED, EV_REFUSED]);
        assert_eq!(s.last_seq, 8);
    }

    #[test]
    fn illegal_transitions_are_refused() {
        let mut s = StoreState::new(4);
        s.apply(1, &Record::DeviceEnrolled { id: 7 }).unwrap();
        // Double enrollment.
        assert!(matches!(
            s.apply(2, &Record::DeviceEnrolled { id: 7 }),
            Err(StoreError::IllegalTransition { id: 7, .. })
        ));
        // Unknown device.
        assert!(matches!(s.apply(2, &Record::SessionRefused { id: 99 }), Err(StoreError::Corrupt(_))));
        // Refusal needs a revoked device.
        assert!(matches!(s.apply(2, &Record::SessionRefused { id: 7 }), Err(StoreError::IllegalTransition { .. })));
        // Sessions cannot close against a revoked device, and revocation is
        // sticky without re-enrollment.
        s.apply(2, &Record::StatusChanged { id: 7, status: StoredStatus::Revoked })
            .unwrap();
        assert!(matches!(
            s.apply(3, &closed(7, true, StoredStatus::Active, 0)),
            Err(StoreError::IllegalTransition { .. })
        ));
        assert!(matches!(
            s.apply(3, &Record::StatusChanged { id: 7, status: StoredStatus::Active }),
            Err(StoreError::IllegalTransition { .. })
        ));
        // Re-enrollment is the legal exit.
        s.apply(3, &Record::DeviceReEnrolled { id: 7 }).unwrap();
        assert_eq!(s.devices[&7].status, StoredStatus::Active);
        // Sequence numbers only move forward.
        assert!(matches!(s.apply(3, &Record::DeviceAbandoned { id: 7 }), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn history_is_bounded() {
        let mut s = StoreState::new(2);
        s.apply(1, &Record::DeviceEnrolled { id: 0 }).unwrap();
        for i in 0..5 {
            s.apply(2 + i, &closed(0, true, StoredStatus::Active, 0)).unwrap();
        }
        assert_eq!(s.devices[&0].outcomes.len(), 2);
        assert_eq!(s.devices[&0].outcomes_total, 5);
        assert_eq!(s.devices[&0].events.len(), 5);
    }

    #[test]
    fn snapshot_body_roundtrips() {
        let mut s = StoreState::new(8);
        let mut seq = 0u64;
        let mut apply = |s: &mut StoreState, r: Record| {
            seq += 1;
            s.apply(seq, &r).unwrap();
        };
        apply(
            &mut s,
            Record::Meta {
                config_hash: 42,
                devices: 3,
                sessions_per_device: 2,
                seed: 11,
            },
        );
        for id in 0..3 {
            apply(&mut s, Record::DeviceEnrolled { id });
        }
        apply(&mut s, closed(0, true, StoredStatus::Active, 0));
        apply(&mut s, closed(1, false, StoredStatus::Quarantined, 0));
        apply(&mut s, Record::SessionFault { id: 2, retried: 1, dropped: 2, crp_hits: 0, crp_misses: 24 });
        apply(&mut s, Record::DeviceAbandoned { id: 2 });
        apply(&mut s, Record::StatusChanged { id: 1, status: StoredStatus::Revoked });
        apply(&mut s, Record::DeviceReEnrolled { id: 1 });
        let mut body = Vec::new();
        s.encode(&mut body);
        let decoded = StoreState::decode(&body).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn cursors_truncate_the_replay_tail_and_roundtrip() {
        let mut s = StoreState::new(8);
        s.apply(1, &Record::DeviceEnrolled { id: 0 }).unwrap();
        for i in 0..3 {
            s.apply(2 + i, &closed(0, true, StoredStatus::Active, 0)).unwrap();
        }
        let cursor = |events_done| Record::DeviceCursor {
            id: 0,
            events_done,
            session_pos: 10,
            noise_pos: 20,
            noise_evals: 30,
            tamper_parity: false,
        };
        s.apply(5, &cursor(2)).unwrap();
        // Covered events dropped; totals preserved.
        assert_eq!(s.devices[&0].events, vec![EV_CLOSED]);
        assert_eq!(s.devices[&0].events_seen, 3);
        assert_eq!(s.devices[&0].cursor.unwrap().events_done, 2);
        // A cursor can neither regress nor run ahead of the journal.
        assert!(matches!(s.apply(6, &cursor(1)), Err(StoreError::Corrupt(_))));
        assert!(matches!(s.apply(6, &cursor(4)), Err(StoreError::Corrupt(_))));
        // Unknown device is refused.
        assert!(matches!(
            s.apply(
                6,
                &Record::DeviceCursor {
                    id: 99,
                    events_done: 0,
                    session_pos: 0,
                    noise_pos: 0,
                    noise_evals: 0,
                    tamper_parity: false
                }
            ),
            Err(StoreError::Corrupt(_))
        ));
        s.apply(6, &cursor(3)).unwrap();
        assert!(s.devices[&0].events.is_empty());
        // Snapshot codec carries events_seen + cursor through a roundtrip.
        let mut body = Vec::new();
        s.encode(&mut body);
        assert_eq!(StoreState::decode(&body).unwrap(), s);
    }

    #[test]
    fn counters_merge_adds_totals() {
        let mut a = Counters::default();
        a[Counter::Started] = 3;
        a[Counter::Accepted] = 2;
        a.latency[4] = 7;
        let mut b = Counters::default();
        b[Counter::Started] = 5;
        b[Counter::Rejected] = 1;
        b.latency[4] = 1;
        b.latency[9] = 2;
        a.merge(&b);
        assert_eq!(a[Counter::Started], 8);
        assert_eq!(a[Counter::Accepted], 2);
        assert_eq!(a[Counter::Rejected], 1);
        assert_eq!(a.latency[4], 8);
        assert_eq!(a.latency[9], 2);
    }

    #[test]
    fn counter_section_layout_is_pinned() {
        // The round-trip tests pass whatever the counter order; this pins
        // the order itself, so a snapshot written by an earlier build
        // decodes into the same counters. Each counter is set by name.
        let mut s = StoreState::new(4);
        s.counters[Counter::Started] = 0x0807_0605_0403_0201;
        s.counters[Counter::Accepted] = 102;
        s.counters[Counter::Rejected] = 103;
        s.counters[Counter::TimedOut] = 104;
        s.counters[Counter::Retried] = 105;
        s.counters[Counter::Refused] = 106;
        s.counters[Counter::Faults] = 107;
        s.counters[Counter::Dropped] = 108;
        s.counters[Counter::Lost] = 109;
        s.counters[Counter::CrpHits] = 110;
        s.counters[Counter::CrpMisses] = 111;
        s.counters.latency[0] = 200;
        s.counters.latency[13] = 213;
        s.counters.latency[LATENCY_SLOTS - 1] = 231;
        let mut body = Vec::new();
        s.encode(&mut body);

        // last_seq (8) + history_capacity (8) + absent-meta flag (1), then
        // the counters in on-disk order, then every latency slot.
        let mut expected = [0u64; 11 + 32];
        expected[..11].copy_from_slice(&[0x0807_0605_0403_0201, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111]);
        expected[11] = 200;
        expected[11 + 13] = 213;
        expected[11 + 31] = 231;
        let expected: Vec<u8> = expected.iter().flat_map(|v| v.to_le_bytes()).collect();
        let section = &body[17..17 + expected.len()];
        assert_eq!(section[..8], [1, 2, 3, 4, 5, 6, 7, 8], "counters are little-endian");
        assert_eq!(section, &expected[..]);
        // Only the empty device count and the reserved zero follow.
        assert_eq!(body.len(), 17 + expected.len() + 4 + 4);

        let decoded = StoreState::decode(&body).unwrap();
        assert_eq!(decoded.counters, s.counters);
        assert_eq!(decoded.counters[Counter::TimedOut], 104);
        assert_eq!(decoded.counters.latency[13], 213);
    }

    #[test]
    fn retired_spent_challenges_are_refused() {
        // A snapshot whose reserved trailing count is non-zero carries
        // `CrpConsumed` challenges this format no longer holds.
        let mut body = Vec::new();
        StoreState::new(4).encode(&mut body);
        let count = body.len() - 4;
        assert_eq!(body[count..], [0, 0, 0, 0], "the reserved count is written as 0");
        body[count] = 1;
        body.extend_from_slice(&[0u8; 16]);
        let err = StoreState::decode(&body).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("CrpConsumed")), "got {err:?}");
    }

    #[test]
    fn snapshot_decode_refuses_damage() {
        let mut s = StoreState::new(4);
        s.apply(1, &Record::DeviceEnrolled { id: 3 }).unwrap();
        let mut body = Vec::new();
        s.encode(&mut body);
        for cut in 0..body.len() {
            assert!(StoreState::decode(&body[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(StoreState::decode(&trailing).is_err());
    }
}
