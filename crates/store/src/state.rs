//! The materialised store state: what replaying the snapshot + WAL yields.
//!
//! [`StoreState::apply`] is the single transition function — the live
//! store and crash recovery both go through it, so "state after a crash"
//! and "state during normal operation" cannot drift apart. It is
//! [`StoreState::check`], which changes nothing and stages the record,
//! followed by the infallible [`Checked::commit`]: the live store checks
//! a record before it writes it and commits it once the write succeeded. Its per-device half is
//! [`DeviceState::check`]/[`DeviceState::commit`], and its counting half
//! [`Counters::count`]. The fleet service keeps no copy of either: it
//! reads each device's record and the counters from the store, journaled
//! or not, so there is one table to keep right. It enforces
//! the monotone-lifecycle invariant on every record: a device leaves
//! `Revoked` only through an explicit re-enrollment, sessions cannot close
//! against revoked or unknown devices, and sequence numbers and each
//! device's session-RNG cursor only move forward. A WAL whose
//! checksum-valid frames violate these rules is refused as corrupt rather
//! than replayed into nonsense.

use crate::codec::{Reader, Writer};
use crate::record::{
    read_cursor, read_outcome, write_cursor, write_outcome, CursorInfo, OutcomeRec, Record, StoredStatus, LATENCY_SLOTS,
};
use crate::StoreError;
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Index, IndexMut};

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

/// One device's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    /// Current lifecycle state.
    pub status: StoredStatus,
    /// Consecutive-failure streak, as the fleet's lifecycle policy left it.
    pub fails: u32,
    /// Consecutive-success streak, as the fleet's lifecycle policy left it.
    pub succs: u32,
    /// Session records (closed, refused or faulted) ever applied for this
    /// device: how many of its scheduled sessions a resumed campaign has
    /// already run.
    pub events_seen: u32,
    /// The generator positions the device's latest closed or faulted
    /// session left; `None` until one ran. A restore jumps straight here.
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

impl Default for DeviceState {
    /// A freshly enrolled device: Active, with nothing recorded.
    fn default() -> Self {
        DeviceState {
            status: StoredStatus::Active,
            fails: 0,
            succs: 0,
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

impl DeviceState {
    /// Advances this device by one of its records, keeping at most
    /// `history_capacity` outcomes: [`DeviceState::check`], then
    /// [`DeviceState::commit`]. Every append and every replay goes through
    /// [`StoreState::check`] and [`Checked::commit`] to these two, so a
    /// device's record in memory and after recovery is written by one
    /// piece of code. A refused record leaves the device untouched.
    ///
    /// # Errors
    ///
    /// As [`DeviceState::check`].
    pub fn apply(&mut self, record: &Record, history_capacity: usize) -> Result<(), StoreError> {
        self.check(record)?;
        self.commit(record, history_capacity);
        Ok(())
    }

    /// Whether `record` is a legal next record for this device. Pure: the
    /// store checks a record before it writes it and commits it only once
    /// the write succeeded, so a failed write changes nothing in memory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for out-of-range fields, a session whose
    /// cursor puts the session RNG behind the device's current cursor, or
    /// a record that names no device; [`StoreError::IllegalTransition`]
    /// when the record asks for a lifecycle move the state machine forbids
    /// (enrolling an enrolled device among them).
    pub fn check(&self, record: &Record) -> Result<(), StoreError> {
        let illegal = |id: &u32, event| Err(StoreError::IllegalTransition { id: *id, from: self.status, event });
        match record {
            Record::Meta { .. } => Err(StoreError::Corrupt("campaign metadata is not a device record".into())),
            Record::DeviceEnrolled { id } => illegal(id, "enroll an already-enrolled device"),
            Record::DeviceReEnrolled { .. } | Record::DeviceAbandoned { .. } => Ok(()),
            Record::StatusChanged { id, status } => {
                if self.status == StoredStatus::Revoked && *status != StoredStatus::Revoked {
                    return illegal(id, "leave Revoked without re-enrollment");
                }
                Ok(())
            }
            Record::SessionClosed { id, outcome, status, cursor, .. } => {
                if outcome.latency_slot as usize >= LATENCY_SLOTS {
                    return Err(StoreError::Corrupt(format!("latency slot {} out of range", outcome.latency_slot)));
                }
                // A session never runs against a revoked device, and a
                // single outcome can demote Active at most one step.
                if matches!(
                    (self.status, *status),
                    (StoredStatus::Revoked, _) | (StoredStatus::Active, StoredStatus::Revoked)
                ) {
                    return illegal(id, "close a session with a non-monotone transition");
                }
                self.check_cursor(*id, cursor)
            }
            Record::SessionRefused { id } => {
                if self.status != StoredStatus::Revoked {
                    return illegal(id, "refuse a session on a non-revoked device");
                }
                Ok(())
            }
            Record::SessionFault { id, cursor, .. } => {
                if self.status == StoredStatus::Revoked {
                    return illegal(id, "fault a session on a revoked device");
                }
                self.check_cursor(*id, cursor)
            }
        }
    }

    /// Advances this device by a record [`DeviceState::check`] accepted.
    /// Infallible, so the store can run it after the write succeeded.
    pub fn commit(&mut self, record: &Record, history_capacity: usize) {
        match record {
            Record::Meta { .. } | Record::DeviceEnrolled { .. } => {}
            Record::DeviceReEnrolled { .. } => {
                self.status = StoredStatus::Active;
                self.fails = 0;
                self.succs = 0;
            }
            Record::StatusChanged { status, .. } => self.status = *status,
            Record::SessionClosed { outcome, status, fails, succs, cursor, .. } => {
                self.advance_cursor(cursor);
                self.status = *status;
                self.fails = *fails;
                self.succs = *succs;
                // Make room before pushing, so a full history never
                // reallocates.
                while self.outcomes.len() >= history_capacity.max(1) {
                    self.outcomes.pop_front();
                }
                self.outcomes.push_back(*outcome);
                self.outcomes_total += 1;
            }
            Record::SessionRefused { .. } => {
                self.events_seen += 1;
                self.refused += 1;
            }
            Record::SessionFault { cursor, .. } => {
                self.advance_cursor(cursor);
                self.faults += 1;
            }
            Record::DeviceAbandoned { .. } => {
                self.abandoned = true;
                self.faults += 1;
            }
        }
    }

    /// The session RNG only moves forward (an aborted session leaves it
    /// where it was), so a cursor of device `id` behind the current one is
    /// refused.
    fn check_cursor(&self, id: u32, cursor: &CursorInfo) -> Result<(), StoreError> {
        if matches!(&self.cursor, Some(prev) if cursor.session_pos < prev.session_pos) {
            return Err(StoreError::Corrupt(format!("cursor regressed for device {id}")));
        }
        Ok(())
    }

    /// Moves the device to the cursor a session left, counting the
    /// session.
    fn advance_cursor(&mut self, cursor: &CursorInfo) {
        self.cursor = Some(*cursor);
        self.events_seen += 1;
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

/// Global campaign counters: the totals a fleet snapshot reports, so a
/// recovered store reports the same totals an uninterrupted run would.
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
    /// Counts one record into these totals: the one rule for which record
    /// bumps which counter, run by [`StoreState::apply`], so the live
    /// totals and the replayed ones are the same count. A closed
    /// session's latency slot must be in range.
    pub fn count(&mut self, record: &Record) {
        match record {
            Record::SessionClosed { outcome: o, .. } => {
                self[if o.accepted { Counter::Accepted } else { Counter::Rejected }] += 1;
                self[Counter::TimedOut] += u64::from(o.timed_out);
                self[Counter::Lost] += u64::from(o.lost);
                self.latency[usize::from(o.latency_slot)] += 1;
                self.ran(o.retried, o.dropped, o.crp_hits, o.crp_misses);
            }
            Record::SessionFault { retried, dropped, crp_hits, crp_misses, .. } => {
                self[Counter::Faults] += 1;
                self.ran(*retried, *dropped, *crp_hits, *crp_misses);
            }
            Record::SessionRefused { .. } => self[Counter::Refused] += 1,
            Record::DeviceAbandoned { .. } => self[Counter::Faults] += 1,
            _ => {}
        }
    }

    /// What every session that ran — to a verdict or into a fault — adds.
    fn ran(&mut self, retried: u32, dropped: u32, crp_hits: u32, crp_misses: u32) {
        self[Counter::Started] += 1;
        self[Counter::Retried] += u64::from(retried);
        self[Counter::Dropped] += u64::from(dropped);
        self[Counter::CrpHits] += u64::from(crp_hits);
        self[Counter::CrpMisses] += u64::from(crp_misses);
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

/// A record [`StoreState::check`] accepted, staged with the parts of the
/// state it changes.
#[must_use = "a checked record changes nothing until it is committed"]
pub struct Checked<'s, 'r> {
    seq: u64,
    record: &'r Record,
    target: Target<'s>,
    counters: &'s mut Counters,
    last_seq: &'s mut u64,
}

/// What a checked record changes besides the counters and the sequence.
enum Target<'s> {
    Meta(&'s mut Option<MetaInfo>, MetaInfo),
    Enroll(&'s mut BTreeMap<u32, DeviceState>, u32),
    Device(&'s mut DeviceState, usize),
}

impl Checked<'_, '_> {
    /// Applies the record: the device's record (or the enrollment, or the
    /// campaign identity), the counters and [`StoreState::last_seq`].
    /// Infallible, so the store runs it once the write succeeded.
    pub fn commit(self) {
        match self.target {
            Target::Meta(meta, info) => *meta = Some(info),
            Target::Enroll(devices, id) => {
                devices.insert(id, DeviceState::default());
            }
            Target::Device(device, history_capacity) => device.commit(self.record, history_capacity),
        }
        self.counters.count(self.record);
        *self.last_seq = self.seq;
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

    /// Applies one record: [`StoreState::check`], then
    /// [`Checked::commit`]. `seq` must be strictly greater than
    /// [`StoreState::last_seq`] — replay skips already-covered records
    /// *before* calling this.
    ///
    /// # Errors
    ///
    /// As [`StoreState::check`].
    pub fn apply(&mut self, seq: u64, record: &Record) -> Result<(), StoreError> {
        self.check(seq, record)?.commit();
        Ok(())
    }

    /// Checks that `record`, numbered `seq`, is a legal next record, and
    /// returns it staged: nothing changes until [`Checked::commit`]. The
    /// store checks a record before it writes it and commits it only once
    /// the write succeeded, so an illegal record never reaches the WAL and
    /// a failed write changes nothing in memory. The staged record holds
    /// the device it changes, so the commit repeats no lookup.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for regressing sequence numbers, unknown
    /// devices, conflicting campaign metadata or out-of-range fields;
    /// [`StoreError::IllegalTransition`] when a record asks for a
    /// lifecycle move the state machine forbids.
    pub fn check<'s, 'r>(&'s mut self, seq: u64, record: &'r Record) -> Result<Checked<'s, 'r>, StoreError> {
        if seq <= self.last_seq {
            return Err(StoreError::Corrupt(format!("sequence regressed: {seq} after {}", self.last_seq)));
        }
        let StoreState { meta, devices, counters, last_seq, history_capacity } = self;
        let target = match record {
            &Record::Meta { config_hash, devices: count, sessions_per_device, seed } => {
                let info = MetaInfo { config_hash, devices: count, sessions_per_device, seed };
                if matches!(meta, Some(existing) if *existing != info) {
                    return Err(StoreError::Corrupt("conflicting campaign metadata records".into()));
                }
                Target::Meta(meta, info)
            }
            Record::DeviceEnrolled { id } if !devices.contains_key(id) => Target::Enroll(devices, *id),
            Record::DeviceEnrolled { id }
            | Record::DeviceReEnrolled { id }
            | Record::StatusChanged { id, .. }
            | Record::SessionClosed { id, .. }
            | Record::SessionRefused { id }
            | Record::SessionFault { id, .. }
            | Record::DeviceAbandoned { id } => {
                let device = devices
                    .get_mut(id)
                    .ok_or_else(|| StoreError::Corrupt(format!("record references unknown device {id}")))?;
                device.check(record)?;
                Target::Device(device, *history_capacity)
            }
        };
        Ok(Checked { seq, record, target, counters, last_seq })
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
            w.u32(d.events_seen);
            w.flag(d.cursor.is_some());
            if let Some(c) = &d.cursor {
                write_cursor(&mut w, c);
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
            let events_seen = r.u32()?;
            let cursor = match r.u8()? {
                0 => None,
                1 => Some(read_cursor(&mut r)?),
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

    /// A cursor whose session RNG stands at word `session_pos`.
    fn at(session_pos: u64) -> CursorInfo {
        CursorInfo {
            session_pos,
            noise_pos: 16 * session_pos,
            noise_evals: session_pos,
            tamper_parity: false,
        }
    }

    fn closed_at(id: u32, accepted: bool, status: StoredStatus, fails: u32, cursor: CursorInfo) -> Record {
        Record::SessionClosed {
            id,
            outcome: outcome(accepted),
            status,
            fails,
            succs: 0,
            cursor,
        }
    }

    fn closed(id: u32, accepted: bool, status: StoredStatus, fails: u32) -> Record {
        closed_at(id, accepted, status, fails, at(0))
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
        apply(&mut s, closed_at(0, true, StoredStatus::Active, 0, at(5)));
        apply(&mut s, closed_at(1, false, StoredStatus::Quarantined, 0, at(7)));
        apply(&mut s, Record::StatusChanged { id: 1, status: StoredStatus::Revoked });
        apply(&mut s, Record::SessionRefused { id: 1 });
        assert_eq!(s.counters[Counter::Started], 2);
        assert_eq!(s.counters[Counter::Accepted], 1);
        assert_eq!(s.counters[Counter::Rejected], 1);
        assert_eq!(s.counters[Counter::Refused], 1);
        assert_eq!(s.counters.latency[13], 2);
        let statuses: Vec<StoredStatus> = s.devices.values().map(|d| d.status).collect();
        assert_eq!(statuses, vec![StoredStatus::Active, StoredStatus::Revoked]);
        assert_eq!(s.devices[&0].cursor, Some(at(5)));
        // The refusal counts as a session but leaves the cursor alone.
        assert_eq!(s.devices[&1].cursor, Some(at(7)));
        assert_eq!(s.devices[&1].events_seen, 2);
        assert_eq!(s.last_seq, 7);
    }

    #[test]
    fn every_counted_kind_is_tallied_once() {
        // One record of every counted kind, as the fleet service emits
        // them; the counters a fleet snapshot reports are these.
        let ran = |accepted, timed_out, retried, lost| OutcomeRec { timed_out, retried, lost, ..outcome(accepted) };
        let closed_with =
            |outcome, status, fails| Record::SessionClosed { id: 0, outcome, status, fails, succs: 0, cursor: at(0) };
        let records = [
            Record::DeviceEnrolled { id: 0 },
            Record::DeviceEnrolled { id: 1 },
            Record::DeviceEnrolled { id: 2 },
            closed_with(ran(true, false, 1, false), StoredStatus::Active, 0),
            closed_with(ran(false, true, 2, false), StoredStatus::Active, 1),
            // A lost session, as an aborted one is recorded.
            closed_with(ran(false, true, 0, true), StoredStatus::Quarantined, 2),
            Record::SessionFault {
                id: 1,
                retried: 1,
                dropped: 3,
                crp_hits: 4,
                crp_misses: 5,
                cursor: at(0),
            },
            Record::StatusChanged { id: 1, status: StoredStatus::Revoked },
            Record::SessionRefused { id: 1 },
            Record::DeviceAbandoned { id: 2 },
        ];
        let mut s = StoreState::new(8);
        for (seq, record) in (1..).zip(&records) {
            s.apply(seq, record).unwrap();
        }
        assert_eq!(s.counters.values, [4, 1, 2, 2, 4, 1, 2, 3, 1, 3 * 56 + 4, 3 * 8 + 5]);
        assert_eq!(s.counters.latency.iter().sum::<u64>(), 3);
        assert_eq!(s.counters.latency[13], 3);
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
        assert_eq!(s.devices[&0].events_seen, 5);
    }

    #[test]
    fn a_full_history_drops_before_it_pushes() {
        // Pushing into a full deque and then popping would double its
        // buffer on the first overflow; dropping first keeps it at the
        // allocator's rounding of the bound.
        for cap in [4usize, 5, 16, 64] {
            let mut device = DeviceState::default();
            for _ in 0..10 * cap {
                device.apply(&closed(0, true, StoredStatus::Active, 0), cap).unwrap();
                assert!(device.outcomes.capacity() <= cap.next_power_of_two(), "cap {cap}: buffer doubled");
            }
            assert_eq!(device.outcomes.len(), cap);
            assert_eq!(device.outcomes_total, 10 * cap as u64);
        }
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
        apply(
            &mut s,
            Record::SessionFault {
                id: 2,
                retried: 1,
                dropped: 2,
                crp_hits: 0,
                crp_misses: 24,
                cursor: at(3),
            },
        );
        apply(&mut s, Record::DeviceAbandoned { id: 2 });
        apply(&mut s, Record::StatusChanged { id: 1, status: StoredStatus::Revoked });
        apply(&mut s, Record::DeviceReEnrolled { id: 1 });
        let mut body = Vec::new();
        s.encode(&mut body);
        let decoded = StoreState::decode(&body).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn session_cursors_never_regress_and_roundtrip() {
        let mut s = StoreState::new(8);
        s.apply(1, &Record::DeviceEnrolled { id: 0 }).unwrap();
        s.apply(2, &closed_at(0, true, StoredStatus::Active, 0, at(10))).unwrap();
        // An aborted session consumed no randomness: the same cursor again.
        s.apply(3, &closed_at(0, false, StoredStatus::Active, 1, at(10))).unwrap();
        let fault = |cursor| Record::SessionFault {
            id: 0,
            retried: 0,
            dropped: 1,
            crp_hits: 2,
            crp_misses: 3,
            cursor,
        };
        s.apply(4, &fault(at(30))).unwrap();
        assert_eq!(s.devices[&0].cursor, Some(at(30)));
        assert_eq!(s.devices[&0].events_seen, 3);
        // A session record behind the device's cursor is refused, closed
        // or faulted, and leaves the device untouched.
        let before = s.devices[&0].clone();
        assert!(matches!(
            s.apply(5, &closed_at(0, true, StoredStatus::Active, 0, at(29))),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(s.apply(5, &fault(at(0))), Err(StoreError::Corrupt(_))));
        assert_eq!(s.devices[&0], before);
        // Unknown device is refused.
        assert!(matches!(
            s.apply(5, &closed_at(99, true, StoredStatus::Active, 0, at(40))),
            Err(StoreError::Corrupt(_))
        ));
        s.apply(5, &closed_at(0, true, StoredStatus::Active, 0, at(40))).unwrap();
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
