//! Typed WAL records and their binary layout.
//!
//! Every record starts with its monotonically increasing sequence number
//! (the snapshot/compaction coordination point: replay skips records a
//! snapshot already covers) followed by a tag byte and fixed-width
//! little-endian fields, written and read with [`crate::codec`].
//!
//! **Secrecy rule:** records hold *public* protocol facts only — device
//! ids, lifecycle states, verdict booleans, counters, generator
//! positions. No record has a field that could hold a challenge, a PUF
//! response or helper data, so even a stolen state directory hands a
//! modelling adversary nothing the wire did not already expose.
//!
//! Retired tags are reserved and never reused: a checksum-valid frame
//! carrying one is refused as corrupt. Tag 8 belonged to `CrpConsumed`
//! (a consume-once CRP journal no verifier used). Tags 4 and 6 held
//! `SessionClosed` and `SessionFault` before they carried the device's
//! [`CursorInfo`], and tag 9 the separate `DeviceCursor` record each
//! session used to append after them.

use crate::codec::{Reader, Writer};
use crate::StoreError;

/// Number of latency histogram slots mirrored from the fleet metrics
/// (log₂-bucketed microseconds).
pub const LATENCY_SLOTS: usize = 32;

/// Lifecycle state of one fleet device: the one status type of the
/// system. The fleet registry keeps it as `pufatt_fleet::FleetStatus`,
/// and the wire carries it as `pufatt_transport::WireStatus`; both names
/// are re-exports of this enum, and the journal and the wire write it
/// with the same byte ([`StoredStatus::to_byte`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StoredStatus {
    /// Eligible for attestation.
    Active,
    /// Failing repeatedly; still attested, but on probation — further
    /// failures revoke it, a success reactivates it.
    Quarantined,
    /// Out of service; sessions are refused until re-enrollment.
    Revoked,
}

impl StoredStatus {
    /// The status byte the journal and the wire both carry.
    pub fn to_byte(self) -> u8 {
        match self {
            StoredStatus::Active => 0,
            StoredStatus::Quarantined => 1,
            StoredStatus::Revoked => 2,
        }
    }

    /// Parses a status byte.
    ///
    /// # Errors
    ///
    /// The message `unknown status byte N`, which each format wraps in
    /// its own error (the journal's `Corrupt`, the wire's `Malformed`).
    pub fn from_byte(b: u8) -> Result<Self, String> {
        match b {
            0 => Ok(StoredStatus::Active),
            1 => Ok(StoredStatus::Quarantined),
            2 => Ok(StoredStatus::Revoked),
            other => Err(format!("unknown status byte {other}")),
        }
    }
}

/// One session's persisted outcome: the registry-visible verdict plus the
/// metric deltas the session contributed, so a recovered campaign rebuilds
/// its counters exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeRec {
    /// Whether the verifier accepted the final attempt.
    pub accepted: bool,
    /// Whether the final attempt's response matched.
    pub response_ok: bool,
    /// Whether the final attempt met the time bound.
    pub time_ok: bool,
    /// Whether the session exceeded the scheduler timeout.
    pub timed_out: bool,
    /// Attempts spent (1 = no retry).
    pub attempts: u32,
    /// Simulated end-to-end seconds, as IEEE-754 bits (exact roundtrip).
    pub elapsed_bits: u64,
    /// Retry increments the session contributed to the campaign counters.
    /// Under the plain retry policy that is every retry (`attempts − 1`);
    /// under the chaos policy it is 1 for a session that retried at all
    /// (`pufatt::protocol::RetryMode`).
    pub retried: u32,
    /// Protocol messages the channel ate during the session.
    pub dropped: u32,
    /// Whether the session died without a verdict (deadline/channel).
    pub lost: bool,
    /// Latency histogram slot the session landed in.
    pub latency_slot: u8,
    /// Verifier CRP-cache hits this session contributed.
    pub crp_hits: u32,
    /// Verifier CRP-cache misses (emulations) this session contributed.
    pub crp_misses: u32,
}

impl OutcomeRec {
    /// The simulated elapsed seconds.
    pub fn elapsed_s(&self) -> f64 {
        f64::from_bits(self.elapsed_bits)
    }
}

/// The deterministic generator positions a device had reached after a
/// session: what a restored device jumps to, with no session re-run.
/// Positions are keystream offsets and evaluation counts — public
/// scheduling facts, no response material.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorInfo {
    /// The session RNG's keystream word position.
    pub session_pos: u64,
    /// The device PUF noise RNG's keystream word position.
    pub noise_pos: u64,
    /// The device PUF's evaluation count (burst-fault scheduling).
    pub noise_evals: u64,
    /// Whether the mid-traversal tamper mark is present in the prover's
    /// memory (it persists across sessions once planted).
    pub tamper_parity: bool,
}

/// Everything the store journals.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Identifies the campaign a state directory belongs to; resuming
    /// under a different configuration is refused instead of silently
    /// blending two campaigns.
    Meta {
        /// Fingerprint of the verdict-affecting configuration fields.
        config_hash: u64,
        /// Devices in the campaign.
        devices: u32,
        /// Sessions scheduled per device.
        sessions_per_device: u32,
        /// The campaign master seed.
        seed: u64,
    },
    /// A device entered the fleet as Active.
    DeviceEnrolled {
        /// The device id.
        id: u32,
    },
    /// A revoked device was explicitly trusted again.
    DeviceReEnrolled {
        /// The device id.
        id: u32,
    },
    /// A lifecycle transition (session-driven or manual). `status` is the
    /// post-transition state; legality is checked on replay.
    StatusChanged {
        /// The device id.
        id: u32,
        /// The state after the transition.
        status: StoredStatus,
    },
    /// A session ran to a verdict (or was aborted, consuming no
    /// randomness). Carries the post-transition lifecycle state and streak
    /// counters so replay restores the device without re-deriving policy
    /// decisions, and the device's post-session cursor so a restore
    /// resumes its generators exactly there.
    SessionClosed {
        /// The device id.
        id: u32,
        /// The session's verdict and metric deltas.
        outcome: OutcomeRec,
        /// Lifecycle state after the outcome was applied.
        status: StoredStatus,
        /// Consecutive-failure streak after the outcome.
        fails: u32,
        /// Consecutive-success streak after the outcome.
        succs: u32,
        /// The device's generator positions after the session.
        cursor: CursorInfo,
    },
    /// A session was refused up front (device revoked). A refusal consumes
    /// no randomness, so it carries no cursor.
    SessionRefused {
        /// The device id.
        id: u32,
    },
    /// A session died in a device fault (no verdict, no outcome).
    SessionFault {
        /// The device id.
        id: u32,
        /// Retry increments counted before the fault.
        retried: u32,
        /// Messages dropped before the fault.
        dropped: u32,
        /// Verifier CRP-cache hits counted before the fault.
        crp_hits: u32,
        /// Verifier CRP-cache misses counted before the fault.
        crp_misses: u32,
        /// The device's generator positions after the session.
        cursor: CursorInfo,
    },
    /// Provisioning failed; the device runs no sessions this campaign.
    DeviceAbandoned {
        /// The device id.
        id: u32,
    },
}

// ------------------------------------------------------------------ codec

pub(crate) fn write_outcome(w: &mut Writer<'_>, o: &OutcomeRec) {
    w.flag(o.accepted);
    w.flag(o.response_ok);
    w.flag(o.time_ok);
    w.flag(o.timed_out);
    w.u32(o.attempts);
    w.u64(o.elapsed_bits);
    w.u32(o.retried);
    w.u32(o.dropped);
    w.flag(o.lost);
    w.u8(o.latency_slot);
    w.u32(o.crp_hits);
    w.u32(o.crp_misses);
}

pub(crate) fn write_cursor(w: &mut Writer<'_>, c: &CursorInfo) {
    w.u64(c.session_pos);
    w.u64(c.noise_pos);
    w.u64(c.noise_evals);
    w.flag(c.tamper_parity);
}

pub(crate) fn read_cursor(r: &mut Reader<'_>) -> Result<CursorInfo, StoreError> {
    Ok(CursorInfo {
        session_pos: r.u64()?,
        noise_pos: r.u64()?,
        noise_evals: r.u64()?,
        tamper_parity: r.flag()?,
    })
}

pub(crate) fn read_outcome(r: &mut Reader<'_>) -> Result<OutcomeRec, StoreError> {
    Ok(OutcomeRec {
        accepted: r.flag()?,
        response_ok: r.flag()?,
        time_ok: r.flag()?,
        timed_out: r.flag()?,
        attempts: r.u32()?,
        elapsed_bits: r.u64()?,
        retried: r.u32()?,
        dropped: r.u32()?,
        lost: r.flag()?,
        latency_slot: r.u8()?,
        crp_hits: r.u32()?,
        crp_misses: r.u32()?,
    })
}

impl Record {
    /// Encodes `seq` followed by the record body into a frame payload.
    pub fn encode(&self, seq: u64, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        w.u64(seq);
        match self {
            Record::Meta { config_hash, devices, sessions_per_device, seed } => {
                w.u8(0);
                w.u64(*config_hash);
                w.u32(*devices);
                w.u32(*sessions_per_device);
                w.u64(*seed);
            }
            Record::DeviceEnrolled { id } => {
                w.u8(1);
                w.u32(*id);
            }
            Record::DeviceReEnrolled { id } => {
                w.u8(2);
                w.u32(*id);
            }
            Record::StatusChanged { id, status } => {
                w.u8(3);
                w.u32(*id);
                w.u8(status.to_byte());
            }
            Record::SessionClosed { id, outcome, status, fails, succs, cursor } => {
                w.u8(10);
                w.u32(*id);
                write_outcome(&mut w, outcome);
                w.u8(status.to_byte());
                w.u32(*fails);
                w.u32(*succs);
                write_cursor(&mut w, cursor);
            }
            Record::SessionRefused { id } => {
                w.u8(5);
                w.u32(*id);
            }
            Record::SessionFault { id, retried, dropped, crp_hits, crp_misses, cursor } => {
                w.u8(11);
                w.u32(*id);
                w.u32(*retried);
                w.u32(*dropped);
                w.u32(*crp_hits);
                w.u32(*crp_misses);
                write_cursor(&mut w, cursor);
            }
            Record::DeviceAbandoned { id } => {
                w.u8(7);
                w.u32(*id);
            }
        }
    }

    /// Decodes a frame payload into `(seq, record)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on an unknown tag, truncated fields, or
    /// trailing bytes — a CRC-valid frame that does not decode is a format
    /// break, not a torn tail, and recovery refuses it.
    pub fn decode(payload: &[u8]) -> Result<(u64, Record), StoreError> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let record = match r.u8()? {
            0 => Record::Meta {
                config_hash: r.u64()?,
                devices: r.u32()?,
                sessions_per_device: r.u32()?,
                seed: r.u64()?,
            },
            1 => Record::DeviceEnrolled { id: r.u32()? },
            2 => Record::DeviceReEnrolled { id: r.u32()? },
            3 => Record::StatusChanged {
                id: r.u32()?,
                status: StoredStatus::from_byte(r.u8()?).map_err(StoreError::Corrupt)?,
            },
            5 => Record::SessionRefused { id: r.u32()? },
            7 => Record::DeviceAbandoned { id: r.u32()? },
            10 => Record::SessionClosed {
                id: r.u32()?,
                outcome: read_outcome(&mut r)?,
                status: StoredStatus::from_byte(r.u8()?).map_err(StoreError::Corrupt)?,
                fails: r.u32()?,
                succs: r.u32()?,
                cursor: read_cursor(&mut r)?,
            },
            11 => Record::SessionFault {
                id: r.u32()?,
                retried: r.u32()?,
                dropped: r.u32()?,
                crp_hits: r.u32()?,
                crp_misses: r.u32()?,
                cursor: read_cursor(&mut r)?,
            },
            tag => return Err(StoreError::Corrupt(format!("unknown record tag {tag}"))),
        };
        r.done()?;
        Ok((seq, record))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn sample_outcome() -> OutcomeRec {
        OutcomeRec {
            accepted: true,
            response_ok: true,
            time_ok: false,
            timed_out: false,
            attempts: 2,
            elapsed_bits: 0.125f64.to_bits(),
            retried: 1,
            dropped: 3,
            lost: false,
            latency_slot: 17,
            crp_hits: 56,
            crp_misses: 8,
        }
    }

    fn sample_cursor() -> CursorInfo {
        CursorInfo {
            session_pos: 1_024,
            noise_pos: u64::MAX / 3,
            noise_evals: 4_096,
            tamper_parity: true,
        }
    }

    fn samples() -> Vec<Record> {
        vec![
            Record::Meta {
                config_hash: 0xDEAD_BEEF,
                devices: 12,
                sessions_per_device: 4,
                seed: 77,
            },
            Record::DeviceEnrolled { id: 3 },
            Record::DeviceReEnrolled { id: 3 },
            Record::StatusChanged { id: 9, status: StoredStatus::Quarantined },
            Record::SessionClosed {
                id: 9,
                outcome: sample_outcome(),
                status: StoredStatus::Active,
                fails: 0,
                succs: 2,
                cursor: sample_cursor(),
            },
            Record::SessionRefused { id: 1 },
            Record::SessionFault {
                id: 2,
                retried: 1,
                dropped: 4,
                crp_hits: 16,
                crp_misses: 48,
                cursor: sample_cursor(),
            },
            Record::DeviceAbandoned { id: 5 },
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for (i, rec) in samples().into_iter().enumerate() {
            let mut payload = Vec::new();
            rec.encode(i as u64 + 1, &mut payload);
            let (seq, decoded) = Record::decode(&payload).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_are_refused() {
        let mut payload = Vec::new();
        Record::DeviceEnrolled { id: 7 }.encode(1, &mut payload);
        for cut in 0..payload.len() {
            assert!(Record::decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
        payload.push(0);
        assert!(matches!(Record::decode(&payload), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn unknown_tag_is_refused() {
        let mut payload = 1u64.to_le_bytes().to_vec();
        payload.push(200);
        assert!(matches!(Record::decode(&payload), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn retired_tags_are_refused() {
        // Tag 8 was `CrpConsumed { a: u64, b: u64 }`; tags 4 and 6 were
        // `SessionClosed` and `SessionFault` without a cursor, and tag 9
        // the separate `DeviceCursor`. A well-formed body of each old
        // layout is still refused: the tags are reserved, never reused, so
        // a journal of an earlier format does not replay.
        for (tag, body_len) in [
            (4u8, 4 + 34 + 1 + 4 + 4),
            (6, 4 + 4 * 4),
            (8, 16),
            (9, 4 + 4 + 3 * 8 + 1),
        ] {
            let mut payload = 1u64.to_le_bytes().to_vec();
            payload.push(tag);
            payload.resize(payload.len() + body_len, 0);
            let err = Record::decode(&payload).unwrap_err();
            let expected = format!("unknown record tag {tag}");
            assert!(matches!(&err, StoreError::Corrupt(m) if m.contains(&expected)), "tag {tag}: got {err:?}");
        }
    }

    #[test]
    fn records_never_carry_response_material() {
        // The codec's whole vocabulary: ids, statuses, verdict booleans,
        // counters, and generator positions. A closed session is 81 bytes —
        // seq, tag, id, the 34-byte outcome (verdict flags, attempts,
        // elapsed bits, metric deltas, latency slot), status, two streaks,
        // and the cursor's three positions and flag; no field exists that
        // could hold a challenge, a response or helper bits.
        let mut payload = Vec::new();
        Record::SessionClosed {
            id: 1,
            outcome: sample_outcome(),
            status: StoredStatus::Quarantined,
            fails: 2,
            succs: 0,
            cursor: sample_cursor(),
        }
        .encode(9, &mut payload);
        assert_eq!(payload.len(), 8 + 1 + 4 + (4 + 4 + 8 + 4 + 4 + 1 + 1 + 4 + 4) + 1 + 4 + 4 + (3 * 8 + 1));
        assert_eq!(payload.len(), 81);
    }
}
