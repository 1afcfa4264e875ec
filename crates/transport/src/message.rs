//! Typed wire messages and their binary codec.
//!
//! Every frame payload is `corr:u32le tag:u8 fields`, with fixed-width
//! little-endian fields written and read with `pufatt_store::codec`, the
//! codec of the journal records; the one variable-length field, the
//! `Error` detail, is a `len:u16le` UTF-8 string on top of it. The
//! correlation id ties a response to its request, so a client may pipeline
//! many devices' requests down one connection and match replies out of
//! order.
//!
//! The first exchange on every connection is `Hello → HelloAck`: the
//! client states the protocol magic and the version range it speaks, the
//! server picks the highest version both sides share (or refuses with a
//! `VersionMismatch` error). Nothing else is accepted before the
//! handshake.
//!
//! **Secrecy rule** (same as the store's): messages carry *public*
//! protocol facts only — device ids, tickets, verdict booleans, lifecycle
//! states, counters. PUF responses, helper data, and challenge secrets
//! never appear in a wire message, so a packet capture hands a modelling
//! adversary nothing.

use crate::error::{ErrorCode, TransportError};
use pufatt_fleet::{DeviceId, FleetStatus};
use pufatt_store::codec::{Reader, Writer};

/// Identifies the protocol family (first field of `Hello`).
pub const PROTOCOL_MAGIC: [u8; 8] = *b"PUFATTN1";

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Longest `detail` string an `Error` response may carry.
pub const MAX_DETAIL_LEN: usize = 512;

/// The lifecycle status a reply carries: a second name of
/// `pufatt_fleet::FleetStatus` (the store's status enum), written with
/// that enum's one byte codec. attestbench imports this name and calls
/// `WireStatus::from(status)`, which the blanket `From<T> for T` impl
/// covers; the name can go once attestbench says `FleetStatus`.
pub use pufatt_fleet::FleetStatus as WireStatus;

/// What a client sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens the conversation: protocol magic plus the version range the
    /// client speaks. Must be the first (and only) handshake frame.
    Hello {
        /// Must equal [`PROTOCOL_MAGIC`].
        magic: [u8; 8],
        /// Lowest version the client accepts.
        min_version: u16,
        /// Highest version the client accepts.
        max_version: u16,
    },
    /// Enroll a device; its first attestation provisions it. Idempotent.
    Enroll {
        /// The device id.
        device: DeviceId,
    },
    /// Open one attestation session for a device; answered with a
    /// `Challenge` ticket or a `Refused` error.
    ChallengeRequest {
        /// The device id.
        device: DeviceId,
    },
    /// Run the session the ticket names to its verdict.
    Attest {
        /// The device id.
        device: DeviceId,
        /// The ticket `Challenge` granted.
        ticket: u64,
    },
    /// Revoke a device (operator action).
    Revoke {
        /// The device id.
        device: DeviceId,
    },
    /// Fetch the server's headline counters.
    Stats,
    /// Ask the server to drain and shut down.
    Shutdown,
}

/// Headline counters a `StatsReply` carries (a compact projection of the
/// fleet snapshot; full per-device records never travel the wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Sessions that began their first attempt.
    pub started: u64,
    /// Sessions accepted by the verifier.
    pub accepted: u64,
    /// Sessions rejected (includes timed-out ones).
    pub rejected: u64,
    /// Rejected sessions whose cause was the session timeout.
    pub timed_out: u64,
    /// Sessions refused up front (device revoked).
    pub refused: u64,
    /// Sessions that died without a verdict.
    pub lost: u64,
    /// Devices that faulted outside the protocol.
    pub faults: u64,
    /// Devices currently Active.
    pub active: u64,
    /// Devices currently Quarantined.
    pub quarantined: u64,
    /// Devices currently Revoked.
    pub revoked: u64,
    /// Reference responses the verifiers served from their CRP caches.
    pub crp_hits: u64,
    /// Reference responses the verifiers had to emulate (cache misses).
    pub crp_misses: u64,
    /// Sessions refused with `storage-unavailable` (durable home shard
    /// sick when the request arrived).
    pub unavailable: u64,
    /// Storage shards backing the server (0 when unjournaled).
    pub shards_total: u64,
    /// Shards currently Degraded (read-only, refusing their devices).
    pub shards_degraded: u64,
    /// Shards currently Failed (reopen attempt failed; operator action
    /// required).
    pub shards_failed: u64,
}

/// What a server sends back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Accepts the handshake at the negotiated version.
    HelloAck {
        /// The version both sides will speak.
        version: u16,
    },
    /// The device is enrolled.
    EnrollOk {
        /// The device id.
        device: DeviceId,
        /// Whether this call created the device.
        fresh: bool,
        /// Lifecycle state after the call.
        status: FleetStatus,
    },
    /// A session is open; attest it with this ticket.
    Challenge {
        /// The device id.
        device: DeviceId,
        /// Ticket naming the open session.
        ticket: u64,
    },
    /// The session's verdict (mirrors the fleet's `SessionOutcome`,
    /// elapsed time as IEEE-754 bits for exact round-trips).
    Verdict {
        /// The device id.
        device: DeviceId,
        /// Whether the verifier accepted the final attempt.
        accepted: bool,
        /// Whether the final attempt's response matched.
        response_ok: bool,
        /// Whether the final attempt met the time bound.
        time_ok: bool,
        /// Whether the session exceeded the scheduler timeout.
        timed_out: bool,
        /// Attempts spent (1 = no retry).
        attempts: u32,
        /// Simulated end-to-end seconds, as bits.
        elapsed_bits: u64,
        /// Lifecycle state after the outcome was applied.
        status: FleetStatus,
    },
    /// The device was revoked.
    RevokeOk {
        /// The device id.
        device: DeviceId,
        /// Lifecycle state after the call (Revoked, or the prior state
        /// for unknown ids — those answer `UnknownDevice` instead).
        status: FleetStatus,
    },
    /// The server's headline counters.
    StatsReply(WireStats),
    /// The server accepted the shutdown request and is draining.
    ShutdownAck,
    /// The server is at its connection limit or the request is over the
    /// rate limit; try the same request again after the hint.
    Busy {
        /// Suggested client-side backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The request failed with a typed protocol error.
    Error {
        /// The error code.
        code: ErrorCode,
        /// Human-readable detail (public facts only, capped at
        /// [`MAX_DETAIL_LEN`]).
        detail: String,
    },
}

// ------------------------------------------------------------------ codec

/// Writes a UTF-8 string as `len:u16le bytes`, cut to [`MAX_DETAIL_LEN`]
/// bytes on a char boundary so the wire always carries UTF-8.
fn write_str16(w: &mut Writer<'_>, v: &str) {
    let take = v.len().min(MAX_DETAIL_LEN);
    let take = (0..=take).rev().find(|&i| v.is_char_boundary(i)).unwrap_or(0);
    w.u16(take as u16);
    w.bytes(&v.as_bytes()[..take]);
}

/// Reads a string written by [`write_str16`].
fn read_str16(r: &mut Reader<'_>) -> Result<String, TransportError> {
    let len = r.u16()? as usize;
    if len > MAX_DETAIL_LEN {
        return Err(TransportError::Malformed(format!("detail length {len} exceeds {MAX_DETAIL_LEN}")));
    }
    String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| TransportError::Malformed("detail is not UTF-8".into()))
}

impl Request {
    /// Encodes `corr` followed by the request body into a frame payload.
    pub fn encode(&self, corr: u32, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        w.u32(corr);
        match self {
            Request::Hello { magic, min_version, max_version } => {
                w.u8(0);
                w.bytes(magic);
                w.u16(*min_version);
                w.u16(*max_version);
            }
            Request::Enroll { device } => {
                w.u8(1);
                w.u32(*device);
            }
            Request::ChallengeRequest { device } => {
                w.u8(2);
                w.u32(*device);
            }
            Request::Attest { device, ticket } => {
                w.u8(3);
                w.u32(*device);
                w.u64(*ticket);
            }
            Request::Revoke { device } => {
                w.u8(4);
                w.u32(*device);
            }
            Request::Stats => w.u8(5),
            Request::Shutdown => w.u8(6),
        }
    }

    /// Decodes a frame payload into `(corr, request)`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] on an unknown tag, truncated fields,
    /// or trailing bytes. Never panics, never over-reads — this is the
    /// surface arbitrary network bytes reach.
    pub fn decode(payload: &[u8]) -> Result<(u32, Request), TransportError> {
        let mut r = Reader::new(payload);
        let corr = r.u32()?;
        let request = match r.u8()? {
            0 => Request::Hello {
                magic: r.array()?,
                min_version: r.u16()?,
                max_version: r.u16()?,
            },
            1 => Request::Enroll { device: r.u32()? },
            2 => Request::ChallengeRequest { device: r.u32()? },
            3 => Request::Attest { device: r.u32()?, ticket: r.u64()? },
            4 => Request::Revoke { device: r.u32()? },
            5 => Request::Stats,
            6 => Request::Shutdown,
            tag => return Err(TransportError::Malformed(format!("unknown request tag {tag}"))),
        };
        r.done()?;
        Ok((corr, request))
    }
}

impl Response {
    /// Encodes `corr` followed by the response body into a frame payload.
    pub fn encode(&self, corr: u32, out: &mut Vec<u8>) {
        let mut w = Writer(out);
        w.u32(corr);
        match self {
            Response::HelloAck { version } => {
                w.u8(0);
                w.u16(*version);
            }
            Response::EnrollOk { device, fresh, status } => {
                w.u8(1);
                w.u32(*device);
                w.flag(*fresh);
                w.u8(status.to_byte());
            }
            Response::Challenge { device, ticket } => {
                w.u8(2);
                w.u32(*device);
                w.u64(*ticket);
            }
            Response::Verdict {
                device,
                accepted,
                response_ok,
                time_ok,
                timed_out,
                attempts,
                elapsed_bits,
                status,
            } => {
                w.u8(3);
                w.u32(*device);
                w.flag(*accepted);
                w.flag(*response_ok);
                w.flag(*time_ok);
                w.flag(*timed_out);
                w.u32(*attempts);
                w.u64(*elapsed_bits);
                w.u8(status.to_byte());
            }
            Response::RevokeOk { device, status } => {
                w.u8(4);
                w.u32(*device);
                w.u8(status.to_byte());
            }
            Response::StatsReply(s) => {
                w.u8(5);
                w.u64(s.started);
                w.u64(s.accepted);
                w.u64(s.rejected);
                w.u64(s.timed_out);
                w.u64(s.refused);
                w.u64(s.lost);
                w.u64(s.faults);
                w.u64(s.active);
                w.u64(s.quarantined);
                w.u64(s.revoked);
                w.u64(s.crp_hits);
                w.u64(s.crp_misses);
                w.u64(s.unavailable);
                w.u64(s.shards_total);
                w.u64(s.shards_degraded);
                w.u64(s.shards_failed);
            }
            Response::ShutdownAck => w.u8(6),
            Response::Busy { retry_after_ms } => {
                w.u8(7);
                w.u32(*retry_after_ms);
            }
            Response::Error { code, detail } => {
                w.u8(8);
                w.u8(code.to_byte());
                write_str16(&mut w, detail);
            }
        }
    }

    /// Decodes a frame payload into `(corr, response)`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] on an unknown tag, truncated fields,
    /// an invalid status/code byte, an oversized or non-UTF-8 detail, or
    /// trailing bytes. Never panics, never over-reads.
    pub fn decode(payload: &[u8]) -> Result<(u32, Response), TransportError> {
        let mut r = Reader::new(payload);
        let corr = r.u32()?;
        let response = match r.u8()? {
            0 => Response::HelloAck { version: r.u16()? },
            1 => Response::EnrollOk {
                device: r.u32()?,
                fresh: r.flag()?,
                status: FleetStatus::from_byte(r.u8()?).map_err(TransportError::Malformed)?,
            },
            2 => Response::Challenge { device: r.u32()?, ticket: r.u64()? },
            3 => Response::Verdict {
                device: r.u32()?,
                accepted: r.flag()?,
                response_ok: r.flag()?,
                time_ok: r.flag()?,
                timed_out: r.flag()?,
                attempts: r.u32()?,
                elapsed_bits: r.u64()?,
                status: FleetStatus::from_byte(r.u8()?).map_err(TransportError::Malformed)?,
            },
            4 => Response::RevokeOk {
                device: r.u32()?,
                status: FleetStatus::from_byte(r.u8()?).map_err(TransportError::Malformed)?,
            },
            5 => Response::StatsReply(WireStats {
                started: r.u64()?,
                accepted: r.u64()?,
                rejected: r.u64()?,
                timed_out: r.u64()?,
                refused: r.u64()?,
                lost: r.u64()?,
                faults: r.u64()?,
                active: r.u64()?,
                quarantined: r.u64()?,
                revoked: r.u64()?,
                crp_hits: r.u64()?,
                crp_misses: r.u64()?,
                unavailable: r.u64()?,
                shards_total: r.u64()?,
                shards_degraded: r.u64()?,
                shards_failed: r.u64()?,
            }),
            6 => Response::ShutdownAck,
            7 => Response::Busy { retry_after_ms: r.u32()? },
            8 => Response::Error {
                code: ErrorCode::from_byte(r.u8()?)?,
                detail: read_str16(&mut r)?,
            },
            tag => return Err(TransportError::Malformed(format!("unknown response tag {tag}"))),
        };
        r.done()?;
        Ok((corr, response))
    }
}

/// The client's opening `Hello` for this build.
pub fn hello() -> Request {
    Request::Hello {
        magic: PROTOCOL_MAGIC,
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    }
}

/// Server-side version negotiation: validates the magic and picks the
/// highest mutually spoken version.
///
/// # Errors
///
/// [`TransportError::Malformed`] on a wrong magic,
/// [`TransportError::VersionMismatch`] when the offered range misses
/// [`PROTOCOL_VERSION`].
pub fn negotiate(magic: [u8; 8], min_version: u16, max_version: u16) -> Result<u16, TransportError> {
    if magic != PROTOCOL_MAGIC {
        return Err(TransportError::Malformed("wrong protocol magic".into()));
    }
    if min_version > max_version || PROTOCOL_VERSION < min_version || PROTOCOL_VERSION > max_version {
        return Err(TransportError::VersionMismatch { lo: min_version, hi: max_version });
    }
    Ok(PROTOCOL_VERSION)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn every_request_roundtrips() {
        let requests = [
            hello(),
            Request::Enroll { device: 7 },
            Request::ChallengeRequest { device: 0xFFFF_FFFF },
            Request::Attest { device: 3, ticket: u64::MAX },
            Request::Revoke { device: 0 },
            Request::Stats,
            Request::Shutdown,
        ];
        for (i, req) in requests.iter().enumerate() {
            let mut buf = Vec::new();
            req.encode(i as u32, &mut buf);
            let (corr, back) = Request::decode(&buf).unwrap();
            assert_eq!(corr, i as u32);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        let responses = [
            Response::HelloAck { version: 1 },
            Response::EnrollOk { device: 9, fresh: true, status: FleetStatus::Active },
            Response::Challenge { device: 9, ticket: 42 },
            Response::Verdict {
                device: 9,
                accepted: false,
                response_ok: true,
                time_ok: false,
                timed_out: true,
                attempts: 3,
                elapsed_bits: 1.25f64.to_bits(),
                status: FleetStatus::Quarantined,
            },
            Response::RevokeOk { device: 9, status: FleetStatus::Revoked },
            Response::StatsReply(WireStats {
                started: 1,
                accepted: 2,
                revoked: 3,
                unavailable: 4,
                shards_total: 8,
                shards_degraded: 1,
                shards_failed: 1,
                ..WireStats::default()
            }),
            Response::ShutdownAck,
            Response::Busy { retry_after_ms: 25 },
            Response::Error {
                code: ErrorCode::Refused,
                detail: "device 9 is revoked".into(),
            },
        ];
        for (i, resp) in responses.iter().enumerate() {
            let mut buf = Vec::new();
            resp.encode(i as u32, &mut buf);
            let (corr, back) = Response::decode(&buf).unwrap();
            assert_eq!(corr, i as u32);
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn negotiation_accepts_overlap_and_refuses_the_rest() {
        assert_eq!(negotiate(PROTOCOL_MAGIC, 1, 1).unwrap(), 1);
        assert_eq!(negotiate(PROTOCOL_MAGIC, 1, 9).unwrap(), PROTOCOL_VERSION);
        assert!(matches!(negotiate(PROTOCOL_MAGIC, 2, 9), Err(TransportError::VersionMismatch { lo: 2, hi: 9 })));
        assert!(matches!(negotiate(PROTOCOL_MAGIC, 3, 2), Err(TransportError::VersionMismatch { .. })));
        assert!(matches!(negotiate(*b"PUFATTW1", 1, 1), Err(TransportError::Malformed(_))));
    }

    #[test]
    fn oversized_and_non_utf8_details_are_rejected() {
        // An Error response whose declared detail length exceeds the cap.
        let mut buf = Vec::new();
        Writer(&mut buf).u32(0);
        Writer(&mut buf).u8(8);
        Writer(&mut buf).u8(ErrorCode::Internal.to_byte());
        buf.extend_from_slice(&((MAX_DETAIL_LEN as u16) + 1).to_le_bytes());
        buf.extend_from_slice(&vec![b'x'; MAX_DETAIL_LEN + 1]);
        assert!(matches!(Response::decode(&buf), Err(TransportError::Malformed(_))));

        let mut buf = Vec::new();
        Writer(&mut buf).u32(0);
        Writer(&mut buf).u8(8);
        Writer(&mut buf).u8(ErrorCode::Internal.to_byte());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(Response::decode(&buf), Err(TransportError::Malformed(_))));
    }

    #[test]
    fn long_details_truncate_on_char_boundaries() {
        let detail = "é".repeat(MAX_DETAIL_LEN); // 2 bytes per char
        let mut buf = Vec::new();
        Response::Error { code: ErrorCode::Internal, detail }.encode(0, &mut buf);
        let (_, back) = Response::decode(&buf).unwrap();
        let Response::Error { detail, .. } = back else {
            panic!("wrong variant");
        };
        assert!(detail.len() <= MAX_DETAIL_LEN);
        assert!(detail.chars().all(|c| c == 'é'));
    }

    #[test]
    fn trailing_bytes_and_unknown_tags_are_malformed() {
        let mut buf = Vec::new();
        Request::Stats.encode(1, &mut buf);
        buf.push(0);
        assert!(matches!(Request::decode(&buf), Err(TransportError::Malformed(_))));
        let mut buf = Vec::new();
        Writer(&mut buf).u32(1);
        Writer(&mut buf).u8(99);
        assert!(matches!(Request::decode(&buf), Err(TransportError::Malformed(_))));
        assert!(matches!(Response::decode(&buf), Err(TransportError::Malformed(_))));
        assert!(matches!(Request::decode(&[1, 2]), Err(TransportError::Malformed(_))));
    }

    #[test]
    fn unknown_status_byte_is_malformed() {
        assert!(WireStatus::from_byte(3).is_err());
        let mut buf = Vec::new();
        Response::RevokeOk { device: 9, status: FleetStatus::Revoked }.encode(1, &mut buf);
        *buf.last_mut().unwrap() = 3;
        assert!(matches!(Response::decode(&buf), Err(TransportError::Malformed(_))));
    }
}
