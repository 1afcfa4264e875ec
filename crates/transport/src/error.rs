//! The transport error taxonomy and its mapping into the core one.
//!
//! Every way a socket conversation can go wrong has a typed name here —
//! frame damage, undecodable payloads, version mismatch, timeouts, closed
//! connections, server-side protocol errors — and each maps into the
//! [`PufattError`] taxonomy the retry state machine in `pufatt_faults`
//! already understands: frame and payload damage are [`Malformed`],
//! timeouts are [`Timeout`], a vanished peer is [`ChannelLost`], and
//! everything service-level travels as the new [`Transport`] variant.
//!
//! [`Malformed`]: PufattError::Malformed
//! [`Timeout`]: PufattError::Timeout
//! [`ChannelLost`]: PufattError::ChannelLost
//! [`Transport`]: PufattError::Transport

use pufatt::PufattError;
use pufatt_store::codec::CodecError;
use std::fmt;

/// Protocol-level error codes carried by `Response::Error` frames. Each
/// code has one row in `CODES`, in declaration order: a new code is
/// appended here and there, so no existing wire byte moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client's offered version range does not intersect the server's.
    VersionMismatch,
    /// The request frame decoded but violated the protocol (bad payload,
    /// request before the handshake, unknown tag).
    Malformed,
    /// The device id is not enrolled.
    UnknownDevice,
    /// The device is revoked; the session was refused.
    Refused,
    /// The device faulted (provisioning failure or trap); it cannot
    /// attest this campaign.
    DeviceFault,
    /// The `Attest` carried a ticket that does not match the open session.
    BadTicket,
    /// The connection exceeded its rate limit.
    RateLimited,
    /// The server is draining; no new sessions are admitted.
    Draining,
    /// The server hit an internal fault serving the request.
    Internal,
    /// The device's durable storage shard is sick (degraded or failed);
    /// the request was refused up front so no accepted-but-undurable
    /// verdict can exist. Retrying against another device, or after an
    /// operator reopens the shard, can succeed — the server itself is
    /// healthy (distinct from [`ErrorCode::Internal`]).
    StorageUnavailable,
}

/// Every code with its display name. A code's wire byte is its index
/// here, which is also its position in [`ErrorCode`]'s declaration.
const CODES: [(ErrorCode, &str); 10] = [
    (ErrorCode::VersionMismatch, "version-mismatch"),
    (ErrorCode::Malformed, "malformed"),
    (ErrorCode::UnknownDevice, "unknown-device"),
    (ErrorCode::Refused, "refused"),
    (ErrorCode::DeviceFault, "device-fault"),
    (ErrorCode::BadTicket, "bad-ticket"),
    (ErrorCode::RateLimited, "rate-limited"),
    (ErrorCode::Draining, "draining"),
    (ErrorCode::Internal, "internal"),
    (ErrorCode::StorageUnavailable, "storage-unavailable"),
];

impl ErrorCode {
    /// The wire byte for this code.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] on an unknown code byte.
    pub fn from_byte(b: u8) -> Result<Self, TransportError> {
        CODES
            .get(usize::from(b))
            .map(|&(code, _)| code)
            .ok_or_else(|| TransportError::Malformed(format!("unknown error code byte {b}")))
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(CODES[*self as usize].1)
    }
}

/// Everything that can go wrong between two protocol endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// Frame-level damage: CRC mismatch, implausible length prefix, or a
    /// header torn mid-read. The connection cannot resynchronise past
    /// this — framing carries no sync marker — so the peer must close.
    Frame(String),
    /// A checksum-valid frame whose payload does not decode (unknown tag,
    /// truncated fields, trailing bytes, invalid UTF-8 in a detail).
    Malformed(String),
    /// Version negotiation failed: the peer offered `[lo, hi]` and no
    /// supported version falls inside it.
    VersionMismatch {
        /// Lowest version the peer offered.
        lo: u16,
        /// Highest version the peer offered.
        hi: u16,
    },
    /// A socket read or write exceeded its timeout.
    Timeout {
        /// The configured timeout in milliseconds.
        after_ms: u64,
    },
    /// The peer closed the connection (or the OS dropped it). The payload
    /// is the I/O layer's rendering — never response material.
    Closed(String),
    /// The server answered a request with a typed protocol error.
    Server {
        /// The error code.
        code: ErrorCode,
        /// Human-readable detail (public facts only).
        detail: String,
    },
    /// The peer broke the conversation's rules: a reply with an unknown
    /// correlation id, a response type that does not answer the request,
    /// a second `Hello`.
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Frame(m) => write!(f, "wire frame damaged: {m}"),
            TransportError::Malformed(m) => write!(f, "wire message malformed: {m}"),
            TransportError::VersionMismatch { lo, hi } => {
                write!(f, "no common protocol version: peer offered {lo}..={hi}")
            }
            TransportError::Timeout { after_ms } => write!(f, "socket timed out after {after_ms} ms"),
            TransportError::Closed(m) => write!(f, "connection closed: {m}"),
            TransportError::Server { code, detail } => write!(f, "server error [{code}]: {detail}"),
            TransportError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Malformed(format!("message {e}"))
    }
}

impl TransportError {
    /// Wraps an I/O error, classifying timeouts and disconnects into
    /// their typed variants. `timeout_ms` is the configured socket
    /// timeout, reported in [`TransportError::Timeout`].
    pub fn from_io(e: &std::io::Error, timeout_ms: u64) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout { after_ms: timeout_ms },
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected => TransportError::Closed(e.kind().to_string()),
            kind => TransportError::Closed(format!("{kind}: {e}")),
        }
    }
}

impl From<TransportError> for PufattError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Frame(m) => PufattError::Malformed(format!("frame: {m}")),
            TransportError::Malformed(m) => PufattError::Malformed(m),
            TransportError::Timeout { after_ms } => PufattError::Timeout {
                elapsed_s: after_ms as f64 / 1e3,
                deadline_s: after_ms as f64 / 1e3,
            },
            TransportError::Closed(_) => PufattError::ChannelLost { attempts: 1 },
            other => PufattError::Transport(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn error_codes_roundtrip() {
        for (byte, &(code, name)) in CODES.iter().enumerate() {
            assert_eq!(usize::from(code.to_byte()), byte);
            assert_eq!(ErrorCode::from_byte(code.to_byte()).unwrap(), code);
            assert_eq!(code.to_string(), name);
        }
        assert!(ErrorCode::from_byte(10).is_err());
        assert!(ErrorCode::from_byte(200).is_err());
    }

    #[test]
    fn io_errors_classify_into_the_taxonomy() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            TransportError::from_io(&Error::from(ErrorKind::WouldBlock), 250),
            TransportError::Timeout { after_ms: 250 }
        );
        assert!(matches!(
            TransportError::from_io(&Error::from(ErrorKind::BrokenPipe), 250),
            TransportError::Closed(_)
        ));
    }

    #[test]
    fn transport_errors_map_into_the_core_taxonomy() {
        assert!(matches!(PufattError::from(TransportError::Frame("crc".into())), PufattError::Malformed(_)));
        assert!(matches!(PufattError::from(TransportError::Timeout { after_ms: 100 }), PufattError::Timeout { .. }));
        assert!(matches!(
            PufattError::from(TransportError::Closed("reset".into())),
            PufattError::ChannelLost { attempts: 1 }
        ));
        assert!(matches!(
            PufattError::from(TransportError::VersionMismatch { lo: 2, hi: 3 }),
            PufattError::Transport(_)
        ));
    }
}
