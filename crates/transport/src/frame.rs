//! Wire framing: the WAL's `PUFATTW1` discipline pointed at a socket.
//!
//! ```text
//! frame := len:u32le  crc:u32le  payload    (len = payload length,
//!                                            crc = CRC-32/IEEE of payload)
//! ```
//!
//! The layout, the checksum and the header parser are `pufatt_store::wal`'s
//! (`wal::encode_frame`, `wal::FrameHeader::parse`, `wal::split_frame`) —
//! the one framing discipline the repo already trusts against torn and
//! bit-rotted bytes — with two differences a live socket forces:
//!
//! * **Tighter length bound.** A WAL frame may hold a megabyte; a
//!   protocol message is a few dozen bytes. [`MAX_FRAME_LEN`] is 4 KiB,
//!   passed to the shared parser as its bound, so a hostile length prefix
//!   cannot make the server reserve a megabyte per connection.
//! * **No resynchronisation.** The WAL stops at the first bad frame and
//!   keeps the prefix; a socket has no "rest of the file" to keep. A CRC
//!   or length failure here poisons the connection — the peer closes it
//!   and (client-side) retries the session over a fresh one, which is the
//!   PR 3 retry machine's job, not the framing layer's.
//!
//! Reads are incremental and bounded: the header is read exactly, the
//! length is validated *before* any payload allocation, and a clean EOF
//! on a frame boundary is distinguished from one mid-frame (the former is
//! a polite close, the latter a torn frame).

use crate::error::TransportError;
use pufatt_store::wal::{self, FrameHeader};
use std::io::{Read, Write};

pub use pufatt_store::wal::FRAME_HEADER;

/// Upper bound on one frame's payload. Anything larger in a length
/// prefix is an attack or corruption, never a message.
pub const MAX_FRAME_LEN: u32 = 4096;

/// Appends one framed payload to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — outbound messages are
/// built by this crate and statically small; a violation is a codec bug,
/// not a runtime condition.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    assert!(payload.len() <= MAX_FRAME_LEN as usize, "outbound frame exceeds MAX_FRAME_LEN");
    wal::encode_frame(payload, out);
}

/// Decodes one frame at the front of `bytes` (for in-memory corpora and
/// tests; sockets use [`read_frame`]). Returns the payload and total
/// bytes consumed.
///
/// # Errors
///
/// [`TransportError::Frame`] on a short header, an implausible length, a
/// truncated payload, or a CRC mismatch.
pub fn decode_frame(bytes: &[u8]) -> Result<(&[u8], usize), TransportError> {
    wal::split_frame(bytes, MAX_FRAME_LEN).map_err(TransportError::Frame)
}

/// Reads exactly `buf.len()` bytes, translating I/O failures into the
/// typed taxonomy. Returns `Ok(false)` on a clean EOF *before any byte*
/// when `eof_ok` — the peer closed on a frame boundary.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8], eof_ok: bool, timeout_ms: u64) -> Result<bool, TransportError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(TransportError::Frame(format!("eof mid-frame: {filled} of {} bytes", buf.len())));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::from_io(&e, timeout_ms)),
        }
    }
    Ok(true)
}

/// Reads one complete frame from a socket into `payload` (reused across
/// calls — no per-frame allocation once warm). Returns `Ok(false)` on a
/// clean close (EOF exactly on a frame boundary).
///
/// # Errors
///
/// [`TransportError::Frame`] on torn/oversized/corrupt frames,
/// [`TransportError::Timeout`] when the socket's read timeout expires,
/// [`TransportError::Closed`] when the peer vanishes mid-conversation.
pub fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>, timeout_ms: u64) -> Result<bool, TransportError> {
    let mut header = [0u8; FRAME_HEADER];
    if !read_exact_or_eof(r, &mut header, true, timeout_ms)? {
        return Ok(false);
    }
    let header = FrameHeader::parse(&header, MAX_FRAME_LEN).map_err(TransportError::Frame)?;
    payload.resize(header.len, 0);
    read_exact_or_eof(r, payload, false, timeout_ms)?;
    header.check(payload).map_err(TransportError::Frame)?;
    Ok(true)
}

/// Frames `payload` and writes it whole to a socket.
///
/// # Errors
///
/// [`TransportError::Timeout`] or [`TransportError::Closed`] from the
/// underlying writes.
pub fn write_frame(w: &mut impl Write, payload: &[u8], timeout_ms: u64) -> Result<(), TransportError> {
    let mut framed = Vec::with_capacity(FRAME_HEADER + payload.len());
    encode_frame(payload, &mut framed);
    w.write_all(&framed).map_err(|e| TransportError::from_io(&e, timeout_ms))?;
    w.flush().map_err(|e| TransportError::from_io(&e, timeout_ms))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn roundtrip_through_a_byte_stream() {
        let mut wire = Vec::new();
        encode_frame(b"hello", &mut wire);
        encode_frame(b"", &mut wire);
        let (p1, n1) = decode_frame(&wire).unwrap();
        assert_eq!(p1, b"hello");
        let (p2, n2) = decode_frame(&wire[n1..]).unwrap();
        assert_eq!(p2, b"");
        assert_eq!(n1 + n2, wire.len());
    }

    #[test]
    fn read_frame_handles_clean_close_and_torn_frames() {
        let mut wire = Vec::new();
        encode_frame(b"msg", &mut wire);
        let mut cursor = std::io::Cursor::new(wire.clone());
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload, 0).unwrap());
        assert_eq!(payload, b"msg");
        assert!(!read_frame(&mut cursor, &mut payload, 0).unwrap(), "EOF on boundary is a clean close");
        // EOF inside a frame is torn, not clean.
        for cut in 1..wire.len() {
            let mut cursor = std::io::Cursor::new(wire[..cut].to_vec());
            assert!(matches!(read_frame(&mut cursor, &mut payload, 0), Err(TransportError::Frame(_))), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut wire = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 4]);
        assert!(matches!(decode_frame(&wire), Err(TransportError::Frame(_))));
        let mut cursor = std::io::Cursor::new(wire);
        let mut payload = Vec::new();
        assert!(matches!(read_frame(&mut cursor, &mut payload, 0), Err(TransportError::Frame(_))));
    }

    #[test]
    fn bit_flips_anywhere_fail_the_crc() {
        let mut wire = Vec::new();
        encode_frame(b"attest", &mut wire);
        for pos in 0..wire.len() {
            let mut bad = wire.clone();
            bad[pos] ^= 0x40;
            // Either an invalid header or a CRC mismatch — never a payload.
            if let Ok((payload, _)) = decode_frame(&bad) {
                panic!("flip at {pos} forged payload {payload:?}");
            }
        }
    }
}
