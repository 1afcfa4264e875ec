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
//! Reads are incremental and bounded: the length is validated from the
//! header alone, *before* any payload is read or allocated, and a clean
//! EOF on a frame boundary is distinguished from one mid-frame (the
//! former is a polite close, the latter a torn frame). [`read_frame`]
//! reads exactly one frame, header and payload, off a socket.
//! `FrameReader` is the server's buffered form of it: one `read` takes
//! whatever the socket holds into a fixed buffer, and the frames in it
//! are handed out without further syscalls.

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

/// A connection's buffered frame reader. One `read` fills its buffer
/// with as many frames as the socket holds, and
/// [`FrameReader::read_frame`] then hands them out one at a time without
/// touching the socket again.
///
/// The buffer holds exactly one maximal frame (`FRAME_HEADER +
/// MAX_FRAME_LEN` bytes), so any frame the bound admits fits and the
/// memory a connection pins is fixed. The checks are [`read_frame`]'s: a
/// length prefix over the bound is refused from the header alone, a CRC
/// mismatch or an EOF inside a frame is a [`TransportError::Frame`], and
/// an EOF on a frame boundary is a clean close.
pub(crate) struct FrameReader {
    buf: Box<[u8]>,
    /// Start of the bytes not yet handed out.
    start: usize,
    /// End of the bytes read so far.
    end: usize,
}

impl FrameReader {
    /// An empty reader with room for one maximal frame.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0; FRAME_HEADER + MAX_FRAME_LEN as usize].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    /// The header of the whole frame at the front of the buffer, if the
    /// buffer holds one.
    fn whole_frame(&self) -> Result<Option<FrameHeader>, TransportError> {
        let buffered = &self.buf[self.start..self.end];
        if buffered.len() < FRAME_HEADER {
            return Ok(None);
        }
        let header = FrameHeader::parse(buffered, MAX_FRAME_LEN).map_err(TransportError::Frame)?;
        Ok((buffered.len() >= FRAME_HEADER + header.len).then_some(header))
    }

    /// Whether a whole frame is buffered, so the next
    /// [`FrameReader::read_frame`] returns it without reading the socket.
    /// When this is false, the next read may wait for the peer.
    pub fn has_frame(&self) -> bool {
        matches!(self.whole_frame(), Ok(Some(_)))
    }

    /// Copies the next complete frame's payload into `payload`, reading
    /// the socket only when no whole frame is buffered. Returns
    /// `Ok(false)` on a clean close (EOF exactly on a frame boundary).
    ///
    /// # Errors
    ///
    /// As [`read_frame`]: [`TransportError::Frame`] on torn, oversized or
    /// corrupt frames, [`TransportError::Timeout`] when the socket's read
    /// timeout expires, [`TransportError::Closed`] when the peer vanishes.
    pub fn read_frame(
        &mut self,
        r: &mut impl Read,
        payload: &mut Vec<u8>,
        timeout_ms: u64,
    ) -> Result<bool, TransportError> {
        loop {
            if let Some(header) = self.whole_frame()? {
                let body = &self.buf[self.start + FRAME_HEADER..self.start + FRAME_HEADER + header.len];
                header.check(body).map_err(TransportError::Frame)?;
                payload.clear();
                payload.extend_from_slice(body);
                self.start += FRAME_HEADER + header.len;
                return Ok(true);
            }
            // Move the partial frame to the front, so that even a maximal
            // frame fits, and read more. The tail cannot be full here: a
            // full buffer always holds a whole frame or a refused header.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(false),
                Ok(0) => return Err(TransportError::Frame(format!("eof mid-frame: {} bytes buffered", self.end))),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::from_io(&e, timeout_ms)),
            }
        }
    }
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A socket that delivers its bytes in the given chunks (empty ones
    /// skipped), one chunk or the part of it that fits per `read`, then
    /// EOF.
    struct Chunks {
        chunks: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Chunks {
        fn new(bytes: &[u8], sizes: impl IntoIterator<Item = usize>) -> Self {
            let mut chunks = VecDeque::new();
            let mut rest = bytes;
            for size in sizes {
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                if !chunk.is_empty() {
                    chunks.push_back(chunk.to_vec());
                }
                rest = tail;
            }
            if !rest.is_empty() {
                chunks.push_back(rest.to_vec());
            }
            Chunks { chunks, reads: 0 }
        }
    }

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(mut chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.chunks.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    fn three_frames() -> (Vec<u8>, Vec<Vec<u8>>) {
        let payloads = vec![b"hello".to_vec(), Vec::new(), vec![0xA5; 300]];
        let mut wire = Vec::new();
        for payload in &payloads {
            encode_frame(payload, &mut wire);
        }
        (wire, payloads)
    }

    /// Reads frames until a clean close, panicking on any error.
    fn drain(reader: &mut FrameReader, socket: &mut Chunks) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut payload = Vec::new();
        while reader.read_frame(socket, &mut payload, 0).unwrap() {
            frames.push(payload.clone());
        }
        frames
    }

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

    #[test]
    fn frame_reader_reassembles_frames_split_anywhere() {
        let (wire, payloads) = three_frames();
        let mut one_byte = Chunks::new(&wire, std::iter::repeat_n(1, wire.len()));
        assert_eq!(drain(&mut FrameReader::new(), &mut one_byte), payloads, "1-byte reads");
        for cut in 0..=wire.len() {
            let mut socket = Chunks::new(&wire, [cut]);
            assert_eq!(drain(&mut FrameReader::new(), &mut socket), payloads, "split at {cut}");
        }
    }

    #[test]
    fn frame_reader_hands_out_a_burst_from_one_read() {
        let (wire, payloads) = three_frames();
        let mut socket = Chunks::new(&wire, [wire.len()]);
        let mut reader = FrameReader::new();
        let mut payload = Vec::new();
        assert!(!reader.has_frame(), "nothing buffered yet");
        for (i, expected) in payloads.iter().enumerate() {
            assert!(reader.read_frame(&mut socket, &mut payload, 0).unwrap());
            assert_eq!(&payload, expected);
            assert_eq!(socket.reads, 1, "frame {i} came from the first read");
            assert_eq!(reader.has_frame(), i + 1 < payloads.len());
        }
        assert!(!reader.read_frame(&mut socket, &mut payload, 0).unwrap(), "EOF on a boundary is a clean close");
        assert_eq!(socket.reads, 2);
    }

    #[test]
    fn frame_reader_tells_a_clean_close_from_a_torn_frame() {
        let mut wire = Vec::new();
        encode_frame(b"msg", &mut wire);
        let mut payload = Vec::new();
        assert!(!FrameReader::new()
            .read_frame(&mut Chunks::new(&[], []), &mut payload, 0)
            .unwrap());
        for cut in 1..wire.len() {
            let mut reader = FrameReader::new();
            let mut socket = Chunks::new(&wire[..cut], []);
            assert!(
                matches!(reader.read_frame(&mut socket, &mut payload, 0), Err(TransportError::Frame(_))),
                "cut at {cut}"
            );
        }
        // A whole frame, then a torn one.
        let mut torn = wire.clone();
        torn.extend_from_slice(&wire[..5]);
        let mut reader = FrameReader::new();
        let mut socket = Chunks::new(&torn, []);
        assert!(reader.read_frame(&mut socket, &mut payload, 0).unwrap());
        assert!(matches!(reader.read_frame(&mut socket, &mut payload, 0), Err(TransportError::Frame(_))));
    }

    #[test]
    fn frame_reader_refuses_an_oversize_prefix_from_the_header_alone() {
        /// Serves one header, then fails the test if read again.
        struct HeaderOnly(Option<Vec<u8>>);
        impl Read for HeaderOnly {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let header = self.0.take().expect("the reader must not read past a refused header");
                buf[..header.len()].copy_from_slice(&header);
                Ok(header.len())
            }
        }
        let mut header = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        header.extend_from_slice(&[0u8; 4]);
        let mut reader = FrameReader::new();
        let mut payload = Vec::new();
        let refused = reader.read_frame(&mut HeaderOnly(Some(header)), &mut payload, 0);
        assert!(matches!(refused, Err(TransportError::Frame(_))), "{refused:?}");
        assert!(!reader.has_frame());

        // The largest admitted frame still fits the buffer.
        let mut wire = Vec::new();
        encode_frame(&[7u8; MAX_FRAME_LEN as usize], &mut wire);
        let mut socket = Chunks::new(&wire, [3, 1000]);
        assert_eq!(drain(&mut FrameReader::new(), &mut socket), vec![vec![7u8; MAX_FRAME_LEN as usize]]);

        // A CRC mismatch is typed too.
        let mut bad = Vec::new();
        encode_frame(b"attest", &mut bad);
        bad[FRAME_HEADER] ^= 1;
        let mut socket = Chunks::new(&bad, []);
        assert!(matches!(FrameReader::new().read_frame(&mut socket, &mut payload, 0), Err(TransportError::Frame(_))));
    }

    proptest! {
        /// Arbitrary bytes under arbitrary read chunkings end in frames,
        /// a clean close or a typed error, never a panic; framed payloads
        /// come back whole however the reads split them.
        #[test]
        fn frame_reader_survives_any_bytes_and_any_chunking(
            junk in prop::collection::vec(any::<u8>(), 0..96),
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..6),
            sizes in prop::collection::vec(1usize..48, 0..24),
        ) {
            let mut socket = Chunks::new(&junk, sizes.iter().copied());
            let mut reader = FrameReader::new();
            let mut payload = Vec::new();
            for _ in 0..junk.len() + 1 {
                match reader.read_frame(&mut socket, &mut payload, 0) {
                    Ok(true) => prop_assert!(payload.len() <= MAX_FRAME_LEN as usize),
                    Ok(false) | Err(TransportError::Frame(_)) => break,
                    Err(other) => panic!("untyped end {other:?}"),
                }
            }

            let mut wire = Vec::new();
            for p in &payloads {
                encode_frame(p, &mut wire);
            }
            let mut socket = Chunks::new(&wire, sizes.iter().copied());
            prop_assert_eq!(drain(&mut FrameReader::new(), &mut socket), payloads);
        }
    }
}
