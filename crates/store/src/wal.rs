//! The append-only write-ahead log: CRC32-framed, length-prefixed records.
//!
//! # On-disk format
//!
//! ```text
//! wal.log := MAGIC frames*
//! MAGIC   := "PUFATTW1"                      (8 bytes)
//! frame   := len:u32le  crc:u32le  payload   (len = payload length,
//!                                             crc  = CRC-32/IEEE of payload)
//! ```
//!
//! [`FrameHeader::parse`] is the one parser of that header, with the
//! length bound as its parameter: the WAL's [`MAX_FRAME_LEN`], the
//! snapshot file's single frame, and the 4 KiB socket frames of
//! `pufatt-transport` all go through it.
//!
//! # Recovery
//!
//! [`recover`] walks frames from the front and stops at the first one
//! that fails *any* check — header short, length prefix torn, length
//! implausible, payload truncated, or CRC mismatch. Everything before the
//! stop point is the valid prefix; everything after is an
//! unsynced tail that a crash tore, truncated, or bit-rotted, and is
//! reported (not replayed) so the store can count it and rebuild the log
//! from the valid prefix. A frame is therefore *committed* exactly when
//! its bytes are fully on stable storage — the property the crash-matrix
//! tests enumerate.

use crate::codec::{Reader, Writer};
use crate::vfs::Vfs;
use crate::StoreError;
use std::sync::Arc;

/// Identifies a WAL file (and its format revision).
pub const WAL_MAGIC: [u8; 8] = *b"PUFATTW1";

/// Upper bound on one frame's payload; anything larger in a length prefix
/// is corruption, not a record.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Bytes of the `len + crc` frame header.
pub const FRAME_HEADER: usize = 8;

// ------------------------------------------------------------------ CRC32

/// CRC-32/IEEE (the zlib polynomial), table-driven, std-only.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    }
    const TABLE: [u32; 256] = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------------ codec

/// Encodes one frame (length, CRC, payload) into `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let mut w = Writer(out);
    w.u32(payload.len() as u32);
    w.u32(crc32(payload));
    w.bytes(payload);
}

/// A parsed frame header: the payload length and its CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload bytes that follow the header.
    pub len: usize,
    /// CRC-32/IEEE the payload must match.
    pub crc: u32,
}

impl FrameHeader {
    /// Parses the header at the front of `bytes`, refusing a length prefix
    /// above `max_len` before anything is read or reserved for the
    /// payload. The one parser of the layout, for the WAL, the snapshot
    /// file and the wire.
    ///
    /// # Errors
    ///
    /// Why the bytes hold no header: torn, or a length above `max_len`.
    pub fn parse(bytes: &[u8], max_len: u32) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let (Ok(len), Ok(crc)) = (r.u32(), r.u32()) else {
            return Err(format!("header torn: {} of {FRAME_HEADER} bytes", bytes.len()));
        };
        if len > max_len {
            return Err(format!("length prefix {len} exceeds {max_len}"));
        }
        Ok(FrameHeader { len: len as usize, crc })
    }

    /// Checks `payload` against the header's CRC.
    ///
    /// # Errors
    ///
    /// A CRC mismatch.
    pub fn check(&self, payload: &[u8]) -> Result<(), String> {
        if crc32(payload) == self.crc {
            Ok(())
        } else {
            Err("payload crc mismatch".into())
        }
    }
}

/// Splits one checksum-valid frame, with a payload of at most `max_len`
/// bytes, off the front of `bytes`. Returns the payload and the total
/// frame length.
///
/// # Errors
///
/// Why the bytes hold no such frame.
pub fn split_frame(bytes: &[u8], max_len: u32) -> Result<(&[u8], usize), String> {
    let header = FrameHeader::parse(bytes, max_len)?;
    let end = FRAME_HEADER.saturating_add(header.len);
    let payload = bytes
        .get(FRAME_HEADER..end)
        .ok_or_else(|| format!("payload truncated: {} of {end} bytes", bytes.len()))?;
    header.check(payload)?;
    Ok((payload, end))
}

/// Attempts to decode one frame at the front of `bytes`. Returns the
/// payload and the total frame length, or `None` if the bytes do not hold
/// a complete, checksum-valid frame (torn tail — stop here).
pub fn decode_frame(bytes: &[u8]) -> Option<(&[u8], usize)> {
    split_frame(bytes, MAX_FRAME_LEN).ok()
}

// --------------------------------------------------------------- recovery

/// Streaming frame cursor over a WAL image: yields checksum-valid
/// payloads in append order without materialising them.
///
/// Recovery over a sharded store opens many logs at once; iterating
/// borrowed payloads keeps peak memory at one image per shard instead of
/// one image plus every decoded record. After the iterator is exhausted,
/// [`FrameIter::is_torn`] and [`FrameIter::valid_bytes`] report what the
/// scan concluded about the tail.
pub struct FrameIter<'a> {
    bytes: &'a [u8],
    offset: usize,
    stub_torn: bool,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (payload, frame_len) = decode_frame(&self.bytes[self.offset..])?;
        self.offset += frame_len;
        Some(payload)
    }
}

impl FrameIter<'_> {
    /// Whether bytes remain past the last valid frame (or the file was a
    /// torn stub). Meaningful once iteration has stopped.
    pub fn is_torn(&self) -> bool {
        self.stub_torn || self.offset < self.bytes.len()
    }

    /// Bytes of the valid prefix scanned so far (magic + whole frames).
    pub fn valid_bytes(&self) -> u64 {
        self.offset as u64
    }
}

/// Opens a streaming scan over a WAL image. Header semantics match
/// [`recover`]: a missing or too-short file scans as empty (torn if any
/// bytes existed), a bare corrupted header scans as empty-and-torn, and a
/// wrong magic on a log that plainly held frames is refused as corruption.
pub fn frames(image: Option<&[u8]>) -> Result<FrameIter<'_>, StoreError> {
    let Some(bytes) = image else {
        return Ok(FrameIter { bytes: b"", offset: 0, stub_torn: false });
    };
    if bytes.len() < WAL_MAGIC.len() {
        // Creation itself was torn; nothing was ever committed.
        return Ok(FrameIter { bytes: b"", offset: 0, stub_torn: !bytes.is_empty() });
    }
    if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        if bytes.len() == WAL_MAGIC.len() {
            // A bare, corrupted header: the log died before its creation
            // sync, so no frame can have committed.
            return Ok(FrameIter { bytes: b"", offset: 0, stub_torn: true });
        }
        return Err(StoreError::Corrupt("wal header magic mismatch on a non-empty log".into()));
    }
    Ok(FrameIter { bytes, offset: WAL_MAGIC.len(), stub_torn: false })
}

/// What a WAL scan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredWal {
    /// Checksum-valid payloads, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Bytes of the valid prefix (magic + whole frames).
    pub valid_bytes: u64,
    /// Whether bytes remained past the last valid frame — a tail some
    /// crash tore, truncated, or corrupted.
    pub torn_tail: bool,
}

/// Scans a WAL image and returns its valid prefix. A missing file, or one
/// too short to even hold the magic, recovers as empty (with the torn
/// flag set if any bytes existed). A full-length header with the wrong
/// magic on a log that plainly held frames is refused as corruption — the
/// fail-safe direction for an established log is to stop, not to forget.
pub fn recover(image: Option<&[u8]>) -> Result<RecoveredWal, StoreError> {
    let mut iter = frames(image)?;
    let payloads: Vec<Vec<u8>> = iter.by_ref().map(<[u8]>::to_vec).collect();
    Ok(RecoveredWal {
        payloads,
        valid_bytes: iter.valid_bytes(),
        torn_tail: iter.is_torn(),
    })
}

// ------------------------------------------------------------------- Wal

/// An open WAL: append frames, sync when a batch must commit.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: String,
    bytes: u64,
    scratch: Vec<u8>,
}

impl Wal {
    /// Creates (or truncates to) an empty log: magic only, synced — after
    /// this returns, recovery of the file yields zero frames.
    pub fn create(vfs: Arc<dyn Vfs>, path: &str) -> Result<Self, StoreError> {
        vfs.truncate(path, &WAL_MAGIC)?;
        vfs.sync(path)?;
        Ok(Wal {
            vfs,
            path: path.to_string(),
            bytes: WAL_MAGIC.len() as u64,
            scratch: Vec::new(),
        })
    }

    /// Re-opens a log whose valid prefix spans `valid_bytes` (as reported
    /// by [`recover`]) for further appends. The caller must have rebuilt
    /// the file to exactly that prefix first.
    pub fn opened(vfs: Arc<dyn Vfs>, path: &str, valid_bytes: u64) -> Self {
        Wal {
            vfs,
            path: path.to_string(),
            bytes: valid_bytes,
            scratch: Vec::new(),
        }
    }

    /// Appends one framed payload (volatile until [`Wal::sync`]).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_frame(payload, &mut self.scratch);
        self.vfs.append(&self.path, &self.scratch)?;
        self.bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Flushes appended frames to stable storage; they are committed when
    /// this returns.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.vfs.sync(&self.path)
    }

    /// Bytes written to the log (magic + frames), including unsynced ones.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::vfs::SimVfs;

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = WAL_MAGIC.to_vec();
        for p in payloads {
            encode_frame(p, &mut out);
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn roundtrip_and_full_recovery() {
        let img = image(&[b"alpha", b"", b"gamma-delta"]);
        let rec = recover(Some(&img)).unwrap();
        assert_eq!(rec.payloads, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-delta".to_vec()]);
        assert_eq!(rec.valid_bytes, img.len() as u64);
        assert!(!rec.torn_tail);
    }

    #[test]
    fn truncation_at_every_byte_recovers_a_prefix() {
        let payloads: &[&[u8]] = &[b"one", b"two-two", b"three"];
        let img = image(payloads);
        for cut in 0..=img.len() {
            let rec = recover(Some(&img[..cut])).unwrap();
            // The recovered payloads are exactly the frames wholly inside
            // the cut — a strict prefix of the append order.
            let full: Vec<Vec<u8>> = payloads.iter().map(|p| p.to_vec()).collect();
            assert!(rec.payloads.len() <= full.len());
            assert_eq!(rec.payloads[..], full[..rec.payloads.len()], "cut at {cut}");
            assert_eq!(rec.torn_tail, rec.valid_bytes < cut as u64, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_at_every_byte_never_extends_the_prefix() {
        let payloads: &[&[u8]] = &[b"one", b"two-two", b"three"];
        let img = image(payloads);
        let full: Vec<Vec<u8>> = payloads.iter().map(|p| p.to_vec()).collect();
        for pos in 0..img.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = img.clone();
                bad[pos] ^= bit;
                match recover(Some(&bad)) {
                    Ok(rec) => {
                        // Flips inside frame k invalidate it; recovery may
                        // keep at most the frames before the damage.
                        assert!(rec.payloads.len() <= full.len());
                        for (i, p) in rec.payloads.iter().enumerate() {
                            if pos >= WAL_MAGIC.len() {
                                assert_eq!(p, &full[i], "flip at {pos} forged frame {i}");
                            }
                        }
                    }
                    Err(StoreError::Corrupt(_)) => assert!(pos < WAL_MAGIC.len(), "magic flip only"),
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
    }

    #[test]
    fn missing_and_stub_files_recover_empty() {
        assert_eq!(recover(None).unwrap().payloads.len(), 0);
        let short = recover(Some(b"PUF")).unwrap();
        assert!(short.payloads.is_empty());
        assert!(short.torn_tail);
        let flipped_magic = recover(Some(b"pUFATTW1")).unwrap();
        assert!(flipped_magic.payloads.is_empty());
        assert!(flipped_magic.torn_tail);
    }

    #[test]
    fn implausible_length_stops_the_scan() {
        let mut img = image(&[b"good"]);
        img.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        img.extend_from_slice(&[0u8; 12]);
        let rec = recover(Some(&img)).unwrap();
        assert_eq!(rec.payloads, vec![b"good".to_vec()]);
        assert!(rec.torn_tail);
    }

    #[test]
    fn frame_iter_streams_without_copying_and_reports_the_tail() {
        let mut img = image(&[b"one", b"two-two"]);
        let valid = img.len() as u64;
        img.extend_from_slice(b"torn-tail-bytes");
        let mut iter = frames(Some(&img)).unwrap();
        assert_eq!(iter.next(), Some(b"one".as_slice()));
        assert_eq!(iter.next(), Some(b"two-two".as_slice()));
        assert_eq!(iter.next(), None);
        assert!(iter.is_torn());
        assert_eq!(iter.valid_bytes(), valid);

        let clean = image(&[b"solo"]);
        let mut iter = frames(Some(&clean)).unwrap();
        assert_eq!(iter.by_ref().count(), 1);
        assert!(!iter.is_torn());
        assert_eq!(iter.valid_bytes(), clean.len() as u64);

        // Missing / stub files mirror `recover`'s header semantics.
        assert!(!frames(None).unwrap().is_torn());
        assert!(frames(Some(b"PUF")).unwrap().is_torn());
        assert!(frames(Some(b"pUFATTW1")).unwrap().is_torn());
        assert!(frames(Some(b"pUFATTW1-and-more")).is_err());
    }

    #[test]
    fn wal_appends_through_a_vfs() {
        let vfs = SimVfs::new();
        let mut wal = Wal::create(Arc::new(vfs.clone()), "wal.log").unwrap();
        wal.append(b"r1").unwrap();
        wal.append(b"r2").unwrap();
        wal.sync().unwrap();
        let img = vfs.read("wal.log").unwrap().unwrap();
        assert_eq!(img.len() as u64, wal.bytes());
        let rec = recover(Some(&img)).unwrap();
        assert_eq!(rec.payloads, vec![b"r1".to_vec(), b"r2".to_vec()]);
    }
}
