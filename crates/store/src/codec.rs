//! The one bounded little-endian byte codec every format in the system is
//! written with: WAL records and snapshots here, wire messages in
//! `pufatt-transport`, the attestation request and report in `pufatt`, and
//! the enrollment delay table in `pufatt-alupuf`.
//!
//! A [`Writer`] appends fixed-width little-endian fields to a buffer. A
//! [`Reader`] takes them back off the front of a slice and never reads past
//! its end: a short field is [`CodecError::Truncated`], and
//! [`Reader::done`] refuses leftover bytes as [`CodecError::Trailing`].
//! Each format maps that one error into its own crate's typed error, so a
//! decoder of untrusted bytes has no panic path and no second copy of the
//! bounds checks.

use std::fmt;

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside a field.
    Truncated,
    /// The input held this many bytes past the last field.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One `Writer` method per number type, little-endian.
macro_rules! put {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        #[inline]
        pub fn $t(&mut self, v: $t) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    )*};
}

/// One `Reader` method per number type, little-endian.
macro_rules! get {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.\n\n# Errors\n\n")]
        #[doc = "[`CodecError::Truncated`] if the input ends inside it."]
        #[inline]
        pub fn $t(&mut self) -> Result<$t, CodecError> {
            self.array().map($t::from_le_bytes)
        }
    )*};
}

/// Appends little-endian fields to a byte buffer.
pub struct Writer<'a>(pub &'a mut Vec<u8>);

impl Writer<'_> {
    put!(u8, u16, u32, u64, f64);

    /// A boolean as one byte, 0 or 1.
    #[inline]
    pub fn flag(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }

    /// Bytes as they are, with no length prefix.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
}

/// Takes little-endian fields off the front of a byte slice, bounded by its
/// end.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over all of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `N` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `N` remain.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next `n` bytes, borrowed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` remain.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    get!(u8, u16, u32, u64, f64);

    /// A boolean byte: any nonzero value reads as `true`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at the end of the input.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Bytes not yet read. A decoder bounds a declared element count by
    /// this before it reserves memory for the elements.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Checks that every byte was read.
    ///
    /// # Errors
    ///
    /// [`CodecError::Trailing`] with the count of unread bytes.
    #[inline]
    pub fn done(&self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_little_endian() {
        let mut out = Vec::new();
        let mut w = Writer(&mut out);
        w.u8(0xAB);
        w.u16(0x0102);
        w.u32(0x0304_0506);
        w.u64(0x0708_090A_0B0C_0D0E);
        w.f64(-1.5);
        w.flag(true);
        w.bytes(b"xy");
        assert_eq!(out[..7], [0xAB, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(r.f64(), Ok(-1.5));
        assert_eq!(r.flag(), Ok(true));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.done(), Err(CodecError::Trailing(2)));
        assert_eq!(r.bytes(2), Ok(&b"xy"[..]));
        assert_eq!(r.done(), Ok(()));
    }

    #[test]
    fn short_fields_are_truncated_and_consume_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.bytes(4), Err(CodecError::Truncated));
        assert_eq!(r.bytes(usize::MAX), Err(CodecError::Truncated));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.u16(), Err(CodecError::Truncated));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        assert_eq!(r.done(), Ok(()));
    }
}
