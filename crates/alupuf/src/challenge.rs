//! Challenge and response value types.
//!
//! An ALU PUF challenge is the operand pair of the `add` instruction issued
//! in PUF mode; the response is the word of arbiter decisions, one bit per
//! sum output.

use rand::Rng;
use std::fmt;

/// Mask covering the low `width` bits of a word.
pub(crate) fn width_mask(width: usize) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// An ALU PUF challenge: the two `add` operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Challenge {
    /// Operand A (low `width` bits are significant).
    pub a: u64,
    /// Operand B (low `width` bits are significant).
    pub b: u64,
}

impl Challenge {
    /// Creates a challenge, masking the operands to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64`.
    pub fn new(a: u64, b: u64, width: usize) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of range");
        let m = width_mask(width);
        Challenge { a: a & m, b: b & m }
    }

    /// The full-carry canary `(all ones, 1)`: adding 1 to all-ones ripples
    /// the complete carry chain, so its settling time sits at `T_ALU`.
    /// Attestation fires it as the last challenge of every PUF query, and
    /// the attestation clock is calibrated to accommodate it (PUFatt §4.2,
    /// the overclocking defence).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64`.
    pub fn canary(width: usize) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of range");
        Challenge::new(width_mask(width), 1, width)
    }

    /// Draws a uniformly random challenge of the given width.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, width: usize) -> Self {
        Challenge::new(rng.gen(), rng.gen(), width)
    }

    /// Packs the challenge into a single `2·width`-bit word (`a` in the low
    /// half), the layout used by attestation-side challenge derivation.
    pub fn to_packed(self, width: usize) -> u128 {
        (self.a as u128) | ((self.b as u128) << width)
    }

    /// Unpacks a challenge from the packed layout of [`Challenge::to_packed`].
    pub fn from_packed(packed: u128, width: usize) -> Self {
        let m = width_mask(width) as u128;
        Challenge { a: (packed & m) as u64, b: ((packed >> width) & m) as u64 }
    }
}

impl fmt::Display for Challenge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:#x}, {:#x})", self.a, self.b)
    }
}

/// A raw (pre-error-correction, pre-obfuscation) ALU PUF response: one
/// arbiter bit per sum output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawResponse {
    bits: u64,
    width: usize,
}

impl RawResponse {
    /// Creates a response from the low `width` bits of `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64`.
    pub fn new(bits: u64, width: usize) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of range");
        RawResponse { bits: bits & width_mask(width), width }
    }

    /// The response bits, packed LSB-first.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Response width in bits.
    pub fn width(self) -> usize {
        self.width
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(self, i: usize) -> bool {
        assert!(i < self.width, "bit {i} out of range {}", self.width);
        (self.bits >> i) & 1 == 1
    }

    /// Hamming distance to another response.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn hamming_distance(self, other: RawResponse) -> u32 {
        assert_eq!(self.width, other.width, "response width mismatch");
        (self.bits ^ other.bits).count_ones()
    }

    /// Hamming weight of the response.
    pub fn weight(self) -> u32 {
        self.bits.count_ones()
    }
}

impl fmt::Display for RawResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.bits, width = self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn challenge_masks_operands() {
        let c = Challenge::new(0xFFFF_FFFF, 0x1_0001, 16);
        assert_eq!(c.a, 0xFFFF);
        assert_eq!(c.b, 0x0001);
    }

    #[test]
    fn packed_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for width in [4usize, 16, 32, 64] {
            for _ in 0..50 {
                let c = Challenge::random(&mut rng, width);
                assert_eq!(Challenge::from_packed(c.to_packed(width), width), c);
            }
        }
    }

    #[test]
    fn random_challenges_stay_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..100 {
            let c = Challenge::random(&mut rng, 16);
            assert!(c.a <= 0xFFFF && c.b <= 0xFFFF);
        }
    }

    #[test]
    fn response_bit_access_and_distance() {
        let r1 = RawResponse::new(0b1010, 4);
        let r2 = RawResponse::new(0b0110, 4);
        assert!(r1.bit(1) && r1.bit(3) && !r1.bit(0));
        assert_eq!(r1.hamming_distance(r2), 2);
        assert_eq!(r1.weight(), 2);
    }

    #[test]
    fn display_is_fixed_width_binary() {
        assert_eq!(RawResponse::new(0b101, 6).to_string(), "000101");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn distance_requires_same_width() {
        let _ = RawResponse::new(1, 4).hamming_distance(RawResponse::new(1, 5));
    }
}
