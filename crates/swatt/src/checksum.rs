//! The PUFatt checksum: a SWATT/SCUBA-style pseudorandom memory traversal
//! whose compression function is entangled with PUF outputs.
//!
//! This is the *Rust reference implementation*; [`crate::codegen`] emits
//! PE32 assembly computing bit-identical results (cross-checked by tests),
//! so the verifier can run this fast native version while the prover runs
//! the real instruction sequence with real cycle counts.
//!
//! Algorithm (8-lane state, unrolled as in SWATT):
//!
//! ```text
//! x ← r₀;  C[k] ← (r₀ + k + 1) ⊕ x₀       (k = 0..7)
//! repeat rounds/8 times, unrolled over k = 0..7:
//!     x ← x + (x² ∨ 5)                    (T-function)
//!     a ← x ∧ mask;  w ← mem[a]
//!     C[k] ← rotl1(C[k] ⊕ (w + C[k−1 mod 8]))
//! every `puf_interval`-th block:
//!     z ← PUF(x, C[0]), …, PUF-challenges (x, C[k]) for all lanes
//!     C[0] ← C[0] ⊕ z
//! response r = (C[0], …, C[7])
//! ```

use crate::prg::TFunction;

/// Number of checksum lanes (fixed by the unrolled code layout).
pub const STATE_WORDS: usize = 8;

/// The full-carry canary `(0xFFFF_FFFF, 1)`, the last challenge of every
/// PUF query. Adding 1 to all-ones ripples the complete carry chain, so the
/// canary's settling time sits at `T_ALU`. Any clock fast enough to mask a
/// modified checksum violates the canary's setup and corrupts `z`: this is
/// what gives the overclocking defence of §4.2 its teeth for realistic
/// (short-carry) challenges. Masked to the PUF's width it is
/// `pufatt_alupuf::challenge::Challenge::canary`.
pub const CANARY: (u32, u32) = (u32::MAX, 1);

/// Parameters of a checksum computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwattParams {
    /// log2 of the attested region size in words; addresses are masked to
    /// `2^region_bits`.
    pub region_bits: u32,
    /// Total traversal rounds; must be a multiple of 8 (one unrolled block
    /// updates all 8 lanes).
    pub rounds: u32,
    /// PUF entanglement period in blocks: every `puf_interval`-th block of
    /// 8 rounds queries the PUF. 0 disables PUF entanglement (the pure
    /// software-attestation baseline).
    pub puf_interval: u32,
}

impl SwattParams {
    /// Default parameters used by the experiments: 2 Ki-word region, 4×
    /// coverage, PUF query every 32 blocks.
    pub fn default_for_region(region_bits: u32) -> Self {
        let words = 1u32 << region_bits;
        SwattParams { region_bits, rounds: words * 4, puf_interval: 32 }
    }

    /// Number of unrolled blocks.
    pub fn blocks(&self) -> u32 {
        self.rounds / 8
    }

    /// Number of PUF queries the computation performs.
    pub fn puf_queries(&self) -> u32 {
        self.blocks().checked_div(self.puf_interval).unwrap_or(0)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is not a positive multiple of 8 or the region is
    /// unreasonably sized.
    pub fn validate(&self) {
        assert!(
            self.rounds > 0 && self.rounds.is_multiple_of(8),
            "rounds {} must be a positive multiple of 8",
            self.rounds
        );
        assert!((4..=24).contains(&self.region_bits), "region_bits {} out of range", self.region_bits);
    }
}

/// The checksum's view of the PUF: one obfuscated output per query, derived
/// from the 8 per-lane challenges.
///
/// Implementations: the real device pipeline and the verifier's emulator
/// (in the `pufatt` core crate), plus [`NoPuf`] and [`MixPuf`] here.
pub trait RoundPuf {
    /// Queries the PUF with one challenge pair per lane.
    fn query(&mut self, challenges: &[(u32, u32); STATE_WORDS]) -> u32;
}

/// Disables PUF entanglement: the pure software-attestation baseline
/// (`z = 0` never perturbs the state).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPuf;

impl RoundPuf for NoPuf {
    fn query(&mut self, _challenges: &[(u32, u32); STATE_WORDS]) -> u32 {
        0
    }
}

/// A deterministic challenge mixer standing in for a PUF in tests. Computes
/// the same function as `pufatt_pe32::puf_port::MockPufPort`, so CPU-level
/// and reference-level runs can be cross-checked without silicon.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixPuf;

impl RoundPuf for MixPuf {
    fn query(&mut self, challenges: &[(u32, u32); STATE_WORDS]) -> u32 {
        let mut z = 0x9E37_79B9u32;
        for &(a, b) in challenges {
            z = z.rotate_left(5) ^ a.wrapping_add(b.rotate_left(13));
        }
        z
    }
}

/// Result of a checksum computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumResult {
    /// Final lane state — the attestation response `r`.
    pub response: [u32; STATE_WORDS],
    /// Number of PUF queries performed.
    pub puf_queries: u32,
}

/// Computes the PUFatt checksum over `memory`.
///
/// `memory` must cover the attested region (`2^region_bits` words); `r0` is
/// the attestation challenge and `x0` the PUF challenge seed of the Fig. 2
/// protocol (both sent by the verifier). The PUF hook is invoked exactly as
/// the PE32 code does it, so helper-data side effects line up.
///
/// # Panics
///
/// Panics if parameters are inconsistent or `memory` is smaller than the
/// attested region.
pub fn compute<P: RoundPuf>(memory: &[u32], r0: u32, x0: u32, params: &SwattParams, puf: &mut P) -> ChecksumResult {
    params.validate();
    let mask = (1usize << params.region_bits) - 1;
    assert!(memory.len() > mask, "memory ({} words) smaller than attested region ({})", memory.len(), mask + 1);

    let mut x = TFunction::new(r0);
    let mut c = [0u32; STATE_WORDS];
    for (k, lane) in c.iter_mut().enumerate() {
        *lane = r0.wrapping_add(k as u32 + 1) ^ x0;
    }

    let mut puf_queries = 0;
    for block in 1..=params.blocks() {
        for k in 0..STATE_WORDS {
            let xv = x.next();
            let addr = (xv as usize) & mask;
            let w = memory[addr];
            let prev = c[(k + STATE_WORDS - 1) % STATE_WORDS];
            c[k] = (c[k] ^ w.wrapping_add(prev)).rotate_left(1);
        }
        if params.puf_interval != 0 && block % params.puf_interval == 0 {
            let xv = x.state();
            let mut challenges: [(u32, u32); STATE_WORDS] = std::array::from_fn(|k| (xv, c[k]));
            challenges[STATE_WORDS - 1] = CANARY;
            let z = puf.query(&challenges);
            c[0] ^= z;
            puf_queries += 1;
        }
    }
    ChecksumResult { response: c, puf_queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory(words: usize, fill: impl Fn(usize) -> u32) -> Vec<u32> {
        (0..words).map(fill).collect()
    }

    fn params() -> SwattParams {
        SwattParams { region_bits: 8, rounds: 1024, puf_interval: 8 }
    }

    #[test]
    fn deterministic() {
        let mem = memory(256, |i| (i as u32).wrapping_mul(2654435761));
        let a = compute(&mem, 42, 0xA5A5_0F0F, &params(), &mut MixPuf);
        let b = compute(&mem, 42, 0xA5A5_0F0F, &params(), &mut MixPuf);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_sensitivity() {
        let mem = memory(256, |i| i as u32);
        let a = compute(&mem, 1, 0xA5A5_0F0F, &params(), &mut MixPuf);
        let b = compute(&mem, 2, 0xA5A5_0F0F, &params(), &mut MixPuf);
        assert_ne!(a.response, b.response);
    }

    #[test]
    fn single_bit_memory_change_diffuses() {
        let mem = memory(256, |i| i as u32);
        let mut tampered = mem.clone();
        tampered[137] ^= 1;
        let a = compute(&mem, 7, 0xA5A5_0F0F, &params(), &mut NoPuf);
        let b = compute(&tampered, 7, 0xA5A5_0F0F, &params(), &mut NoPuf);
        assert_ne!(a.response, b.response);
        // Diffusion: more than one lane should differ.
        let lanes = a.response.iter().zip(&b.response).filter(|(x, y)| x != y).count();
        assert!(lanes >= 2, "only {lanes} lanes differ");
    }

    #[test]
    fn every_region_word_is_sampled_with_4x_coverage() {
        // With rounds = 4·region the traversal touches the vast majority of
        // words; verify a tampered word at any sampled position changes the
        // checksum for at least 95% of positions.
        let p = SwattParams { region_bits: 6, rounds: 64 * 8, puf_interval: 0 };
        let mem = memory(64, |i| i as u32);
        let base = compute(&mem, 9, 0xA5A5_0F0F, &p, &mut NoPuf);
        let mut missed = 0;
        for pos in 0..64 {
            let mut t = mem.clone();
            t[pos] ^= 0x8000_0000;
            if compute(&t, 9, 0xA5A5_0F0F, &p, &mut NoPuf).response == base.response {
                missed += 1;
            }
        }
        assert!(missed <= 3, "{missed}/64 positions unsampled");
    }

    #[test]
    fn puf_entanglement_changes_response() {
        let mem = memory(256, |i| i as u32);
        let with = compute(&mem, 5, 0xA5A5_0F0F, &params(), &mut MixPuf);
        let without = compute(&mem, 5, 0xA5A5_0F0F, &params(), &mut NoPuf);
        assert_ne!(with.response, without.response);
        assert_eq!(with.puf_queries, params().blocks() / 8);
        assert_eq!(without.puf_queries, with.puf_queries, "NoPuf is still queried, it just returns 0");
    }

    #[test]
    fn puf_interval_zero_disables_queries() {
        let p = SwattParams { puf_interval: 0, ..params() };
        let mem = memory(256, |i| i as u32);
        let r = compute(&mem, 5, 0xA5A5_0F0F, &p, &mut MixPuf);
        assert_eq!(r.puf_queries, 0);
    }

    #[test]
    fn different_pufs_different_responses() {
        // Two different "devices": MixPuf vs a biased variant.
        struct OtherPuf;
        impl RoundPuf for OtherPuf {
            fn query(&mut self, ch: &[(u32, u32); STATE_WORDS]) -> u32 {
                MixPuf.query(ch) ^ 0xFFFF_0000
            }
        }
        let mem = memory(256, |i| i as u32);
        let a = compute(&mem, 5, 0xA5A5_0F0F, &params(), &mut MixPuf);
        let b = compute(&mem, 5, 0xA5A5_0F0F, &params(), &mut OtherPuf);
        assert_ne!(a.response, b.response, "PUF identity must be bound into r");
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_unaligned_rounds() {
        let p = SwattParams { region_bits: 8, rounds: 12, puf_interval: 0 };
        compute(&[0; 256], 0, 0xA5A5_0F0F, &p, &mut NoPuf);
    }

    #[test]
    #[should_panic(expected = "smaller than attested region")]
    fn rejects_short_memory() {
        let p = SwattParams { region_bits: 8, rounds: 8, puf_interval: 0 };
        compute(&[0; 16], 0, 0xA5A5_0F0F, &p, &mut NoPuf);
    }
}
