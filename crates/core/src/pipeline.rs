//! `PUF()` — the paper's composition of raw ALU PUF, error correction and
//! obfuscation.
//!
//! Prover side ([`PufPipeline::prove`]): for each of 8 noisy raw responses
//! `y'ⱼ`, emit the helper syndrome `hⱼ = H·y'ⱼ`; feed the `y'ⱼ` themselves
//! into the obfuscation network to get `z`.
//!
//! Verifier side ([`PufPipeline::conclude`]): emulate the reference
//! responses `yⱼ`, reconstruct each `y'ⱼ` from `(yⱼ, hⱼ)` via the reverse
//! fuzzy extractor, and run the same obfuscation network. When every
//! reconstruction succeeds (probability 1 − FNR, §4.1) both sides hold the
//! identical `z`.
//!
//! Note the ordering subtlety the paper calls out: obfuscation happens
//! *after* error correction in the sense that both parties obfuscate the
//! same agreed value `y'` — a single uncorrected bit error before the XOR
//! network would avalanche into `z`.

use crate::error::PufattError;
use crate::obfuscate::{obfuscate, RESPONSES_PER_OUTPUT};
use pufatt_alupuf::challenge::RawResponse;
use pufatt_ecc::gf2::BitVec;
use pufatt_ecc::rm::ReedMuller1;
use pufatt_ecc::{Decoder, HelperData, ReverseFuzzyExtractor};
use std::sync::{Arc, OnceLock};

/// Seed of the burst-scattering interleaver permutation.
///
/// Chosen by exhaustive search: under this permutation every *contiguous*
/// error burst of weight 8..=16, at every one of the 32 wrapping start
/// positions, lands at Hamming distance ≥ 8 from every RM(1,5) codeword,
/// so the verifier's bounded-distance rule always rejects it (pinned by
/// `contiguous_bursts_beyond_t_are_always_rejected`). Without the
/// interleaver nearly every weight-9..12 burst sits *inside* the support
/// of some weight-16 codeword and decodes to a neighbouring word with
/// ≤ 7 "corrections" — see the failure-mode atlas in DESIGN.md §9.
const INTERLEAVER_SEED: u64 = 7;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed bit permutation for a response width: a splitmix64-driven
/// Fisher-Yates shuffle. RM(1,m) is invariant under *affine* permutations
/// of the bit index (bit reversal, rotation, index XOR all map codewords
/// to codewords), so the shuffle must be — and a random shuffle virtually
/// always is — non-affine.
fn interleaver(width: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..width).collect();
    let mut state = INTERLEAVER_SEED;
    for i in (1..width).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Device-side result of one `pstart … pend` session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProveOutput {
    /// The obfuscated output `z` (low `width` bits).
    pub z: u64,
    /// One packed helper syndrome per raw response.
    pub helpers: [u32; RESPONSES_PER_OUTPUT],
}

/// The post-processing pipeline for one response width.
///
/// Between the raw PUF response and the code domain sits a fixed,
/// public bit interleaver (in hardware: wiring in front of the syndrome
/// generator, zero gates). Physically-plausible faults — carry-chain
/// setup violations under overclocking, latch glitches — corrupt
/// *contiguous* bit runs, and contiguous bursts are exactly the shape
/// that aliases onto RM(1,5) codewords within the `t = 7` bound. The
/// interleaver scatters them into random-position patterns, which never
/// alias (a weight-`w ≥ 8` scattered error sits ≥ 8 from every
/// codeword under the pinned permutation). The interleaver lives
/// entirely inside [`prove`](PufPipeline::prove) /
/// [`conclude`](PufPipeline::conclude): helper words are syndromes of
/// the *interleaved* response, but the reconstructed value handed to
/// the obfuscation network is back in raw response order.
#[derive(Debug, Clone)]
pub struct PufPipeline {
    width: usize,
    /// The code and interleaver of this width: built once per process and
    /// shared by every pipeline of the width, so a clone costs one
    /// reference count.
    tables: Arc<WidthTables>,
}

/// The immutable per-width part of a [`PufPipeline`].
#[derive(Debug)]
struct WidthTables {
    fe: ReverseFuzzyExtractor<ReedMuller1>,
    /// `interleave[src] = dst`: raw response bit → code-domain bit.
    interleave: Vec<usize>,
    /// Inverse permutation: code-domain bit → raw response bit.
    deinterleave: Vec<usize>,
}

impl WidthTables {
    fn new(width: usize) -> Self {
        let interleave = interleaver(width);
        let mut deinterleave = vec![0usize; width];
        for (src, &dst) in interleave.iter().enumerate() {
            deinterleave[dst] = src;
        }
        WidthTables {
            fe: ReverseFuzzyExtractor::new(ReedMuller1::new(width.trailing_zeros())),
            interleave,
            deinterleave,
        }
    }
}

impl PufPipeline {
    /// Builds the pipeline for a response width (must be a power of two in
    /// `4..=32`; the paper uses 32 in simulation, 16 on FPGA). The code of
    /// each width is built on first use and shared afterwards.
    ///
    /// # Errors
    ///
    /// [`PufattError::UnsupportedWidth`] if no RM(1,m) code of that length
    /// exists or its helper data would not fit the 32-bit helper words.
    pub fn for_width(width: usize) -> Result<Self, PufattError> {
        let ok = width.is_power_of_two() && (4..=32).contains(&width);
        if !ok {
            return Err(PufattError::UnsupportedWidth { width });
        }
        // One slot per supported width, 2^2 through 2^5.
        static TABLES: [OnceLock<Arc<WidthTables>>; 4] = [const { OnceLock::new() }; 4];
        let slot = &TABLES[width.trailing_zeros() as usize - 2];
        let tables = slot.get_or_init(|| Arc::new(WidthTables::new(width))).clone();
        Ok(PufPipeline { width, tables })
    }

    /// The paper's simulated configuration: 32-bit responses with
    /// BCH\[32,6,16\].
    #[allow(clippy::expect_used)]
    pub fn paper_32bit() -> Self {
        PufPipeline::for_width(32).expect("32 is a supported width") // analyze: allow(panic: 32 is in the supported set)
    }

    /// Response width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Helper bits per raw response (`n − k`; 26 for the paper's code).
    pub fn helper_bits(&self) -> usize {
        self.tables.fe.decoder().code().syndrome_bits()
    }

    fn permute_word(map: &[usize], word: u64) -> u64 {
        let mut out = 0u64;
        for (src, &dst) in map.iter().enumerate() {
            out |= (word >> src & 1) << dst;
        }
        out
    }

    /// The raw response mapped into the code domain.
    fn to_code_domain(&self, r: RawResponse) -> BitVec {
        BitVec::from_word(Self::permute_word(&self.tables.interleave, r.bits()), self.width)
    }

    /// Prover side: helper syndromes + obfuscated output from 8 noisy raw
    /// responses.
    ///
    /// # Panics
    ///
    /// Panics if a response width disagrees with the pipeline width.
    #[allow(clippy::expect_used)]
    pub fn prove(&self, raw: &[RawResponse; RESPONSES_PER_OUTPUT]) -> ProveOutput {
        let mut helpers = [0u32; RESPONSES_PER_OUTPUT];
        let mut ys = [0u64; RESPONSES_PER_OUTPUT];
        for (j, &r) in raw.iter().enumerate() {
            assert_eq!(r.width(), self.width, "response width mismatch");
            // analyze: allow(panic: width equality asserted one line up)
            let h: HelperData = self.tables.fe.generate(&self.to_code_domain(r)).expect("width checked");
            helpers[j] = h.0.as_word() as u32;
            ys[j] = r.bits();
        }
        ProveOutput { z: obfuscate(&ys, self.width), helpers }
    }

    /// Verifier side: reconstructs the prover's raw responses from emulated
    /// references + helper data and recomputes `z`.
    ///
    /// # Errors
    ///
    /// [`PufattError::ReconstructionFailed`] when a helper syndrome cannot
    /// be decoded against its reference, and
    /// [`PufattError::OutOfTolerance`] when it decodes only by correcting
    /// more than `t` bit errors. The underlying maximum-likelihood decoder
    /// would happily hand back heavier patterns (a weight-9 error is
    /// usually still its coset's leader), but the paper's BCH decoder is
    /// bounded-distance and the security argument leans on that: the
    /// verifier must treat any correction beyond `t` as a failure, or
    /// excess noise and overclock-corrupted responses survive on lucky
    /// decodes.
    pub fn conclude(
        &self,
        references: &[RawResponse; RESPONSES_PER_OUTPUT],
        helpers: &[u32; RESPONSES_PER_OUTPUT],
    ) -> Result<u64, PufattError> {
        let bound = self.tables.fe.decoder().guaranteed_correction();
        let mut ys = [0u64; RESPONSES_PER_OUTPUT];
        for (j, (&r, &h)) in references.iter().zip(helpers).enumerate() {
            assert_eq!(r.width(), self.width, "reference width mismatch");
            let helper = HelperData(BitVec::from_word(h as u64, self.helper_bits()));
            let rec = self
                .tables
                .fe
                .reproduce(&self.to_code_domain(r), &helper)
                .map_err(|_| PufattError::ReconstructionFailed { index: j })?;
            if rec.corrected_errors > bound {
                return Err(PufattError::OutOfTolerance { index: j, corrected: rec.corrected_errors, bound });
            }
            ys[j] = Self::permute_word(&self.tables.deinterleave, rec.response.as_word());
        }
        Ok(obfuscate(&ys, self.width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn noisy_copy(r: RawResponse, flips: &[usize]) -> RawResponse {
        let mut bits = r.bits();
        for &f in flips {
            bits ^= 1 << f;
        }
        RawResponse::new(bits, r.width())
    }

    #[test]
    fn widths() {
        assert!(PufPipeline::for_width(32).is_ok());
        assert!(PufPipeline::for_width(16).is_ok());
        assert!(PufPipeline::for_width(4).is_ok());
        assert!(matches!(PufPipeline::for_width(12), Err(PufattError::UnsupportedWidth { width: 12 })));
        assert!(matches!(PufPipeline::for_width(64), Err(PufattError::UnsupportedWidth { width: 64 })));
        assert_eq!(PufPipeline::paper_32bit().helper_bits(), 26);
    }

    #[test]
    fn noise_free_round_trip() {
        let p = PufPipeline::paper_32bit();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let raw: [RawResponse; 8] = std::array::from_fn(|_| RawResponse::new(rng.gen::<u32>() as u64, 32));
        let out = p.prove(&raw);
        let z = p.conclude(&raw, &out.helpers).unwrap();
        assert_eq!(z, out.z);
    }

    #[test]
    fn survives_up_to_7_errors_per_response() {
        let p = PufPipeline::paper_32bit();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            // The *references* are the emulator's clean values; the device's
            // noisy responses carry up to 7 flips each.
            let refs: [RawResponse; 8] = std::array::from_fn(|_| RawResponse::new(rng.gen::<u32>() as u64, 32));
            let noisy: [RawResponse; 8] = std::array::from_fn(|j| {
                let k = rng.gen_range(0..=7);
                let mut flips: Vec<usize> = (0..32).collect();
                for i in 0..k {
                    let pick = rng.gen_range(i..32);
                    flips.swap(i, pick);
                }
                noisy_copy(refs[j], &flips[..k])
            });
            let out = p.prove(&noisy);
            let z = p.conclude(&refs, &out.helpers).unwrap();
            assert_eq!(z, out.z, "verifier must agree with device despite noise");
        }
    }

    #[test]
    fn wrong_device_is_rejected_as_out_of_tolerance() {
        // Structural observation (documented in DESIGN.md): ML decoding
        // against a wrong reference reconstructs a word in the *same coset*
        // as the prover's response, i.e. off by an RM(1,5) codeword — and
        // before the bounded-distance check, ~1/4 of single-z forgeries
        // slipped through the obfuscation fold. The t-bound closes that:
        // a wrong-device decode needs ≤ 7 corrections on *all 8* responses
        // (p ≈ 0.067⁸ ≈ 4·10⁻¹⁰), so impersonation now fails essentially
        // always, and fails *typed*.
        let p = PufPipeline::paper_32bit();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let trials = 400;
        let mut out_of_tolerance = 0;
        for _ in 0..trials {
            let device: [RawResponse; 8] = std::array::from_fn(|_| RawResponse::new(rng.gen::<u32>() as u64, 32));
            let imposter: [RawResponse; 8] = std::array::from_fn(|_| RawResponse::new(rng.gen::<u32>() as u64, 32));
            let out = p.prove(&device);
            match p.conclude(&imposter, &out.helpers) {
                Ok(z) => assert_ne!(z, out.z, "imposter must never land the right z"),
                Err(PufattError::OutOfTolerance { corrected, bound, .. }) => {
                    assert!(corrected > bound);
                    out_of_tolerance += 1;
                }
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        }
        assert!(
            out_of_tolerance > trials * 9 / 10,
            "wrong-reference decodes should overwhelmingly exceed t: {out_of_tolerance}/{trials}"
        );
    }

    #[test]
    fn contiguous_bursts_beyond_t_are_always_rejected() {
        // The reason the interleaver exists. Without it a contiguous burst
        // of weight 9..=12 lies (for most start positions) entirely inside
        // the support of a weight-16 RM(1,5) codeword; ML decode then lands
        // on reference ⊕ codeword with 16 − w ≤ 7 "corrections", sails past
        // the bounded-distance check with the WRONG word, and the XOR
        // obfuscation fold can collapse the codeword difference so `z`
        // still matches — a silent accept of a corrupted response. The
        // pinned permutation scatters every such burst to distance ≥ 8 from
        // every codeword, so every combination below must fail typed.
        let p = PufPipeline::paper_32bit();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for weight in 8u32..=16 {
            for start in 0..32u32 {
                let burst: u64 = (0..weight).fold(0u64, |acc, k| acc | 1 << ((start + k) % 32));
                let device: [RawResponse; 8] = std::array::from_fn(|_| RawResponse::new(rng.gen::<u32>() as u64, 32));
                let refs: [RawResponse; 8] = std::array::from_fn(|j| RawResponse::new(device[j].bits() ^ burst, 32));
                let out = p.prove(&device);
                let err = p.conclude(&refs, &out.helpers);
                assert!(
                    matches!(
                        err,
                        Err(PufattError::ReconstructionFailed { .. }) | Err(PufattError::OutOfTolerance { .. })
                    ),
                    "weight-{weight} burst at bit {start} must be rejected, got {err:?}"
                );
            }
        }
    }

    #[test]
    fn interleaver_is_a_permutation_and_non_affine() {
        // Sanity on the fixed wiring: it must be a bijection, and it must
        // NOT be an affine map of the 5-bit index space — RM(1,5) is
        // invariant under affine index permutations, which would make the
        // interleaver a no-op against burst aliasing. An affine map sends
        // index 0 to some `b` and satisfies π(i) = A·i ⊕ b with A linear,
        // i.e. π(i ⊕ j) ⊕ b = (π(i) ⊕ b) ⊕ (π(j) ⊕ b) for all i, j.
        let perm = interleaver(32);
        let mut seen = [false; 32];
        for &d in &perm {
            assert!(!seen[d], "duplicate target bit {d}");
            seen[d] = true;
        }
        let b = perm[0];
        let linear_part: Vec<usize> = perm.iter().map(|&d| d ^ b).collect();
        let affine = (0..32usize).all(|i| (0..32usize).all(|j| linear_part[i ^ j] == linear_part[i] ^ linear_part[j]));
        assert!(!affine, "interleaver must not be affine over the index space");
    }

    #[test]
    fn helper_words_fit_26_bits() {
        let p = PufPipeline::paper_32bit();
        let raw: [RawResponse; 8] = std::array::from_fn(|j| RawResponse::new(0xFFFF_FFFF >> j, 32));
        let out = p.prove(&raw);
        assert!(out.helpers.iter().all(|&h| h < (1 << 26)));
    }

    #[test]
    fn sixteen_bit_fpga_pipeline() {
        let p = PufPipeline::for_width(16).unwrap();
        assert_eq!(p.helper_bits(), 11, "[16,5] code has 11 syndrome bits");
        let raw: [RawResponse; 8] = std::array::from_fn(|j| RawResponse::new(0x1234 ^ j as u64, 16));
        let out = p.prove(&raw);
        let z = p.conclude(&raw, &out.helpers).unwrap();
        assert_eq!(z, out.z);
        assert!(z <= 0xFFFF);
    }
}
