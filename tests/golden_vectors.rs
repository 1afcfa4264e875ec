//! Golden-vector regression tests for the simulation engine.
//!
//! The exact response bits of a fixed (design, chip, challenge, noise-seed)
//! tuple are pinned here. Any change to the event-driven simulator, the
//! delay model, the arbiter noise streams or the batch scheduling that
//! alters observable behaviour trips these tests — refactors of the hot
//! path (scratch reuse, CSR sharing, parallel batching) must reproduce
//! these words bit for bit. Three full prover reports of one enrolled
//! device are pinned too, so the device's own query path (grouped
//! simulation, vote and fault noise order, helper data) cannot drift.

use pufatt::enroll::enroll;
use pufatt::protocol::{provision, puf_limited_clock, AttestationRequest, Channel};
use pufatt_alupuf::challenge::Challenge;
use pufatt_alupuf::device::{AluPufConfig, AluPufDesign, PufChip, PufInstance};
use pufatt_alupuf::emulate::PufEmulator;
use pufatt_silicon::env::Environment;
use pufatt_silicon::variation::ChipSampler;
use pufatt_swatt::checksum::SwattParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CHIP_SEED: u64 = 0x601D;
const CHALLENGE_SEED: u64 = 0x1CE;
const NOISE_SEED: u64 = 0xBEEF;

/// Device responses for the fixed tuple, one 32-bit word per challenge.
const GOLDEN_DEVICE: [u64; 8] = [
    0x93680be8, 0x8b2c19ec, 0x83ecfbe9, 0x836c1ffc, 0x9378bf7e, 0x836c8fe2, 0x83fc9bea, 0x93ec3bee,
];

/// Noise-free emulator responses for the same tuple.
const GOLDEN_EMULATOR: [u64; 8] = [
    0x83e81fe8, 0x8bac1be8, 0x83ecbbe8, 0x83e89bf8, 0x93e8bffc, 0x832c9fe2, 0x93fc1bea, 0x93ec3bea,
];

fn fixture() -> (AluPufDesign, PufChip, Vec<Challenge>) {
    let design = AluPufDesign::new(AluPufConfig::paper_32bit());
    let mut rng = ChaCha8Rng::seed_from_u64(CHIP_SEED);
    let chip = design.fabricate(&ChipSampler::new(), &mut rng);
    let mut chrng = ChaCha8Rng::seed_from_u64(CHALLENGE_SEED);
    let challenges = (0..8).map(|_| Challenge::random(&mut chrng, 32)).collect();
    (design, chip, challenges)
}

#[test]
fn device_batch_reproduces_golden_bits() {
    let (design, chip, challenges) = fixture();
    let inst = PufInstance::new(&design, &chip, Environment::nominal());
    let got = inst.evaluate_batch(&challenges, NOISE_SEED, 1);
    let bits: Vec<u64> = got.iter().map(|r| r.bits()).collect();
    assert_eq!(bits, GOLDEN_DEVICE, "device golden vectors drifted");
}

#[test]
fn emulator_batch_reproduces_golden_bits() {
    let (design, chip, challenges) = fixture();
    let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
    let bits: Vec<u64> = emu.emulate_batch(&challenges, 1).iter().map(|r| r.bits()).collect();
    assert_eq!(bits, GOLDEN_EMULATOR, "emulator golden vectors drifted");
}

#[test]
fn golden_bits_are_thread_count_invariant() {
    let (design, chip, challenges) = fixture();
    let inst = PufInstance::new(&design, &chip, Environment::nominal());
    let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
    for threads in [1, 4, 8] {
        let dev: Vec<u64> = inst
            .evaluate_batch(&challenges, NOISE_SEED, threads)
            .iter()
            .map(|r| r.bits())
            .collect();
        assert_eq!(dev, GOLDEN_DEVICE, "device batch diverged at {threads} threads");
        let emu_bits: Vec<u64> = emu.emulate_batch(&challenges, threads).iter().map(|r| r.bits()).collect();
        assert_eq!(emu_bits, GOLDEN_EMULATOR, "emulator batch diverged at {threads} threads");
    }
}

#[test]
fn device_and_emulator_agree_modulo_arbiter_noise() {
    // The emulator shares the device's delay table; they may differ only on
    // metastable bits flipped by the device's arbiter noise.
    let width = 32u32;
    let mut noisy_bits = 0u32;
    for (d, e) in GOLDEN_DEVICE.iter().zip(&GOLDEN_EMULATOR) {
        noisy_bits += (d ^ e).count_ones();
    }
    let agreement = 1.0 - f64::from(noisy_bits) / f64::from(width * 8);
    assert!(agreement > 0.80, "device/emulator agreement {agreement}");

    // And the pinned vectors still reflect live behaviour, not stale data:
    // fresh evaluations must land within the same noise envelope.
    let (design, chip, challenges) = fixture();
    let inst = PufInstance::new(&design, &chip, Environment::nominal());
    let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let live = pufatt_alupuf::emulate::emulation_agreement(&inst, &emu, &challenges, &mut rng);
    assert!(live > 0.80, "live device/emulator agreement {live}");
}

/// One pinned prover attestation: the request, the report it produced and
/// the device's noise cursor (`DevicePuf::noise_state`) right after it.
struct GoldenReport {
    request: AttestationRequest,
    response: [u32; 8],
    helpers: [u32; 32],
    cycles: u64,
    noise_state: (u64, u64),
}

/// Fabrication seed of the pinned prover device.
const PROVER_FAB_SEED: u64 = 0x5EC0;
/// Noise seed of the pinned prover device's arbiter-noise stream.
const PROVER_NOISE_SEED: u64 = 0xA77E;

/// Three consecutive attestations of one enrolled `paper_32bit` device
/// (after its provisioning golden run): 1024 rounds at PUF interval 32 is
/// four `PUF()` queries, i.e. 32 voted, clock-coupled raw evaluations per
/// report.
const GOLDEN_PROVER: [GoldenReport; 3] = [
    GoldenReport {
        request: AttestationRequest { x0: 0x00000001, r0: 0x00000002 },
        response: [
            0x8ad6c7c8, 0x4f10428b, 0xbfeb014a, 0x7024ea77, 0x52adf2b3, 0xb21ae6ee, 0x65010db0, 0x40b37d52,
        ],
        helpers: [
            0x3c1b4c0, 0x3fdcb46, 0x3c1f580, 0x1370480, 0x3c1f4c8, 0x3c3f4c0, 0x36de83f, 0x26c6c3c, 0x13d0cc8,
            0x38bfc88, 0x3cbfcc2, 0x0378cc8, 0x3c3fdc0, 0x3c3bc88, 0x3c1fcc8, 0x26c6c3c, 0x30d32ad, 0x3c3f480,
            0x3c3f4c0, 0x2c1fdc8, 0x0b0c3a5, 0x03c0dc0, 0x3c1f4c8, 0x26c6c3e, 0x03e0dc8, 0x3c17cc0, 0x03c0880,
            0x17e4c88, 0x389f480, 0x3c3f4c8, 0x3c1fcc0, 0x26c6c3c,
        ],
        cycles: 14306,
        noise_state: (61440, 0),
    },
    GoldenReport {
        request: AttestationRequest { x0: 0xdeadbeef, r0: 0x0badf00d },
        response: [
            0x9272b67c, 0x2467739b, 0x09b0d288, 0xb701ab3c, 0x2095a35a, 0x9bdbad8d, 0xde029084, 0x985994e9,
        ],
        helpers: [
            0x03c0c88, 0x11a903f, 0x3c2f4c8, 0x343f4c0, 0x0f8caa5, 0x0f242e5, 0x2c1fcc0, 0x26c6c3f, 0x3c1fdc0,
            0x3c3f5c0, 0x3c3fd88, 0x0b0c2ed, 0x38f72ad, 0x3cbfcc0, 0x3c37c88, 0x22c6c3d, 0x0b0cbed, 0x2c2fce0,
            0x3c3fcc8, 0x0f882a5, 0x3caf4c0, 0x3c1f4c0, 0x3c1fcc0, 0x26c6c3d, 0x0360c80, 0x0f0caad, 0x3c3f488,
            0x03e0de0, 0x03c0d80, 0x3c3f580, 0x381f4c8, 0x26c6c3c,
        ],
        cycles: 14306,
        noise_state: (92160, 0),
    },
    GoldenReport {
        request: AttestationRequest { x0: 0x12345678, r0: 0x9abcdef0 },
        response: [
            0xa708960d, 0x30bc0b9b, 0x9477d4b6, 0xd60ead7b, 0x079163bd, 0x81aee056, 0x7ef8b726, 0x3e64a202,
        ],
        helpers: [
            0x3c1fdc0, 0x0f2cbad, 0x3c3f4c8, 0x3c1f488, 0x3c3f4c8, 0x3d1fcc0, 0x0f2caad, 0x22c6c3c, 0x19a943f,
            0x3cbf4c8, 0x343f488, 0x03c4580, 0x03c0cc8, 0x03c4c88, 0x3cbf480, 0x26c6c3c, 0x301b5c8, 0x3053a85,
            0x03e0dd0, 0x341b4c0, 0x3cb7c82, 0x3c1f588, 0x34d338d, 0x22c6c3c, 0x0f0caa7, 0x381f480, 0x03c0c88,
            0x380bcca, 0x3cb7880, 0x34a3c88, 0x0fa02e5, 0x26c6c3c,
        ],
        cycles: 14306,
        noise_state: (122880, 0),
    },
];

/// The prover's whole device path — PE32 program, clock-coupled voted PUF
/// queries, fuzzy-extractor helper data, obfuscation — must reproduce the
/// pinned reports word for word, and leave the device's noise cursor
/// exactly where it was pinned.
#[test]
fn prover_reports_reproduce_golden_words() {
    let enrolled = enroll(AluPufConfig::paper_32bit(), PROVER_FAB_SEED, 0).expect("supported width");
    let params = SwattParams { region_bits: 10, rounds: 1024, puf_interval: 32 };
    let clock = puf_limited_clock(&enrolled, 1.10, 96, 3);
    let (mut prover, _, _) =
        provision(&enrolled, params, clock, Channel::sensor_link(), PROVER_NOISE_SEED, 1.10).expect("provisioning");
    for (i, golden) in GOLDEN_PROVER.iter().enumerate() {
        let report = prover.attest(golden.request).expect("report");
        assert_eq!(report.response, golden.response, "request {i}: response words drifted");
        assert_eq!(report.helper_words, golden.helpers, "request {i}: helper words drifted");
        assert_eq!(report.cycles, golden.cycles, "request {i}: cycle count drifted");
        let state = prover.puf().with(|d| d.noise_state());
        assert_eq!(state, golden.noise_state, "request {i}: noise cursor drifted");
    }
}
