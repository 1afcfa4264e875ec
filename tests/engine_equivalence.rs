//! Engine-equivalence suite: every evaluation path must be bit-identical.
//!
//! The hot path has three engines — the scalar event-driven simulator
//! (`PufInstance::evaluate` / `PufEmulator::emulate`), the bit-sliced
//! 64-lane waveform engine behind the batch paths, and the incremental
//! cone re-simulation the bit-sliced engine performs when it is reused
//! across consecutive blocks. This suite pins all of them to the scalar
//! reference for every shipped design (paper 32-bit, FPGA 16-bit, and the
//! carry-lookahead / carry-select ablations) at thread counts 1/2/4/8,
//! pins the prover's grouped device path (`DevicePuf`) to a loop of scalar
//! voted evaluations, and checks that pooled-engine reuse — across
//! repeated batch calls and across chips of one design — never changes a
//! response.

use std::sync::OnceLock;

use proptest::prelude::*;
use pufatt::ports::{DevicePuf, ResponseFault};
use pufatt_alupuf::challenge::{Challenge, RawResponse};
use pufatt_alupuf::device::{challenge_stream_seed, AdderKind, AluPufConfig, AluPufDesign, PufChip, PufInstance};
use pufatt_alupuf::emulate::{DelayTable, PufEmulator, SharedPufEmulator};
use pufatt_silicon::env::Environment;
use pufatt_silicon::variation::ChipSampler;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::sync::Arc;

const CHIP_SEED: u64 = 0x601D;
const CHALLENGE_SEED: u64 = 0x1CE;
const NOISE_SEED: u64 = 0xBEEF;
/// 161 challenges = two full 64-lane blocks plus a 33-lane partial block,
/// so every test crosses block boundaries and exercises the masked tail.
const N: usize = 161;

/// Every shipped design: the two paper configurations plus the two adder
/// ablations the design-space bench ships.
fn shipped_configs() -> Vec<(&'static str, AluPufConfig)> {
    let cla = AluPufConfig {
        adder: AdderKind::CarryLookahead,
        ..AluPufConfig::paper_32bit()
    };
    let csel = AluPufConfig { adder: AdderKind::CarrySelect, ..AluPufConfig::paper_32bit() };
    vec![
        ("paper_32bit", AluPufConfig::paper_32bit()),
        ("fpga_16bit", AluPufConfig::fpga_16bit()),
        ("paper_32bit_cla", cla),
        ("paper_32bit_csel", csel),
    ]
}

fn fixture(config: AluPufConfig) -> (AluPufDesign, PufChip, Vec<Challenge>) {
    let width = config.width;
    let design = AluPufDesign::new(config);
    let mut rng = ChaCha8Rng::seed_from_u64(CHIP_SEED);
    let chip = design.fabricate(&ChipSampler::new(), &mut rng);
    let mut chrng = ChaCha8Rng::seed_from_u64(CHALLENGE_SEED);
    let challenges = (0..N).map(|_| Challenge::random(&mut chrng, width)).collect();
    (design, chip, challenges)
}

/// Device batch path (bit-sliced + work stealing + engine pool) must equal
/// the scalar event-driven path at every thread count, for every design.
/// The scalar reference seeds each challenge's noise stream exactly as the
/// batch does — from `(noise_seed, global index)` — so any divergence is an
/// engine discrepancy, never an RNG artefact.
#[test]
fn device_batch_matches_scalar_for_all_designs() {
    for (name, config) in shipped_configs() {
        let (design, chip, challenges) = fixture(config);
        let inst = PufInstance::new(&design, &chip, Environment::nominal());
        let scalar: Vec<u64> = challenges
            .iter()
            .enumerate()
            .map(|(i, &ch)| {
                let mut rng = ChaCha8Rng::seed_from_u64(challenge_stream_seed(NOISE_SEED, i as u64));
                inst.evaluate(ch, &mut rng).bits()
            })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let batch: Vec<u64> = inst
                .evaluate_batch(&challenges, NOISE_SEED, threads)
                .iter()
                .map(|r| r.bits())
                .collect();
            assert_eq!(batch, scalar, "{name}: batch at {threads} threads diverged from scalar");
        }
    }
}

/// Emulator paths — scalar `PufEmulator::emulate`, its batch, and all three
/// `SharedPufEmulator` entry points — must agree bit for bit on every
/// shipped design at every thread count.
#[test]
fn emulator_paths_bit_identical_for_all_designs() {
    for (name, config) in shipped_configs() {
        let (design, chip, challenges) = fixture(config.clone());
        let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());
        let scalar: Vec<u64> = challenges.iter().map(|&ch| emu.emulate(ch).bits()).collect();
        for threads in [1usize, 2, 4, 8] {
            let batch: Vec<u64> = emu.emulate_batch(&challenges, threads).iter().map(|r| r.bits()).collect();
            assert_eq!(batch, scalar, "{name}: emulate_batch at {threads} threads diverged");
        }

        let table = DelayTable::extract(&design, &chip, Environment::nominal());
        let shared = SharedPufEmulator::new(Arc::new(AluPufDesign::new(config)), table);
        let one_by_one: Vec<u64> = challenges.iter().map(|&ch| shared.emulate(ch).bits()).collect();
        assert_eq!(one_by_one, scalar, "{name}: SharedPufEmulator::emulate diverged");
        let many: Vec<u64> = shared.emulate_many(&challenges).iter().map(|r| r.bits()).collect();
        assert_eq!(many, scalar, "{name}: emulate_many diverged");
        for threads in [2usize, 4, 8] {
            let batch: Vec<u64> = shared.emulate_batch(&challenges, threads).iter().map(|r| r.bits()).collect();
            assert_eq!(batch, scalar, "{name}: shared emulate_batch at {threads} threads diverged");
        }
    }
}

/// Repeated batch calls reuse the design's pooled engines (and, on the
/// single-thread path, the incremental dirty-cone state from the previous
/// block). Reuse must never change a response — run the same and permuted
/// batches repeatedly through one instance and demand identical bits every
/// time, and retarget one engine from chip to chip.
#[test]
fn pooled_engine_reuse_is_response_invariant() {
    let (design, chip, challenges) = fixture(AluPufConfig::paper_32bit());
    let inst = PufInstance::new(&design, &chip, Environment::nominal());
    let emu = PufEmulator::enroll(&design, &chip, Environment::nominal());

    let first: Vec<u64> = inst
        .evaluate_batch(&challenges, NOISE_SEED, 4)
        .iter()
        .map(|r| r.bits())
        .collect();
    let emu_first: Vec<u64> = emu.emulate_batch(&challenges, 1).iter().map(|r| r.bits()).collect();
    // A different challenge order in between maximally dirties the
    // incremental engines' retained waveforms.
    let mut reversed = challenges.clone();
    reversed.reverse();
    let rev_expected: Vec<u64> = {
        let mut v = emu_first.clone();
        v.reverse();
        v
    };
    let rev: Vec<u64> = emu.emulate_batch(&reversed, 1).iter().map(|r| r.bits()).collect();
    assert_eq!(rev, rev_expected, "reversed batch must be the reversed responses");
    for round in 0..3 {
        let again: Vec<u64> = inst
            .evaluate_batch(&challenges, NOISE_SEED, round + 1)
            .iter()
            .map(|r| r.bits())
            .collect();
        assert_eq!(again, first, "device batch changed on reuse round {round}");
        let emu_again: Vec<u64> = emu.emulate_batch(&challenges, 1).iter().map(|r| r.bits()).collect();
        assert_eq!(emu_again, emu_first, "emulator batch changed on reuse round {round}");
    }

    // Cross-chip reuse: the design's one pooled engine serves chip A, then
    // is retargeted to chip B on the *same* one-block stimulus (so stale
    // waveforms from A would look clean). It must match a fresh engine
    // for B.
    let block = &challenges[..64];
    let design = AluPufDesign::new(AluPufConfig::paper_32bit());
    let mut rng = ChaCha8Rng::seed_from_u64(CHIP_SEED ^ 1);
    let (chip_a, chip_b) =
        (design.fabricate(&ChipSampler::new(), &mut rng), design.fabricate(&ChipSampler::new(), &mut rng));
    let emu_a = PufEmulator::enroll(&design, &chip_a, Environment::nominal());
    let emu_b = PufEmulator::enroll(&design, &chip_b, Environment::nominal());
    let fresh_design = design.clone();
    assert_eq!(fresh_design.idle_engines(), 0, "a cloned design starts with an empty pool");
    let fresh_b: Vec<u64> = PufEmulator::enroll(&fresh_design, &chip_b, Environment::nominal())
        .emulate_batch(block, 1)
        .iter()
        .map(|r| r.bits())
        .collect();
    let scalar_b: Vec<u64> = block.iter().map(|&ch| emu_b.emulate(ch).bits()).collect();
    assert_eq!(fresh_b, scalar_b, "a fresh engine for chip B must match the scalar reference");
    let a_bits: Vec<u64> = emu_a.emulate_batch(block, 1).iter().map(|r| r.bits()).collect();
    assert_eq!(design.idle_engines(), 1, "chip A's engine returns to the design's pool");
    let b_bits: Vec<u64> = emu_b.emulate_batch(block, 1).iter().map(|r| r.bits()).collect();
    assert_eq!(design.idle_engines(), 1, "chip B reused chip A's engine");
    assert_ne!(a_bits, b_bits, "two chips must not emulate identically");
    assert_eq!(b_bits, fresh_b, "an engine that served chip A diverged for chip B");
    let inst_b = PufInstance::new(&design, &chip_b, Environment::nominal());
    let fresh_inst_b = PufInstance::new(&fresh_design, &chip_b, Environment::nominal());
    assert_eq!(
        inst_b.evaluate_batch(block, NOISE_SEED, 1),
        fresh_inst_b.evaluate_batch(block, NOISE_SEED, 1),
        "device batch for chip B diverged on a reused engine"
    );
}

/// The scalar reference of one device query: each challenge voted through
/// `PufInstance::evaluate_voted_clocked` in turn, then the injected fault
/// applied to the raw responses in order — the order `DevicePuf` has
/// always drawn its noise in. `rng` and `evaluations` are the reference's
/// noise cursor, compared against `DevicePuf::noise_state`.
fn scalar_device_query(
    inst: &PufInstance<'_>,
    challenges: &[Challenge],
    cycle_ps: f64,
    votes: u32,
    fault: Option<ResponseFault>,
    rng: &mut ChaCha8Rng,
    evaluations: &mut u64,
) -> Vec<RawResponse> {
    let raw: Vec<RawResponse> = challenges
        .iter()
        .map(|&ch| inst.evaluate_voted_clocked(ch, cycle_ps, votes, rng))
        .collect();
    raw.into_iter()
        .map(|r| {
            let Some(fault) = fault else { return r };
            *evaluations += 1;
            let width = r.width();
            let mut bits = r.bits();
            for i in 0..width {
                if rng.gen::<f64>() < fault.flip_probability {
                    bits ^= 1 << i;
                }
            }
            if evaluations.is_multiple_of(u64::from(fault.burst_period)) {
                let start = rng.gen_range(0..width);
                for j in 0..(fault.burst_weight as usize).min(width) {
                    bits ^= 1 << ((start + j) % width);
                }
            }
            RawResponse::new(bits, width)
        })
        .collect()
}

/// The prover's grouped query path (`DevicePuf::respond`, one bit-sliced
/// run per 8 challenges) must equal a loop of scalar voted evaluations — responses *and* the journaled noise cursor
/// (`noise_state`) — for every shipped design, under safe clocking and an
/// overclocked period (the setup-violation branch), at 1 and 5 votes,
/// with and without an injected response fault.
#[test]
fn device_group_path_matches_scalar_voted_loop() {
    const QUERIES: usize = 4;
    let fault = ResponseFault { flip_probability: 0.02, burst_weight: 3, burst_period: 3 };
    for (name, config) in shipped_configs() {
        let (design, chip, challenges) = fixture(config);
        let inst = PufInstance::new(&design, &chip, Environment::nominal());
        // Half the static critical path: random operands settle on both
        // sides of this deadline, so both arbiter branches are exercised.
        let overclocked = 0.5 * inst.alu_critical_path_ps() + design.config().arbiter.setup_time_ps;
        let (shared_design, shared_chip) = (Arc::new(design.clone()), Arc::new(chip.clone()));
        for cycle_ps in [None, Some(overclocked)] {
            for votes in [1u32, 5] {
                for fault in [None, Some(fault)] {
                    let case = format!("{name}: cycle {cycle_ps:?}, {votes} vote(s), fault {}", fault.is_some());
                    let mut device = DevicePuf::new(
                        Arc::clone(&shared_design),
                        Arc::clone(&shared_chip),
                        Environment::nominal(),
                        NOISE_SEED,
                    )
                    .expect("supported width");
                    device.set_cycle_ps(cycle_ps);
                    device.set_votes(votes);
                    device.set_response_fault(fault);
                    let mut rng = ChaCha8Rng::seed_from_u64(NOISE_SEED);
                    let mut evaluations = 0u64;
                    let cycle = cycle_ps.unwrap_or(f64::INFINITY);
                    for q in 0..QUERIES {
                        let group: [Challenge; 8] = std::array::from_fn(|j| challenges[8 * q + j]);
                        let raw = scalar_device_query(&inst, &group, cycle, votes, fault, &mut rng, &mut evaluations);
                        let expected = device.pipeline().prove(&raw.try_into().expect("8 responses"));
                        assert_eq!(device.respond(&group), expected, "{case}: query {q} diverged");
                        assert_eq!(device.noise_state(), (rng.word_pos(), evaluations), "{case}: query {q} cursor");
                    }
                }
            }
        }
    }
}

/// Shared fixture for the property tests: building the design and chip
/// dominates each case's cost, so build once.
fn paper_fixture() -> &'static (AluPufDesign, PufChip) {
    static FIXTURE: OnceLock<(AluPufDesign, PufChip)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let design = AluPufDesign::new(AluPufConfig::paper_32bit());
        let mut rng = ChaCha8Rng::seed_from_u64(CHIP_SEED);
        let chip = design.fabricate(&ChipSampler::new(), &mut rng);
        (design, chip)
    })
}

proptest! {
    /// For ANY challenge set (arbitrary operands, arbitrary length across
    /// the block boundary) and ANY noise seed, the batch paths equal the
    /// scalar reference at 1/2/4 threads.
    #[test]
    fn any_challenge_set_is_thread_and_engine_invariant(
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 1..100),
        noise_seed in any::<u64>(),
    ) {
        let (design, chip) = paper_fixture();
        let challenges: Vec<Challenge> = raw.iter().map(|&(a, b)| Challenge::new(a, b, 32)).collect();
        let inst = PufInstance::new(design, chip, Environment::nominal());
        let scalar: Vec<u64> = challenges
            .iter()
            .enumerate()
            .map(|(i, &ch)| {
                let mut rng = ChaCha8Rng::seed_from_u64(challenge_stream_seed(noise_seed, i as u64));
                inst.evaluate(ch, &mut rng).bits()
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let batch: Vec<u64> =
                inst.evaluate_batch(&challenges, noise_seed, threads).iter().map(|r| r.bits()).collect();
            prop_assert_eq!(&batch, &scalar, "batch diverged at {} threads", threads);
        }

        let emu = PufEmulator::enroll(design, chip, Environment::nominal());
        let emu_scalar: Vec<u64> = challenges.iter().map(|&ch| emu.emulate(ch).bits()).collect();
        let emu_batch: Vec<u64> = emu.emulate_batch(&challenges, 2).iter().map(|r| r.bits()).collect();
        prop_assert_eq!(&emu_batch, &emu_scalar, "emulator batch diverged");
    }
}
