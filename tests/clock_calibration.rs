//! Clock-calibration differential suite.
//!
//! The attestation clock of every device comes from one calibration: the
//! worst sum-bit settling time over a canary and `samples − 1` random
//! challenges, times a guard band, plus the setup time. It runs on the
//! design's bit-sliced engine, 64 challenges per pass, and only advances
//! the device's noise stream by the words the arbiter races would draw.
//! This suite keeps the challenge-by-challenge original as a reference:
//! an event simulator per challenge and every race drawn in full. The
//! shipped entry points must match it in the clock's bits and in the
//! stream position they leave behind, since a device keeps attesting from
//! that position after its clock is calibrated.
//!
//! Provisioning also loads every prover of a configuration from one
//! assembled program; the last test pins that a loaded prover is the one
//! a per-device assembly builds.

use pufatt::adversary::{build_malicious_prover, malicious_prover_from_image, memory_copy_image};
use pufatt::enroll::{enroll_with_design, EnrolledDevice};
use pufatt::protocol::{
    provision, provision_from_image, puf_limited_clock, AttestationRequest, Channel, ProgramImage, ProverDevice,
};
use pufatt_alupuf::challenge::Challenge;
use pufatt_alupuf::device::{AluPufConfig, AluPufDesign, PufInstance};
use pufatt_fleet::campaign::small_test_config;
use pufatt_silicon::sim::EventSimulator;
use pufatt_swatt::checksum::SwattParams;
use pufatt_swatt::codegen::CodegenOptions;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Calibration sample counts: one block edge on each side of 64, two
/// blocks, and the single-canary case.
const SAMPLES: [usize; 7] = [1, 16, 63, 64, 65, 96, 128];

const CHIPS: u64 = 50;

const GUARD: f64 = 1.10;

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// The reference calibration: each challenge on its own event simulator,
/// then one full arbiter race per bit at a safe clock, drawing from `rng`
/// exactly as a detailed evaluation does.
fn reference_cycle_ps(
    enrolled: &EnrolledDevice,
    delays_ps: &[f64],
    samples: usize,
    guard: f64,
    rng: &mut ChaCha8Rng,
) -> f64 {
    let design = enrolled.design();
    let cfg = &design.config().arbiter;
    let w = design.width();
    let mut sim = EventSimulator::with_fanouts(design.netlist(), delays_ps, design.fanout_csr());
    let (sum0, sum1) = design.sum_buses();
    let (mut from, mut to) = (Vec::new(), Vec::new());
    let mut worst = 0.0f64;
    for i in 0..samples {
        let ch = if i == 0 {
            Challenge::new((1u64 << w) - 1, 1, w)
        } else {
            Challenge::random(rng, w)
        };
        design.stimulus_into(ch, &mut from, &mut to);
        sim.run_transition_in_place(&from, &to);
        for bit in 0..w {
            let (t0, t1) = (sim.settle_or_zero(sum0[bit]), sim.settle_or_zero(sum1[bit]));
            worst = worst.max(t0).max(t1);
            let delta = t0 - t1 + design.design_skew_ps()[bit] + enrolled.chip().arbiter_offset_ps()[bit];
            let noisy = delta + gaussian(rng) * cfg.jitter_sigma_ps;
            let p_one = 1.0 / (1.0 + (noisy / cfg.metastability_tau_ps).exp());
            let _bit: bool = rng.gen::<f64>() < p_one;
        }
    }
    worst * guard + cfg.setup_time_ps
}

/// `PufInstance::calibrate_cycle_ps`, `DevicePuf::calibrate_cycle_ps` and
/// `puf_limited_clock` against the reference on [`CHIPS`] chips of one
/// design at every sample count in [`SAMPLES`]: equal clock bits, and the
/// instance and the device leave their generator at the reference's word
/// position.
fn check_design(name: &str, config: AluPufConfig) {
    let design = Arc::new(AluPufDesign::new(config));
    for chip in 0..CHIPS {
        let enrolled = enroll_with_design(&design, 0xCA11 + chip).expect("supported width");
        let delays = design.effective_delays_ps(enrolled.chip().silicon(), &enrolled.env());
        let instance = PufInstance::new(&design, enrolled.chip(), enrolled.env());
        for (k, &samples) in SAMPLES.iter().enumerate() {
            let seed = chip << 8 | k as u64;
            let at = format!("{name}, chip {chip}, {samples} samples");
            let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
            let want = reference_cycle_ps(&enrolled, &delays, samples, GUARD, &mut reference_rng);
            let want_pos = reference_rng.word_pos();

            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got = instance.calibrate_cycle_ps(samples, GUARD, &mut rng);
            assert_eq!(got.to_bits(), want.to_bits(), "{at}: PufInstance cycle {got} vs {want}");
            assert_eq!(rng.word_pos(), want_pos, "{at}: PufInstance word_pos");

            let mut device = enrolled.device_puf(seed);
            let got = device.calibrate_cycle_ps(samples, GUARD);
            assert_eq!(got.to_bits(), want.to_bits(), "{at}: DevicePuf cycle {got} vs {want}");
            assert_eq!(device.noise_state(), (want_pos, 0), "{at}: DevicePuf noise state");

            let clock = puf_limited_clock(&enrolled, GUARD, samples, seed);
            let want_mhz = 1e6 / want;
            assert_eq!(clock.frequency_mhz.to_bits(), want_mhz.to_bits(), "{at}: puf_limited_clock");
        }
    }
}

#[test]
fn toy_calibration_matches_the_scalar_reference() {
    check_design("toy", small_test_config(1, 1, 0).puf);
}

#[test]
fn paper_calibration_matches_the_scalar_reference() {
    check_design("paper_32bit", AluPufConfig::paper_32bit());
}

#[test]
fn fpga_calibration_matches_the_scalar_reference() {
    check_design("fpga_16bit", AluPufConfig::fpga_16bit());
}

/// Memory, layout, parameters and seeded reports of two provers.
fn assert_same_prover(at: &str, a: &mut ProverDevice, b: &mut ProverDevice) {
    assert_eq!(a.memory(), b.memory(), "{at}: memory");
    assert_eq!(a.layout(), b.layout(), "{at}: layout");
    assert_eq!(a.params(), b.params(), "{at}: params");
    assert_eq!(a.clock(), b.clock(), "{at}: clock");
    for (x0, r0) in [(1, 1), (0xDEAD, 7), (3, 0xFFFF_FFFF)] {
        let request = AttestationRequest { x0, r0 };
        let (ra, rb) = (a.attest(request), b.attest(request));
        assert_eq!(ra.expect("attests"), rb.expect("attests"), "{at}: report for {request:?}");
    }
}

/// A prover loaded from a shared image is the prover a per-device assembly
/// builds, for the honest program and the memory-copy adversary's, and
/// provisioning from an image yields the same pair and golden run.
#[test]
fn provers_loaded_from_a_shared_image_match_per_device_assembly() {
    let configs = [
        ("toy", small_test_config(1, 1, 0).puf, small_test_config(1, 1, 0).params),
        (
            "paper_32bit",
            AluPufConfig::paper_32bit(),
            SwattParams { region_bits: 9, rounds: 1024, puf_interval: 16 },
        ),
    ];
    for (name, config, params) in configs {
        let design = Arc::new(AluPufDesign::new(config));
        let honest = ProgramImage::build(params, &CodegenOptions::default()).expect("assembles");
        for chip in 0..3 {
            let enrolled = enroll_with_design(&design, 0x1A6E + chip).expect("supported width");
            let clock = puf_limited_clock(&enrolled, GUARD, 16, chip);
            let at = format!("{name}, chip {chip}");

            let mut built = ProverDevice::new(enrolled.device_handle(5), params, &CodegenOptions::default(), clock)
                .expect("assembles");
            let mut loaded = ProverDevice::from_image(enrolled.device_handle(5), &honest, clock);
            assert_same_prover(&format!("{at}, honest"), &mut built, &mut loaded);

            let channel = Channel::sensor_link();
            let (mut p1, v1, c1) = provision(&enrolled, params, clock, channel, 9, GUARD).expect("provisions");
            let (mut p2, v2, c2) =
                provision_from_image(&enrolled, &honest, clock, channel, 9, GUARD).expect("provisions");
            assert_eq!(c1, c2, "{at}: golden cycles");
            assert_eq!((v1.delta_s.to_bits(), v1.params()), (v2.delta_s.to_bits(), v2.params()), "{at}: verifier");
            let region = p1.expected_region();
            assert_eq!(region, p2.expected_region(), "{at}: expected region");
            assert_same_prover(&format!("{at}, provisioned"), &mut p1, &mut p2);

            let tampered = memory_copy_image(params, region.len() as u32).expect("assembles");
            let mut built =
                build_malicious_prover(enrolled.device_handle(6), params, &region, clock, 1.0).expect("assembles");
            let mut loaded =
                malicious_prover_from_image(enrolled.device_handle(6), &tampered, &region, clock, 1.0).expect("loads");
            assert_same_prover(&format!("{at}, memory-copy"), &mut built, &mut loaded);
        }
    }
}
