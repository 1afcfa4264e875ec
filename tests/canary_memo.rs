//! Canary settle memo suite.
//!
//! Every PUF query ends with the full-carry canary `(all ones, 1)`. Its
//! noise-free settling times are a constant of the chip, so a device races
//! it once and serves every later canary lane from a memo
//! (`AluPufDesign::evaluate_voted_group_memo`), and a verifier emulates its
//! reference response once and keeps it. That is exact only because a
//! lane's settling times in the bit-sliced engine do not depend on the
//! other lanes of its run. This suite pins that for the canary, pins the
//! memo path against the memo-less one lane for lane and word for word,
//! checks that every producer of the canary makes the same challenge, and
//! pins the verifier's per-session CRP cache counts, which every journaled
//! session outcome carries, to their values before the memo existed.

use pufatt::enroll::{enroll, enroll_with_design};
use pufatt::protocol::{provision, puf_limited_clock, run_session_with_retry, Channel};
use pufatt::VerifierRoundPuf;
use pufatt_alupuf::challenge::Challenge;
use pufatt_alupuf::device::{AluPufConfig, AluPufDesign, CanarySettle, PufChip, PufInstance};
use pufatt_pe32::asm::assemble;
use pufatt_pe32::cpu::{Clock, Cpu};
use pufatt_pe32::puf_port::{PufOutput, PufPort};
use pufatt_silicon::env::Environment;
use pufatt_silicon::variation::ChipSampler;
use pufatt_silicon::wave::{SlicedWaveSimulator, LANES};
use pufatt_swatt::checksum::{compute, RoundPuf, SwattParams, CANARY, STATE_WORDS};
use pufatt_swatt::codegen::{generate, CodegenOptions};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

const CHIPS: u64 = 50;

fn configs() -> [(&'static str, AluPufConfig); 2] {
    [
        ("paper_32bit", AluPufConfig::paper_32bit()),
        ("fpga_16bit", AluPufConfig::fpga_16bit()),
    ]
}

/// One chip of `design` at the nominal corner, with its effective delays.
fn chip(design: &AluPufDesign, seed: u64) -> (PufChip, Vec<f64>) {
    let chip = design.fabricate(&ChipSampler::new(), &mut ChaCha8Rng::seed_from_u64(seed));
    let delays = design.effective_delays_ps(chip.silicon(), &Environment::nominal());
    (chip, delays)
}

/// The `(alu0, alu1)` settling times of every sum bit of lane `lane` after
/// `sim` races `challenges`, as bit patterns.
fn lane_settle(
    sim: &mut SlicedWaveSimulator,
    design: &AluPufDesign,
    challenges: &[Challenge],
    lane: usize,
) -> Vec<(u64, u64)> {
    let (mut from, mut to) = (Vec::new(), Vec::new());
    design.stimulus_lanes_into(challenges, &mut from, &mut to);
    sim.run_lanes(&from, &to);
    let (sum0, sum1) = design.sum_buses();
    let (mut t0, mut t1) = ([0.0f64; LANES], [0.0f64; LANES]);
    (0..design.width())
        .map(|i| {
            sim.settle_lanes_into(sum0[i], &mut t0);
            sim.settle_lanes_into(sum1[i], &mut t1);
            (t0[lane].to_bits(), t1[lane].to_bits())
        })
        .collect()
}

fn bits_of(settle: &[(f64, f64)]) -> Vec<(u64, u64)> {
    settle.iter().map(|&(t0, t1)| (t0.to_bits(), t1.to_bits())).collect()
}

/// A query-shaped group: one random `a` for every lane, a random `b` per
/// lane, and the canary at each position in `canary_at`.
fn query_group<R: Rng>(rng: &mut R, width: usize, canary_at: &[usize]) -> [Challenge; 8] {
    let a: u64 = rng.gen();
    let mut group: [Challenge; 8] = std::array::from_fn(|_| Challenge::new(a, rng.gen(), width));
    for &j in canary_at {
        group[j] = Challenge::canary(width);
    }
    group
}

/// (a) On [`CHIPS`] chips of each configuration, the canary's settling
/// times are bit-identical raced alone on a fresh engine, on the event
/// simulator, as the last of 8 query lanes sharing `a`, and among 63
/// random lanes (the last two on the engine that ran the one before, so
/// its incremental re-simulation is exercised too), and a memo filled from
/// a group holding the canary at any position holds exactly them.
#[test]
fn the_canary_lane_settles_alike_alone_and_among_other_lanes() {
    for (name, config) in configs() {
        let design = AluPufDesign::new(config);
        let w = design.width();
        let canary = Challenge::canary(w);
        for c in 0..CHIPS {
            let at = format!("{name}, chip {c}");
            let (chip, delays) = chip(&design, 0xCA_0000 + c);
            let mut rng = ChaCha8Rng::seed_from_u64(c);

            let alone = lane_settle(&mut SlicedWaveSimulator::new(design.netlist(), &delays), &design, &[canary], 0);

            let instance = PufInstance::from_delays(&design, &chip, Environment::nominal(), delays.clone());
            let e = instance.evaluate_detailed(canary, &mut rng);
            let event: Vec<(u64, u64)> = e
                .settle0_ps
                .iter()
                .zip(&e.settle1_ps)
                .map(|(t0, t1)| (t0.to_bits(), t1.to_bits()))
                .collect();
            assert_eq!(event, alone, "{at}: event simulator against the engine alone");

            let mut sim = SlicedWaveSimulator::new(design.netlist(), &delays);
            let query = query_group(&mut rng, w, &[7]);
            assert_eq!(lane_settle(&mut sim, &design, &query, 7), alone, "{at}: last of 8 query lanes");

            let lane = (c as usize * 13) % LANES;
            let mut block: Vec<Challenge> = (0..LANES).map(|_| Challenge::random(&mut rng, w)).collect();
            block[lane] = canary;
            assert_eq!(lane_settle(&mut sim, &design, &block, lane), alone, "{at}: lane {lane} of 64");

            let mut memo = CanarySettle::new();
            let group = query_group(&mut rng, w, &[c as usize % 8]);
            design.evaluate_voted_group_memo(&chip, &delays, &group, f64::INFINITY, 1, Some(&mut memo), &mut rng);
            let filled = memo.settle().map(bits_of);
            assert_eq!(filled.as_deref(), Some(&alone[..]), "{at}: memo filled from lane {}", c % 8);
        }
    }
}

/// Each memo-fill position, then the canary absent, at every position and
/// twice in one group, on one memo.
fn group_script<R: Rng>(rng: &mut R, width: usize, fill_at: usize) -> Vec<[Challenge; 8]> {
    let mut groups = vec![query_group(rng, width, &[]), query_group(rng, width, &[fill_at])];
    for j in 0..8 {
        groups.push(query_group(rng, width, &[j]));
        groups.push(query_group(rng, width, &[]));
        groups.push(query_group(rng, width, &[j, (j + 3) % 8]));
    }
    groups.push(query_group(rng, width, &[0, 1, 2, 3, 4, 5, 6, 7]));
    groups
}

/// (b) The memo path against the memo-less path, lane for lane and word
/// for word: the memo filled at each position, then the canary absent, in
/// every position and twice in one group, at a safe clock, the calibrated
/// clock, one just above the canary's settling and one tight enough that
/// the canary's last bits violate the setup time, with 1 and 5 votes.
#[test]
fn memo_and_memo_less_paths_draw_and_answer_alike() {
    for (name, config) in configs() {
        let design = AluPufDesign::new(config);
        let w = design.width();
        let setup = design.config().arbiter.setup_time_ps;
        for c in 0..4u64 {
            let (chip, delays) = chip(&design, 0xB0_0000 + c);
            let mut sim = SlicedWaveSimulator::new(design.netlist(), &delays);
            let alone = lane_settle(&mut sim, &design, &[Challenge::canary(w)], 0);
            let canary_worst = alone
                .iter()
                .map(|&(t0, t1)| f64::from_bits(t0).max(f64::from_bits(t1)))
                .fold(0.0, f64::max);
            let calibrated = design.calibrate_cycle_ps(&delays, 64, 1.1, &mut ChaCha8Rng::seed_from_u64(c));
            let clocks = [
                f64::INFINITY,
                calibrated,
                canary_worst + setup + 0.5,
                canary_worst * 0.9 + setup,
            ];
            let mut violated = false;
            for cycle_ps in clocks {
                for votes in [1, 5] {
                    for fill_at in 0..8 {
                        let at = format!("{name}, chip {c}, cycle {cycle_ps}, {votes} votes, filled at {fill_at}");
                        let groups = group_script(&mut ChaCha8Rng::seed_from_u64(c << 8 | fill_at as u64), w, fill_at);
                        let seed = 0x5EED ^ (c << 16) ^ u64::from(votes) << 8 ^ fill_at as u64;
                        let (mut with, mut without) =
                            (ChaCha8Rng::seed_from_u64(seed), ChaCha8Rng::seed_from_u64(seed));
                        let mut memo = CanarySettle::new();
                        for (g, group) in groups.iter().enumerate() {
                            let got = design.evaluate_voted_group_memo(
                                &chip,
                                &delays,
                                group,
                                cycle_ps,
                                votes,
                                Some(&mut memo),
                                &mut with,
                            );
                            let want =
                                design.evaluate_voted_group(&chip, &delays, group, cycle_ps, votes, &mut without);
                            assert_eq!(got, want, "{at}, group {g}: responses");
                            assert_eq!(with.word_pos(), without.word_pos(), "{at}, group {g}: word_pos");
                            if g == 0 {
                                assert!(memo.settle().is_none(), "{at}: a group without the canary fills nothing");
                            } else {
                                assert_eq!(
                                    memo.settle().map(bits_of).as_deref(),
                                    Some(&alone[..]),
                                    "{at}, group {g}: memo"
                                );
                            }
                        }
                        violated |= cycle_ps - setup < canary_worst;
                    }
                }
            }
            assert!(violated, "{name}, chip {c}: no clock violated the canary's setup time");
        }
    }
}

/// (b) The device end to end: `DevicePuf::respond` over query-shaped groups
/// (memo on) against the pipeline over the memo-less group path on the same
/// noise seed, at a safe, the calibrated and an overclocked clock, and a
/// verifier that keeps its canary reference against a fresh verifier per
/// query.
#[test]
fn device_and_verifier_answer_as_without_the_memo() {
    for (name, config) in configs() {
        let design = Arc::new(AluPufDesign::new(config));
        let w = design.width();
        for c in 0..3u64 {
            let enrolled = enroll_with_design(&design, 0xDE_0000 + c).expect("supported width");
            let delays = design.effective_delays_ps(enrolled.chip().silicon(), &enrolled.env());
            let calibrated = design.calibrate_cycle_ps(&delays, 64, 1.0, &mut ChaCha8Rng::seed_from_u64(c));
            let verifier = enrolled.verifier_puf().expect("supported width");
            for cycle_ps in [None, Some(calibrated), Some(calibrated * 0.8)] {
                let at = format!("{name}, chip {c}, cycle {cycle_ps:?}");
                let mut device = enrolled.device_puf(77 + c);
                device.set_cycle_ps(cycle_ps);
                let mut rng = ChaCha8Rng::seed_from_u64(77 + c);
                let mut challenges = ChaCha8Rng::seed_from_u64(c);
                for q in 0..12 {
                    let group = query_group(&mut challenges, w, &[7]);
                    let got = device.respond(&group);
                    let raw = design.evaluate_voted_group(
                        enrolled.chip(),
                        &delays,
                        &group,
                        cycle_ps.unwrap_or(f64::INFINITY),
                        5,
                        &mut rng,
                    );
                    let want = device.pipeline().prove(&raw);
                    assert_eq!((got.z, got.helpers), (want.z, want.helpers), "{at}, query {q}: device output");
                    assert_eq!(device.noise_state().0, rng.word_pos(), "{at}, query {q}: word_pos");

                    let pairs: [(u32, u32); STATE_WORDS] =
                        std::array::from_fn(|j| (group[j].a as u32, group[j].b as u32));
                    let helpers = got.helpers.to_vec();
                    // A new session each query, so the canary misses the
                    // session cache and comes from the kept reference.
                    verifier.begin_session();
                    let before = verifier.crp_cache_stats();
                    let fresh = enrolled.verifier_puf().expect("supported width");
                    let (mut kept_round, mut fresh_round) =
                        (VerifierRoundPuf::new(&verifier, &helpers), VerifierRoundPuf::new(&fresh, &helpers));
                    let (z_kept, z_fresh) = (kept_round.query(&pairs), fresh_round.query(&pairs));
                    assert_eq!(z_kept, z_fresh, "{at}, query {q}: verifier z");
                    assert_eq!(kept_round.failure(), fresh_round.failure(), "{at}, query {q}: verifier failure");
                    let after = verifier.crp_cache_stats();
                    let counted = (after.0 - before.0, after.1 - before.1);
                    assert_eq!(counted, fresh.crp_cache_stats(), "{at}, query {q}: verifier CRP counts");
                    verifier.begin_session();
                    let canary = Challenge::canary(w);
                    assert_eq!(verifier.emulate(canary), fresh.emulate_batch(&[canary], 1)[0], "{at}: emulate");
                }
            }
        }
    }
}

/// Records the challenges of every PUF query, as the checksum and the CPU
/// issue them.
#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<Vec<Query>>>);

/// The `(a, b)` challenges of one PUF query.
type Query = Vec<(u32, u32)>;

impl RoundPuf for Recorder {
    fn query(&mut self, challenges: &[(u32, u32); STATE_WORDS]) -> u32 {
        self.0.lock().unwrap().push(challenges.to_vec());
        0
    }
}

impl PufPort for Recorder {
    fn start(&mut self) {
        self.0.lock().unwrap().push(Vec::new());
    }

    fn challenge(&mut self, a: u32, b: u32) {
        self.0.lock().unwrap().last_mut().expect("challenge after pstart").push((a, b));
    }

    fn finalize(&mut self) -> PufOutput {
        PufOutput { z: 0, helper: vec![0; STATE_WORDS] }
    }
}

/// (c) swatt's canary constant, the last challenge of every query of the
/// checksum reference and of the generated program as the CPU issues it,
/// masked to 16 and 32 bits, all equal `Challenge::canary`.
#[test]
fn every_canary_is_the_one_canary() {
    let params = SwattParams { region_bits: 8, rounds: 256, puf_interval: 4 };
    let memory: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let reference = Recorder::default();
    compute(&memory, 7, 11, &params, &mut reference.clone());

    let gen = generate(&params, &CodegenOptions::default());
    let program = assemble(&gen.source).expect("generated assembly assembles");
    let cpu_side = Recorder::default();
    let mut cpu = Cpu::new(gen.layout.memory_words.max(64) as usize);
    cpu.attach_puf(Box::new(cpu_side.clone()));
    cpu.load_program(&program.image);
    cpu.store_word(gen.layout.seed_cell, 7).unwrap();
    cpu.store_word(gen.layout.x0_cell, 11).unwrap();
    cpu.run(10_000_000).expect("checksum program halts");

    for (who, recorder) in [("checksum", &reference), ("codegen", &cpu_side)] {
        let queries = recorder.0.lock().unwrap();
        assert_eq!(queries.len(), params.puf_queries() as usize, "{who}: queries");
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(query.len(), STATE_WORDS, "{who}, query {q}: challenges");
            assert_eq!(query[STATE_WORDS - 1], CANARY, "{who}, query {q}: last challenge");
        }
    }
    for width in [16, 32] {
        let (a, b) = CANARY;
        assert_eq!(Challenge::new(u64::from(a), u64::from(b), width), Challenge::canary(width), "width {width}");
    }
}

/// Per-session `(crp hits, crp misses, attempts, accepted)` of a verifier
/// over seeded sessions: honest devices, and one overclocked so its
/// sessions retry and fail.
fn session_crp_counts(config: AluPufConfig, params: SwattParams) -> Vec<(u64, u64, usize, bool)> {
    let mut out = Vec::new();
    for d in 0..3u64 {
        let enrolled = enroll(config.clone(), 0x5E55 + d, 0).expect("supported width");
        let clock = puf_limited_clock(&enrolled, 1.10, 64, d);
        let (mut prover, verifier, _) =
            provision(&enrolled, params, clock, Channel::sensor_link(), 40 + d, 1.10).expect("provisions");
        if d == 2 {
            prover.set_clock(Clock::new(clock.frequency_mhz * 1.6), true);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(d);
        for _ in 0..3 {
            verifier.begin_session();
            let (h0, m0) = verifier.crp_cache_stats();
            let (verdict, attempts) = run_session_with_retry(&mut prover, &verifier, &mut rng, 3).expect("no trap");
            let (h1, m1) = verifier.crp_cache_stats();
            out.push((h1 - h0, m1 - m0, attempts, verdict.accepted));
        }
    }
    out
}

/// (d) Per-session CRP cache counts over seeded sessions, pinned to the
/// values the verifier produced before it kept its canary reference.
#[test]
fn per_session_crp_counts_are_unchanged() {
    let paper = session_crp_counts(
        AluPufConfig::paper_32bit(),
        SwattParams { region_bits: 10, rounds: 2048, puf_interval: 32 },
    );
    let fpga =
        session_crp_counts(AluPufConfig::fpga_16bit(), SwattParams { region_bits: 8, rounds: 1024, puf_interval: 16 });
    assert_eq!(paper, PAPER_CRP, "paper_32bit");
    assert_eq!(fpga, FPGA_CRP, "fpga_16bit");
}

/// `session_crp_counts` for `paper_32bit` before the verifier kept its
/// canary reference: each attempt looks up 8 queries × 8 challenges, and
/// the canary misses once and hits 7 times.
const PAPER_CRP: [(u64, u64, usize, bool); 9] = [
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (23, 169, 3, false),
    (23, 169, 3, false),
    (23, 169, 3, false),
];

/// The same for `fpga_16bit`.
const FPGA_CRP: [(u64, u64, usize, bool); 9] = [
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (7, 57, 1, true),
    (23, 169, 3, false),
    (23, 169, 3, false),
    (15, 113, 2, true),
];
