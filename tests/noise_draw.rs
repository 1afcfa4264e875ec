//! Noise-draw suite: the ChaCha8 keystream and the words a majority vote
//! consumes.
//!
//! Every seeded verdict depends on two things that must never move: the
//! absolute keystream of the vendored ChaCha8 generator, however its blocks
//! are computed and buffered, and the exact words each voted PUF evaluation
//! draws from it, however many of its races are actually resolved. This
//! suite pins the first with absolute words and positions. It pins the
//! second by running both voted paths (`PufInstance::evaluate_voted_clocked`
//! and `AluPufDesign::evaluate_voted_group`) against a reference vote loop
//! that lives only here and computes every race in full.

use pufatt_alupuf::challenge::Challenge;
use pufatt_alupuf::device::{AluPufConfig, AluPufDesign, ArbiterConfig, PufChip, PufInstance};
use pufatt_silicon::env::Environment;
use pufatt_silicon::variation::ChipSampler;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

// ------------------------------------------------------------ the keystream

const SEEDS: [u64; 4] = [0, 1, 7, 0xBEEF];

/// Word positions pinned absolutely: both ends of the first blocks and of
/// the 4-block groups, and a far position.
const PINNED_POS: [usize; 13] = [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 4095];

/// `next_u32` words of each seed in [`SEEDS`] at the positions in
/// [`PINNED_POS`].
const PINNED_WORDS: [[u32; 13]; 4] = [
    [
        0x2d8e_e5e8,
        0xbf94_d133,
        0x95d5_3efa,
        0x94ef_af48,
        0x1131_e62b,
        0x3fc0_3cba,
        0x453c_a227,
        0x8585_c900,
        0x6dc2_8391,
        0x4f36_12bb,
        0xef97_d603,
        0x99bc_ac93,
        0x0127_68b9,
    ],
    [
        0x48a8_b558,
        0xef72_eaf4,
        0x42bd_7361,
        0x5a62_5dcb,
        0x7f11_6bb1,
        0x50e8_b5c5,
        0x3e70_48f4,
        0x1ded_a30e,
        0x7a9d_f768,
        0xdde3_2fd0,
        0xc9d1_5a4f,
        0xb44e_ec96,
        0x8efc_617b,
    ],
    [
        0x5082_5212,
        0x6686_d7a0,
        0xbdb5_1629,
        0x5330_b601,
        0x4874_2709,
        0x0ccc_26eb,
        0x712b_3144,
        0x1b08_f63a,
        0xbd24_0eb6,
        0x9920_7f0a,
        0x869e_ef6a,
        0xf763_37b9,
        0xb0f2_857f,
    ],
    [
        0xa278_8135,
        0xd344_815a,
        0xc952_df4b,
        0x3807_aa08,
        0x8c4a_6e3b,
        0x0d15_c03f,
        0xa3c8_ffdc,
        0xa654_ea1e,
        0x3c57_a7a4,
        0xfc71_3ea6,
        0xd07c_74d9,
        0x3b03_6c18,
        0x1e0f_958e,
    ],
];

/// FNV-1a digest of the first [`DIGEST_WORDS`] `next_u32` words of each
/// seed in [`SEEDS`].
const PINNED_DIGESTS: [u64; 4] = [
    0xcd1f_8242_6513_bfea,
    0x57f2_21b3_14f4_0859,
    0xf191_8b7e_f7a4_0e3e,
    0xd0ea_cbc2_aa02_3e9d,
];
const DIGEST_WORDS: usize = 4096;

fn words(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u32()).collect()
}

fn fnv1a(words: &[u32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn keystream_matches_pinned_words() {
    for (s, &seed) in SEEDS.iter().enumerate() {
        let stream = words(seed, DIGEST_WORDS);
        let got: Vec<u32> = PINNED_POS.iter().map(|&p| stream[p]).collect();
        assert_eq!(got, PINNED_WORDS[s], "seed {seed}: keystream words drifted");
        assert_eq!(fnv1a(&stream), PINNED_DIGESTS[s], "seed {seed}: keystream digest drifted");
    }
}

/// From every start position up to past the second 4-block group, every
/// sequence of five `next_u32`/`next_u64` calls must return the word
/// stream's words (a `u64` is the next two words, low word first) and
/// advance `word_pos` by one or two. That covers every way a call can meet
/// a refill, including a `next_u64` whose two words straddle it.
#[test]
fn every_u32_u64_interleaving_matches_the_word_stream() {
    const CALLS: usize = 5;
    for &seed in &SEEDS[..2] {
        let stream = words(seed, 160);
        for start in 0..140usize {
            for pattern in 0..1u32 << CALLS {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                // Reach `start` with u64 draws where possible, so starts are
                // reached both ways across the sweep.
                for _ in 0..start / 2 {
                    rng.next_u64();
                }
                if start % 2 == 1 {
                    rng.next_u32();
                }
                let mut pos = start;
                for call in 0..CALLS {
                    if pattern >> call & 1 == 1 {
                        let want = u64::from(stream[pos]) | u64::from(stream[pos + 1]) << 32;
                        assert_eq!(rng.next_u64(), want, "seed {seed}, start {start}, pattern {pattern:#b}");
                        pos += 2;
                    } else {
                        assert_eq!(rng.next_u32(), stream[pos], "seed {seed}, start {start}, pattern {pattern:#b}");
                        pos += 1;
                    }
                    assert_eq!(rng.word_pos(), pos as u64);
                }
            }
        }
    }
}

/// `set_word_pos` at every offset in 0..130 must rebuild the generator a
/// caller would have by drawing its way there: same position, same next
/// words across the following refills, from a fresh generator and from
/// one that was positioned elsewhere first.
#[test]
fn set_word_pos_at_every_offset_matches_a_drawn_generator() {
    for &seed in &SEEDS {
        for pos in 0..130u64 {
            let mut drawn = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..pos {
                drawn.next_u32();
            }
            let mut fresh = ChaCha8Rng::seed_from_u64(seed);
            fresh.set_word_pos(pos);
            let mut moved = ChaCha8Rng::seed_from_u64(seed);
            moved.set_word_pos(1000 + pos);
            moved.next_u64();
            moved.set_word_pos(pos);
            let mut cloned = drawn.clone();
            for rng in [&mut fresh, &mut moved, &mut cloned] {
                assert_eq!(rng.word_pos(), pos, "seed {seed}");
            }
            // 70 words in mixed draws: past the next refill from anywhere.
            for i in 0..47 {
                let want = if i % 2 == 0 { drawn.next_u64() } else { u64::from(drawn.next_u32()) };
                for rng in [&mut fresh, &mut moved, &mut cloned] {
                    let got = if i % 2 == 0 { rng.next_u64() } else { u64::from(rng.next_u32()) };
                    assert_eq!(got, want, "seed {seed}, offset {pos}, draw {i}");
                    assert_eq!(rng.word_pos(), drawn.word_pos());
                }
            }
        }
    }
}

// ------------------------------------------------------- the voted draws

/// A generator that counts its `next_u64` calls and answers zero at the
/// listed call indices, so a test can place a zero `u1` (the one value the
/// gaussian rejects and redraws) exactly where it wants one. Random draws
/// never produce it.
struct Scripted {
    inner: ChaCha8Rng,
    calls: u64,
    zeros: Vec<u64>,
}

impl Scripted {
    fn new(seed: u64, zeros: Vec<u64>) -> Self {
        Scripted { inner: ChaCha8Rng::seed_from_u64(seed), calls: 0, zeros }
    }
}

impl RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the arbiter draws only 64-bit words")
    }

    fn next_u64(&mut self) -> u64 {
        let word = self.inner.next_u64();
        let call = self.calls;
        self.calls += 1;
        if self.zeros.contains(&call) {
            0
        } else {
            word
        }
    }
}

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

/// Where the reference saw races that a majority had already decided.
#[derive(Debug, Default)]
struct Decided {
    /// Races resolved after their bit's majority was settled.
    races: usize,
    /// `next_u64` call index of each such race's first `u1` draw, for races
    /// within the setup time (as counted by a [`Scripted`] generator).
    u1_calls: Vec<u64>,
    /// The same for races whose bit was still open.
    open_u1_calls: Vec<u64>,
    /// Races that violated the setup time.
    late: usize,
}

/// One arbiter race, every transcendental computed: a uniform bit after a
/// setup-time violation, else a logistic decision on the jittered delay
/// difference.
fn reference_race<R: Rng>(rng: &mut R, delta: f64, late: bool, cfg: &ArbiterConfig) -> bool {
    if late {
        return rng.gen::<bool>();
    }
    let noisy = delta + gaussian(rng) * cfg.jitter_sigma_ps;
    let p_one = 1.0 / (1.0 + (noisy / cfg.metastability_tau_ps).exp());
    rng.gen::<f64>() < p_one
}

/// A generator that reports how many `next_u64` calls it has answered.
trait Counted: Rng {
    fn calls(&self) -> u64;
}

impl Counted for ChaCha8Rng {
    fn calls(&self) -> u64 {
        // The arbiter draws only 64-bit words.
        self.word_pos() / 2
    }
}

impl Counted for Scripted {
    fn calls(&self) -> u64 {
        self.calls
    }
}

/// The reference vote: `votes` full passes of races over every bit in bit
/// order, then a strict majority per bit.
fn reference_vote<R: Counted>(
    design: &AluPufDesign,
    chip: &PufChip,
    settle: &[(f64, f64)],
    cycle_ps: f64,
    votes: u32,
    rng: &mut R,
    decided: &mut Decided,
) -> u64 {
    let cfg = &design.config().arbiter;
    let deadline = cycle_ps - cfg.setup_time_ps;
    let mut ones = vec![0u32; settle.len()];
    for vote in 0..votes {
        for (i, &(t0, t1)) in settle.iter().enumerate() {
            let delta = t0 - t1 + design.design_skew_ps()[i] + chip.arbiter_offset_ps()[i];
            let late = t0.max(t1) > deadline;
            let settled = 2 * ones[i] > votes || 2 * (ones[i] + votes - vote) <= votes;
            decided.races += usize::from(settled);
            decided.late += usize::from(late);
            if !late {
                let at = rng.calls();
                if settled { &mut decided.u1_calls } else { &mut decided.open_u1_calls }.push(at);
            }
            ones[i] += u32::from(reference_race(rng, delta, late, cfg));
        }
    }
    ones.iter()
        .enumerate()
        .filter(|&(_, &n)| 2 * n > votes)
        .fold(0, |bits, (i, _)| bits | 1 << i)
}

struct Fixture {
    design: AluPufDesign,
    chip: PufChip,
    challenges: Vec<Challenge>,
}

fn fixture(config: AluPufConfig, challenges: usize) -> Fixture {
    let width = config.width;
    let design = AluPufDesign::new(config);
    let chip = design.fabricate(&ChipSampler::new(), &mut ChaCha8Rng::seed_from_u64(0x601D));
    let mut chrng = ChaCha8Rng::seed_from_u64(0x1CE);
    let challenges = (0..challenges).map(|_| Challenge::random(&mut chrng, width)).collect();
    Fixture { design, chip, challenges }
}

/// Noise-free `(alu0, alu1)` settling times of every sum bit.
fn settle_times(inst: &PufInstance<'_>, challenge: Challenge) -> Vec<(f64, f64)> {
    let e = inst.evaluate_detailed(challenge, &mut ChaCha8Rng::seed_from_u64(0));
    e.settle0_ps.into_iter().zip(e.settle1_ps).collect()
}

/// Safe clocking, and a clock whose capture deadline falls at the median
/// settling time, so about half the races violate the setup time.
fn clocks(f: &Fixture, inst: &PufInstance<'_>) -> [f64; 2] {
    let mut late: Vec<f64> = f
        .challenges
        .iter()
        .flat_map(|&ch| settle_times(inst, ch))
        .map(|(t0, t1)| t0.max(t1))
        .collect();
    late.sort_by(f64::total_cmp);
    [
        f64::INFINITY,
        late[late.len() / 2] + f.design.config().arbiter.setup_time_ps,
    ]
}

fn configs() -> [(&'static str, AluPufConfig, usize); 2] {
    [
        ("paper_32bit", AluPufConfig::paper_32bit(), 16),
        ("fpga_16bit", AluPufConfig::fpga_16bit(), 8),
    ]
}

/// `PufInstance::evaluate_voted_clocked` against the reference, for votes 1
/// through 7 at both clocks: the bits and the generator position after
/// every call, on one shared stream per (votes, clock) sweep.
#[test]
fn scalar_voted_path_matches_the_reference_vote() {
    for (name, config, n) in configs() {
        let f = fixture(config, n);
        let inst = PufInstance::new(&f.design, &f.chip, Environment::nominal());
        let (mut decided, mut late) = (0, 0);
        for cycle_ps in clocks(&f, &inst) {
            for votes in 1..=7 {
                let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF ^ u64::from(votes));
                let mut reference_rng = rng.clone();
                for (c, &ch) in f.challenges.iter().enumerate() {
                    let settle = settle_times(&inst, ch);
                    let mut d = Decided::default();
                    let want = reference_vote(&f.design, &f.chip, &settle, cycle_ps, votes, &mut reference_rng, &mut d);
                    let got = inst.evaluate_voted_clocked(ch, cycle_ps, votes, &mut rng).bits();
                    let at = format!("{name}, cycle {cycle_ps}, {votes} votes, challenge {c}");
                    assert_eq!(got, want, "{at}: bits");
                    assert_eq!(rng.word_pos(), reference_rng.word_pos(), "{at}: word_pos");
                    decided += d.races;
                    late += d.late;
                }
            }
        }
        // The sweep must reach both shortcuts the device may take.
        assert!(decided > 0 && late > 0, "{name}: {decided} decided races, {late} late races");
    }
}

/// `AluPufDesign::evaluate_voted_group` against the reference, in groups of
/// 8 (the prover's query) and 3, for votes 1 through 7 at both clocks.
#[test]
fn grouped_voted_path_matches_the_reference_vote() {
    fn check<const N: usize>(name: &str, f: &Fixture, inst: &PufInstance<'_>) {
        for cycle_ps in clocks(f, inst) {
            for votes in 1..=7 {
                let mut rng = ChaCha8Rng::seed_from_u64(0xF00D ^ u64::from(votes));
                let mut reference_rng = rng.clone();
                for (g, group) in f.challenges.chunks_exact(N).enumerate() {
                    let group: [Challenge; N] = std::array::from_fn(|j| group[j]);
                    let got =
                        f.design
                            .evaluate_voted_group(&f.chip, inst.delays_ps(), &group, cycle_ps, votes, &mut rng);
                    let at = format!("{name}, group of {N}, cycle {cycle_ps}, {votes} votes, group {g}");
                    for (j, &ch) in group.iter().enumerate() {
                        let settle = settle_times(inst, ch);
                        let mut d = Decided::default();
                        let want =
                            reference_vote(&f.design, &f.chip, &settle, cycle_ps, votes, &mut reference_rng, &mut d);
                        assert_eq!(got[j].bits(), want, "{at}, lane {j}: bits");
                    }
                    assert_eq!(rng.word_pos(), reference_rng.word_pos(), "{at}: word_pos");
                }
            }
        }
    }
    for (name, config, n) in configs() {
        let f = fixture(config, n);
        let inst = PufInstance::new(&f.design, &f.chip, Environment::nominal());
        check::<8>(name, &f, &inst);
        check::<3>(name, &f, &inst);
    }
}

/// A zero `u1` is rejected and redrawn. Random draws never produce one, so
/// a scripted generator places a zero where the `u1` of a race whose bit
/// is already decided falls, and one where an open race's falls: both
/// voted paths must redraw exactly as the reference does.
#[test]
fn rejected_u1_draws_advance_the_stream_alike() {
    let f = fixture(AluPufConfig::paper_32bit(), 8);
    let inst = PufInstance::new(&f.design, &f.chip, Environment::nominal());
    let group: [Challenge; 8] = std::array::from_fn(|j| f.challenges[j]);
    let settle: Vec<Vec<(f64, f64)>> = group.iter().map(|&ch| settle_times(&inst, ch)).collect();
    let votes = 5;
    let seed = 0x5C217;
    let reference = |zeros: &[u64], decided: &mut Decided| -> (Vec<u64>, u64) {
        let mut rng = Scripted::new(seed, zeros.to_vec());
        let bits = settle
            .iter()
            .map(|s| reference_vote(&f.design, &f.chip, s, f64::INFINITY, votes, &mut rng, decided))
            .collect();
        (bits, rng.calls)
    };
    let mut decided = Decided::default();
    reference(&[], &mut decided);
    let (skipped, open) = (decided.u1_calls[decided.u1_calls.len() / 2], decided.open_u1_calls[0]);
    for zeros in [vec![skipped], vec![open], vec![open, skipped]] {
        let (want, want_calls) = reference(&zeros, &mut Decided::default());

        let mut rng = Scripted::new(seed, zeros.clone());
        let got: Vec<u64> = group
            .iter()
            .map(|&ch| inst.evaluate_voted_clocked(ch, f64::INFINITY, votes, &mut rng).bits())
            .collect();
        assert_eq!(got, want, "scalar path, zero at calls {zeros:?}");
        assert_eq!(rng.calls, want_calls, "scalar path, zero at calls {zeros:?}");

        let mut rng = Scripted::new(seed, zeros.clone());
        let got = f
            .design
            .evaluate_voted_group(&f.chip, inst.delays_ps(), &group, f64::INFINITY, votes, &mut rng);
        assert_eq!(got.map(|r| r.bits()).to_vec(), want, "grouped path, zero at calls {zeros:?}");
        assert_eq!(rng.calls, want_calls, "grouped path, zero at calls {zeros:?}");
    }
}
