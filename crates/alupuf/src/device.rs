//! The ALU PUF device model.
//!
//! Two identically designed ripple-carry adders (the redundant ALUs of a
//! commodity processor) are fed the same operands by a synchronisation
//! logic; per-bit arbiters latch which ALU's sum bit settles first. The
//! settling-time difference is dominated by per-chip manufacturing
//! variation — that is the PUF.
//!
//! The model separates three concerns:
//!
//! * [`AluPufDesign`] — the *layout*: netlist of both ALUs with shared
//!   inputs, plus the per-bit design skew (residual layout asymmetry) that
//!   is identical for every manufactured chip.
//! * [`PufChip`] — one *manufactured die*: per-gate threshold voltages from
//!   the quad-tree process model plus per-chip arbiter input offsets.
//! * [`PufInstance`] — a chip *operating* at a given voltage/temperature
//!   corner, ready to evaluate challenges (with metastability and jitter
//!   noise) or to race against a clock deadline (the overclocking model).

use crate::challenge::{Challenge, RawResponse};
use pufatt_silicon::env::Environment;
use pufatt_silicon::gen::{ripple_carry_adder_shared, RcaPorts};
use pufatt_silicon::netlist::{FanoutCsr, NetId, Netlist};
use pufatt_silicon::sim::EventSimulator;
use pufatt_silicon::sta::ArrivalTimes;
use pufatt_silicon::variation::{Chip, ChipSampler};
use pufatt_silicon::wave::{SlicedWaveSimulator, LANES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Arbiter and noise parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterConfig {
    /// Metastability window τ in ps: a settling-time difference Δ resolves
    /// to 1 with probability σ(−Δ/τ) (logistic).
    pub metastability_tau_ps: f64,
    /// Per-evaluation Gaussian jitter on Δ in ps (supply/thermal noise).
    pub jitter_sigma_ps: f64,
    /// Standard deviation of the fixed per-bit layout asymmetry shared by
    /// all chips of the design, in ps. This is what pulls the raw
    /// inter-chip HD below the ideal 50 % (paper: 35.9 %).
    pub design_skew_sigma_ps: f64,
    /// Standard deviation of the per-chip, per-bit arbiter input offset
    /// in ps (arbiter device mismatch).
    pub chip_offset_sigma_ps: f64,
    /// Register setup time T_set in ps, used by the overclocking condition
    /// `T_ALU + T_set < T_cycle`.
    pub setup_time_ps: f64,
    /// Relative per-gate delay mismatch baked into the *design* (shared by
    /// every chip): residual layout asymmetry in ASICs, routing detours in
    /// FPGAs. Unlike the per-bit arbiter skew this component is
    /// challenge-dependent (it rides on whichever paths the carry takes),
    /// so PDL tuning cannot cancel it — which is why two tuned FPGA boards
    /// still agree on most response bits (paper: 18.8 % inter-chip HD).
    pub routing_mismatch_sigma: f64,
}

impl ArbiterConfig {
    /// Parameters for the ASIC-style simulation of the paper's §4.1
    /// (calibrated to reproduce ≈ 11 % intra-chip and ≈ 36 % raw
    /// inter-chip HD at width 32).
    pub fn asic() -> Self {
        ArbiterConfig {
            metastability_tau_ps: 0.8,
            jitter_sigma_ps: 1.3,
            design_skew_sigma_ps: 4.3,
            chip_offset_sigma_ps: 1.5,
            setup_time_ps: 30.0,
            routing_mismatch_sigma: 0.015,
        }
    }

    /// Parameters for the FPGA prototype model: much larger routing skew
    /// (LUT fabric, automated routing) and stronger environmental jitter,
    /// per the paper's FPGA measurements (18.8 % inter, 18.6 % intra).
    pub fn fpga() -> Self {
        ArbiterConfig {
            metastability_tau_ps: 0.7,
            jitter_sigma_ps: 1.1,
            design_skew_sigma_ps: 14.0,
            chip_offset_sigma_ps: 3.0,
            setup_time_ps: 45.0,
            routing_mismatch_sigma: 0.30,
        }
    }
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig::asic()
    }
}

/// Adder microarchitecture of the racing ALUs.
///
/// The paper uses ripple-carry adders; the alternatives let the
/// reproduction quantify how much PUF quality faster datapaths give up
/// (the `adder_ablation` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdderKind {
    /// Ripple-carry (the paper's choice): longest carry chains, most
    /// accumulated variation.
    #[default]
    RippleCarry,
    /// Carry-lookahead with 4-bit groups: short balanced paths.
    CarryLookahead,
    /// Carry-select with 4-bit blocks: speculative ripples + muxes.
    CarrySelect,
}

/// Configuration of an ALU PUF design.
#[derive(Debug, Clone, PartialEq)]
pub struct AluPufConfig {
    /// Adder operand width = response bits (paper: 32 simulated, 16 FPGA).
    pub width: usize,
    /// Adder microarchitecture (paper: ripple-carry).
    pub adder: AdderKind,
    /// Arbiter/noise parameters.
    pub arbiter: ArbiterConfig,
    /// Seed for the design-time skew draw; two designs with the same seed
    /// have identical layout asymmetry.
    pub design_seed: u64,
}

impl AluPufConfig {
    /// The paper's simulated configuration: 32-bit responses, ASIC noise.
    pub fn paper_32bit() -> Self {
        AluPufConfig {
            width: 32,
            adder: AdderKind::RippleCarry,
            arbiter: ArbiterConfig::asic(),
            design_seed: 0x41_4C_55_50,
        }
    }

    /// The paper's FPGA prototype configuration: 16-bit responses.
    pub fn fpga_16bit() -> Self {
        AluPufConfig {
            width: 16,
            adder: AdderKind::RippleCarry,
            arbiter: ArbiterConfig::fpga(),
            design_seed: 0x46_50_47_41,
        }
    }
}

/// The ALU PUF design: netlist (two adders sharing their operand buses) and
/// design-time skew. Shared by every chip manufactured from it.
#[derive(Debug, Clone)]
pub struct AluPufDesign {
    config: AluPufConfig,
    netlist: Netlist,
    alu0: RcaPorts,
    alu1: RcaPorts,
    design_skew_ps: Vec<f64>,
    gate_delay_factor: Vec<f64>,
    /// Shared fanout adjacency, built once and reused by every simulator,
    /// delay-model evaluation and STA pass over this netlist.
    fanouts: FanoutCsr,
    /// Position of each operand-bus bit among the primary inputs, so
    /// stimulus vectors can be filled without searching the bus lists.
    a_pi_pos: Vec<u32>,
    b_pi_pos: Vec<u32>,
    /// Idle bit-sliced engines, shared by every device, instance and
    /// emulator of this design (see [`AluPufDesign::idle_engines`]).
    engines: EnginePool,
}

/// The design's pool of idle [`LaneEngine`]s. An engine depends only on
/// the netlist plus a delay table, and every checkout retargets it to the
/// caller's delays, so one pool serves every chip of the design and grows
/// with the number of concurrent users, not with fleet size. A clone of the
/// design starts with an empty pool.
#[derive(Default)]
struct EnginePool(Mutex<Vec<LaneEngine>>);

/// A pooled bit-sliced engine together with the stimulus buffers it is fed
/// from, so a checkout from a warm pool allocates nothing.
pub(crate) struct LaneEngine {
    sim: SlicedWaveSimulator,
    from: Vec<u64>,
    to: Vec<u64>,
}

impl LaneEngine {
    /// Races up to [`LANES`] challenges of `design`, one per lane (see
    /// [`AluPufDesign::stimulus_lanes_into`]).
    pub(crate) fn run(&mut self, design: &AluPufDesign, challenges: &[Challenge]) {
        design.stimulus_lanes_into(challenges, &mut self.from, &mut self.to);
        self.sim.run_lanes(&self.from, &self.to);
    }

    /// Per-lane settling times of `net` in the last run.
    pub(crate) fn settle_lanes_into(&self, net: NetId, out: &mut [f64; LANES]) {
        self.sim.settle_lanes_into(net, out);
    }
}

/// The noise-free `(alu0, alu1)` settling times of every sum bit for the
/// full-carry canary ([`Challenge::canary`]) on one chip at one set of
/// gate delays: empty until the first group that races the canary fills
/// it (see [`AluPufDesign::evaluate_voted_group_memo`]).
///
/// Attestation fires the canary in every PUF query, and it is the slowest
/// lane of the query's bit-sliced run, yet its settling times are a
/// constant of the chip. A device holds one of these for its lifetime
/// (`width` × 16 bytes once filled); its delays never change after
/// construction, so the memo is never invalidated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CanarySettle(Option<Box<[(f64, f64)]>>);

impl CanarySettle {
    /// An empty memo.
    pub fn new() -> Self {
        CanarySettle::default()
    }

    /// The memoised settling times, one `(alu0, alu1)` pair per sum bit,
    /// once a group has raced the canary.
    pub fn settle(&self) -> Option<&[(f64, f64)]> {
        self.0.as_deref()
    }
}

impl Clone for EnginePool {
    fn clone(&self) -> Self {
        EnginePool::default()
    }
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool").field("idle", &lock(&self.0).len()).finish()
    }
}

impl AluPufDesign {
    /// Instantiates the design.
    ///
    /// # Panics
    ///
    /// Panics if `config.width` is not in `2..=64`.
    pub fn new(config: AluPufConfig) -> Self {
        assert!((2..=64).contains(&config.width), "width {} out of range", config.width);
        let w = config.width;
        let mut netlist = Netlist::new();
        let a_bus = netlist.input_bus("a", w);
        let b_bus = netlist.input_bus("b", w);
        let cin = netlist.input("cin");
        // The redundant ALUs sit in adjacent rows (paper: "in close
        // proximity", so systematic spatial variation mostly cancels).
        let build = |netlist: &mut Netlist, prefix: &str, row: f64| match config.adder {
            AdderKind::RippleCarry => ripple_carry_adder_shared(netlist, &a_bus, &b_bus, cin, prefix, row),
            AdderKind::CarryLookahead => {
                pufatt_silicon::gen_adders::carry_lookahead_adder_shared(netlist, &a_bus, &b_bus, cin, prefix, row)
            }
            AdderKind::CarrySelect => {
                pufatt_silicon::gen_adders::carry_select_adder_shared(netlist, &a_bus, &b_bus, cin, prefix, row)
            }
        };
        let alu0 = build(&mut netlist, "alu0", 0.0);
        let alu1 = build(&mut netlist, "alu1", 4.0);
        netlist.validate().expect("generated ALU PUF netlist is well formed");

        let mut design_rng = ChaCha8Rng::seed_from_u64(config.design_seed);
        let design_skew_ps = (0..w)
            .map(|_| gaussian(&mut design_rng) * config.arbiter.design_skew_sigma_ps)
            .collect();
        let gate_delay_factor = (0..netlist.gate_count())
            .map(|_| (1.0 + gaussian(&mut design_rng) * config.arbiter.routing_mismatch_sigma).max(0.3))
            .collect();
        let fanouts = netlist.fanout_csr();
        let pi_positions = |bus: &[NetId]| -> Vec<u32> {
            bus.iter()
                .map(|&n| {
                    netlist
                        .primary_inputs()
                        .iter()
                        .position(|&p| p == n)
                        .expect("operand bus nets are primary inputs") as u32
                })
                .collect()
        };
        let a_pi_pos = pi_positions(&a_bus);
        let b_pi_pos = pi_positions(&b_bus);
        AluPufDesign {
            config,
            netlist,
            alu0,
            alu1,
            design_skew_ps,
            gate_delay_factor,
            fanouts,
            a_pi_pos,
            b_pi_pos,
            engines: EnginePool::default(),
        }
    }

    /// The design configuration.
    pub fn config(&self) -> &AluPufConfig {
        &self.config
    }

    /// Response width in bits.
    pub fn width(&self) -> usize {
        self.config.width
    }

    /// The combined netlist of both ALUs.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The shared fanout adjacency of the netlist. Build simulators over it
    /// with [`EventSimulator::with_fanouts`] instead of re-deriving it.
    pub fn fanout_csr(&self) -> &FanoutCsr {
        &self.fanouts
    }

    /// Per-bit design skew in ps (positive skew favours a `0` response).
    pub fn design_skew_ps(&self) -> &[f64] {
        &self.design_skew_ps
    }

    /// Per-gate design-level delay factors (layout/routing mismatch shared
    /// by all chips).
    pub fn gate_delay_factor(&self) -> &[f64] {
        &self.gate_delay_factor
    }

    /// Per-gate delays of `chip` at `env`, including the design-level
    /// mismatch factors. Both the operating device and the enrollment
    /// interface use this — the manufacturer knows its own layout.
    pub fn effective_delays_ps(&self, chip: &Chip, env: &Environment) -> Vec<f64> {
        let mut d = chip.gate_delays_with(&self.netlist, env, &self.fanouts);
        for (delay, &factor) in d.iter_mut().zip(&self.gate_delay_factor) {
            *delay *= factor;
        }
        d
    }

    /// Manufactures one chip of this design.
    pub fn fabricate<R: Rng + ?Sized>(&self, sampler: &ChipSampler, rng: &mut R) -> PufChip {
        let chip = sampler.sample(&self.netlist, rng);
        let arbiter_offset_ps = (0..self.config.width)
            .map(|_| gaussian(rng) * self.config.arbiter.chip_offset_sigma_ps)
            .collect();
        PufChip { chip, arbiter_offset_ps }
    }

    /// Manufactures `count` chips.
    pub fn fabricate_many<R: Rng + ?Sized>(&self, sampler: &ChipSampler, count: usize, rng: &mut R) -> Vec<PufChip> {
        (0..count).map(|_| self.fabricate(sampler, rng)).collect()
    }

    pub(crate) fn alu0_ports(&self) -> &RcaPorts {
        &self.alu0
    }

    pub(crate) fn alu1_ports(&self) -> &RcaPorts {
        &self.alu1
    }

    /// The raced sum buses: `(alu0.sum, alu1.sum)`, bit `i` of each feeding
    /// arbiter `i`. Exposed for external timing analyses and benchmarks.
    pub fn sum_buses(&self) -> (&[NetId], &[NetId]) {
        (&self.alu0.sum, &self.alu1.sum)
    }

    /// Builds the stimulus pair for `challenge` as fresh vectors. Hot paths
    /// should use [`AluPufDesign::stimulus_into`] with reused buffers.
    pub fn stimulus_vectors(&self, challenge: Challenge) -> (Vec<bool>, Vec<bool>) {
        let (mut from, mut to) = (Vec::new(), Vec::new());
        self.stimulus_into(challenge, &mut from, &mut to);
        (from, to)
    }

    /// Fills the stimulus pair for `challenge` into reusable buffers
    /// (cleared and resized to the primary-input count; no allocation once
    /// the buffers have capacity).
    ///
    /// The race launches from the bitwise complement of the operands so
    /// every input toggles at t = 0 (the synchronisation logic's job); the
    /// carry-in stays 0 on both sides.
    pub fn stimulus_into(&self, challenge: Challenge, from: &mut Vec<bool>, to: &mut Vec<bool>) {
        let n = self.netlist.primary_inputs().len();
        from.clear();
        from.resize(n, false);
        to.clear();
        to.resize(n, false);
        let mask = crate::challenge::width_mask(self.config.width);
        let (inv_a, inv_b) = (!challenge.a & mask, !challenge.b & mask);
        for (bit, &pos) in self.a_pi_pos.iter().enumerate() {
            from[pos as usize] = (inv_a >> bit) & 1 == 1;
            to[pos as usize] = (challenge.a >> bit) & 1 == 1;
        }
        for (bit, &pos) in self.b_pi_pos.iter().enumerate() {
            from[pos as usize] = (inv_b >> bit) & 1 == 1;
            to[pos as usize] = (challenge.b >> bit) & 1 == 1;
        }
    }

    /// Packs up to [`LANES`] challenges into per-primary-input lane masks
    /// for the bit-sliced engine: bit `L` of mask `p` is challenge `L`'s
    /// value of primary input `p`. Unused lanes stay idle (no transition),
    /// so short blocks cost nothing extra.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] challenges are passed.
    pub fn stimulus_lanes_into(&self, challenges: &[Challenge], from: &mut Vec<u64>, to: &mut Vec<u64>) {
        assert!(challenges.len() <= LANES, "at most {LANES} challenges per block");
        let n = self.netlist.primary_inputs().len();
        from.clear();
        from.resize(n, 0);
        to.clear();
        to.resize(n, 0);
        let mask = crate::challenge::width_mask(self.config.width);
        for (lane, ch) in challenges.iter().enumerate() {
            let (inv_a, inv_b) = (!ch.a & mask, !ch.b & mask);
            for (bit, &pos) in self.a_pi_pos.iter().enumerate() {
                from[pos as usize] |= ((inv_a >> bit) & 1) << lane;
                to[pos as usize] |= ((ch.a >> bit) & 1) << lane;
            }
            for (bit, &pos) in self.b_pi_pos.iter().enumerate() {
                from[pos as usize] |= ((inv_b >> bit) & 1) << lane;
                to[pos as usize] |= ((ch.b >> bit) & 1) << lane;
            }
        }
    }
}

/// Poison-tolerant lock: engine pools hold plain data, so a panicking
/// worker cannot leave them in a broken state.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl AluPufDesign {
    /// Runs `f` on a bit-sliced engine retargeted to `delays_ps`, checked
    /// out of the design's pool (built only when the pool is dry) and
    /// returned afterwards (an engine whose `f` panicked is dropped). The
    /// pool's mutex is a leaf lock: it is held only to pop or push, never
    /// while `f` runs, and nothing else is locked under it.
    pub(crate) fn with_engine<T>(&self, delays_ps: &[f64], f: impl FnOnce(&mut LaneEngine) -> T) -> T {
        let pooled = lock(&self.engines.0).pop();
        let mut engine = match pooled {
            Some(mut engine) => {
                engine.sim.set_delays_ps(delays_ps);
                engine
            }
            None => LaneEngine {
                sim: SlicedWaveSimulator::new(&self.netlist, delays_ps),
                from: Vec::new(),
                to: Vec::new(),
            },
        };
        let out = f(&mut engine);
        lock(&self.engines.0).push(engine);
        out
    }

    /// Number of idle engines in the design's pool. While no evaluation
    /// runs, this is the most bit-sliced evaluations that ever ran at once
    /// over all chips of the design.
    pub fn idle_engines(&self) -> usize {
        lock(&self.engines.0).len()
    }

    /// Evaluates a group of up to [`LANES`] challenges on `chip` (operating
    /// with the effective gate delays `delays_ps`), each majority-voted
    /// over `votes` arbiter draws against the clock period `cycle_ps`
    /// (`f64::INFINITY` for safe clocking).
    ///
    /// The noise-free settling times of the whole group come from one
    /// bit-sliced run; the arbiter noise is then drawn from `rng` in
    /// challenge order, vote order and bit order. Responses and the RNG
    /// position afterwards are therefore bit-identical to calling
    /// [`PufInstance::evaluate_voted_clocked`] on each challenge in turn —
    /// this is the prover's per-query unit of work, without an event
    /// simulator per call.
    ///
    /// # Panics
    ///
    /// Panics if `N > LANES`, `votes == 0`, or `delays_ps` does not have
    /// one delay per gate.
    pub fn evaluate_voted_group<const N: usize, R: Rng + ?Sized>(
        &self,
        chip: &PufChip,
        delays_ps: &[f64],
        challenges: &[Challenge; N],
        cycle_ps: f64,
        votes: u32,
        rng: &mut R,
    ) -> [RawResponse; N] {
        self.evaluate_voted_group_memo(chip, delays_ps, challenges, cycle_ps, votes, None, rng)
    }

    /// [`AluPufDesign::evaluate_voted_group`] with the full-carry canary's
    /// settling times kept in `canary` (see [`CanarySettle`]).
    ///
    /// Once `canary` is filled, every lane holding
    /// [`Challenge::canary`] is served from it and only the other lanes
    /// race through the engine; a group that races the canary while
    /// `canary` is empty fills it. A lane's settling times do not depend
    /// on the other lanes of a bit-sliced run, and the arbiter noise is
    /// drawn for every lane as before, so the responses and the position
    /// of `rng` are those of `evaluate_voted_group`. `None` races every
    /// lane.
    ///
    /// `canary` belongs to one chip at one set of `delays_ps`: a memo
    /// filled for other delays gives other settling times.
    ///
    /// # Panics
    ///
    /// As [`AluPufDesign::evaluate_voted_group`].
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_voted_group_memo<const N: usize, R: Rng + ?Sized>(
        &self,
        chip: &PufChip,
        delays_ps: &[f64],
        challenges: &[Challenge; N],
        cycle_ps: f64,
        votes: u32,
        canary: Option<&mut CanarySettle>,
        rng: &mut R,
    ) -> [RawResponse; N] {
        assert!(N <= LANES, "at most {LANES} challenges per group");
        assert!(votes > 0, "at least one vote required");
        let w = self.width();
        let canary_challenge = Challenge::canary(w);
        let memo = canary.as_deref().and_then(CanarySettle::settle);
        // `lane[j]`: challenge `j`'s lane in the engine run, `None` when it
        // is served from the memo; `raced[..n]` holds the raced challenges.
        let (mut lane, mut raced, mut n) = ([None; N], [canary_challenge; N], 0);
        for (j, ch) in challenges.iter().enumerate() {
            if memo.is_none() || *ch != canary_challenge {
                (lane[j], raced[n]) = (Some(n), *ch);
                n += 1;
            }
        }
        let mut settle = [[(0.0f64, 0.0f64); 64]; N];
        if n > 0 {
            self.with_engine(delays_ps, |engine| {
                engine.run(self, &raced[..n]);
                let (mut t0, mut t1) = ([0.0f64; LANES], [0.0f64; LANES]);
                for i in 0..w {
                    engine.settle_lanes_into(self.alu0.sum[i], &mut t0);
                    engine.settle_lanes_into(self.alu1.sum[i], &mut t1);
                    for (s, &l) in settle.iter_mut().zip(&lane) {
                        if let Some(l) = l {
                            s[i] = (t0[l], t1[l]);
                        }
                    }
                }
            });
        }
        if let Some(memo) = memo {
            for (s, l) in settle.iter_mut().zip(&lane) {
                if l.is_none() {
                    s[..w].copy_from_slice(memo);
                }
            }
        } else if let Some(canary) = canary {
            if let Some(j) = challenges.iter().position(|ch| *ch == canary_challenge) {
                canary.0 = Some(settle[j][..w].into());
            }
        }
        let deadline = cycle_ps - self.config.arbiter.setup_time_ps;
        // Zero delay-line offsets: only the FPGA tuning loop sets them, on
        // a `PufInstance`.
        let pdl = [0.0f64; 64];
        std::array::from_fn(|j| {
            let settle = |i: usize| settle[j][i];
            let bits = vote_bits(self, &chip.arbiter_offset_ps, &pdl[..w], &settle, deadline, votes, rng);
            RawResponse::new(bits, w)
        })
    }

    /// The attestation-clock calibration of [`PufInstance::calibrate_cycle_ps`]
    /// for the chip whose effective gate delays are `delays_ps`.
    ///
    /// The first challenge is the full-carry canary (all ones + 1), which
    /// ripples the complete carry chain: attestation fires it in every PUF
    /// query, so the clock must accommodate it. The other `samples − 1`
    /// are drawn from `rng`, and after each challenge `rng` advances by
    /// the words one arbiter race at a safe clock draws. So the challenges
    /// and the stream position afterwards are exactly those of evaluating
    /// each challenge in turn, while the settling times come from the
    /// design's pooled bit-sliced engine, 64 challenges per run.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`, `guard < 1.0`, or `delays_ps` does not
    /// have one delay per gate.
    pub fn calibrate_cycle_ps<R: Rng + ?Sized>(
        &self,
        delays_ps: &[f64],
        samples: usize,
        guard: f64,
        rng: &mut R,
    ) -> f64 {
        assert!(samples > 0, "need at least one calibration sample");
        assert!(guard >= 1.0, "guard band must not cut into observed settling times");
        let w = self.width();
        let canary = Challenge::canary(w);
        let challenges: Vec<Challenge> = (0..samples)
            .map(|i| {
                let ch = if i == 0 { canary } else { Challenge::random(rng, w) };
                // At an infinite deadline the race's draws do not depend on
                // the settling times, and with no bit open it skips the math.
                race_bits(self, &[], &[], &|_| (0.0, 0.0), f64::INFINITY, 0, rng);
                ch
            })
            .collect();
        let mut worst = 0.0f64;
        self.with_engine(delays_ps, |engine| {
            let mut settle = [0.0f64; LANES];
            for block in challenges.chunks(LANES) {
                engine.run(self, block);
                for &net in self.alu0.sum.iter().chain(&self.alu1.sum) {
                    engine.settle_lanes_into(net, &mut settle);
                    worst = settle[..block.len()].iter().fold(worst, |worst, &t| worst.max(t));
                }
            }
        });
        worst * guard + self.config.arbiter.setup_time_ps
    }
}

/// One manufactured ALU PUF die.
#[derive(Debug, Clone)]
pub struct PufChip {
    chip: Chip,
    arbiter_offset_ps: Vec<f64>,
}

impl PufChip {
    /// Assembles a chip from explicit parts (used by the aging model to
    /// construct drifted copies).
    ///
    /// # Panics
    ///
    /// Panics if the arbiter-offset count disagrees with `width`.
    pub fn with_parts(chip: Chip, arbiter_offset_ps: Vec<f64>, width: usize) -> Self {
        assert_eq!(arbiter_offset_ps.len(), width, "one arbiter offset per response bit");
        PufChip { chip, arbiter_offset_ps }
    }

    /// The underlying silicon sample.
    pub fn silicon(&self) -> &Chip {
        &self.chip
    }

    /// Per-bit arbiter input offsets in ps.
    pub fn arbiter_offset_ps(&self) -> &[f64] {
        &self.arbiter_offset_ps
    }
}

/// Detailed result of one PUF evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The arbiter decisions.
    pub response: RawResponse,
    /// Per-bit effective settling-time difference Δ_i in ps **before**
    /// jitter (Δ < 0 means ALU 0 settled first ⇒ bit tends to 1).
    pub delta_ps: Vec<f64>,
    /// Per-bit settling time of ALU 0's sum outputs in ps.
    pub settle0_ps: Vec<f64>,
    /// Per-bit settling time of ALU 1's sum outputs in ps.
    pub settle1_ps: Vec<f64>,
}

/// Reusable per-evaluation state: one persistent simulation engine plus the
/// stimulus buffers it is fed from. Steady-state evaluations touch only
/// these buffers and allocate nothing.
#[derive(Debug)]
struct EvalScratch<'a> {
    sim: EventSimulator<'a>,
    from: Vec<bool>,
    to: Vec<bool>,
}

/// A chip operating at a fixed voltage/temperature corner.
///
/// Precomputes the per-gate delays for the corner and caches one simulation
/// engine (netlist + shared fanout CSR + scratch buffers), so repeated
/// evaluations only pay for event processing — zero heap allocation at
/// steady state on the response-only paths.
#[derive(Debug)]
pub struct PufInstance<'a> {
    design: &'a AluPufDesign,
    puf_chip: &'a PufChip,
    env: Environment,
    delays_ps: Vec<f64>,
    /// Additional per-bit delay offsets (programmable delay lines in the
    /// FPGA prototype); zero for ASIC instances.
    pdl_offset_ps: Vec<f64>,
    scratch: RefCell<EvalScratch<'a>>,
}

impl<'a> PufInstance<'a> {
    /// Binds a chip to an operating point.
    pub fn new(design: &'a AluPufDesign, puf_chip: &'a PufChip, env: Environment) -> Self {
        let delays_ps = design.effective_delays_ps(&puf_chip.chip, &env);
        PufInstance::from_delays(design, puf_chip, env, delays_ps)
    }

    /// Binds a chip to an operating point with precomputed effective gate
    /// delays, skipping the delay-model evaluation (used by callers that
    /// cache the delay vector across short-lived instances).
    ///
    /// # Panics
    ///
    /// Panics if `delays_ps.len()` differs from the design's gate count.
    pub fn from_delays(design: &'a AluPufDesign, puf_chip: &'a PufChip, env: Environment, delays_ps: Vec<f64>) -> Self {
        assert_eq!(delays_ps.len(), design.netlist().gate_count(), "one delay per gate required");
        let scratch = RefCell::new(EvalScratch {
            sim: EventSimulator::with_fanouts(&design.netlist, &delays_ps, &design.fanouts),
            from: Vec::new(),
            to: Vec::new(),
        });
        PufInstance {
            design,
            puf_chip,
            env,
            delays_ps,
            pdl_offset_ps: vec![0.0; design.width()],
            scratch,
        }
    }

    /// The effective per-gate delays at this operating point.
    pub fn delays_ps(&self) -> &[f64] {
        &self.delays_ps
    }

    /// The operating point.
    pub fn env(&self) -> Environment {
        self.env
    }

    /// The design this instance belongs to.
    pub fn design(&self) -> &AluPufDesign {
        self.design
    }

    /// Sets per-bit delay-line offsets (used by the FPGA PDL tuning loop).
    ///
    /// # Panics
    ///
    /// Panics if `offsets.len()` differs from the response width.
    pub fn set_pdl_offsets_ps(&mut self, offsets: &[f64]) {
        assert_eq!(offsets.len(), self.design.width(), "one offset per response bit");
        self.pdl_offset_ps.copy_from_slice(offsets);
    }

    /// Worst-case ALU propagation delay `T_ALU` at this corner (static
    /// timing over both ALUs' outputs).
    pub fn alu_critical_path_ps(&self) -> f64 {
        let sta = ArrivalTimes::compute(&self.design.netlist, &self.delays_ps);
        let w0 = sta.worst_of(&self.design.alu0.sum).max(sta.at(self.design.alu0.cout));
        let w1 = sta.worst_of(&self.design.alu1.sum).max(sta.at(self.design.alu1.cout));
        w0.max(w1)
    }

    /// Minimum clock period for reliable PUF operation:
    /// `T_ALU + T_set` (paper §4.2, overclocking resiliency).
    pub fn min_reliable_cycle_ps(&self) -> f64 {
        self.alu_critical_path_ps() + self.design.config.arbiter.setup_time_ps
    }

    /// Calibrates the tightest clock period at which the PUF stays
    /// reliable *for realistic challenges*: the maximum observed settling
    /// time over `samples` random challenges, times `guard`, plus the
    /// register setup time.
    ///
    /// Static timing ([`PufInstance::min_reliable_cycle_ps`]) bounds the
    /// worst case over all inputs, but random `add` operands rarely ripple
    /// the full carry chain, so the empirical limit is much tighter — and
    /// the paper's overclocking defence (§4.2) only bites when the
    /// attestation clock is set near this empirical limit ("it is crucial
    /// to carefully set the clock frequency used for attestation").
    ///
    /// See [`AluPufDesign::calibrate_cycle_ps`] for how `rng` is consumed.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0` or `guard < 1.0`.
    pub fn calibrate_cycle_ps<R: Rng + ?Sized>(&self, samples: usize, guard: f64, rng: &mut R) -> f64 {
        self.design.calibrate_cycle_ps(&self.delays_ps, samples, guard, rng)
    }

    /// Evaluates one challenge with full detail.
    pub fn evaluate_detailed<R: Rng + ?Sized>(&self, challenge: Challenge, rng: &mut R) -> Evaluation {
        self.evaluate_inner(challenge, rng, f64::INFINITY)
    }

    /// Evaluates one challenge, returning only the response.
    ///
    /// This is the lean path: it reuses the cached engine and stimulus
    /// buffers and skips the per-bit diagnostic vectors that
    /// [`PufInstance::evaluate_detailed`] collects, so it allocates nothing
    /// at steady state.
    pub fn evaluate<R: Rng + ?Sized>(&self, challenge: Challenge, rng: &mut R) -> RawResponse {
        self.evaluate_bits(challenge, rng, f64::INFINITY)
    }

    /// Evaluates one challenge `votes` times and majority-votes each bit —
    /// the standard temporal-majority noise suppression of PUF
    /// post-processing logic. Suppresses occasionally-flipping bits while
    /// leaving truly metastable arbiters at 50/50, which is what makes the
    /// error-correcting code's 7-error budget sufficient in deployment.
    ///
    /// # Panics
    ///
    /// Panics if `votes == 0`.
    pub fn evaluate_voted<R: Rng + ?Sized>(&self, challenge: Challenge, votes: u32, rng: &mut R) -> RawResponse {
        self.evaluate_voted_clocked(challenge, f64::INFINITY, votes, rng)
    }

    /// Voted evaluation against a clock deadline (see
    /// [`PufInstance::evaluate_clocked`]).
    ///
    /// # Panics
    ///
    /// Panics if `votes == 0`.
    pub fn evaluate_voted_clocked<R: Rng + ?Sized>(
        &self,
        challenge: Challenge,
        cycle_ps: f64,
        votes: u32,
        rng: &mut R,
    ) -> RawResponse {
        assert!(votes > 0, "at least one vote required");
        let deadline = cycle_ps - self.design.config.arbiter.setup_time_ps;
        // The settling times are noise-free, so one simulation serves every
        // vote; only the arbiter draws are repeated (the RNG consumption is
        // identical to simulating each vote from scratch).
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        self.design.stimulus_into(challenge, &mut s.from, &mut s.to);
        s.sim.run_transition_in_place(&s.from, &s.to);
        let sim = &s.sim;
        let settle =
            |i: usize| (sim.settle_or_zero(self.design.alu0.sum[i]), sim.settle_or_zero(self.design.alu1.sum[i]));
        let bits = vote_bits(
            self.design,
            &self.puf_chip.arbiter_offset_ps,
            &self.pdl_offset_ps,
            &settle,
            deadline,
            votes,
            rng,
        );
        RawResponse::new(bits, self.design.width())
    }

    /// Evaluates one challenge with the response register clocked at
    /// `cycle_ps`: sum bits that have not settled `setup_time_ps` before the
    /// capturing clock edge are latched metastably (uniformly random) —
    /// the paper's overclocking-attack failure mode.
    pub fn evaluate_clocked<R: Rng + ?Sized>(&self, challenge: Challenge, cycle_ps: f64, rng: &mut R) -> RawResponse {
        let deadline = cycle_ps - self.design.config.arbiter.setup_time_ps;
        self.evaluate_bits(challenge, rng, deadline)
    }

    /// Evaluates many challenges in parallel, returning one response per
    /// challenge in order.
    ///
    /// Each challenge draws its arbiter noise from an independent RNG
    /// stream seeded by `(noise_seed, challenge index)`, so the result is
    /// **bit-identical for any `threads` value** — the thread count only
    /// changes wall-clock time. Challenges are packed into fixed 64-lane
    /// blocks (by global index) evaluated by the bit-sliced waveform engine;
    /// workers pull whole blocks off a shared atomic cursor (chunked work
    /// stealing), and each worker checks a long-lived engine out of the
    /// design's pool, so repeated batch calls pay engine construction
    /// once.
    pub fn evaluate_batch(&self, challenges: &[Challenge], noise_seed: u64, threads: usize) -> Vec<RawResponse> {
        self.evaluate_batch_inner(challenges, noise_seed, 1, f64::INFINITY, threads)
    }

    /// Parallel batched evaluation with per-challenge temporal majority
    /// voting (see [`PufInstance::evaluate_voted`]). Deterministic in
    /// `(noise_seed, challenge index, votes)`; independent of `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `votes == 0`.
    pub fn evaluate_batch_voted(
        &self,
        challenges: &[Challenge],
        votes: u32,
        noise_seed: u64,
        threads: usize,
    ) -> Vec<RawResponse> {
        assert!(votes > 0, "at least one vote required");
        self.evaluate_batch_inner(challenges, noise_seed, votes, f64::INFINITY, threads)
    }

    fn evaluate_batch_inner(
        &self,
        challenges: &[Challenge],
        noise_seed: u64,
        votes: u32,
        deadline_ps: f64,
        threads: usize,
    ) -> Vec<RawResponse> {
        let w = self.design.width();
        if challenges.is_empty() {
            return Vec::new();
        }
        // Work is stolen in whole 64-lane blocks addressed by *global*
        // block index, so chunking never shifts a challenge's noise stream.
        let blocks = challenges.len().div_ceil(LANES);
        let threads = threads.clamp(1, blocks);
        // `self` is !Sync (the scratch RefCell); capture only the Sync
        // parts for the workers.
        let design = self.design;
        let delays = self.delays_ps.as_slice();
        let offsets = self.puf_chip.arbiter_offset_ps.as_slice();
        let pdl = self.pdl_offset_ps.as_slice();
        let mut out = vec![RawResponse::new(0, w); challenges.len()];
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<&mut [RawResponse]>> = out.chunks_mut(LANES).map(Mutex::new).collect();
        std::thread::scope(|scope| {
            let (next, slots) = (&next, &slots);
            for _ in 0..threads {
                scope.spawn(move || {
                    design.with_engine(delays, |engine| {
                        let (sum0, sum1) = design.sum_buses();
                        let mut t0 = vec![[0.0f64; LANES]; w];
                        let mut t1 = vec![[0.0f64; LANES]; w];
                        loop {
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            if b >= blocks {
                                break;
                            }
                            let start = b * LANES;
                            let chs = &challenges[start..challenges.len().min(start + LANES)];
                            engine.run(design, chs);
                            for i in 0..w {
                                engine.settle_lanes_into(sum0[i], &mut t0[i]);
                                engine.settle_lanes_into(sum1[i], &mut t1[i]);
                            }
                            let mut slot = lock(&slots[b]);
                            for (k, resp) in slot.iter_mut().enumerate() {
                                let mut rng =
                                    ChaCha8Rng::seed_from_u64(challenge_stream_seed(noise_seed, (start + k) as u64));
                                let settle = |i: usize| (t0[i][k], t1[i][k]);
                                let bits = vote_bits(design, offsets, pdl, &settle, deadline_ps, votes, &mut rng);
                                *resp = RawResponse::new(bits, w);
                            }
                        }
                    });
                });
            }
        });
        drop(slots);
        out
    }

    /// Shared engine path for the response-only evaluations.
    fn evaluate_bits<R: Rng + ?Sized>(&self, challenge: Challenge, rng: &mut R, deadline_ps: f64) -> RawResponse {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        self.design.stimulus_into(challenge, &mut s.from, &mut s.to);
        s.sim.run_transition_in_place(&s.from, &s.to);
        let sim = &s.sim;
        let settle =
            |i: usize| (sim.settle_or_zero(self.design.alu0.sum[i]), sim.settle_or_zero(self.design.alu1.sum[i]));
        let (offsets, pdl) = (&self.puf_chip.arbiter_offset_ps, &self.pdl_offset_ps);
        let bits = race_bits(self.design, offsets, pdl, &settle, deadline_ps, u64::MAX, rng);
        RawResponse::new(bits, self.design.width())
    }

    fn evaluate_inner<R: Rng + ?Sized>(&self, challenge: Challenge, rng: &mut R, deadline_ps: f64) -> Evaluation {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        self.design.stimulus_into(challenge, &mut s.from, &mut s.to);
        s.sim.run_transition_in_place(&s.from, &s.to);

        let w = self.design.width();
        let mut delta_ps = Vec::with_capacity(w);
        let mut settle0 = Vec::with_capacity(w);
        let mut settle1 = Vec::with_capacity(w);
        for i in 0..w {
            let t0 = s.sim.settle_or_zero(self.design.alu0.sum[i]);
            let t1 = s.sim.settle_or_zero(self.design.alu1.sum[i]);
            let delta =
                t0 - t1 + self.design.design_skew_ps[i] + self.puf_chip.arbiter_offset_ps[i] + self.pdl_offset_ps[i];
            settle0.push(t0);
            settle1.push(t1);
            delta_ps.push(delta);
        }
        let settle = |i: usize| (settle0[i], settle1[i]);
        let (offsets, pdl) = (&self.puf_chip.arbiter_offset_ps, &self.pdl_offset_ps);
        let bits = race_bits(self.design, offsets, pdl, &settle, deadline_ps, u64::MAX, rng);
        Evaluation {
            response: RawResponse::new(bits, w),
            delta_ps,
            settle0_ps: settle0,
            settle1_ps: settle1,
        }
    }
}

/// Resolves the arbiters of the bits set in `open` against per-bit settling
/// times, drawing metastability and jitter noise from `rng` in bit order
/// (the draw sequence is shared by the serial and batched paths); the
/// other bits read 0. A bit outside `open` still advances `rng` by exactly
/// the words its race would draw, so the stream does not depend on `open`,
/// but skips the math. `settle(i)` returns the `(alu0, alu1)` settling
/// times of sum bit `i` — a simulator lookup on the scalar path, a lane
/// extraction on the bit-sliced path.
fn race_bits<R: Rng + ?Sized>(
    design: &AluPufDesign,
    arbiter_offset_ps: &[f64],
    pdl_offset_ps: &[f64],
    settle: &impl Fn(usize) -> (f64, f64),
    deadline_ps: f64,
    open: u64,
    rng: &mut R,
) -> u64 {
    let cfg = &design.config.arbiter;
    let mut bits = 0u64;
    for i in 0..design.config.width {
        let (t0, t1) = settle(i);
        let bit = if t0.max(t1) > deadline_ps {
            // Setup-time violation: the response register samples an
            // unresolved race.
            rng.gen::<bool>()
        } else {
            let (u1, u2) = gaussian_uniforms(rng);
            let u: f64 = rng.gen::<f64>();
            if open >> i & 1 == 0 {
                continue;
            }
            let delta = t0 - t1 + design.design_skew_ps[i] + arbiter_offset_ps[i] + pdl_offset_ps[i];
            let noisy = delta + box_muller(u1, u2) * cfg.jitter_sigma_ps;
            let p_one = 1.0 / (1.0 + (noisy / cfg.metastability_tau_ps).exp());
            u < p_one
        };
        if bit {
            bits |= 1 << i;
        }
    }
    bits & open
}

/// Temporal majority over `votes` calls of [`race_bits`] on the same
/// settling times: a bit is 1 iff it won a strict majority of the draws.
/// Once a bit's majority is settled either way, its remaining races only
/// advance `rng`, so the draws are those of `votes` calls on every bit.
fn vote_bits<R: Rng + ?Sized>(
    design: &AluPufDesign,
    arbiter_offset_ps: &[f64],
    pdl_offset_ps: &[f64],
    settle: &impl Fn(usize) -> (f64, f64),
    deadline_ps: f64,
    votes: u32,
    rng: &mut R,
) -> u64 {
    let w = design.config.width;
    let mut ones = [0u32; 64];
    for vote in 0..votes {
        let left = votes - vote;
        // Open: neither already won (`2·ones > votes`) nor out of reach
        // with every remaining vote (`2·(ones + left) <= votes`).
        let open = ones[..w]
            .iter()
            .enumerate()
            .filter(|&(_, &count)| 2 * count <= votes && 2 * (count + left) > votes)
            .fold(0u64, |open, (b, _)| open | 1 << b);
        let r = race_bits(design, arbiter_offset_ps, pdl_offset_ps, settle, deadline_ps, open, rng);
        for (b, count) in ones.iter_mut().enumerate().take(w) {
            *count += ((r >> b) & 1) as u32;
        }
    }
    let mut bits = 0u64;
    for (b, &count) in ones.iter().enumerate().take(w) {
        if 2 * count > votes {
            bits |= 1 << b;
        }
    }
    bits
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the independent noise stream of one batched challenge: a
/// function of the batch seed and the challenge's *global* index only, so
/// batched results do not depend on how the batch is chunked over threads.
pub fn challenge_stream_seed(noise_seed: u64, index: u64) -> u64 {
    splitmix64(noise_seed ^ splitmix64(index))
}

pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = gaussian_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms of one Box–Muller draw: `u1` in (0, 1), redrawn while
/// it is zero, then `u2` in [0, 1).
#[inline]
fn gaussian_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, rng.gen::<f64>());
        }
    }
}

/// A standard gaussian from the uniforms of [`gaussian_uniforms`].
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_design() -> AluPufDesign {
        AluPufDesign::new(AluPufConfig {
            width: 8,
            adder: AdderKind::default(),
            arbiter: ArbiterConfig::asic(),
            design_seed: 7,
        })
    }

    #[test]
    fn netlist_has_two_adders() {
        let d = small_design();
        // 5 gates per full adder, 2 ALUs.
        assert_eq!(d.netlist().gate_count(), 2 * 5 * 8);
        assert_eq!(d.design_skew_ps().len(), 8);
    }

    #[test]
    fn same_seed_same_design_skew() {
        let a = small_design();
        let b = small_design();
        assert_eq!(a.design_skew_ps(), b.design_skew_ps());
        let c = AluPufDesign::new(AluPufConfig {
            width: 8,
            adder: AdderKind::default(),
            arbiter: ArbiterConfig::asic(),
            design_seed: 8,
        });
        assert_ne!(a.design_skew_ps(), c.design_skew_ps());
    }

    #[test]
    fn response_is_mostly_stable_across_repeats() {
        let d = small_design();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let chip = d.fabricate(&sampler, &mut rng);
        let inst = PufInstance::new(&d, &chip, Environment::nominal());
        let ch = Challenge::new(0xA5, 0x3C, 8);
        let mut flips = 0u32;
        let reference = inst.evaluate(ch, &mut rng);
        for _ in 0..50 {
            flips += inst.evaluate(ch, &mut rng).hamming_distance(reference);
        }
        // Average intra-HD must be well below half the width.
        assert!((flips as f64) / 50.0 < 0.3 * 8.0, "flips {flips}");
    }

    #[test]
    fn different_chips_give_different_responses() {
        let d = small_design();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let chips = d.fabricate_many(&sampler, 2, &mut rng);
        let i0 = PufInstance::new(&d, &chips[0], Environment::nominal());
        let i1 = PufInstance::new(&d, &chips[1], Environment::nominal());
        let mut total = 0u32;
        for k in 0..40 {
            let ch = Challenge::new(k * 37 + 5, k * 91 + 11, 8);
            total += i0.evaluate(ch, &mut rng).hamming_distance(i1.evaluate(ch, &mut rng));
        }
        // Inter-chip HD must be substantial (tens of percent).
        assert!(total > 25, "inter-chip distance too small: {total}");
    }

    #[test]
    fn delta_is_deterministic_given_chip_and_env() {
        let d = small_design();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let chip = d.fabricate(&sampler, &mut rng);
        let inst = PufInstance::new(&d, &chip, Environment::nominal());
        let ch = Challenge::new(0x5A, 0xC3, 8);
        let e1 = inst.evaluate_detailed(ch, &mut rng);
        let e2 = inst.evaluate_detailed(ch, &mut rng);
        assert_eq!(e1.delta_ps, e2.delta_ps, "Δ must not depend on the evaluation RNG");
    }

    #[test]
    fn critical_path_positive_and_wider_is_slower() {
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let d8 = small_design();
        let c8 = d8.fabricate(&sampler, &mut rng);
        let t8 = PufInstance::new(&d8, &c8, Environment::nominal()).alu_critical_path_ps();
        let d32 = AluPufDesign::new(AluPufConfig::paper_32bit());
        let c32 = d32.fabricate(&sampler, &mut rng);
        let t32 = PufInstance::new(&d32, &c32, Environment::nominal()).alu_critical_path_ps();
        assert!(t8 > 0.0 && t32 > t8);
    }

    #[test]
    fn overclocking_corrupts_responses() {
        let d = small_design();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let chip = d.fabricate(&sampler, &mut rng);
        let inst = PufInstance::new(&d, &chip, Environment::nominal());
        let safe_cycle = inst.min_reliable_cycle_ps() * 1.05;
        let violated_cycle = inst.min_reliable_cycle_ps() * 0.5;
        let ch = Challenge::new(0xFF, 0x01, 8); // full carry ripple
        let reference = inst.evaluate_clocked(ch, safe_cycle, &mut rng);
        let mut violated_hd = 0u32;
        let mut safe_hd = 0u32;
        for _ in 0..30 {
            violated_hd += inst.evaluate_clocked(ch, violated_cycle, &mut rng).hamming_distance(reference);
            safe_hd += inst.evaluate_clocked(ch, safe_cycle, &mut rng).hamming_distance(reference);
        }
        assert!(violated_hd > safe_hd + 20, "violated {violated_hd} vs safe {safe_hd}");
    }

    #[test]
    fn pdl_offsets_bias_the_arbiters() {
        let d = small_design();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let chip = d.fabricate(&sampler, &mut rng);
        let mut inst = PufInstance::new(&d, &chip, Environment::nominal());
        // A huge positive offset forces Δ > 0 everywhere ⇒ all-zero response.
        inst.set_pdl_offsets_ps(&[1e6; 8]);
        let r = inst.evaluate(Challenge::new(0x12, 0x34, 8), &mut rng);
        assert_eq!(r.bits(), 0);
        // A huge negative offset forces all ones.
        inst.set_pdl_offsets_ps(&[-1e6; 8]);
        let r = inst.evaluate(Challenge::new(0x12, 0x34, 8), &mut rng);
        assert_eq!(r.bits(), 0xFF);
    }

    #[test]
    fn stimulus_into_matches_input_vector_construction() {
        let d = small_design();
        let ch = Challenge::new(0x5A, 0xC3, 8);
        let (from, to) = d.stimulus_vectors(ch);
        let mask = crate::challenge::width_mask(8);
        let bus = |name: &str| -> Vec<NetId> {
            (0..8)
                .map(|i| {
                    let want = format!("{name}[{i}]");
                    let named = |n: &&NetId| d.netlist.net(**n).name.as_deref() == Some(want.as_str());
                    *d.netlist.primary_inputs().iter().find(named).expect("operand bus bit")
                })
                .collect()
        };
        let (a_bus, b_bus) = (bus("a"), bus("b"));
        let from_ref = d.netlist.input_vector(&[(&a_bus, !ch.a & mask), (&b_bus, !ch.b & mask)]);
        let to_ref = d.netlist.input_vector(&[(&a_bus, ch.a), (&b_bus, ch.b)]);
        assert_eq!(from, from_ref);
        assert_eq!(to, to_ref);
        // The buffers are reused without reallocation on the second fill.
        let (mut f, mut t) = (from, to);
        let (cf, ct) = (f.capacity(), t.capacity());
        d.stimulus_into(Challenge::new(0x12, 0x34, 8), &mut f, &mut t);
        assert_eq!((f.capacity(), t.capacity()), (cf, ct));
    }

    #[test]
    fn batch_is_identical_at_any_thread_count() {
        let d = small_design();
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let chip = d.fabricate(&sampler, &mut rng);
        let inst = PufInstance::new(&d, &chip, Environment::nominal());
        let challenges: Vec<Challenge> = (0..33).map(|k| Challenge::new(k * 37 + 5, k * 91 + 11, 8)).collect();
        let r1 = inst.evaluate_batch(&challenges, 42, 1);
        assert_eq!(r1.len(), challenges.len());
        assert_eq!(r1, inst.evaluate_batch(&challenges, 42, 4));
        assert_eq!(r1, inst.evaluate_batch(&challenges, 42, 8));
        // Voted batches are thread-invariant too.
        let v1 = inst.evaluate_batch_voted(&challenges, 5, 42, 1);
        assert_eq!(v1, inst.evaluate_batch_voted(&challenges, 5, 42, 8));
        // Deterministic: same seed reproduces the batch exactly.
        assert_eq!(r1, inst.evaluate_batch(&challenges, 42, 3));
    }

    #[test]
    fn batch_agrees_with_serial_modulo_noise() {
        // The batch path uses per-challenge RNG streams (not the caller's
        // shared RNG), so individual metastable bits may differ — but the
        // underlying Δ is the same, so responses stay close.
        let d = AluPufDesign::new(AluPufConfig::paper_32bit());
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let chip = d.fabricate(&sampler, &mut rng);
        let inst = PufInstance::new(&d, &chip, Environment::nominal());
        let challenges: Vec<Challenge> = (0..20).map(|_| Challenge::random(&mut rng, 32)).collect();
        let batch = inst.evaluate_batch(&challenges, 7, 4);
        let mut total = 0u32;
        for (i, &ch) in challenges.iter().enumerate() {
            total += inst.evaluate(ch, &mut rng).hamming_distance(batch[i]);
        }
        // Average disagreement must stay in noise range (≪ half the width).
        assert!((total as f64) / 20.0 < 0.25 * 32.0, "total {total}");
    }

    #[test]
    fn environment_changes_have_moderate_effect() {
        // The symmetric layout largely cancels V/T shifts: responses at a
        // corner stay closer to nominal than to another chip.
        let d = AluPufDesign::new(AluPufConfig::paper_32bit());
        let sampler = ChipSampler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let chips = d.fabricate_many(&sampler, 2, &mut rng);
        let nominal = PufInstance::new(&d, &chips[0], Environment::nominal());
        let hot = PufInstance::new(&d, &chips[0], Environment::with_temp(120.0));
        let other = PufInstance::new(&d, &chips[1], Environment::nominal());
        let mut intra = 0u32;
        let mut inter = 0u32;
        for k in 0..30u64 {
            let ch = Challenge::new(k.wrapping_mul(0x9E37_79B9), k.wrapping_mul(0x85EB_CA6B), 32);
            let r_nom = nominal.evaluate(ch, &mut rng);
            intra += hot.evaluate(ch, &mut rng).hamming_distance(r_nom);
            inter += other.evaluate(ch, &mut rng).hamming_distance(r_nom);
        }
        assert!(intra < inter, "intra {intra} must stay below inter {inter}");
    }
}
