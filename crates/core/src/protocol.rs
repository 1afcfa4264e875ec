//! The PUFatt remote attestation protocol (paper Fig. 2).
//!
//! ```text
//! Verifier V                                   Prover P
//!   x0 ←R, r0 ←R      ── (x0, r0) ──▶     r ← SWAT(S, r0) ⊗ PUF(x·)
//!   start timer                            (PE32 program, real cycles)
//!   r' ← recompute    ◀── (r, helpers) ──
//!   accept iff r = r' and elapsed ≤ δ
//! ```
//!
//! The prover runs the generated PE32 checksum program on its own CPU; its
//! wall time is `cycles / F_base` plus channel transfer both ways. The
//! verifier recomputes `r` natively via the checksum reference and
//! `PUF.Emulate()` driven by the prover's helper-data stream.

use crate::error::PufattError;
use crate::obfuscate::RESPONSES_PER_OUTPUT;
use crate::ports::{SharedDevicePuf, VerifierPuf, VerifierRoundPuf};
use pufatt_pe32::asm::assemble;
use pufatt_pe32::cpu::{Clock, Cpu, Trap};
use pufatt_pe32::op::DecodedProgram;
use pufatt_store::codec::{Reader, Writer};
use pufatt_swatt::checksum::{self, SwattParams, STATE_WORDS};
use pufatt_swatt::codegen::{generate, CodegenOptions, SwattLayout};
use rand::Rng;
use std::fmt;

/// The network between prover and verifier. The paper's oracle-attack
/// argument rests on this channel being far slower than the on-chip
/// CPU↔PUF path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Usable bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

impl Channel {
    /// A 250 kbit/s, 2 ms sensor-network link (802.15.4-class).
    pub fn sensor_link() -> Self {
        Channel { bandwidth_bps: 250_000.0, latency_s: 0.002 }
    }

    /// One-way transfer time for a message of `bits`.
    pub fn transfer_s(&self, bits: u64) -> f64 {
        self.latency_s + bits as f64 / self.bandwidth_bps
    }

    /// Wire-to-wire time of one attempt: the request out, `compute_s` on
    /// the prover, the report back.
    pub fn attempt_s(&self, request_bits: u64, compute_s: f64, report_bits: u64) -> f64 {
        self.transfer_s(request_bits) + compute_s + self.transfer_s(report_bits)
    }
}

/// The verifier's challenge message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestationRequest {
    /// PUF challenge seed x₀.
    pub x0: u32,
    /// Attestation (checksum) challenge r₀.
    pub r0: u32,
}

impl AttestationRequest {
    /// Draws a fresh random request.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        AttestationRequest { x0: rng.gen(), r0: rng.gen() }
    }

    /// Size of the request on the wire, in bits.
    pub fn wire_bits(&self) -> u64 {
        64
    }

    /// Serialises the request (8 bytes, little-endian x₀ then r₀).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        let mut w = Writer(&mut out);
        w.u32(self.x0);
        w.u32(self.r0);
        out
    }

    /// Parses a request written by [`AttestationRequest::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`PufattError::Malformed`] for a wrong-size buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PufattError> {
        let mut r = Reader::new(bytes);
        let request = AttestationRequest { x0: r.u32()?, r0: r.u32()? };
        r.done()?;
        Ok(request)
    }
}

/// Leading bytes of every serialised [`AttestationReport`].
const REPORT_MAGIC: &[u8; 4] = b"PATR";

/// The prover's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// The attestation response `r` (the checksum's final lanes).
    pub response: [u32; STATE_WORDS],
    /// Helper-data words, 8 per PUF query, in query order.
    pub helper_words: Vec<u32>,
    /// CPU cycles the computation took (converted to time via the clock).
    pub cycles: u64,
}

impl AttestationReport {
    /// Size of the report on the wire, in bits.
    pub fn wire_bits(&self) -> u64 {
        (STATE_WORDS as u64 + self.helper_words.len() as u64) * 32
    }

    /// Serialises the report: magic `PATR`, cycle count, helper count,
    /// response lanes, helper words (all little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * (STATE_WORDS + self.helper_words.len()));
        let mut w = Writer(&mut out);
        w.bytes(REPORT_MAGIC);
        w.u64(self.cycles);
        w.u32(self.helper_words.len() as u32);
        for &word in self.response.iter().chain(&self.helper_words) {
            w.u32(word);
        }
        out
    }

    /// Parses a report written by [`AttestationReport::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`PufattError::Malformed`] describing the first structural problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PufattError> {
        let mut r = Reader::new(bytes);
        if &r.array::<4>()? != REPORT_MAGIC {
            return Err(PufattError::Malformed("not an attestation report".into()));
        }
        let cycles = r.u64()?;
        let helper_count = r.u32()?;
        let mut response = [0u32; STATE_WORDS];
        for lane in &mut response {
            *lane = r.u32()?;
        }
        // Each word is read before it is stored, so a hostile count costs
        // at most the words the buffer actually holds.
        let helper_words = (0..helper_count).map(|_| r.u32()).collect::<Result<Vec<u32>, _>>()?;
        r.done()?;
        Ok(AttestationReport { response, helper_words, cycles })
    }
}

/// Verdict of one attestation session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Overall outcome: both checks passed.
    pub accepted: bool,
    /// The recomputed response matched.
    pub response_ok: bool,
    /// The measured time met the bound δ.
    pub time_ok: bool,
    /// Measured end-to-end time in seconds.
    pub elapsed_s: f64,
    /// The enforced bound δ in seconds.
    pub delta_s: f64,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (response {}, time {:.3} ms vs delta {:.3} ms)",
            if self.accepted { "ACCEPT" } else { "REJECT" },
            if self.response_ok { "ok" } else { "MISMATCH" },
            self.elapsed_s * 1e3,
            self.delta_s * 1e3
        )
    }
}

/// A memory write that lands while the checksum traversal is running: after
/// `at_cycle` CPU cycles, the word at `addr` is XORed with `xor`.
///
/// This models both a fault-injection glitch and the race a real attacker
/// would attempt (modify memory after the checksum has passed over it). The
/// verifier's defence is probabilistic: the pseudo-random traversal visits
/// every cell O(n·log n) times, so a mid-traversal change is caught unless
/// it lands after the *last* visit to that cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MidTraversalTamper {
    /// Cycle count after which the write lands.
    pub at_cycle: u64,
    /// Word address to modify.
    pub addr: u32,
    /// XOR mask applied to the word.
    pub xor: u32,
}

/// The checksum program of one `(SwattParams, CodegenOptions)`, generated,
/// assembled and decoded once: its layout, its memory image and the op
/// table the interpreter runs it from. Every prover of the configuration
/// loads the same image ([`ProverDevice::from_image`]) and shares the one
/// op table, so a fleet assembles and decodes each program once instead of
/// once per device.
#[derive(Debug, Clone)]
pub struct ProgramImage {
    params: SwattParams,
    options: CodegenOptions,
    layout: SwattLayout,
    program: DecodedProgram,
}

impl ProgramImage {
    /// Generates the checksum program for `params` and `options` and
    /// assembles it.
    ///
    /// # Errors
    ///
    /// [`PufattError::Codegen`] if the generated program fails to assemble
    /// or does not fit beneath the region's challenge cells.
    pub fn build(params: SwattParams, options: &CodegenOptions) -> Result<Self, PufattError> {
        let generated = generate(&params, options);
        let program = assemble(&generated.source).map_err(|e| PufattError::Codegen(e.to_string()))?;
        if program.image.len() as u32 > generated.layout.x0_cell {
            return Err(PufattError::Codegen(format!(
                "program ({} words) collides with challenge cells at {}",
                program.image.len(),
                generated.layout.x0_cell
            )));
        }
        Ok(ProgramImage {
            params,
            options: *options,
            layout: generated.layout,
            program: DecodedProgram::new(program.image),
        })
    }

    /// The code-generation options the program was built with.
    pub fn options(&self) -> CodegenOptions {
        self.options
    }

    /// The memory layout every prover loaded with this program has.
    pub fn layout(&self) -> SwattLayout {
        self.layout
    }
}

/// The prover: a PE32 device with the attestation program in memory and the
/// ALU PUF on its port.
pub struct ProverDevice {
    cpu: Cpu,
    puf: SharedDevicePuf,
    layout: SwattLayout,
    params: SwattParams,
    image_words: usize,
}

impl fmt::Debug for ProverDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProverDevice")
            .field("params", &self.params)
            .field("image_words", &self.image_words)
            .field("clock_mhz", &self.cpu.clock().frequency_mhz)
            .finish()
    }
}

impl ProverDevice {
    /// Provisions a prover: generates the checksum program for `params` and
    /// `options`, assembles it, and wires up the PUF.
    ///
    /// # Errors
    ///
    /// [`PufattError::Codegen`] if the generated program fails to assemble
    /// or does not fit beneath the region's challenge cells.
    pub fn new(
        puf: SharedDevicePuf,
        params: SwattParams,
        options: &CodegenOptions,
        clock: Clock,
    ) -> Result<Self, PufattError> {
        Ok(ProverDevice::from_image(puf, &ProgramImage::build(params, options)?, clock))
    }

    /// Provisions a prover from an already assembled program: loads
    /// `image` into a fresh memory, sharing its op table, and wires up the
    /// PUF.
    pub fn from_image(puf: SharedDevicePuf, image: &ProgramImage, clock: Clock) -> Self {
        let mut cpu = Cpu::new(image.layout.memory_words.max(64) as usize);
        cpu.set_clock(clock);
        cpu.attach_puf(Box::new(puf.clone()));
        cpu.load_decoded(&image.program);
        ProverDevice {
            cpu,
            puf,
            layout: image.layout,
            params: image.params,
            image_words: image.program.words().len(),
        }
    }

    /// The device's memory layout.
    pub fn layout(&self) -> SwattLayout {
        self.layout
    }

    /// The checksum parameters baked into the program.
    pub fn params(&self) -> SwattParams {
        self.params
    }

    /// The attested-region memory image (what an honest verifier expects).
    pub fn expected_region(&self) -> Vec<u32> {
        self.cpu.memory()[..self.layout.region_end as usize].to_vec()
    }

    /// Read-only view of the device's whole memory.
    pub fn memory(&self) -> &[u32] {
        self.cpu.memory()
    }

    /// Writes `words` to consecutive addresses from `base` — the
    /// adversary's lever (malware injection, a stashed copy of expected
    /// memory). Goes through [`Cpu::write_words`], so a write over the
    /// program keeps the CPU's op table in step.
    ///
    /// # Errors
    ///
    /// [`PufattError::ProverTrap`] if the range leaves memory; nothing is
    /// written then.
    pub fn write_words(&mut self, base: u32, words: &[u32]) -> Result<(), PufattError> {
        Ok(self.cpu.write_words(base, words)?)
    }

    /// The shared PUF instance this device evaluates. Exposed so campaign
    /// checkpointing can capture and restore its noise-RNG position.
    pub fn puf(&self) -> &SharedDevicePuf {
        &self.puf
    }

    /// Re-clocks the CPU; when `couple_puf` is set the PUF races the new
    /// cycle time (the physically accurate behaviour — the ALU PUF shares
    /// the CPU clock network, §4.2).
    pub fn set_clock(&mut self, clock: Clock, couple_puf: bool) {
        self.cpu.set_clock(clock);
        if couple_puf {
            self.puf.with(|d| d.set_cycle_ps(Some(clock.cycle_ps())));
        }
    }

    /// The current clock.
    pub fn clock(&self) -> Clock {
        self.cpu.clock()
    }

    /// The real compute time of a `cycles`-long run, in seconds. It
    /// follows the device's actual clock, which the verifier cannot see:
    /// the verifier sees only the wall time.
    pub fn compute_s(&self, cycles: u64) -> f64 {
        self.clock().duration_ns(cycles) * 1e-9
    }

    /// Injects (or clears, with `None`) a response fault on the device's
    /// PUF: every subsequent raw evaluation passes through the fault model
    /// before helper generation, which is what makes sub-`t` noise
    /// recoverable by the reverse fuzzy extractor and beyond-`t` bursts a
    /// guaranteed rejection.
    pub fn set_response_fault(&mut self, fault: Option<crate::ports::ResponseFault>) {
        self.puf.with(|d| d.set_response_fault(fault));
    }

    /// Runs one attestation: writes the challenges, executes the program,
    /// collects response, helper data and cycle count.
    ///
    /// # Errors
    ///
    /// [`PufattError::ProverTrap`] if the program traps (should not happen
    /// for generated programs).
    pub fn attest(&mut self, request: AttestationRequest) -> Result<AttestationReport, PufattError> {
        self.attest_with_tamper(request, None)
    }

    /// Runs one attestation with an optional memory write landing *during*
    /// the checksum traversal (the TOCTOU-style fault the robustness layer
    /// injects: the attacker or a glitch rewrites attested memory after the
    /// traversal has started, so only the not-yet-visited cells reflect the
    /// change).
    ///
    /// # Errors
    ///
    /// [`PufattError::ProverTrap`] if the program traps; the tamper itself
    /// traps (instead of panicking) if its address is outside memory.
    pub fn attest_with_tamper(
        &mut self,
        request: AttestationRequest,
        tamper: Option<MidTraversalTamper>,
    ) -> Result<AttestationReport, PufattError> {
        // Fresh run: reset architectural state (`Cpu::reset` keeps memory:
        // the program plus whatever the adversary planted), plant the
        // challenges.
        self.cpu.reset();
        self.cpu.store_word(self.layout.seed_cell, request.r0)?;
        self.cpu.store_word(self.layout.x0_cell, request.x0)?;
        self.puf.with(|d| {
            d.take_helper_log();
        });
        let run = match tamper {
            None => self.cpu.run(u64::MAX)?,
            Some(t) => match self.cpu.run(t.at_cycle) {
                // The program finished before the tamper was due.
                Ok(done) => done,
                Err(Trap::CycleLimit) => {
                    let word = self.cpu.load_word(t.addr)?;
                    self.cpu.store_word(t.addr, word ^ t.xor)?;
                    self.cpu.run(u64::MAX)?
                }
                Err(trap) => return Err(trap.into()),
            },
        };
        let mut response = [0u32; STATE_WORDS];
        for (k, lane) in response.iter_mut().enumerate() {
            *lane = self.cpu.load_word(self.layout.result_base + k as u32)?;
        }
        let helper_words = self.puf.with(|d| d.take_helper_log());
        Ok(AttestationReport { response, helper_words, cycles: run.cycles })
    }
}

/// The verifier: expected memory, the enrolled PUF model, and the time
/// bound.
#[derive(Debug, Clone)]
pub struct Verifier {
    expected_region: Vec<u32>,
    puf: VerifierPuf,
    params: SwattParams,
    layout: SwattLayout,
    channel: Channel,
    /// The prover clock frequency the verifier expects (F_base).
    pub expected_clock: Clock,
    /// The enforced time bound δ in seconds.
    pub delta_s: f64,
}

impl Verifier {
    /// Builds a verifier for a provisioned prover.
    ///
    /// `expected_region` is the known-good memory image (taken from a
    /// golden device at provisioning time); `delta_s` comes from
    /// [`Verifier::calibrate_delta`].
    pub fn new(
        expected_region: Vec<u32>,
        puf: VerifierPuf,
        params: SwattParams,
        layout: SwattLayout,
        channel: Channel,
        expected_clock: Clock,
        delta_s: f64,
    ) -> Self {
        Verifier {
            expected_region,
            puf,
            params,
            layout,
            channel,
            expected_clock,
            delta_s,
        }
    }

    /// Derives δ from a measured honest run: honest time × `slack` plus
    /// both channel traversals.
    pub fn calibrate_delta(honest_cycles: u64, clock: Clock, channel: Channel, report_bits: u64, slack: f64) -> f64 {
        let compute_s = clock.duration_ns(honest_cycles) * 1e-9;
        compute_s * slack + channel.transfer_s(64) + channel.transfer_s(report_bits)
    }

    /// Recomputes the expected attestation response for `request` given the
    /// prover's helper-data stream.
    ///
    /// # Errors
    ///
    /// Reconstruction failures surface as [`PufattError`]; the caller
    /// normally treats them as a response mismatch.
    pub fn expected_response(
        &self,
        request: AttestationRequest,
        helper_words: &[u32],
    ) -> Result<[u32; STATE_WORDS], PufattError> {
        let mut region = self.expected_region.clone();
        region[self.layout.seed_cell as usize] = request.r0;
        region[self.layout.x0_cell as usize] = request.x0;
        let mut round_puf = VerifierRoundPuf::new(&self.puf, helper_words);
        let result = checksum::compute(&region, request.r0, request.x0, &self.params, &mut round_puf);
        if let Some(e) = round_puf.failure() {
            return Err(e.clone());
        }
        Ok(result.response)
    }

    /// Full verification of a session: recompute `r`, check it, and check
    /// the time bound.
    ///
    /// `prover_clock` is the clock the prover *claims* (and the verifier
    /// expects); the elapsed time is computed from the report's cycle count
    /// at that clock plus channel time in both directions.
    pub fn verify(&self, request: AttestationRequest, report: &AttestationReport, prover_compute_s: f64) -> Verdict {
        let elapsed_s = self
            .channel
            .attempt_s(request.wire_bits(), prover_compute_s, report.wire_bits());
        self.verify_timed(request, report, elapsed_s)
    }

    /// Like [`Verifier::verify`], but for a caller that *measured* the
    /// end-to-end time itself — the entry point the robustness layer uses
    /// when the report travelled a lossy channel whose latency the clean
    /// [`Channel`] model cannot predict.
    pub fn verify_timed(&self, request: AttestationRequest, report: &AttestationReport, elapsed_s: f64) -> Verdict {
        let response_ok = match self.expected_response(request, &report.helper_words) {
            Ok(expected) => expected == report.response,
            Err(_) => false,
        };
        let time_ok = elapsed_s <= self.delta_s;
        Verdict {
            accepted: response_ok && time_ok,
            response_ok,
            time_ok,
            elapsed_s,
            delta_s: self.delta_s,
        }
    }

    /// The channel model.
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// The checksum parameters the verifier expects (public protocol
    /// parameters — the adversary knows them too).
    pub fn params(&self) -> SwattParams {
        self.params
    }

    /// Number of PUF queries (and thus 8× helper words) a conforming report
    /// carries.
    pub fn expected_helper_words(&self) -> usize {
        self.params.puf_queries() as usize * RESPONSES_PER_OUTPUT
    }

    /// Starts a new attestation session on the PUF model: clears the
    /// session-scoped CRP cache so retries within the session hit while a
    /// fresh session starts cold.
    pub fn begin_session(&self) {
        self.puf.begin_session();
    }

    /// Cumulative CRP cache `(hits, misses)` of the PUF model.
    pub fn crp_cache_stats(&self) -> (u64, u64) {
        self.puf.crp_cache_stats()
    }
}

/// Derives the attestation-mode clock from the device's PUF timing limit.
///
/// The overclocking defence (§4.2) requires the attestation clock to sit
/// just above the PUF's empirical settling times — any meaningful speedup
/// then violates arbiter setup and corrupts responses. `guard` is the
/// calibration margin (e.g. 1.1 = 10 % above the worst settling time seen
/// in `samples` random challenges).
pub fn puf_limited_clock(enrolled: &crate::enroll::EnrolledDevice, guard: f64, samples: usize, seed: u64) -> Clock {
    let mut device = enrolled.device_puf(seed);
    let cycle_ps = device.calibrate_cycle_ps(samples, guard);
    Clock::new(1e6 / cycle_ps)
}

/// Provisions a matched prover/verifier pair from an enrolled device, using
/// a golden run to calibrate δ.
///
/// Returns `(prover, verifier, honest_cycles)`.
///
/// # Errors
///
/// Propagates codegen/trap errors from provisioning and the golden run.
pub fn provision(
    enrolled: &crate::enroll::EnrolledDevice,
    params: SwattParams,
    clock: Clock,
    channel: Channel,
    noise_seed: u64,
    slack: f64,
) -> Result<(ProverDevice, Verifier, u64), PufattError> {
    let image = ProgramImage::build(params, &CodegenOptions::default())?;
    provision_from_image(enrolled, &image, clock, channel, noise_seed, slack)
}

/// [`provision`] with the honest checksum program already assembled, for
/// callers that provision many devices of one configuration.
///
/// # Errors
///
/// Propagates trap errors from the golden run.
pub fn provision_from_image(
    enrolled: &crate::enroll::EnrolledDevice,
    image: &ProgramImage,
    clock: Clock,
    channel: Channel,
    noise_seed: u64,
    slack: f64,
) -> Result<(ProverDevice, Verifier, u64), PufattError> {
    let puf = enrolled.device_handle(noise_seed);
    let mut prover = ProverDevice::from_image(puf, image, clock);
    // The ALU PUF shares the CPU clock network: couple it, so the honest
    // device also lives with its calibrated timing margin.
    prover.set_clock(clock, true);
    let expected_region = prover.expected_region();

    // Golden run (at provisioning, in the factory): calibrates δ.
    let golden = prover.attest(AttestationRequest { x0: 1, r0: 1 })?;
    let report_bits = golden.wire_bits();
    let delta_s = Verifier::calibrate_delta(golden.cycles, clock, channel, report_bits, slack);

    let verifier = Verifier::new(
        expected_region,
        enrolled.verifier_puf()?,
        prover.params(),
        prover.layout(),
        channel,
        clock,
        delta_s,
    );
    Ok((prover, verifier, golden.cycles))
}

/// Runs one complete session: request → prover computes → verifier checks.
///
/// # Errors
///
/// Propagates prover traps.
pub fn run_session(
    prover: &mut ProverDevice,
    verifier: &Verifier,
    request: AttestationRequest,
) -> Result<(Verdict, AttestationReport), PufattError> {
    let report = prover.attest(request)?;
    let verdict = verifier.verify(request, &report, prover.compute_s(report.cycles));
    Ok((verdict, report))
}

/// Runs sessions until one is accepted or `max_attempts` is exhausted,
/// drawing a fresh request each time.
///
/// Error correction leaves a small false-negative rate per attestation
/// (quantified in the FNR experiment); verifiers re-challenge on failure,
/// which drives the honest-rejection probability to `FNR^attempts` while
/// leaving every attack detected (attacks fail deterministically, not by
/// bad luck).
///
/// A thin driver of [`AttestSession`] under [`RetryPolicy::plain`] with no
/// backoff and no deadline, over the verifier's clean [`Channel`]. A zero
/// budget is treated as one attempt.
///
/// Returns the final verdict and the number of attempts made.
///
/// # Errors
///
/// Propagates prover traps.
pub fn run_session_with_retry<R: Rng + ?Sized>(
    prover: &mut ProverDevice,
    verifier: &Verifier,
    rng: &mut R,
    max_attempts: usize,
) -> Result<(Verdict, usize), PufattError> {
    let policy = RetryPolicy::plain(u32::try_from(max_attempts).unwrap_or(u32::MAX), 0.0, f64::INFINITY);
    let channel = verifier.channel();
    let outcome = AttestSession::new(policy).run(verifier, rng, |_, request, _| {
        let report = prover.attest(request)?;
        let elapsed_s = channel.attempt_s(request.wire_bits(), prover.compute_s(report.cycles), report.wire_bits());
        Ok(Exchange::Delivered { report, elapsed_s })
    });
    Ok((outcome.result?, outcome.attempts as usize))
}

/// How a session's clock and deadline behave: the two retry disciplines
/// of one [`RetryPolicy`] (DESIGN.md §9.2 tabulates them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryMode {
    /// A verdict's session time is its own attempt plus every wait so
    /// far; crossing the deadline rejects that attempt, and the session
    /// keeps retrying.
    Plain,
    /// One clock sums every attempt, lost-message wait and backoff;
    /// crossing the deadline ends the session with
    /// [`PufattError::Timeout`].
    Chaos,
}

/// When the verifier retries, how long it waits, and when it gives up:
/// the data [`AttestSession`] runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per session (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `backoff_base_s · 2^(k-1)`, capped at
    /// [`RetryPolicy::backoff_cap_s`].
    pub backoff_base_s: f64,
    /// Upper bound on a single backoff wait.
    pub backoff_cap_s: f64,
    /// How long the verifier waits for a report before declaring the
    /// attempt lost (a dropped message costs exactly this much time).
    pub attempt_timeout_s: f64,
    /// Session deadline; what crossing it does depends on
    /// [`RetryPolicy::mode`].
    pub deadline_s: f64,
    /// The clock and deadline discipline.
    pub mode: RetryMode,
}

impl RetryPolicy {
    /// The plain policy: uncapped backoff, and a deadline that rejects the
    /// attempt crossing it (a lost attempt, which a clean link never
    /// produces, waits out the whole deadline).
    pub fn plain(max_attempts: u32, backoff_base_s: f64, deadline_s: f64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base_s,
            backoff_cap_s: f64::INFINITY,
            attempt_timeout_s: deadline_s,
            deadline_s,
            mode: RetryMode::Plain,
        }
    }

    /// The chaos policy, derived from a verifier's calibrated δ: the
    /// verifier waits `2 δ` per attempt (a report later than that is
    /// either lost or useless, since `elapsed > δ` already rejects), backs
    /// off from 50 ms capped at 0.8 s, and budgets the deadline so that
    /// `max_attempts` fully-lost attempts plus their backoffs still fit —
    /// i.e. exhausting the channel yields [`PufattError::ChannelLost`],
    /// not a premature timeout.
    pub fn for_verifier(verifier: &Verifier, max_attempts: u32) -> Self {
        let max_attempts = max_attempts.max(1);
        let attempt_timeout_s = 2.0 * verifier.delta_s;
        let policy = RetryPolicy {
            max_attempts,
            backoff_base_s: 0.05,
            backoff_cap_s: 0.8,
            attempt_timeout_s,
            deadline_s: 0.0,
            mode: RetryMode::Chaos,
        };
        let backoff_total: f64 = (2..=max_attempts).map(|k| policy.backoff_s(k)).sum();
        let deadline_s = f64::from(max_attempts) * attempt_timeout_s + backoff_total + verifier.delta_s;
        RetryPolicy { deadline_s, ..policy }
    }

    /// The backoff wait before retry `attempt` (1-based; attempt 1 has no
    /// backoff).
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            return 0.0;
        }
        (self.backoff_base_s * f64::from(1u32 << (attempt - 2).min(16))).min(self.backoff_cap_s)
    }
}

/// What the caller's exchange of one request produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Exchange {
    /// The report arrived after `elapsed_s` seconds wire to wire.
    Delivered {
        /// The prover's report.
        report: AttestationReport,
        /// The attempt's wire-to-wire time, which δ judges.
        elapsed_s: f64,
    },
    /// The request or the report was lost in transit.
    Lost,
}

/// The machine's answer to each event.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStep {
    /// Send this request to the prover.
    Send(AttestationRequest),
    /// The attempt failed: wait `backoff_s`, then call
    /// [`AttestSession::next_request`].
    Retry {
        /// The wait before the next attempt, already on the session clock.
        backoff_s: f64,
    },
    /// The session is over.
    Done(AttestOutcome),
}

/// How one attestation session ended.
#[derive(Debug, Clone, PartialEq)]
pub struct AttestOutcome {
    /// The last verdict (its `accepted` cleared if a plain deadline
    /// rejected it), or the typed error that ended the session:
    /// [`PufattError::Timeout`], [`PufattError::ChannelLost`] or a prover
    /// fault.
    pub result: Result<Verdict, PufattError>,
    /// Attempts started.
    pub attempts: u32,
    /// The session's simulated time under its [`RetryMode`].
    pub elapsed_s: f64,
    /// Plain policy only: the session crossed its deadline, which rejects
    /// the final verdict. (Under the chaos policy crossing it ends the
    /// session with [`PufattError::Timeout`] instead.)
    pub late: bool,
    /// The retry counter this session adds: `attempts − 1` under
    /// [`RetryMode::Plain`], `1` if it retried at all under
    /// [`RetryMode::Chaos`].
    pub retried: u32,
}

/// One verifier-side attestation session as a sans-IO state machine: the
/// paper's Fig. 2 verifier, re-challenging a device whose report fails.
///
/// The machine owns the attempt count, backoff, session clock and
/// deadline of one session, and calls the [`Verifier`] on each delivered
/// report. The caller owns everything else — the RNG, the prover and the
/// channel — and reports back what each request met. Everything is
/// simulated time: lost messages cost the per-attempt timeout, backoff is
/// added to the clock, and nothing sleeps.
///
/// ```text
///            ┌──────────────── Retry { backoff_s } ◀──────────────────┐
///            ▼                                                        │
///   next_request(rng) ──chaos: clock > deadline──▶ Done(Timeout)      │
///            │                                                        │
///      Send(request) ── the caller carries it to the prover and back  │
///            │                                                        │
///            ├──lost()──▶ clock += attempt_timeout ──attempts left────┤
///            │                   └──none left──▶ Done(last verdict    │
///            │                                     or ChannelLost)    │
///   offer(report, elapsed) ──chaos: clock > deadline──▶ Done(Timeout) │
///            │  verify_timed (plain: past the deadline ⇒ rejected)    │
///            ├──rejected, attempts left──────────────────────────────▶┘
///            ▼
///   Done(verdict)   accepted, or rejected with no attempts left
/// ```
///
/// [`AttestSession::run`] is the loop every in-process driver uses; a
/// driver that really waits steps the calls itself.
#[derive(Debug, Clone)]
pub struct AttestSession {
    policy: RetryPolicy,
    attempts: u32,
    /// Chaos: the whole session so far. Plain: the waits only (backoffs
    /// and lost-message timeouts); delivered attempts are timed alone.
    clock_s: f64,
    last: Option<Verdict>,
}

impl AttestSession {
    /// A session that has not started its first attempt.
    pub fn new(policy: RetryPolicy) -> Self {
        AttestSession { policy, attempts: 0, clock_s: 0.0, last: None }
    }

    /// Starts the next attempt: checks the chaos deadline first, then
    /// draws the request from `rng` (a session that times out here draws
    /// nothing).
    pub fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SessionStep {
        self.attempts += 1;
        if self.policy.mode == RetryMode::Chaos && self.clock_s > self.policy.deadline_s {
            return self.timeout();
        }
        SessionStep::Send(AttestationRequest::random(rng))
    }

    /// The report for `request` arrived `elapsed_s` after the request
    /// left: appraise it.
    pub fn offer(
        &mut self,
        verifier: &Verifier,
        request: AttestationRequest,
        report: &AttestationReport,
        elapsed_s: f64,
    ) -> SessionStep {
        if self.policy.mode == RetryMode::Chaos {
            self.clock_s += elapsed_s;
            if self.clock_s > self.policy.deadline_s {
                return self.timeout();
            }
        }
        // δ judges the attempt's own wire-to-wire time; the deadline
        // judges the session.
        let mut verdict = verifier.verify_timed(request, report, elapsed_s);
        let late = self.policy.mode == RetryMode::Plain && verdict.elapsed_s + self.clock_s > self.policy.deadline_s;
        verdict.accepted &= !late;
        self.last = Some(verdict);
        if verdict.accepted {
            return self.done(Ok(verdict));
        }
        self.retry_or(Ok(verdict))
    }

    /// The request or its report was lost: the verifier waited out the
    /// attempt timeout.
    pub fn lost(&mut self) -> SessionStep {
        self.clock_s += self.policy.attempt_timeout_s;
        self.retry_or(self.last.ok_or(PufattError::ChannelLost { attempts: self.attempts }))
    }

    /// The prover faulted outside the protocol: the session ends with
    /// `error`.
    pub fn fault(&self, error: PufattError) -> AttestOutcome {
        self.outcome(Err(error))
    }

    /// Drives the session to its end — the one attempt/retry loop.
    /// `exchange` carries each request (with its 1-based attempt number)
    /// to the prover and back; an `Err` from it is a prover fault.
    pub fn run<R, F>(mut self, verifier: &Verifier, rng: &mut R, mut exchange: F) -> AttestOutcome
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R, AttestationRequest, u32) -> Result<Exchange, PufattError>,
    {
        let mut step = self.next_request(rng);
        loop {
            step = match step {
                SessionStep::Send(request) => match exchange(rng, request, self.attempts) {
                    Ok(Exchange::Delivered { report, elapsed_s }) => self.offer(verifier, request, &report, elapsed_s),
                    Ok(Exchange::Lost) => self.lost(),
                    Err(error) => return self.fault(error),
                },
                SessionStep::Retry { .. } => self.next_request(rng),
                SessionStep::Done(outcome) => return outcome,
            };
        }
    }

    /// Ends with `result` if no attempts are left, else books the next
    /// backoff and asks for a retry.
    fn retry_or(&mut self, result: Result<Verdict, PufattError>) -> SessionStep {
        if self.attempts >= self.policy.max_attempts.max(1) {
            return self.done(result);
        }
        let backoff_s = self.policy.backoff_s(self.attempts + 1);
        self.clock_s += backoff_s;
        SessionStep::Retry { backoff_s }
    }

    fn timeout(&self) -> SessionStep {
        self.done(Err(PufattError::Timeout { elapsed_s: self.clock_s, deadline_s: self.policy.deadline_s }))
    }

    fn done(&self, result: Result<Verdict, PufattError>) -> SessionStep {
        SessionStep::Done(self.outcome(result))
    }

    fn outcome(&self, result: Result<Verdict, PufattError>) -> AttestOutcome {
        let (elapsed_s, late) = match (self.policy.mode, &result) {
            (RetryMode::Plain, Ok(verdict)) => {
                let elapsed_s = verdict.elapsed_s + self.clock_s;
                (elapsed_s, elapsed_s > self.policy.deadline_s)
            }
            _ => (self.clock_s, false),
        };
        let retried = match self.policy.mode {
            RetryMode::Plain => self.attempts.saturating_sub(1),
            RetryMode::Chaos => u32::from(self.attempts > 1),
        };
        AttestOutcome { result, attempts: self.attempts, elapsed_s, late, retried }
    }
}

/// Authenticates one live response against a recorded CRP database (the
/// paper's §2 database approach): the challenge's reference response is
/// *consumed* — each challenge authenticates at most once — and the device
/// is accepted when the live response lies within `max_distance` bits of
/// the enrolled reference (PUF noise tolerance).
///
/// # Errors
///
/// [`PufattError::ChallengeReused`] if the challenge was already consumed
/// (a replay is refused *before* any comparison — the reference is gone,
/// so a reused challenge can never authenticate);
/// [`PufattError::ChallengeUnknown`] for a challenge that was never
/// enrolled.
pub fn authenticate_with_database(
    database: &mut crate::enroll::CrpDatabase,
    challenge: pufatt_alupuf::challenge::Challenge,
    live: pufatt_alupuf::challenge::RawResponse,
    max_distance: u32,
) -> Result<bool, PufattError> {
    let reference = database.consume(challenge)?;
    Ok(live.hamming_distance(reference) <= max_distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enroll::enroll;
    use pufatt_alupuf::device::AluPufConfig;

    fn small_params() -> SwattParams {
        SwattParams { region_bits: 9, rounds: 1024, puf_interval: 16 }
    }

    fn setup() -> (ProverDevice, Verifier) {
        let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).unwrap();
        let (p, v, _) =
            provision(&enrolled, small_params(), Clock::new(100.0), Channel::sensor_link(), 7, 1.10).unwrap();
        (p, v)
    }

    #[test]
    fn honest_prover_is_accepted() {
        let (mut prover, verifier) = setup();
        for seed in 0..3u32 {
            let request = AttestationRequest { x0: 0xA0A0 + seed, r0: 0xB0B0 + seed };
            let (verdict, report) = run_session(&mut prover, &verifier, request).unwrap();
            assert!(verdict.response_ok, "honest response must verify (seed {seed}): {verdict}");
            assert!(verdict.time_ok, "honest timing must fit (seed {seed}): {verdict}");
            assert!(verdict.accepted);
            assert_eq!(report.helper_words.len(), verifier.expected_helper_words());
        }
    }

    #[test]
    fn database_authentication_consumes_and_refuses_replay() {
        use pufatt_alupuf::device::PufInstance;
        use rand::SeedableRng;
        let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).unwrap();
        let mut db = enrolled.record_crp_database_batch(8, 21, 22, 1);
        let instance = PufInstance::new(enrolled.design(), enrolled.chip(), enrolled.env());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut keys: Vec<_> = db.challenges().collect();
        keys.sort_by_key(|c| (c.a, c.b));
        let ch = keys[0];
        let live = instance.evaluate(ch, &mut rng);
        let accepted = authenticate_with_database(&mut db, ch, live, enrolled.design().width() as u32 / 4).unwrap();
        assert!(accepted, "an honest device within noise tolerance authenticates");
        // The same challenge again — even with a perfect response — is a
        // typed replay refusal, not a silent miss.
        assert!(matches!(
            authenticate_with_database(&mut db, ch, live, u32::MAX),
            Err(PufattError::ChallengeReused { challenge }) if challenge == ch
        ));
    }

    #[test]
    fn tampered_memory_is_rejected() {
        let (mut prover, verifier) = setup();
        // Flip one word inside the attested region (not the challenge
        // cells).
        let word = prover.memory()[100];
        prover.write_words(100, &[word ^ 0x1]).unwrap();
        let request = AttestationRequest { x0: 5, r0: 6 };
        let (verdict, _) = run_session(&mut prover, &verifier, request).unwrap();
        assert!(!verdict.response_ok, "tampering must break the response");
        assert!(!verdict.accepted);
    }

    #[test]
    fn wrong_chip_is_rejected() {
        // Same design, different silicon: the imposter computes the right
        // checksum structure but its PUF outputs (and helper data) do not
        // verify against the enrolled delay table.
        let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).unwrap();
        let imposter = enroll(AluPufConfig::paper_32bit(), 43, 0).unwrap();
        let (_, verifier, _) =
            provision(&enrolled, small_params(), Clock::new(100.0), Channel::sensor_link(), 7, 1.10).unwrap();
        let (mut imposter_prover, _, _) =
            provision(&imposter, small_params(), Clock::new(100.0), Channel::sensor_link(), 7, 1.10).unwrap();
        let request = AttestationRequest { x0: 9, r0: 10 };
        let (verdict, _) = run_session(&mut imposter_prover, &verifier, request).unwrap();
        assert!(!verdict.response_ok, "imposter must fail response verification: {verdict}");
    }

    #[test]
    fn delta_calibration_scales_with_cycles() {
        let c = Clock::new(100.0);
        let ch = Channel::sensor_link();
        let d1 = Verifier::calibrate_delta(1_000_000, c, ch, 1024, 1.1);
        let d2 = Verifier::calibrate_delta(2_000_000, c, ch, 1024, 1.1);
        assert!(d2 > d1);
        // 1M cycles at 100 MHz = 10 ms; with slack 1.1 and channel ≈ 4+ ms.
        assert!(d1 > 0.011 && d1 < 0.050, "{d1}");
    }

    #[test]
    fn wire_formats_round_trip() {
        let req = AttestationRequest { x0: 0xAABB_CCDD, r0: 0x1122_3344 };
        assert_eq!(AttestationRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        assert!(AttestationRequest::from_bytes(&[0; 7]).is_err());

        let report = AttestationReport {
            response: [1, 2, 3, 4, 5, 6, 7, 8],
            helper_words: vec![0xAA, 0xBB, 0xCC],
            cycles: 123_456,
        };
        let bytes = report.to_bytes();
        assert_eq!(AttestationReport::from_bytes(&bytes).unwrap(), report);
        assert!(AttestationReport::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(AttestationReport::from_bytes(&bad).is_err());
    }

    #[test]
    fn channel_model_accounts_latency_and_bandwidth() {
        let ch = Channel { bandwidth_bps: 1000.0, latency_s: 0.5 };
        assert!((ch.transfer_s(1000) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn session_machine_steps_through_retry_loss_and_done() {
        use rand::SeedableRng;
        let (mut prover, verifier) = setup();
        let word = prover.memory()[100];
        prover.write_words(100, &[word ^ 1]).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        // Plain: a lost attempt waits out the whole 10 s deadline.
        let policy = RetryPolicy::plain(3, 0.05, 10.0);
        let mut session = AttestSession::new(policy);
        // Attempt 1: a tampered report is rejected, so retry after 50 ms.
        let SessionStep::Send(request) = session.next_request(&mut rng) else {
            panic!("first attempt sends")
        };
        let report = prover.attest(request).unwrap();
        let compute_s = prover.clock().duration_ns(report.cycles) * 1e-9;
        let elapsed_s = verifier.channel().attempt_s(request.wire_bits(), compute_s, report.wire_bits());
        let step = session.offer(&verifier, request, &report, elapsed_s);
        assert_eq!(step, SessionStep::Retry { backoff_s: 0.05 });
        // Attempt 2 is lost: retry after 100 ms more.
        assert!(matches!(session.next_request(&mut rng), SessionStep::Send(_)));
        assert_eq!(session.lost(), SessionStep::Retry { backoff_s: 0.1 });
        // Attempt 3 re-offers the first report. The last attempt ends the
        // session with its verdict, timed as its own attempt plus every
        // wait so far, which the lost attempt pushed past the deadline.
        assert!(matches!(session.next_request(&mut rng), SessionStep::Send(_)));
        let SessionStep::Done(outcome) = session.offer(&verifier, request, &report, elapsed_s) else {
            panic!("no attempts left")
        };
        let verdict = outcome.result.clone().unwrap();
        assert!(!verdict.accepted && !verdict.response_ok);
        assert_eq!((outcome.attempts, outcome.retried, outcome.late), (3, 2, true));
        assert_eq!(outcome.elapsed_s, elapsed_s + (0.05 + 10.0 + 0.1));
    }
}
