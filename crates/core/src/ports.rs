//! Concrete PUF endpoints: the prover's device-side pipeline and the
//! verifier's emulator-side pipeline, with adapters for the PE32 PUF port
//! and the checksum's `RoundPuf` hook.

use crate::error::PufattError;
use crate::obfuscate::RESPONSES_PER_OUTPUT;
use crate::pipeline::{ProveOutput, PufPipeline};
use pufatt_alupuf::challenge::{Challenge, RawResponse};
use pufatt_alupuf::device::{AluPufDesign, CanarySettle, PufChip, PufInstance};
use pufatt_alupuf::emulate::{DelayTable, SharedPufEmulator};
use pufatt_pe32::puf_port::{PufOutput, PufPort};
use pufatt_silicon::env::Environment;
use pufatt_swatt::checksum::{RoundPuf, STATE_WORDS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A deterministic fault injected into every raw PUF response a device
/// produces — the robustness layer's model of a PUF whose noise exceeds
/// the enrolled characterisation (aging, voltage droop, temperature, or a
/// fault-injection attack on the arbiter latches).
///
/// Flips are XORed *on top of* the device's physical noise, so the error
/// the verifier's BCH\[32,6,16\] decoder sees is the combination of both.
/// All randomness comes from the device's own seeded noise source, keeping
/// fault-injected runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseFault {
    /// Independent per-bit flip probability applied to every raw response.
    pub flip_probability: f64,
    /// Exact number of contiguous bits flipped when a burst lands (models
    /// beyond-`t` error events; the BCH code tolerates bursts of weight
    /// ≤ 7).
    pub burst_weight: u32,
    /// A burst lands on every `burst_period`-th raw evaluation
    /// (1 = every evaluation, 0 = never).
    pub burst_period: u32,
}

impl ResponseFault {
    /// A fault that does nothing (no flips, no bursts).
    pub fn none() -> Self {
        ResponseFault { flip_probability: 0.0, burst_weight: 0, burst_period: 0 }
    }

    /// Whether this fault can ever flip a bit.
    pub fn is_active(&self) -> bool {
        self.flip_probability > 0.0 || (self.burst_weight > 0 && self.burst_period > 0)
    }
}

/// The physical PUF of one prover device: design + chip + operating point,
/// with the post-processing pipeline and the device's private noise source.
#[derive(Debug)]
pub struct DevicePuf {
    design: Arc<AluPufDesign>,
    chip: Arc<PufChip>,
    env: Environment,
    /// Effective per-gate delays at `env`, computed once at construction.
    /// PUF queries and the clock calibration retarget a pooled bit-sliced
    /// engine of the design to them; static timing rebuilds a short-lived
    /// `PufInstance` from them (it borrows the design, so it cannot outlive
    /// a method call on the `Arc`-holding device).
    delays_ps: Vec<f64>,
    pipeline: PufPipeline,
    rng: ChaCha8Rng,
    /// When set, PUF evaluations race against this clock period (the
    /// overclocking model); `None` evaluates with safe clocking.
    cycle_ps: Option<f64>,
    /// Temporal-majority votes per raw evaluation (post-processing noise
    /// suppression; 1 = single-shot).
    votes: u32,
    /// Challenges buffered between `pstart` and `pend`.
    buffer: Vec<(u32, u32)>,
    /// Helper words of every finalized session, in order.
    helper_log: Vec<u32>,
    /// Optional injected response fault (the robustness layer's hook).
    fault: Option<ResponseFault>,
    /// Raw evaluations performed, counted for burst scheduling.
    evaluations: u64,
    /// The full-carry canary's settling times on this chip, raced once:
    /// `delays_ps` never changes after construction, so neither do they.
    canary: CanarySettle,
}

impl DevicePuf {
    /// Assembles the device PUF.
    ///
    /// # Errors
    ///
    /// Propagates [`PufattError::UnsupportedWidth`] for widths without a
    /// matching code.
    pub fn new(
        design: Arc<AluPufDesign>,
        chip: Arc<PufChip>,
        env: Environment,
        noise_seed: u64,
    ) -> Result<Self, PufattError> {
        let delays_ps = design.effective_delays_ps(chip.silicon(), &env);
        DevicePuf::with_delays(design, chip, env, delays_ps, noise_seed)
    }

    /// [`DevicePuf::new`] with the chip's effective delays at `env`
    /// already computed (enrollment holds them in its delay table).
    pub(crate) fn with_delays(
        design: Arc<AluPufDesign>,
        chip: Arc<PufChip>,
        env: Environment,
        delays_ps: Vec<f64>,
        noise_seed: u64,
    ) -> Result<Self, PufattError> {
        let pipeline = PufPipeline::for_width(design.width())?;
        Ok(DevicePuf {
            design,
            chip,
            env,
            delays_ps,
            pipeline,
            rng: ChaCha8Rng::seed_from_u64(noise_seed),
            cycle_ps: None,
            votes: 5,
            buffer: Vec::new(),
            helper_log: Vec::new(),
            fault: None,
            evaluations: 0,
            canary: CanarySettle::new(),
        })
    }

    /// Couples PUF evaluation to a clock period in ps (`None` restores safe
    /// clocking). Used by the overclocking attack: shrinking the period
    /// below `T_ALU + T_set` corrupts responses.
    pub fn set_cycle_ps(&mut self, cycle_ps: Option<f64>) {
        self.cycle_ps = cycle_ps;
    }

    /// Sets the temporal-majority vote count (default 5).
    ///
    /// # Panics
    ///
    /// Panics if `votes == 0`.
    pub fn set_votes(&mut self, votes: u32) {
        assert!(votes > 0, "at least one vote required");
        self.votes = votes;
    }

    /// Minimum reliable clock period of this device's PUF (`T_ALU + T_set`).
    pub fn min_reliable_cycle_ps(&self) -> f64 {
        self.instance().min_reliable_cycle_ps()
    }

    /// Rebuilds a short-lived instance from the cached delay vector.
    fn instance(&self) -> PufInstance<'_> {
        PufInstance::from_delays(&self.design, &self.chip, self.env, self.delays_ps.clone())
    }

    /// Empirical attestation-clock calibration (see
    /// [`PufInstance::calibrate_cycle_ps`]); uses the device's own noise
    /// source for sampling, and leaves it where a challenge-by-challenge
    /// calibration would.
    pub fn calibrate_cycle_ps(&mut self, samples: usize, guard: f64) -> f64 {
        self.design.calibrate_cycle_ps(&self.delays_ps, samples, guard, &mut self.rng)
    }

    /// The post-processing pipeline.
    pub fn pipeline(&self) -> &PufPipeline {
        &self.pipeline
    }

    /// The response width.
    pub fn width(&self) -> usize {
        self.design.width()
    }

    /// Injects (or clears) a deterministic response fault. Subsequent raw
    /// evaluations pass through [`ResponseFault`] bit-flipping driven by the
    /// device's seeded noise source.
    pub fn set_response_fault(&mut self, fault: Option<ResponseFault>) {
        self.fault = fault.filter(ResponseFault::is_active);
    }

    /// The currently injected response fault, if any.
    pub fn response_fault(&self) -> Option<ResponseFault> {
        self.fault
    }

    /// Snapshot of the device's private noise state: the seeded RNG's
    /// keystream position plus the raw-evaluation counter that schedules
    /// fault bursts. Together with the noise seed (held by the caller)
    /// this fully determines every future noisy evaluation, which is what
    /// lets a resumed campaign fast-forward a device instead of replaying
    /// all of its past sessions.
    pub fn noise_state(&self) -> (u64, u64) {
        (self.rng.word_pos(), self.evaluations)
    }

    /// Restores a noise snapshot taken by [`DevicePuf::noise_state`] on a
    /// freshly provisioned device with the same noise seed.
    pub fn restore_noise_state(&mut self, word_pos: u64, evaluations: u64) {
        self.rng.set_word_pos(word_pos);
        self.evaluations = evaluations;
    }

    /// Applies the injected fault (if any) to one freshly evaluated raw
    /// response, consuming the device RNG deterministically.
    fn apply_fault(&mut self, raw: RawResponse) -> RawResponse {
        let Some(fault) = self.fault else { return raw };
        self.evaluations += 1;
        let width = raw.width();
        let mut bits = raw.bits();
        if fault.flip_probability > 0.0 {
            for i in 0..width {
                if self.rng.gen::<f64>() < fault.flip_probability {
                    bits ^= 1 << i;
                }
            }
        }
        if fault.burst_weight > 0
            && fault.burst_period > 0
            && self.evaluations.is_multiple_of(u64::from(fault.burst_period))
        {
            // A contiguous burst of exactly `burst_weight` flips at a random
            // start, wrapping around the word.
            let start = self.rng.gen_range(0..width);
            for j in 0..(fault.burst_weight as usize).min(width) {
                bits ^= 1 << ((start + j) % width);
            }
        }
        RawResponse::new(bits, width)
    }

    /// Evaluates one group of 8 challenges through the full pipeline.
    pub fn respond(&mut self, challenges: &[Challenge; RESPONSES_PER_OUTPUT]) -> ProveOutput {
        let raw = self.evaluate_group(challenges).map(|r| self.apply_fault(r));
        self.pipeline.prove(&raw)
    }

    /// Voted raw responses for a group of challenges from one bit-sliced
    /// run, drawing arbiter noise exactly as a per-challenge loop of
    /// [`PufInstance::evaluate_voted_clocked`] would. A canary lane is
    /// served from the device's memo once the canary has been raced.
    fn evaluate_group<const N: usize>(&mut self, challenges: &[Challenge; N]) -> [RawResponse; N] {
        let cycle_ps = self.cycle_ps.unwrap_or(f64::INFINITY);
        let memo = Some(&mut self.canary);
        self.design.evaluate_voted_group_memo(
            &self.chip,
            &self.delays_ps,
            challenges,
            cycle_ps,
            self.votes,
            memo,
            &mut self.rng,
        )
    }

    /// Helper words accumulated since the last [`DevicePuf::take_helper_log`].
    pub fn take_helper_log(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.helper_log)
    }

    fn pairs_to_challenges(width: usize, pairs: &[(u32, u32)]) -> [Challenge; RESPONSES_PER_OUTPUT] {
        // Sessions are expected to carry exactly 8 challenges (the
        // obfuscation network's arity); short sessions repeat the last
        // challenge, long ones keep the first 8.
        std::array::from_fn(|j| {
            let &(a, b) = pairs.get(j).or(pairs.last()).unwrap_or(&(0, 0));
            Challenge::new(a as u64, b as u64, width)
        })
    }
}

impl PufPort for DevicePuf {
    fn start(&mut self) {
        self.buffer.clear();
    }

    fn challenge(&mut self, a: u32, b: u32) {
        self.buffer.push((a, b));
    }

    fn finalize(&mut self) -> PufOutput {
        let pairs = std::mem::take(&mut self.buffer);
        let challenges = DevicePuf::pairs_to_challenges(self.width(), &pairs);
        let out = self.respond(&challenges);
        self.helper_log.extend_from_slice(&out.helpers);
        PufOutput { z: out.z as u32, helper: out.helpers.to_vec() }
    }
}

impl RoundPuf for DevicePuf {
    fn query(&mut self, challenges: &[(u32, u32); STATE_WORDS]) -> u32 {
        self.start();
        for &(a, b) in challenges {
            self.challenge(a, b);
        }
        self.finalize().z
    }
}

/// A shareable handle to a [`DevicePuf`]: lets the prover harness keep
/// control (clock coupling, helper-log retrieval) while the CPU owns a
/// `Box<dyn PufPort>` of the same device.
#[derive(Debug, Clone)]
pub struct SharedDevicePuf(pub Arc<Mutex<DevicePuf>>);

impl SharedDevicePuf {
    /// Wraps a device.
    pub fn new(device: DevicePuf) -> Self {
        SharedDevicePuf(Arc::new(Mutex::new(device)))
    }

    /// Runs a closure over the device. Poison-tolerant: a panic in an
    /// earlier closure (e.g. a failed assertion in a chaos test) must not
    /// cascade into every later session on the same device.
    pub fn with<T>(&self, f: impl FnOnce(&mut DevicePuf) -> T) -> T {
        f(&mut self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl PufPort for SharedDevicePuf {
    fn start(&mut self) {
        self.with(|d| d.start());
    }

    fn challenge(&mut self, a: u32, b: u32) {
        self.with(|d| d.challenge(a, b));
    }

    fn finalize(&mut self) -> PufOutput {
        self.with(|d| d.finalize())
    }
}

/// Upper bound on cached CRPs per verifier model. Sessions consume 64
/// challenges (8 checksum queries × 8 challenges), so one session fits with
/// a wide margin; the cap only guards against unbounded growth if a caller
/// never starts a new session.
const CRP_CACHE_CAP: usize = 4096;

/// The verifier's model of one enrolled device: a shared emulator (design +
/// delay table, with bit-sliced engines from the design's pool) + pipeline
/// + a session-scoped CRP cache.
///
/// The cache maps a full challenge `(a, b)` to the emulated raw response
/// bits. It is cleared by [`VerifierPuf::begin_session`], making per-session
/// hit/miss deltas independent of fleet scheduling order: retried attempts
/// within one session replay the same 64 challenges and hit, while a fresh
/// session always starts cold. Clones get an empty cache and zeroed
/// counters (a clone models a *new* verifier instance, not shared state).
///
/// The full-carry canary ([`Challenge::canary`]) is in every PUF query,
/// and its reference response is a constant of the delay table: it is
/// emulated once and kept for the verifier's lifetime. A canary miss is
/// served from that copy, but still counted as a miss and inserted into
/// the session cache, so the hit/miss counters read as if it were
/// emulated again.
pub struct VerifierPuf {
    emulator: SharedPufEmulator,
    pipeline: PufPipeline,
    cache: Mutex<HashMap<(u64, u64), u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    canary: OnceLock<u64>,
}

impl std::fmt::Debug for VerifierPuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.crp_cache_stats();
        f.debug_struct("VerifierPuf")
            .field("width", &self.width())
            .field("crp_hits", &hits)
            .field("crp_misses", &misses)
            .finish_non_exhaustive()
    }
}

impl Clone for VerifierPuf {
    fn clone(&self) -> Self {
        VerifierPuf {
            emulator: self.emulator.clone(),
            pipeline: self.pipeline.clone(),
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            canary: self.canary.clone(),
        }
    }
}

impl VerifierPuf {
    /// Builds the verifier-side PUF from enrollment data.
    ///
    /// # Errors
    ///
    /// Propagates [`PufattError::UnsupportedWidth`].
    pub fn new(design: Arc<AluPufDesign>, table: DelayTable) -> Result<Self, PufattError> {
        let pipeline = PufPipeline::for_width(design.width())?;
        let emulator = SharedPufEmulator::new(design, table);
        Ok(VerifierPuf {
            emulator,
            pipeline,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            canary: OnceLock::new(),
        })
    }

    /// The response width.
    pub fn width(&self) -> usize {
        self.emulator.design().width()
    }

    /// Starts a new attestation session: clears the CRP cache (the hit/miss
    /// counters persist — read them with [`VerifierPuf::crp_cache_stats`]).
    pub fn begin_session(&self) {
        lock(&self.cache).clear();
    }

    /// Cumulative CRP cache `(hits, misses)` since construction.
    pub fn crp_cache_stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Emulates the reference raw response to one challenge, through the
    /// session CRP cache.
    pub fn emulate(&self, challenge: Challenge) -> RawResponse {
        let key = (challenge.a, challenge.b);
        if let Some(&bits) = lock(&self.cache).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return RawResponse::new(bits, self.width());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let resp = if challenge == Challenge::canary(self.width()) {
            let bits = *self.canary.get_or_init(|| self.emulator.emulate(challenge).bits());
            RawResponse::new(bits, self.width())
        } else {
            self.emulator.emulate(challenge)
        };
        self.insert_cached(key, resp.bits());
        resp
    }

    /// Emulates many reference responses with pooled engines, fanned across
    /// `threads` workers (order-preserving and thread-count invariant).
    /// Bulk characterisation bypasses the CRP cache: its challenge streams
    /// are fresh by construction and would only evict session entries.
    pub fn emulate_batch(&self, challenges: &[Challenge], threads: usize) -> Vec<RawResponse> {
        self.emulator.emulate_batch(challenges, threads)
    }

    /// Verifier side of one 8-challenge session.
    ///
    /// Cache hits are served from the session CRP cache, and a canary miss
    /// from the verifier's copy once it has one; the other misses are
    /// emulated as one bit-sliced batch. Every miss is counted and cached
    /// alike.
    ///
    /// # Errors
    ///
    /// [`PufattError::ReconstructionFailed`] when the helper data does not
    /// decode against the emulated references.
    pub fn conclude(
        &self,
        challenges: &[Challenge; RESPONSES_PER_OUTPUT],
        helpers: &[u32; RESPONSES_PER_OUTPUT],
    ) -> Result<u64, PufattError> {
        const N: usize = RESPONSES_PER_OUTPUT;
        let width = self.width();
        let canary = Challenge::canary(width);
        let kept = self.canary.get().copied();
        let mut refs = [RawResponse::new(0, width); N];
        // `missing[..misses]`: the lanes the cache did not hold, and
        // `lanes[..emulated]` those of them to emulate (`wanted`); a canary
        // the verifier already holds is served from its copy.
        let (mut missing, mut misses) = ([0usize; N], 0);
        let (mut wanted, mut lanes, mut emulated) = ([canary; N], [0usize; N], 0);
        {
            let cache = lock(&self.cache);
            for (j, ch) in challenges.iter().enumerate() {
                if let Some(&bits) = cache.get(&(ch.a, ch.b)) {
                    refs[j] = RawResponse::new(bits, width);
                    continue;
                }
                missing[misses] = j;
                misses += 1;
                match kept {
                    Some(bits) if *ch == canary => refs[j] = RawResponse::new(bits, width),
                    _ => {
                        (wanted[emulated], lanes[emulated]) = (*ch, j);
                        emulated += 1;
                    }
                }
            }
        }
        self.hits.fetch_add((N - misses) as u64, Ordering::Relaxed);
        self.misses.fetch_add(misses as u64, Ordering::Relaxed);
        if misses > 0 {
            let mut fresh = [RawResponse::new(0, width); N];
            self.emulator.emulate_into(&wanted[..emulated], &mut fresh[..emulated]);
            for (&j, resp) in lanes[..emulated].iter().zip(&fresh) {
                refs[j] = *resp;
                if challenges[j] == canary {
                    self.canary.get_or_init(|| resp.bits());
                }
            }
            let mut cache = lock(&self.cache);
            if cache.len() + misses > CRP_CACHE_CAP {
                cache.clear();
            }
            for &j in &missing[..misses] {
                cache.insert((challenges[j].a, challenges[j].b), refs[j].bits());
            }
        }
        self.pipeline.conclude(&refs, helpers)
    }

    fn insert_cached(&self, key: (u64, u64), bits: u64) {
        let mut cache = lock(&self.cache);
        if cache.len() >= CRP_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, bits);
    }
}

/// Poison-tolerant lock: the data under these mutexes is a plain cache, so
/// a panicking holder cannot leave it logically corrupt.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// `RoundPuf` for the verifier: replays the prover's helper-word stream
/// against the emulator. Reconstruction failures poison the instance (the
/// recomputed response will then differ and attestation rejects).
#[derive(Debug)]
pub struct VerifierRoundPuf<'a> {
    puf: &'a VerifierPuf,
    helpers: &'a [u32],
    cursor: usize,
    failure: Option<PufattError>,
}

impl<'a> VerifierRoundPuf<'a> {
    /// Creates a replay over `helpers` (8 words per PUF query, in order).
    pub fn new(puf: &'a VerifierPuf, helpers: &'a [u32]) -> Self {
        VerifierRoundPuf { puf, helpers, cursor: 0, failure: None }
    }

    /// The first reconstruction failure, if any occurred.
    pub fn failure(&self) -> Option<&PufattError> {
        self.failure.as_ref()
    }

    /// Helper words consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor
    }
}

impl RoundPuf for VerifierRoundPuf<'_> {
    fn query(&mut self, challenges: &[(u32, u32); STATE_WORDS]) -> u32 {
        let end = self.cursor + RESPONSES_PER_OUTPUT;
        let Some(slice) = self.helpers.get(self.cursor..end) else {
            self.failure.get_or_insert(PufattError::HelperStreamExhausted);
            return 0;
        };
        self.cursor = end;
        let w = self.puf.width();
        let chs: [Challenge; RESPONSES_PER_OUTPUT] =
            std::array::from_fn(|j| Challenge::new(challenges[j].0 as u64, challenges[j].1 as u64, w));
        let helpers: [u32; RESPONSES_PER_OUTPUT] = std::array::from_fn(|j| slice[j]);
        match self.puf.conclude(&chs, &helpers) {
            Ok(z) => z as u32,
            Err(e) => {
                self.failure.get_or_insert(e);
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enroll;
    use pufatt_alupuf::device::AluPufConfig;
    use rand::Rng;

    fn setup() -> (SharedDevicePuf, VerifierPuf) {
        let enrolled = enroll::enroll(AluPufConfig::paper_32bit(), 7, 2024).expect("32-bit width supported");
        (enrolled.device_handle(11), enrolled.verifier_puf().unwrap())
    }

    #[test]
    fn device_and_verifier_agree_through_round_puf() {
        let (device, verifier) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut z_dev = Vec::new();
        let mut queries = Vec::new();
        device.with(|d| {
            for _ in 0..4 {
                let pairs: [(u32, u32); 8] = std::array::from_fn(|_| (rng.gen(), rng.gen()));
                queries.push(pairs);
                z_dev.push(d.query(&pairs));
            }
        });
        let helpers = device.with(|d| d.take_helper_log());
        assert_eq!(helpers.len(), 32, "8 helper words per query");
        let mut vr = VerifierRoundPuf::new(&verifier, &helpers);
        for (q, &zd) in queries.iter().zip(&z_dev) {
            let zv = vr.query(q);
            assert_eq!(zv, zd, "verifier must recompute the device's z");
        }
        assert!(vr.failure().is_none());
    }

    #[test]
    fn helper_stream_exhaustion_is_flagged() {
        let (_, verifier) = setup();
        let helpers = [0u32; 4]; // too short
        let mut vr = VerifierRoundPuf::new(&verifier, &helpers);
        let z = vr.query(&[(0, 0); 8]);
        assert_eq!(z, 0);
        assert_eq!(vr.failure(), Some(&PufattError::HelperStreamExhausted));
    }

    #[test]
    fn overclocked_device_diverges_from_verifier() {
        let (device, verifier) = setup();
        // Random operands rarely ripple the whole carry chain, so the
        // violation must cut into the *empirical* settling range.
        let unsafe_cycle = device.with(|d| d.calibrate_cycle_ps(64, 1.0)) * 0.05;
        device.with(|d| d.set_cycle_ps(Some(unsafe_cycle)));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        // Per-query corruption is probabilistic (only ~half the sum bits
        // toggle per challenge, and ECC absorbs up to 7 errors); the
        // protocol detects the attack by amplification over its many PUF
        // queries, so a substantial per-query mismatch rate suffices here.
        let mut mismatches = 0;
        let queries = 12;
        for _ in 0..queries {
            let pairs: [(u32, u32); 8] = std::array::from_fn(|_| (rng.gen(), rng.gen()));
            let zd = device.with(|d| d.query(&pairs));
            let helpers = device.with(|d| d.take_helper_log());
            let mut vr = VerifierRoundPuf::new(&verifier, &helpers);
            let zv = vr.query(&pairs);
            if zd != zv || vr.failure().is_some() {
                mismatches += 1;
            }
        }
        assert!(mismatches >= queries / 3, "overclocking must corrupt z ({mismatches}/{queries})");
    }

    #[test]
    fn short_sessions_are_padded() {
        let (device, _) = setup();
        let out = device.with(|d| {
            d.start();
            d.challenge(1, 2);
            d.finalize()
        });
        assert_eq!(out.helper.len(), 8, "padded to the network arity");
    }
}
