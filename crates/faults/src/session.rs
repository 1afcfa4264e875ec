//! The device end, [`SimDevice`], and the chaos session runner, which
//! steps the core session machine ([`pufatt::protocol::AttestSession`],
//! whose docs draw its states) against it over a [`LossyChannel`].
//!
//! Everything is simulated time: drops cost the verifier its per-attempt
//! timeout, backoff delays accumulate into the session's elapsed time, and
//! no thread ever sleeps — which is also why chaos campaigns stay
//! deterministic at any worker count.

use crate::channel::{Delivery, LossyChannel};
use crate::plan::FaultPlan;
pub use pufatt::protocol::RetryPolicy;
use pufatt::protocol::{AttestOutcome, AttestSession, Exchange, MidTraversalTamper, ProverDevice, Verifier};
use pufatt::{AttestationReport, AttestationRequest, PufattError, Verdict};
use pufatt_store::CursorInfo;
use rand::Rng;

/// XOR mask a [`SimDevice`] applies when its plan schedules mid-traversal
/// tamper: the exact memory mutation a tampered session leaves behind,
/// which [`SimDevice::restore`] re-applies.
pub const MID_TRAVERSAL_XOR: u32 = 0x5EED_5EED;

/// Traversal cycle at which the scheduled tamper fires.
pub const MID_TRAVERSAL_CYCLE: u64 = 1_000;

/// Cell the scheduled tamper targets, given the prover's layout: a word
/// just below the x0 cell, inside the attested region but outside the
/// cells the next provisioning rewrites.
pub fn mid_traversal_addr(layout: &pufatt_swatt::SwattLayout) -> u32 {
    layout.x0_cell.saturating_sub(8)
}

/// Everything one chaos session produced, whether it ended in a verdict or
/// a typed failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The session's result: an accept/reject [`Verdict`], or the typed
    /// error that ended it ([`PufattError::Timeout`],
    /// [`PufattError::ChannelLost`], or a prover fault).
    pub result: Result<Verdict, PufattError>,
    /// Attempts started (1 = first try succeeded or session died early).
    pub attempts: u32,
    /// Simulated session time: under the chaos policy every transfer,
    /// compute, lost-message wait and backoff (see
    /// [`pufatt::protocol::RetryMode`] for the plain policy's).
    pub elapsed_s: f64,
    /// Plain policy only: the session crossed its deadline, which rejects
    /// the final verdict.
    pub late: bool,
    /// The retry counter the session adds under its policy.
    pub retried: u32,
    /// Request messages lost in transit.
    pub requests_dropped: u32,
    /// Report messages lost in transit.
    pub reports_dropped: u32,
    /// Messages that arrived in duplicate.
    pub duplicates: u32,
    /// Messages that arrived reordered.
    pub reordered: u32,
}

impl ChaosReport {
    /// Whether the verifier accepted the session.
    pub fn accepted(&self) -> bool {
        matches!(self.result, Ok(v) if v.accepted)
    }

    /// Whether the session died on the deadline or a fully lost channel
    /// (the outcomes that drive quarantine under flaky links).
    pub fn timed_out(&self) -> bool {
        matches!(self.result, Err(PufattError::Timeout { .. }) | Err(PufattError::ChannelLost { .. }))
    }

    /// Total messages dropped across both legs.
    pub fn messages_dropped(&self) -> u32 {
        self.requests_dropped + self.reports_dropped
    }
}

/// The device end of every session: a provisioned prover with a plan's
/// device-side faults and mid-traversal tamper. It takes no RNG, so it
/// cannot draw from the verifier's session stream. The tamper's XOR
/// persists across sessions, so the tampered word differing from its
/// provisioned value is the device's one bit of cross-session memory
/// state (nothing else in the attested region keeps a write).
#[derive(Debug)]
pub struct SimDevice {
    prover: ProverDevice,
    tamper_at_attempt: Option<u32>,
    tamper_addr: u32,
    /// The tampered word's value at provisioning (`None` outside memory).
    tamper_baseline: Option<u32>,
}

impl SimDevice {
    /// Wraps a provisioned prover under `plan`'s device-side faults: PUF
    /// response flips or bursts, and clock skew or overclock. Overclock
    /// wins over skew and couples the PUF to the raised clock (§4.2); skew
    /// leaves the PUF at its safe timing (an honest drifting oscillator).
    pub fn new(mut prover: ProverDevice, plan: &FaultPlan) -> Self {
        prover.set_response_fault(plan.response_fault());
        let clock = prover.clock();
        if plan.overclock != 1.0 {
            prover.set_clock(clock.overclocked(plan.overclock), true);
        } else if plan.clock_skew != 1.0 {
            prover.set_clock(clock.overclocked(plan.clock_skew), false);
        }
        let tamper_addr = mid_traversal_addr(&prover.layout());
        let tamper_baseline = prover.memory().get(tamper_addr as usize).copied();
        SimDevice {
            prover,
            tamper_at_attempt: plan.tamper_at_attempt,
            tamper_addr,
            tamper_baseline,
        }
    }

    /// Answers one request with the report and the simulated compute time
    /// in seconds. `attempt` is the verifier's 1-based attempt number in
    /// its session, which the plan schedules the tamper by.
    ///
    /// # Errors
    ///
    /// A prover trap.
    pub fn answer(
        &mut self,
        request: AttestationRequest,
        attempt: u32,
    ) -> Result<(AttestationReport, f64), PufattError> {
        let tamper = (self.tamper_at_attempt == Some(attempt)).then_some(MidTraversalTamper {
            at_cycle: MID_TRAVERSAL_CYCLE,
            addr: self.tamper_addr,
            xor: MID_TRAVERSAL_XOR,
        });
        let report = self.prover.attest_with_tamper(request, tamper)?;
        let compute_s = self.prover.compute_s(report.cycles);
        Ok((report, compute_s))
    }

    /// The device's cursor fields (PUF noise position and evaluation
    /// count, tamper parity), completed with the verifier's `session_pos`.
    pub fn cursor(&self, session_pos: u64) -> CursorInfo {
        let (noise_pos, noise_evals) = self.prover.puf().with(|d| d.noise_state());
        CursorInfo {
            session_pos,
            noise_pos,
            noise_evals,
            tamper_parity: self.tamper_parity(),
        }
    }

    /// Moves a freshly provisioned device to `cursor`'s device fields
    /// without re-running a session; a set tamper parity re-applies the
    /// XOR. `session_pos` is the verifier's to restore.
    pub fn restore(&mut self, cursor: &CursorInfo) {
        self.prover
            .puf()
            .with(|d| d.restore_noise_state(cursor.noise_pos, cursor.noise_evals));
        if self.tamper_parity() != cursor.tamper_parity {
            let word = self.prover.memory()[self.tamper_addr as usize] ^ MID_TRAVERSAL_XOR;
            // A parity can only differ when the word exists
            // (`tamper_baseline` is `Some`), so this write cannot trap.
            let _ = self.prover.write_words(self.tamper_addr, &[word]);
        }
    }

    fn tamper_parity(&self) -> bool {
        self.prover.memory().get(self.tamper_addr as usize) != self.tamper_baseline.as_ref()
    }
}

/// Runs one attestation session through the lossy channel with
/// retry/backoff/deadline per `policy`: each attempt draws the request
/// leg, asks [`SimDevice::answer`], then draws the report leg. Only the
/// legs draw from `rng`, so a fixed `(device, policy, rng seed)` replays
/// the identical session.
pub fn run_chaos_session<R: Rng + ?Sized>(
    device: &mut SimDevice,
    verifier: &Verifier,
    channel: &LossyChannel,
    policy: &RetryPolicy,
    rng: &mut R,
) -> ChaosReport {
    // Collects what the channel did; the session fields are filled from
    // the machine's outcome at the end.
    let mut tally = ChaosReport {
        result: Err(PufattError::ChannelLost { attempts: 0 }),
        attempts: 0,
        elapsed_s: 0.0,
        late: false,
        retried: 0,
        requests_dropped: 0,
        reports_dropped: 0,
        duplicates: 0,
        reordered: 0,
    };
    let outcome = AttestSession::new(*policy).run(verifier, rng, |rng, request, attempt| {
        let Some(request_latency_s) = leg(channel, request.wire_bits(), rng, &mut tally) else {
            tally.requests_dropped += 1;
            return Ok(Exchange::Lost);
        };
        let (report, compute_s) = device.answer(request, attempt)?;
        let Some(report_latency_s) = leg(channel, report.wire_bits(), rng, &mut tally) else {
            tally.reports_dropped += 1;
            return Ok(Exchange::Lost);
        };
        Ok(Exchange::Delivered {
            report,
            elapsed_s: request_latency_s + compute_s + report_latency_s,
        })
    });
    let AttestOutcome { result, attempts, elapsed_s, late, retried } = outcome;
    ChaosReport { result, attempts, elapsed_s, late, retried, ..tally }
}

/// One message leg: its latency, or `None` if it was lost. Duplicates and
/// reorders are tallied into `tally`.
fn leg<R: Rng + ?Sized>(channel: &LossyChannel, bits: u64, rng: &mut R, tally: &mut ChaosReport) -> Option<f64> {
    match channel.transmit(bits, rng) {
        Delivery::Dropped => None,
        Delivery::Delivered { latency_s, duplicated, reordered } => {
            tally.duplicates += u32::from(duplicated);
            tally.reordered += u32::from(reordered);
            Some(latency_s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufatt::enroll::enroll;
    use pufatt::protocol::provision;
    use pufatt::Channel;
    use pufatt_alupuf::device::AluPufConfig;
    use pufatt_pe32::cpu::Clock;
    use pufatt_swatt::checksum::SwattParams;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_params() -> SwattParams {
        SwattParams { region_bits: 8, rounds: 256, puf_interval: 32 }
    }

    fn setup() -> (ProverDevice, Verifier) {
        let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).unwrap();
        let (p, v, _) =
            provision(&enrolled, small_params(), Clock::new(100.0), Channel::sensor_link(), 7, 1.10).unwrap();
        (p, v)
    }

    #[test]
    fn clean_plan_over_ideal_channel_accepts() {
        let (prover, verifier) = setup();
        let plan = FaultPlan::clean(1);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let report = run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng);
        assert!(report.accepted(), "clean run must accept: {report:?}");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.messages_dropped(), 0);
    }

    #[test]
    fn total_loss_yields_channel_lost_not_a_panic() {
        let (prover, verifier) = setup();
        let plan = FaultPlan::clean(2).with_drops(1.0);
        let channel = LossyChannel::from_plan(verifier.channel(), &plan);
        let policy = RetryPolicy::for_verifier(&verifier, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let report = run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng);
        assert!(matches!(report.result, Err(PufattError::ChannelLost { attempts: 3 })), "{report:?}");
        assert!(report.timed_out());
        assert_eq!(report.requests_dropped, 3, "every request leg lost");
        assert!(report.elapsed_s >= 3.0 * policy.attempt_timeout_s);
    }

    #[test]
    fn drops_cost_time_and_retries_recover() {
        let (prover, verifier) = setup();
        // Heavy but not total loss: with 3 attempts at 50 % drop per leg,
        // seed 100 finds a delivered attempt.
        let plan = FaultPlan::clean(3).with_drops(0.5);
        let channel = LossyChannel::from_plan(verifier.channel(), &plan);
        let policy = RetryPolicy::for_verifier(&verifier, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let report = run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng);
        assert!(report.accepted(), "retries should eventually deliver: {report:?}");
        assert!(report.attempts > 1 || report.messages_dropped() == 0);
    }

    #[test]
    fn tight_deadline_yields_timeout_error() {
        let (prover, verifier) = setup();
        let plan = FaultPlan::clean(4);
        let channel = LossyChannel::ideal(verifier.channel());
        let mut policy = RetryPolicy::for_verifier(&verifier, 3);
        policy.deadline_s = 1e-9;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let report = run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng);
        assert!(matches!(report.result, Err(PufattError::Timeout { .. })), "{report:?}");
        assert!(report.timed_out());
    }

    #[test]
    fn beyond_t_bursts_are_rejected() {
        let (prover, verifier) = setup();
        // 9 > t = 7 flips on every raw evaluation: reconstruction cannot
        // track the prover, so the response never verifies.
        let plan = FaultPlan::clean(5).with_burst(9, 1);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let report = run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng);
        let verdict = report.result.expect("messages flow; the verdict rejects");
        assert!(!verdict.accepted && !verdict.response_ok, "{verdict}");
    }

    #[test]
    fn slow_clock_skew_breaks_the_delta_bound() {
        let (prover, verifier) = setup();
        // A 3× slower oscillator: responses stay clean (PUF uncoupled) but
        // compute time triples, far past the 1.10-slack δ.
        let plan = FaultPlan::clean(6).with_clock_skew(1.0 / 3.0);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let report = run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng);
        match report.result {
            Ok(verdict) => {
                assert!(!verdict.time_ok && !verdict.accepted, "slow prover must trip δ: {verdict}");
                assert!(verdict.response_ok, "skew without coupling leaves responses clean");
            }
            Err(PufattError::Timeout { .. }) => {} // tripled compute can also blow the deadline
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn mid_traversal_tamper_is_detected() {
        // A longer traversal than the shared setup: with rounds ≈ 8× the
        // region size, the probability that the tampered cell is never
        // revisited after the write lands is e^-8-ish, and with a fixed
        // seed the outcome is pinned.
        let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).unwrap();
        let params = SwattParams { region_bits: 8, rounds: 2048, puf_interval: 32 };
        let (prover, verifier, _) =
            provision(&enrolled, params, Clock::new(100.0), Channel::sensor_link(), 7, 1.10).unwrap();
        let plan = FaultPlan::clean(7).with_mid_traversal_tamper(1);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let report = run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng);
        let verdict = report.result.expect("tamper is a verdict, not an error");
        assert!(!verdict.response_ok, "a tamper landing 1k cycles in is re-read by later rounds: {verdict}");
    }

    #[test]
    fn same_seed_replays_the_identical_session() {
        let plan = FaultPlan::clean(8).with_drops(0.3).with_jitter_ms(3.0).with_bit_flips(0.02);
        let run = || {
            let (prover, verifier) = setup();
            let channel = LossyChannel::from_plan(verifier.channel(), &plan);
            let policy = RetryPolicy::for_verifier(&verifier, 4);
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            run_chaos_session(&mut SimDevice::new(prover, &plan), &verifier, &channel, &policy, &mut rng)
        };
        assert_eq!(run(), run(), "chaos must replay bit-for-bit");
    }
}
