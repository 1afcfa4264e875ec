//! The chaos session runner: one attestation session driven through a
//! [`LossyChannel`] under a [`FaultPlan`]. The retry, backoff and deadline
//! decisions are the core session machine's
//! ([`pufatt::protocol::AttestSession`], whose docs draw its states); this
//! module is the device end it talks to — the channel legs, the prover and
//! the plan's mid-traversal tamper.
//!
//! Everything is simulated time: drops cost the verifier its per-attempt
//! timeout, backoff delays accumulate into the session's elapsed time, and
//! no thread ever sleeps — which is also why chaos campaigns stay
//! deterministic at any worker count.

use crate::channel::{Delivery, LossyChannel};
use crate::plan::FaultPlan;
pub use pufatt::protocol::RetryPolicy;
use pufatt::protocol::{AttestOutcome, AttestSession, Exchange, MidTraversalTamper, ProverDevice, Verifier};
use pufatt::{PufattError, Verdict};
use rand::Rng;

/// XOR mask the chaos runner applies when a plan schedules mid-traversal
/// tamper. Exported so resume logic can recognise (and re-apply or undo)
/// the exact memory mutation a tampered session leaves behind.
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

/// Applies a plan's *device-side* faults to a provisioned prover: response
/// bit-flips/bursts on the PUF, and the clock skew or overclock.
///
/// Overclock wins over skew when both are set, and couples the PUF to the
/// raised clock (the physically accurate §4.2 behaviour); skew leaves the
/// PUF at its safe timing (an honest drifting oscillator).
pub fn apply_device_faults(prover: &mut ProverDevice, plan: &FaultPlan) {
    prover.set_response_fault(plan.response_fault());
    let clock = prover.clock();
    if plan.overclock != 1.0 {
        prover.set_clock(clock.overclocked(plan.overclock), true);
    } else if plan.clock_skew != 1.0 {
        prover.set_clock(clock.overclocked(plan.clock_skew), false);
    }
}

/// Runs one attestation session through the lossy channel under the plan's
/// message and memory faults, with retry/backoff/deadline per `policy`:
/// the device end of an [`AttestSession`]. Each attempt draws the request
/// leg, then the prover attests (under the plan's mid-traversal tamper if
/// it is due), then the report leg.
///
/// Device-side faults (response flips, clock skew/overclock) are *not*
/// applied here — call [`apply_device_faults`] once per prover first; this
/// function only draws the per-session randomness from `rng`, so a fixed
/// `(plan, policy, rng seed)` triple replays the identical session.
pub fn run_chaos_session<R: Rng + ?Sized>(
    prover: &mut ProverDevice,
    verifier: &Verifier,
    channel: &LossyChannel,
    plan: &FaultPlan,
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
        let tamper = (plan.tamper_at_attempt == Some(attempt)).then(|| MidTraversalTamper {
            at_cycle: MID_TRAVERSAL_CYCLE,
            addr: mid_traversal_addr(&prover.layout()),
            xor: MID_TRAVERSAL_XOR,
        });
        let report = prover.attest_with_tamper(request, tamper)?;
        let compute_s = prover.clock().duration_ns(report.cycles) * 1e-9;
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
        let (mut prover, verifier) = setup();
        let plan = FaultPlan::clean(1);
        apply_device_faults(&mut prover, &plan);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let report = run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng);
        assert!(report.accepted(), "clean run must accept: {report:?}");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.messages_dropped(), 0);
    }

    #[test]
    fn total_loss_yields_channel_lost_not_a_panic() {
        let (mut prover, verifier) = setup();
        let plan = FaultPlan::clean(2).with_drops(1.0);
        let channel = LossyChannel::from_plan(verifier.channel(), &plan);
        let policy = RetryPolicy::for_verifier(&verifier, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let report = run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng);
        assert!(matches!(report.result, Err(PufattError::ChannelLost { attempts: 3 })), "{report:?}");
        assert!(report.timed_out());
        assert_eq!(report.requests_dropped, 3, "every request leg lost");
        assert!(report.elapsed_s >= 3.0 * policy.attempt_timeout_s);
    }

    #[test]
    fn drops_cost_time_and_retries_recover() {
        let (mut prover, verifier) = setup();
        // Heavy but not total loss: with 3 attempts at 50 % drop per leg,
        // seed 100 finds a delivered attempt.
        let plan = FaultPlan::clean(3).with_drops(0.5);
        let channel = LossyChannel::from_plan(verifier.channel(), &plan);
        let policy = RetryPolicy::for_verifier(&verifier, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let report = run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng);
        assert!(report.accepted(), "retries should eventually deliver: {report:?}");
        assert!(report.attempts > 1 || report.messages_dropped() == 0);
    }

    #[test]
    fn tight_deadline_yields_timeout_error() {
        let (mut prover, verifier) = setup();
        let plan = FaultPlan::clean(4);
        let channel = LossyChannel::ideal(verifier.channel());
        let mut policy = RetryPolicy::for_verifier(&verifier, 3);
        policy.deadline_s = 1e-9;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let report = run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng);
        assert!(matches!(report.result, Err(PufattError::Timeout { .. })), "{report:?}");
        assert!(report.timed_out());
    }

    #[test]
    fn beyond_t_bursts_are_rejected() {
        let (mut prover, verifier) = setup();
        // 9 > t = 7 flips on every raw evaluation: reconstruction cannot
        // track the prover, so the response never verifies.
        let plan = FaultPlan::clean(5).with_burst(9, 1);
        apply_device_faults(&mut prover, &plan);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let report = run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng);
        let verdict = report.result.expect("messages flow; the verdict rejects");
        assert!(!verdict.accepted && !verdict.response_ok, "{verdict}");
    }

    #[test]
    fn slow_clock_skew_breaks_the_delta_bound() {
        let (mut prover, verifier) = setup();
        // A 3× slower oscillator: responses stay clean (PUF uncoupled) but
        // compute time triples, far past the 1.10-slack δ.
        let plan = FaultPlan::clean(6).with_clock_skew(1.0 / 3.0);
        apply_device_faults(&mut prover, &plan);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let report = run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng);
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
        let (mut prover, verifier, _) =
            provision(&enrolled, params, Clock::new(100.0), Channel::sensor_link(), 7, 1.10).unwrap();
        let plan = FaultPlan::clean(7).with_mid_traversal_tamper(1);
        apply_device_faults(&mut prover, &plan);
        let channel = LossyChannel::ideal(verifier.channel());
        let policy = RetryPolicy::for_verifier(&verifier, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let report = run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng);
        let verdict = report.result.expect("tamper is a verdict, not an error");
        assert!(!verdict.response_ok, "a tamper landing 1k cycles in is re-read by later rounds: {verdict}");
    }

    #[test]
    fn same_seed_replays_the_identical_session() {
        let plan = FaultPlan::clean(8).with_drops(0.3).with_jitter_ms(3.0).with_bit_flips(0.02);
        let run = || {
            let (mut prover, verifier) = setup();
            apply_device_faults(&mut prover, &plan);
            let channel = LossyChannel::from_plan(verifier.channel(), &plan);
            let policy = RetryPolicy::for_verifier(&verifier, 4);
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            run_chaos_session(&mut prover, &verifier, &channel, &plan, &policy, &mut rng)
        };
        assert_eq!(run(), run(), "chaos must replay bit-for-bit");
    }
}
