//! Golden pins for the verifier's retry decision: the absolute seeded
//! output of a plain campaign, a chaos campaign, a run of chaos sessions
//! on one device, and one `run_session_with_retry` call.
//!
//! The determinism tests elsewhere compare one run against another, so a
//! change that moves both runs the same way passes them: a float sum
//! reordered, a backoff applied one attempt late, a deadline checked after
//! the request draw instead of before it. These constants are absolute.
//! Elapsed times enter the digests as `f64::to_bits`, so a change that
//! moves a sum by its last bit shows. Each test also asserts that the branch it pins
//! fires at all: a retry, the plain (soft) timeout, and the chaos
//! `ChannelLost` and `Timeout` endings.

use pufatt::enroll::enroll;
use pufatt::protocol::{provision, run_session_with_retry, Channel};
use pufatt::PufattError;
use pufatt_alupuf::device::AluPufConfig;
use pufatt_faults::{run_chaos_session, FaultPlan, LossyChannel, RetryPolicy, SimDevice};
use pufatt_fleet::{run_campaign, small_test_config, CampaignReport, ChaosConfig, FleetSnapshot, FleetStatus};
use pufatt_pe32::cpu::Clock;
use pufatt_swatt::checksum::SwattParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }
}

fn bits(flags: &[bool]) -> u64 {
    flags.iter().enumerate().map(|(i, &f)| u64::from(f) << i).sum()
}

/// Every counter of a snapshot, in declaration order, then the device
/// states.
fn counters(s: &FleetSnapshot) -> [u64; 14] {
    [
        s.sessions_started,
        s.sessions_accepted,
        s.sessions_rejected,
        s.sessions_timed_out,
        s.attempts_retried,
        s.sessions_refused,
        s.device_faults,
        s.messages_dropped,
        s.sessions_lost,
        s.crp_hits,
        s.crp_misses,
        s.devices.active as u64,
        s.devices.quarantined as u64,
        s.devices.revoked as u64,
    ]
}

/// Digest of every device's end state and every retained outcome:
/// attempts, verdict flags and the bit pattern of the elapsed time.
fn outcome_digest(report: &CampaignReport) -> u64 {
    let mut d = Digest::new();
    for r in &report.device_records {
        let status = match r.status {
            FleetStatus::Active => 0,
            FleetStatus::Quarantined => 1,
            FleetStatus::Revoked => 2,
        };
        d.word(u64::from(r.id)).word(bits(&[r.tampered, r.flaky])).word(status);
        for o in &r.outcomes {
            d.word(u64::from(o.attempts))
                .word(bits(&[o.accepted, o.response_ok, o.time_ok, o.timed_out]))
                .word(o.elapsed_s.to_bits());
        }
    }
    d.0
}

/// Plain campaign: a quarter of the fleet is tampered and rejected on
/// every attempt, so its sessions retry to the limit. Backoff puts the
/// third attempt at about 155 ms of simulated time, past the 100 ms
/// timeout; the first two stay under it.
#[test]
fn plain_campaign_output_is_pinned() {
    let mut cfg = small_test_config(24, 2, 0x601D);
    cfg.sessions_per_device = 3;
    cfg.policy.max_attempts = 3;
    cfg.timeout_s = 0.1;
    let report = run_campaign(&cfg).expect("campaign");
    let snap = &report.snapshot;
    let outcomes = || report.device_records.iter().flat_map(|r| &r.outcomes);
    assert!(outcomes().any(|o| o.attempts > 1), "no session retried:\n{snap}");
    assert!(outcomes().any(|o| o.timed_out && !o.accepted), "no session crossed the timeout:\n{snap}");
    assert!(outcomes().any(|o| o.accepted), "no session was accepted:\n{snap}");
    assert_eq!(counters(snap), PLAIN_COUNTERS, "plain counters moved:\n{snap}");
    assert_eq!(outcome_digest(&report), PLAIN_DIGEST, "plain outcomes moved");
}

const PLAIN_COUNTERS: [u64; 14] = [72, 54, 18, 18, 36, 0, 0, 0, 0, 0, 0, 18, 6, 0];
const PLAIN_DIGEST: u64 = 0xF6C7_0AEF_AE9F_220B;

/// Chaos campaign: half the fleet is flaky (drops, jitter, a
/// mid-traversal tamper on the second attempt). The 175 ms timeout sits
/// just above the point where the third attempt of a twice-lost session
/// starts, so an all-lost session ends `ChannelLost` while one whose last
/// attempt is delivered late ends `Timeout`.
#[test]
fn chaos_campaign_output_is_pinned() {
    let mut cfg = small_test_config(24, 2, 0xC4A05);
    cfg.sessions_per_device = 4;
    cfg.policy.max_attempts = 3;
    cfg.timeout_s = 0.175;
    cfg.chaos = Some(ChaosConfig { plan: chaos_plan(1), flaky_fraction: 0.5 });
    let report = run_campaign(&cfg).expect("campaign");
    let snap = &report.snapshot;
    assert!(snap.attempts_retried > 0 && snap.messages_dropped > 0, "{snap}");
    assert!(snap.sessions_lost > 0, "no session was lost:\n{snap}");
    assert!(snap.sessions_accepted > 0, "no session was accepted:\n{snap}");
    assert_eq!(counters(snap), CHAOS_COUNTERS, "chaos counters moved:\n{snap}");
    assert_eq!(outcome_digest(&report), CHAOS_DIGEST, "chaos outcomes moved");
}

const CHAOS_COUNTERS: [u64; 14] = [96, 48, 48, 26, 48, 0, 0, 93, 26, 0, 0, 12, 0, 12];
const CHAOS_DIGEST: u64 = 0x7C41_C426_0DC4_2243;

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse("drop=0.4,jitter-ms=2,tamper=2", seed).expect("valid plan")
}

/// The typed endings of the lossy driver: one device, consecutive
/// sessions on one seeded stream, alternating two deadlines. The wide one
/// survives two lost attempts, so a session ends `ChannelLost` when the
/// third is lost too and `Timeout` when its report comes back late. The
/// tight one expires during the backoff after a second lost attempt, so
/// the session times out before it draws a third request.
#[test]
fn chaos_session_endings_are_pinned() {
    let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).expect("enroll");
    let params = SwattParams { region_bits: 8, rounds: 256, puf_interval: 32 };
    let (prover, verifier, _) =
        provision(&enrolled, params, Clock::new(100.0), Channel::sensor_link(), 7, 1.10).expect("provision");
    let plan = chaos_plan(9);
    let mut device = SimDevice::new(prover, &plan);
    let channel = LossyChannel::from_plan(verifier.channel(), &plan);
    let policy = RetryPolicy::for_verifier(&verifier, 3);
    let (wait, b2, b3) = (policy.attempt_timeout_s, policy.backoff_s(2), policy.backoff_s(3));
    // The session clock when a third attempt starts after two lost ones,
    // summed in the order the session adds it up.
    let two_lost = wait + b2 + wait + b3;
    let wide = RetryPolicy { deadline_s: two_lost + 0.25 * wait, ..policy };
    let tight = RetryPolicy { deadline_s: 1.5 * wait + b2, ..policy };
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E55);
    let mut endings = [0u64; 4];
    let mut d = Digest::new();
    for i in 0..32 {
        let policy = if i % 2 == 0 { &wide } else { &tight };
        let report = run_chaos_session(&mut device, &verifier, &channel, policy, &mut rng);
        let kind = match &report.result {
            Ok(v) => {
                d.word(bits(&[v.accepted, v.response_ok, v.time_ok]))
                    .word(v.elapsed_s.to_bits());
                0
            }
            Err(PufattError::ChannelLost { attempts }) => {
                d.word(u64::from(*attempts));
                1
            }
            Err(PufattError::Timeout { elapsed_s, deadline_s }) => {
                d.word(elapsed_s.to_bits()).word(deadline_s.to_bits());
                if *elapsed_s == two_lost {
                    3
                } else {
                    2
                }
            }
            Err(e) => panic!("unexpected ending {e}"),
        };
        endings[kind] += 1;
        d.word(kind as u64)
            .word(u64::from(report.attempts))
            .word(report.elapsed_s.to_bits())
            .word(u64::from(report.requests_dropped))
            .word(u64::from(report.reports_dropped));
    }
    // Verdicts, ChannelLost, a late report's Timeout, and a Timeout
    // before the third request.
    assert!(endings.iter().all(|&n| n > 0), "some ending never fired: {endings:?}");
    assert_eq!(endings, SESSION_ENDINGS, "ending counts moved");
    assert_eq!(d.0, SESSION_DIGEST, "session endings moved");
}

const SESSION_ENDINGS: [u64; 4] = [7, 5, 12, 8];
const SESSION_DIGEST: u64 = 0x0AFD_6D08_F4DB_FF06;

/// The core retry wrapper on a device whose attested memory was changed:
/// every attempt is rejected, so it runs to the limit.
#[test]
fn run_session_with_retry_is_pinned() {
    let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).expect("enroll");
    let params = SwattParams { region_bits: 8, rounds: 256, puf_interval: 32 };
    let (mut prover, verifier, _) =
        provision(&enrolled, params, Clock::new(100.0), Channel::sensor_link(), 7, 1.10).expect("provision");
    let word = prover.memory()[100];
    prover.write_words(100, &[word ^ 1]).expect("in memory");
    let mut rng = ChaCha8Rng::seed_from_u64(0x7E7);
    let (verdict, attempts) = run_session_with_retry(&mut prover, &verifier, &mut rng, 3).expect("session");
    assert_eq!(attempts, 3, "a tampered device retries to the limit: {verdict}");
    let pinned = (bits(&[verdict.accepted, verdict.response_ok, verdict.time_ok]), verdict.elapsed_s.to_bits());
    assert_eq!(pinned, RETRY_VERDICT, "{verdict}");
    assert_eq!(verdict.delta_s.to_bits(), verifier.delta_s.to_bits());
}

const RETRY_VERDICT: (u64, u64) = (4, 4573959636726610722);
