//! Chaos-layer properties spanning the workspace: the BCH t = 7 boundary,
//! replay determinism of fault-injected sessions, and worker-count
//! invariance of whole chaos campaigns.
//!
//! These are the robustness layer's contract tests: everything the
//! fault-injection machinery reports must be reproducible (same seed, same
//! plan ⇒ same verdicts, whatever the parallelism) and must respect the
//! paper's error-correction boundary (≤ 7 flipped bits always recover,
//! heavier bursts are never mis-accepted).

use proptest::prelude::*;
use pufatt::enroll::{enroll, EnrolledDevice};
use pufatt::protocol::{provision, Channel};
use pufatt_alupuf::device::AluPufConfig;
use pufatt_ecc::gf2::BitVec;
use pufatt_ecc::noise::exact_weight_error;
use pufatt_ecc::rm::ReedMuller1;
use pufatt_ecc::ReverseFuzzyExtractor;
use pufatt_faults::{
    run_chaos_session, run_noise_sweep, FaultPlan, LossyChannel, RetryPolicy, SimDevice, SweepConfig, PAPER_T,
};
use pufatt_fleet::{run_campaign, small_test_config, ChaosConfig, FleetStatus};
use pufatt_pe32::cpu::Clock;
use pufatt_swatt::checksum::SwattParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

// ------------------------------------------------------- the t = 7 boundary

proptest! {
    /// Any error of weight ≤ t on any reference word is corrected exactly,
    /// within the verifier's bounded-distance rule.
    #[test]
    fn errors_within_t_always_recover(reference in any::<u32>(), weight in 0u32..=PAPER_T, pos_seed in any::<u64>()) {
        let extractor = ReverseFuzzyExtractor::new(ReedMuller1::bch_32_6_16());
        let mut rng = ChaCha8Rng::seed_from_u64(pos_seed);
        let reference = BitVec::from_word(u64::from(reference), 32);
        let noisy = reference.xor(&exact_weight_error(32, weight as usize, &mut rng));
        let helper = extractor.generate(&noisy).expect("generate");
        let rec = extractor.reproduce(&reference, &helper).expect("weight <= t must reconstruct");
        prop_assert_eq!(&rec.response, &noisy, "reconstruction must be exact at weight {}", weight);
        prop_assert!(rec.corrected_errors <= PAPER_T as usize, "corrected {} > t", rec.corrected_errors);
    }

    /// No error heavier than t ever survives the bounded-distance rule: the
    /// decode either fails, lands on a different word, or reports more than
    /// t corrections — which the verifier rejects as out-of-tolerance.
    #[test]
    fn errors_beyond_t_never_pass_the_bound(reference in any::<u32>(), weight in (PAPER_T + 1)..=16u32, pos_seed in any::<u64>()) {
        let extractor = ReverseFuzzyExtractor::new(ReedMuller1::bch_32_6_16());
        let mut rng = ChaCha8Rng::seed_from_u64(pos_seed);
        let reference = BitVec::from_word(u64::from(reference), 32);
        let noisy = reference.xor(&exact_weight_error(32, weight as usize, &mut rng));
        let within_bound = extractor
            .generate(&noisy)
            .and_then(|helper| extractor.reproduce(&reference, &helper))
            .map(|rec| rec.response == noisy && rec.corrected_errors <= PAPER_T as usize)
            .unwrap_or(false);
        prop_assert!(!within_bound, "weight {} must never pass as <= t corrections", weight);
    }
}

/// Full protocol sessions agree with the extractor-level boundary: the
/// sweep recovers every weight ≤ t and accepts nothing at weight 9.
#[test]
fn session_level_boundary_matches_the_paper() {
    let config = SweepConfig {
        seed: 0xB0B,
        extractor_trials: 30,
        sessions_per_weight: 3,
        max_weight: 9,
    };
    let sweep = run_noise_sweep(&config).expect("sweep runs");
    assert!(sweep.boundary_holds(), "t = 7 boundary must hold:\n{sweep}");
    assert_eq!(sweep.row(9).expect("row").accepts, 0, "9-bit bursts are never mis-accepted:\n{sweep}");
}

// --------------------------------------------------- session replayability

fn chaos_enrolled() -> &'static EnrolledDevice {
    static ENROLLED: OnceLock<EnrolledDevice> = OnceLock::new();
    ENROLLED.get_or_init(|| enroll(AluPufConfig::paper_32bit(), 42, 0).expect("enroll"))
}

proptest! {
    /// One fault-injected session replays bit-for-bit from (plan, seed):
    /// identical verdicts, attempt counts, drop tallies, and elapsed time.
    #[test]
    fn chaos_sessions_replay_from_their_seed(
        seed in any::<u64>(),
        drop in 0.0f64..0.6,
        flip in 0.0f64..0.03,
        jitter_ms in 0.0f64..2.0,
    ) {
        let plan = FaultPlan::clean(seed).with_drops(drop).with_bit_flips(flip).with_jitter_ms(jitter_ms);
        let run = || {
            let params = SwattParams { region_bits: 8, rounds: 128, puf_interval: 32 };
            let (prover, verifier, _) =
                provision(chaos_enrolled(), params, Clock::new(100.0), Channel::sensor_link(), 7, 1.10)
                    .expect("provision");
            let mut device = SimDevice::new(prover, &plan);
            let channel = LossyChannel::from_plan(verifier.channel(), &plan);
            let policy = RetryPolicy::for_verifier(&verifier, 3);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            run_chaos_session(&mut device, &verifier, &channel, &policy, &mut rng)
        };
        prop_assert_eq!(run(), run());
    }
}

// ------------------------------------------- campaign worker invariance

proptest! {
    /// A chaos campaign's verdict sequence is a pure function of (seed,
    /// plan): per-device records and the final snapshot are identical at
    /// any worker count.
    #[test]
    fn chaos_campaigns_are_worker_count_invariant(
        seed in any::<u32>(),
        workers in 2usize..5,
        drop in 0.0f64..0.5,
        flip in 0.0f64..0.02,
    ) {
        let chaos = Some(ChaosConfig {
            plan: FaultPlan::clean(u64::from(seed)).with_drops(drop).with_bit_flips(flip),
            flaky_fraction: 0.5,
        });
        let mut serial = small_test_config(4, 1, u64::from(seed));
        serial.chaos = chaos.clone();
        let mut parallel = small_test_config(4, workers, u64::from(seed));
        parallel.chaos = chaos;
        let a = run_campaign(&serial).expect("serial campaign");
        let b = run_campaign(&parallel).expect("parallel campaign");
        prop_assert_eq!(&a.device_records, &b.device_records, "records must not depend on workers");
        prop_assert_eq!(&a.snapshot, &b.snapshot);
    }
}

/// Heavy loss drives flaky devices into quarantine while clean devices
/// stay active — the graceful-degradation contract, end to end.
#[test]
fn flaky_devices_quarantine_and_clean_devices_stay_active() {
    let mut cfg = small_test_config(12, 3, 0xCAFE);
    cfg.sessions_per_device = 4;
    cfg.tamper_fraction = 0.0;
    cfg.policy.quarantine_after = 2;
    cfg.policy.revoke_after = 6;
    cfg.chaos = Some(ChaosConfig {
        plan: FaultPlan::clean(0xCAFE).with_drops(0.9).with_jitter_ms(1.0),
        flaky_fraction: 0.4,
    });
    let report = run_campaign(&cfg).expect("campaign");
    assert!(report.snapshot.sessions_lost > 0, "heavy drops must lose sessions: {}", report.snapshot);
    let mut demoted_flaky = 0;
    for record in &report.device_records {
        if record.flaky {
            demoted_flaky += u32::from(record.status != FleetStatus::Active);
        } else {
            assert_eq!(record.status, FleetStatus::Active, "clean device {} must stay active", record.id);
        }
    }
    assert!(demoted_flaky > 0, "some flaky device must be demoted:\n{:#?}", report.device_records);
}
