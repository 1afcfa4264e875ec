//! Figure 2 / §4.2: end-to-end protocol correctness and security matrix.
//!
//! Runs the full PUFatt session (PE32 prover executing the generated
//! checksum, emulator-backed verifier, channel model, time bound δ) for the
//! honest prover and each adversary of the paper's security analysis, and
//! prints which check catches whom:
//!
//! | scenario            | paper's expectation                  |
//! |---------------------|--------------------------------------|
//! | honest              | accepted (correctness)               |
//! | tampered memory     | response mismatch (soundness)        |
//! | memory-copy attack  | time bound exceeded                  |
//! | + overclock         | PUF corruption ⇒ response mismatch   |
//! | proxy/oracle        | channel too slow ⇒ time bound        |
//! | impersonation       | helper data fails ⇒ response mismatch|

use pufatt::adversary::{memory_copy_attack, overclock_evasion_attack, proxy_attack};
use pufatt::enroll::enroll;
use pufatt::protocol::{provision, puf_limited_clock, run_session, AttestationRequest, Channel};
use pufatt_alupuf::device::AluPufConfig;
use pufatt_bench::{header, row, sample_count, timed};
use pufatt_swatt::checksum::SwattParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    header("Protocol", "End-to-end attestation: honest runs and the paper's attacks (Fig. 2, 4.2)");
    let honest_runs = sample_count(5, 50);
    let params = SwattParams { region_bits: 10, rounds: 8_192, puf_interval: 32 };
    let channel = Channel::sensor_link();

    let enrolled = enroll(AluPufConfig::paper_32bit(), 0x5EC, 0).expect("supported width");
    let clock = puf_limited_clock(&enrolled, 1.10, 128, 0xC10C);
    println!(
        "  configuration: region 2^{} words, {} rounds, PUF every {} blocks, F_base {:.0} MHz",
        params.region_bits, params.rounds, params.puf_interval, clock.frequency_mhz
    );

    let (mut prover, verifier, honest_cycles) =
        provision(&enrolled, params, clock, channel, 0xFEED, 1.10).expect("provisioning");
    println!("  honest attestation: {} cycles, delta = {:.3} ms", honest_cycles, verifier.delta_s * 1e3);

    let mut rng = ChaCha8Rng::seed_from_u64(0x0FF1CE);

    // Correctness: honest prover across fresh requests.
    let accepted = timed("honest runs", || {
        let mut ok = 0;
        for _ in 0..honest_runs {
            let request = AttestationRequest::random(&mut rng);
            let (verdict, _) = run_session(&mut prover, &verifier, request).expect("honest run");
            ok += verdict.accepted as usize;
        }
        ok
    });
    row("honest prover accepted", "always", &format!("{accepted}/{honest_runs}"));

    // Soundness: single tampered word in the attested region's free data
    // space (tampering executed code would additionally trap the CPU).
    let tamper_at = prover.layout().x0_cell - 10;
    let pristine = prover.memory()[tamper_at as usize];
    prover.write_words(tamper_at, &[pristine ^ 0x8000_0000]).expect("in memory");
    let (verdict, _) = run_session(&mut prover, &verifier, AttestationRequest::random(&mut rng)).expect("run");
    row("tampered memory detected", "yes", if verdict.accepted { "NO" } else { "yes (response)" });
    prover.write_words(tamper_at, &[pristine]).expect("in memory");

    // The attack matrix.
    let region = prover.expected_region();
    let request = AttestationRequest::random(&mut rng);

    let mc = timed("memory-copy attack", || {
        memory_copy_attack(enrolled.device_handle(0xBAD1), &verifier, &region, request).expect("attack run")
    });
    row("memory-copy attack", "caught by time bound", &format!("{}", mc));

    let oc = timed("overclock evasion", || {
        overclock_evasion_attack(enrolled.device_handle(0xBAD2), &verifier, &region, request, 4.0).expect("attack run")
    });
    row("memory-copy + 4x overclock", "caught by PUF", &format!("{}", oc));

    let honest_report = prover.attest(request).expect("report for proxy model");
    let px = proxy_attack(&verifier, &honest_report, channel);
    row("proxy/oracle attack", "caught by time bound", &format!("{}", px));

    // Impersonation: a different chip of the same design.
    let imposter = enroll(AluPufConfig::paper_32bit(), 0x5ED, 0).expect("supported width");
    let (mut imposter_prover, _, _) =
        provision(&imposter, params, clock, channel, 0xFEED, 1.10).expect("imposter provisioning");
    let (verdict, _) = run_session(&mut imposter_prover, &verifier, request).expect("imposter run");
    row(
        "impersonation (wrong chip)",
        "caught by PUF",
        if verdict.response_ok { "NOT DETECTED" } else { "yes (response)" },
    );

    assert_eq!(accepted, honest_runs, "correctness must hold");
    assert!(!mc.verdict.accepted && !mc.verdict.time_ok, "memory copy must break timing");
    assert!(!oc.verdict.accepted && !oc.verdict.response_ok, "overclock must corrupt the PUF");
    assert!(!px.verdict.accepted, "proxy must be too slow");
    assert!(!verdict.response_ok, "imposter must fail");
}
