//! Quickstart: one complete PUFatt attestation session.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! The flow mirrors the paper's Figure 2:
//!
//! 1. **Factory**: manufacture a chip of the ALU PUF design and extract its
//!    gate-level delay table through the trusted enrollment interface.
//! 2. **Provisioning**: generate the attestation program (a SWATT-style
//!    checksum entangled with the PUF), load it on the PE32 prover, and
//!    calibrate the time bound δ from a golden run.
//! 3. **In the field**: the verifier sends `(x0, r0)`; the prover computes
//!    the response on its own CPU; the verifier recomputes it via
//!    `PUF.Emulate()` and enforces δ.

use pufatt::enroll::enroll;
use pufatt::protocol::{provision, puf_limited_clock, run_session, AttestationRequest, Channel};
use pufatt_alupuf::device::AluPufConfig;
use pufatt_swatt::checksum::SwattParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Factory.
    let enrolled = enroll(AluPufConfig::paper_32bit(), /* fab seed */ 42, 0)?;
    println!("enrolled a 32-bit ALU PUF device ({} gates)", enrolled.design().netlist().gate_count());

    // 2. Provisioning: the attestation clock is set just above the PUF's
    // empirical timing limit so overclocking corrupts responses.
    let params = SwattParams { region_bits: 10, rounds: 4096, puf_interval: 32 };
    let clock = puf_limited_clock(&enrolled, 1.10, 128, 7);
    let channel = Channel::sensor_link();
    let (mut prover, verifier, golden_cycles) = provision(&enrolled, params, clock, channel, 99, 1.10)?;
    println!(
        "provisioned: F_base = {:.0} MHz, honest run = {} cycles, delta = {:.2} ms",
        clock.frequency_mhz,
        golden_cycles,
        verifier.delta_s * 1e3
    );

    // 3. Attestation sessions.
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for i in 0..3 {
        let request = AttestationRequest::random(&mut rng);
        let (verdict, report) = run_session(&mut prover, &verifier, request)?;
        println!("session {i}: {verdict} ({} helper words, {} cycles)", report.helper_words.len(), report.cycles);
        assert!(verdict.accepted, "an honest device must pass");
    }

    // A compromised device does not.
    let tamper_at = prover.layout().x0_cell - 8;
    prover.write_words(tamper_at, &[0xEB1B_EB1B])?;
    let (verdict, _) = run_session(&mut prover, &verifier, AttestationRequest::random(&mut rng))?;
    println!("after malware injection: {verdict}");
    assert!(!verdict.accepted, "malware must be detected");
    Ok(())
}
