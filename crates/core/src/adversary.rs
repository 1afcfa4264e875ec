//! The paper's adversaries (§3 trust model, §4.2 security analysis), as
//! runnable attacks against a provisioned prover/verifier pair.
//!
//! * [`memory_copy_attack`] — malware hides by redirecting checksum reads
//!   to a pristine copy of the expected memory. The response forges
//!   correctly; the per-round overhead breaks the time bound δ.
//! * [`overclock_evasion_attack`] — the same adversary overclocks the CPU
//!   to claw the overhead back. The time bound passes, but the ALU PUF
//!   shares the clock network: setup-time violations corrupt `z` and the
//!   response check fails (the paper's headline defence).
//! * [`proxy_attack`] — the checksum is outsourced to a fast machine that
//!   queries the prover's PUF as an oracle over the constrained external
//!   channel; the per-query round trips exceed δ.
//! * Impersonation — a different chip of the same design running the
//!   honest code; its helper data does not verify against the enrolled
//!   delay table (exercised directly in the protocol tests and the
//!   `protocol_security` bench, since it needs no dedicated adversary
//!   code).

use crate::error::PufattError;
use crate::ports::SharedDevicePuf;
use crate::protocol::{
    run_session, AttestationReport, AttestationRequest, Channel, ProgramImage, ProverDevice, Verdict, Verifier,
};
use pufatt_pe32::cpu::Clock;
use pufatt_swatt::checksum::SwattParams;
use pufatt_swatt::codegen::{CodegenOptions, Redirection};
use std::fmt;

/// Outcome of an attack attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Name of the attack.
    pub attack: &'static str,
    /// The verifier's verdict.
    pub verdict: Verdict,
    /// Free-form note on what gave the attack away (empty if it succeeded).
    pub detected_by: &'static str,
}

impl AttackOutcome {
    fn conclude(attack: &'static str, verdict: Verdict) -> Self {
        let detected_by = match (verdict.accepted, verdict.response_ok, verdict.time_ok) {
            (true, _, _) => "",
            (false, false, false) => "response mismatch and time bound",
            (false, false, true) => "response mismatch",
            (false, true, false) => "time bound",
            (false, true, true) => unreachable!("rejected verdicts fail at least one check"),
        };
        AttackOutcome { attack, verdict, detected_by }
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.verdict.accepted {
            write!(f, "{}: NOT DETECTED ({})", self.attack, self.verdict)
        } else {
            write!(f, "{}: detected by {} ({})", self.attack, self.detected_by, self.verdict)
        }
    }
}

/// Builds the adversary's device: the attested region is overwritten with
/// the redirecting checksum + malware, and a pristine copy of the expected
/// memory is stashed in scratch.
///
/// `overclock` scales the CPU clock (1.0 = honest F_base); the PUF is
/// *always* coupled to the resulting cycle time, because it shares the
/// clock network.
///
/// # Errors
///
/// Propagates provisioning failures.
pub fn build_malicious_prover(
    puf: SharedDevicePuf,
    params: SwattParams,
    expected_region: &[u32],
    base_clock: Clock,
    overclock: f64,
) -> Result<ProverDevice, PufattError> {
    let image = memory_copy_image(params, expected_region.len() as u32)?;
    malicious_prover_from_image(puf, &image, expected_region, base_clock, overclock)
}

/// The adversary's redirecting checksum program for an attested region of
/// `region_words` words. The copy region must clear the honest layout's
/// scratch, so it sits one full region above the region end. Everything
/// except the two challenge cells at the top of the region is redirected:
/// their values change per request and are public, so the adversary reads
/// them live (a copy would go stale).
///
/// # Errors
///
/// Propagates code-generation failures.
pub fn memory_copy_image(params: SwattParams, region_words: u32) -> Result<ProgramImage, PufattError> {
    let redirect = Redirection {
        malware_start: 0,
        malware_end: region_words - 2,
        copy_base: region_words * 4,
    };
    ProgramImage::build(params, &CodegenOptions { redirect: Some(redirect) })
}

/// [`build_malicious_prover`] with the redirecting program already
/// assembled by [`memory_copy_image`].
///
/// # Errors
///
/// [`PufattError::Codegen`] if `image` does not redirect the reads of
/// `expected_region`; trap errors if a planted word falls outside memory.
pub fn malicious_prover_from_image(
    puf: SharedDevicePuf,
    image: &ProgramImage,
    expected_region: &[u32],
    base_clock: Clock,
    overclock: f64,
) -> Result<ProverDevice, PufattError> {
    let redirect = image.options().redirect;
    let Some(Redirection { malware_start, malware_end, copy_base }) = redirect else {
        return Err(PufattError::Codegen("the memory-copy adversary needs a redirecting program".into()));
    };
    let pristine = expected_region
        .get(malware_start as usize..malware_end as usize)
        .ok_or_else(|| PufattError::Codegen("the redirected range exceeds the expected region".into()))?;
    let mut prover = ProverDevice::from_image(puf, image, base_clock);
    prover.write_words(copy_base, pristine)?;
    // Plant some malware in a gap of the attested region (below the
    // challenge cells).
    let malware: [u32; 8] = std::array::from_fn(|i| 0xEB1B_0000 | i as u32);
    prover.write_words(malware_end - 16, &malware)?;
    let clock = Clock::new(base_clock.frequency_mhz * overclock);
    prover.set_clock(clock, true);
    Ok(prover)
}

/// The memory-copy attack at the honest clock: forged response, broken
/// timing.
///
/// # Errors
///
/// Propagates prover traps.
pub fn memory_copy_attack(
    puf: SharedDevicePuf,
    verifier: &Verifier,
    expected_region: &[u32],
    request: AttestationRequest,
) -> Result<AttackOutcome, PufattError> {
    let mut prover =
        build_malicious_prover(puf, verifier_params(verifier), expected_region, verifier.expected_clock, 1.0)?;
    let (verdict, _) = run_session(&mut prover, verifier, request)?;
    Ok(AttackOutcome::conclude("memory-copy (F_base)", verdict))
}

/// The memory-copy attack with overclocking chosen to mask the overhead.
///
/// # Errors
///
/// Propagates prover traps.
pub fn overclock_evasion_attack(
    puf: SharedDevicePuf,
    verifier: &Verifier,
    expected_region: &[u32],
    request: AttestationRequest,
    overclock: f64,
) -> Result<AttackOutcome, PufattError> {
    let mut prover =
        build_malicious_prover(puf, verifier_params(verifier), expected_region, verifier.expected_clock, overclock)?;
    let (verdict, _) = run_session(&mut prover, verifier, request)?;
    Ok(AttackOutcome::conclude("memory-copy + overclock", verdict))
}

/// The proxy (oracle) attack: a powerful remote machine computes the
/// checksum instantly but must fetch every `z` from the prover's PUF over
/// the external channel (`ext`). Returns the verdict the verifier would
/// reach from pure timing — the response itself would be correct.
pub fn proxy_attack(verifier: &Verifier, honest_report: &AttestationReport, ext: Channel) -> AttackOutcome {
    let queries = (honest_report.helper_words.len() / 8) as u64;
    // Per oracle query: ship 8 challenge pairs out (8 × 64 bits) and the
    // obfuscated z + helper words back (32 + 8 × 32 bits).
    let per_query_s = ext.transfer_s(8 * 64) + ext.transfer_s(32 + 8 * 32);
    // The remote machine's own compute time is assumed zero (most
    // favourable to the adversary).
    let compute_s = queries as f64 * per_query_s;
    let verdict = verifier.verify(AttestationRequest { x0: 0, r0: 0 }, honest_report, compute_s);
    // Response correctness: by construction the adversary relays the honest
    // values, so only timing matters; patch the response flag accordingly.
    let verdict = Verdict { response_ok: true, accepted: verdict.time_ok, ..verdict };
    AttackOutcome::conclude("proxy/oracle", verdict)
}

fn verifier_params(v: &Verifier) -> SwattParams {
    // The adversary knows the protocol parameters (Kerckhoffs).
    v.params()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enroll::enroll;
    use crate::protocol::provision;
    use pufatt_alupuf::device::AluPufConfig;

    fn setup() -> (ProverDevice, Verifier, SharedDevicePuf, Vec<u32>) {
        let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0).unwrap();
        let params = SwattParams { region_bits: 9, rounds: 1024, puf_interval: 16 };
        let clock = crate::protocol::puf_limited_clock(&enrolled, 1.10, 128, 99);
        let (prover, verifier, _) = provision(&enrolled, params, clock, Channel::sensor_link(), 7, 1.10).unwrap();
        let region = prover.expected_region();
        let puf = enrolled.device_handle(13);
        (prover, verifier, puf, region)
    }

    #[test]
    fn memory_copy_attack_caught_by_timing() {
        let (_, verifier, puf, region) = setup();
        let out = memory_copy_attack(puf, &verifier, &region, AttestationRequest { x0: 3, r0: 4 }).unwrap();
        assert!(!out.verdict.accepted, "{out}");
        assert!(out.verdict.response_ok, "the forgery itself must succeed: {out}");
        assert!(!out.verdict.time_ok, "timing must catch it: {out}");
    }

    #[test]
    fn overclock_evasion_caught_by_puf() {
        let (_, verifier, puf, region) = setup();
        // Overclock far enough to beat the time bound (and, because the
        // PUF shares the clock, deep into setup violation).
        let out = overclock_evasion_attack(puf, &verifier, &region, AttestationRequest { x0: 3, r0: 4 }, 4.0).unwrap();
        assert!(!out.verdict.accepted, "{out}");
        assert!(out.verdict.time_ok, "overclocking must beat the clock: {out}");
        assert!(!out.verdict.response_ok, "the PUF must corrupt: {out}");
    }

    #[test]
    fn proxy_attack_caught_by_timing() {
        let (mut prover, verifier, _, _) = setup();
        let report = prover.attest(AttestationRequest { x0: 1, r0: 2 }).unwrap();
        let out = proxy_attack(&verifier, &report, Channel::sensor_link());
        assert!(!out.verdict.accepted, "{out}");
        assert!(!out.verdict.time_ok, "{out}");
    }

    #[test]
    fn proxy_attack_would_succeed_on_a_fast_enough_channel() {
        // Sanity check of the model: with an absurdly fast external channel
        // the oracle attack fits the bound — the defence *is* the bandwidth
        // assumption, as the paper states.
        let (mut prover, verifier, _, _) = setup();
        let report = prover.attest(AttestationRequest { x0: 1, r0: 2 }).unwrap();
        let fast = Channel { bandwidth_bps: 1e12, latency_s: 1e-9 };
        let out = proxy_attack(&verifier, &report, fast);
        assert!(out.verdict.accepted, "{out}");
    }
}
