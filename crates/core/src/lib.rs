//! PUFatt: embedded platform attestation based on processor-based PUFs
//! (Kong, Koushanfar, Pendyala, Sadeghi, Wachsmann — DAC 2014).
//!
//! This crate assembles the paper's contribution from the substrate crates:
//!
//! * [`obfuscate`] — the two-phase XOR obfuscation network.
//! * [`pipeline`] — `PUF()`: raw ALU PUF → reverse fuzzy extractor
//!   (BCH\[32,6,16\] syndrome helper data) → obfuscation, for both the
//!   device and the verifier side.
//! * [`ports`] — the concrete PUF endpoints and their adapters onto the
//!   PE32 CPU port and the checksum's PUF hook.
//! * [`enroll`](mod@crate::enroll) — manufacturing, delay-table extraction, CRP databases.
//! * [`protocol`] — the Fig. 2 remote-attestation protocol with a channel
//!   model and time-bound (δ) enforcement.
//! * [`adversary`] — the attacks of the security analysis: memory-copy
//!   malware hiding, overclock evasion, proxy/oracle outsourcing,
//!   impersonation.
//! * [`sidechannel`] — power-leakage model of the obfuscation network and
//!   the dual-rail countermeasure (§4.1's side-channel discussion).
//! * [`slender`] — Slender-PUF-style substring authentication over the
//!   same enrolled hardware (the paper's reference \[22\]).
//!
//! # Quickstart
//!
//! ```
//! use pufatt::enroll::enroll;
//! use pufatt::protocol::{provision, run_session, AttestationRequest, Channel};
//! use pufatt_alupuf::device::AluPufConfig;
//! use pufatt_pe32::cpu::Clock;
//! use pufatt_swatt::checksum::SwattParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Factory: manufacture a device, extract its delay table.
//! let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0)?;
//!
//! // Provision the attestation program and calibrate the time bound.
//! let params = SwattParams { region_bits: 9, rounds: 512, puf_interval: 16 };
//! let (mut prover, verifier, _) =
//!     provision(&enrolled, params, Clock::new(100.0), Channel::sensor_link(), 7, 1.10)?;
//!
//! // In the field: one attestation session.
//! let request = AttestationRequest { x0: 0xAABB, r0: 0xCCDD };
//! let (verdict, _report) = run_session(&mut prover, &verifier, request)?;
//! assert!(verdict.accepted);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Lib-target panics are linted (see [lints.clippy] in Cargo.toml);
// tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod adversary;
pub mod enroll;
pub mod error;
pub mod obfuscate;
pub mod pipeline;
pub mod ports;
pub mod protocol;
pub mod sidechannel;
pub mod slender;

pub use adversary::AttackOutcome;
pub use enroll::{enroll, enroll_fleet, CrpDatabase, EnrolledDevice};
pub use error::PufattError;
pub use pipeline::{ProveOutput, PufPipeline};
pub use ports::{DevicePuf, ResponseFault, SharedDevicePuf, VerifierPuf, VerifierRoundPuf};
pub use protocol::{
    authenticate_with_database, provision, provision_from_image, puf_limited_clock, run_session,
    run_session_with_retry, AttestationReport, AttestationRequest, Channel, MidTraversalTamper, ProgramImage,
    ProverDevice, Verdict, Verifier,
};
