//! Error types of the PUFatt core.

use pufatt_alupuf::challenge::Challenge;
use std::fmt;

/// Errors of the PUF post-processing pipeline and the attestation protocol.
///
/// (`Eq` is deliberately absent: the timeout variant carries the measured
/// elapsed time as an `f64`.)
#[derive(Debug, Clone, PartialEq)]
pub enum PufattError {
    /// The response width has no matching error-correcting code
    /// (supported: powers of two from 4 to 32 bits).
    UnsupportedWidth {
        /// The offending width.
        width: usize,
    },
    /// The verifier could not reconstruct a raw response from its helper
    /// data (too many bit errors — a false negative).
    ReconstructionFailed {
        /// Index of the raw response within its group of 8.
        index: usize,
    },
    /// A reconstruction decoded, but only by correcting more bit errors
    /// than the code guarantees (`t`). The paper's BCH decoder is
    /// bounded-distance — anything beyond `t` is a decoding failure — and
    /// the verifier enforces the same bound: a response this noisy is
    /// out of tolerance (excess noise, overclocking, or an imposter), never
    /// silently accepted on a lucky decode.
    OutOfTolerance {
        /// Index of the raw response within its group of 8.
        index: usize,
        /// Bit errors the decoder had to correct.
        corrected: usize,
        /// The code's guaranteed correction radius `t`.
        bound: usize,
    },
    /// The helper-data stream ended before all PUF queries were replayed.
    HelperStreamExhausted,
    /// The prover's CPU trapped during attestation.
    ProverTrap(pufatt_pe32::cpu::Trap),
    /// The generated attestation program failed to assemble (internal).
    Codegen(String),
    /// The session's end-to-end time exceeded the verifier's deadline
    /// before a valid report arrived (a first-class outcome under lossy
    /// channels — not a panic, not a silent reject).
    Timeout {
        /// Simulated seconds the session had consumed when it was cut off.
        elapsed_s: f64,
        /// The enforced deadline in seconds.
        deadline_s: f64,
    },
    /// Every attempt of a session lost a protocol message in transit; the
    /// retry budget ran out without the verifier ever seeing a report.
    ChannelLost {
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// A wire message failed structural validation when parsed.
    Malformed(String),
    /// A CRP-database challenge was presented again after being consumed.
    /// Each challenge authenticates at most once (the paper's replay
    /// discipline); a reuse is an attack signal or a state-management bug,
    /// never re-issued. Carries the (public) challenge for diagnostics —
    /// challenges travel the wire in the clear, responses never appear in
    /// errors.
    ChallengeReused {
        /// The challenge that was already consumed.
        challenge: Challenge,
    },
    /// A challenge was never enrolled in this CRP database — distinct from
    /// [`PufattError::ChallengeReused`] so a caller cannot misread a
    /// replay as a typo.
    ChallengeUnknown {
        /// The unrecognised challenge.
        challenge: Challenge,
    },
    /// The durable state layer failed (I/O error, corrupted store). The
    /// payload is the storage layer's own rendering; it never contains
    /// response material.
    Storage(String),
    /// One storage shard is sick (Degraded or Failed) and the requested
    /// device's durable state lives on it: the request is refused up
    /// front rather than risking an accepted-but-undurable verdict.
    /// Devices on healthy shards are unaffected; an operator reopen of
    /// the shard restores service. Distinct from
    /// [`PufattError::Storage`], which names a failure that already
    /// happened rather than a typed, per-shard refusal.
    StorageUnavailable {
        /// Index of the sick store shard.
        shard: u32,
    },
    /// The network transport failed at the service level (version
    /// mismatch, protocol violation, server-side refusal) — distinct from
    /// [`PufattError::Timeout`]/[`PufattError::ChannelLost`], which name
    /// link-level losses the retry machine handles, and from
    /// [`PufattError::Malformed`], which names undecodable bytes. The
    /// payload is the transport layer's own rendering; it never contains
    /// response material.
    Transport(String),
}

impl fmt::Display for PufattError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PufattError::UnsupportedWidth { width } => {
                write!(f, "no error-correcting code for response width {width} (supported: 4, 8, 16, 32)")
            }
            PufattError::ReconstructionFailed { index } => {
                write!(f, "helper data could not reconstruct raw response {index}")
            }
            PufattError::OutOfTolerance { index, corrected, bound } => {
                write!(f, "raw response {index} needed {corrected} corrections, beyond the code's t = {bound}")
            }
            PufattError::HelperStreamExhausted => write!(f, "helper-data stream exhausted"),
            PufattError::ProverTrap(t) => write!(f, "prover trapped: {t}"),
            PufattError::Codegen(m) => write!(f, "attestation codegen failed: {m}"),
            PufattError::Timeout { elapsed_s, deadline_s } => {
                write!(
                    f,
                    "session deadline exceeded: {:.3} ms elapsed vs {:.3} ms allowed",
                    elapsed_s * 1e3,
                    deadline_s * 1e3
                )
            }
            PufattError::ChannelLost { attempts } => {
                write!(f, "channel lost every message across {attempts} attempts")
            }
            PufattError::Malformed(m) => write!(f, "malformed wire message: {m}"),
            PufattError::ChallengeReused { challenge } => {
                write!(
                    f,
                    "challenge (a={:#x}, b={:#x}) was already consumed — replay refused",
                    challenge.a, challenge.b
                )
            }
            PufattError::ChallengeUnknown { challenge } => {
                write!(f, "challenge (a={:#x}, b={:#x}) is not enrolled in this database", challenge.a, challenge.b)
            }
            PufattError::Storage(m) => write!(f, "durable state layer failed: {m}"),
            PufattError::StorageUnavailable { shard } => {
                write!(f, "storage shard {shard} unavailable (degraded or failed); healthy shards keep attesting — reopen the shard to recover")
            }
            PufattError::Transport(m) => write!(f, "transport failed: {m}"),
        }
    }
}

impl std::error::Error for PufattError {}

impl From<pufatt_store::codec::CodecError> for PufattError {
    fn from(e: pufatt_store::codec::CodecError) -> Self {
        PufattError::Malformed(format!("attestation message {e}"))
    }
}

impl From<pufatt_pe32::cpu::Trap> for PufattError {
    fn from(t: pufatt_pe32::cpu::Trap) -> Self {
        PufattError::ProverTrap(t)
    }
}
