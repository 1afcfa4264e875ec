//! The ALU PUF of PUFatt (DAC 2014).
//!
//! A processor's redundant ALUs double as a delay PUF: a synchronisation
//! logic launches the same `add` operands into two identically laid-out
//! ripple-carry adders, and per-bit arbiters latch which adder's sum bit
//! settles first. Manufacturing variation makes the outcome chip-unique;
//! layout symmetry makes it robust across voltage and temperature.
//!
//! * [`aging`] — NBTI threshold-voltage drift over the device lifetime
//!   (response drift vs. the enrolled delay table, re-enrollment).
//! * [`arbiter`] — the classic arbiter and feed-forward arbiter PUFs in
//!   the additive delay model (the paper's comparison baselines).
//! * [`device`] — design / chip / operating-instance model with
//!   metastability, jitter, and the overclocking (setup-violation) failure
//!   mode.
//! * [`challenge`] — challenge/response value types.
//! * [`emulate`] — the verifier-side `PUF.Emulate()` built from an enrolled
//!   gate-level delay table.
//! * [`fpga`] — the Virtex-5 prototype model: programmable delay lines and
//!   the bias-tuning calibration loop.
//! * [`quality`] — datasheet-style quality reports (uniqueness,
//!   reliability, uniformity, aliasing, entropy).
//! * [`resources`] — the structural resource estimator behind Table 1.
//! * [`stats`] — Hamming-distance histograms and bias counters for the
//!   Figure 3/4 experiments.
//! * [`tamper`] — hardware-modification models (probe loads, detours,
//!   voltage islands) testing the trust model's "hardware attacks change
//!   the PUF" claim.
//!
//! # Example
//!
//! ```
//! use pufatt_alupuf::challenge::Challenge;
//! use pufatt_alupuf::device::{AluPufConfig, AluPufDesign, PufInstance};
//! use pufatt_alupuf::emulate::PufEmulator;
//! use pufatt_silicon::env::Environment;
//! use pufatt_silicon::variation::ChipSampler;
//! use rand::SeedableRng;
//!
//! let design = AluPufDesign::new(AluPufConfig::paper_32bit());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let chip = design.fabricate(&ChipSampler::new(), &mut rng);
//!
//! // The device in the field…
//! let instance = PufInstance::new(&design, &chip, Environment::nominal());
//! let challenge = Challenge::random(&mut rng, 32);
//! let noisy = instance.evaluate(challenge, &mut rng);
//!
//! // …and the verifier's emulator from the enrolled delay table.
//! let emulator = PufEmulator::enroll(&design, &chip, Environment::nominal());
//! let reference = emulator.emulate(challenge);
//! assert!(noisy.hamming_distance(reference) <= 32 / 2);
//! ```

pub mod aging;
pub mod arbiter;
pub mod challenge;
pub mod device;
pub mod emulate;
pub mod fpga;
pub mod quality;
pub mod resources;
pub mod stats;
pub mod tamper;

pub use aging::{age_chip, AgingModel};
pub use arbiter::{parity_features, ArbiterPuf, FeedForwardArbiterPuf};
pub use challenge::{Challenge, RawResponse};
pub use device::{
    AdderKind, AluPufConfig, AluPufDesign, ArbiterConfig, CanarySettle, Evaluation, PufChip, PufInstance,
};
pub use emulate::{DelayTable, PufEmulator, SharedPufEmulator};
pub use fpga::{FpgaBoard, PdlBank};
pub use quality::{measure_quality, QualityReport};
pub use resources::{ResourceEstimator, ResourceRow, ResourceUse};
pub use stats::{BiasCounter, HdHistogram};
pub use tamper::Tamper;
