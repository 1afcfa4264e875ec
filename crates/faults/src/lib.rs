//! Fault injection and lossy-channel robustness for the PUFatt
//! reproduction (DAC 2014).
//!
//! The paper's protocol is specified over an ideal link: the verifier knows
//! the channel's transfer time, every message arrives, and the prover's
//! clock is exactly F_base. This crate is the gap between that model and a
//! deployable system — it injects the faults a fielded sensor node actually
//! sees, at every layer, deterministically:
//!
//! * [`plan`] — the [`FaultPlan`] DSL: one seeded description of PUF bit
//!   flips and bursts, message drops/duplicates/reorders/jitter, clock skew
//!   and overclocking, and mid-traversal memory tamper. Parsed from the CLI
//!   (`--fault-plan flip=0.01,drop=0.05,...`) or built with combinators.
//! * [`channel`] — the [`LossyChannel`]: the clean bandwidth/latency model
//!   plus seeded stochastic delivery.
//! * [`session`] — the device end, [`SimDevice`], and the chaos session
//!   runner that drives the core session machine against it over a lossy
//!   channel. Retry with exponential backoff, per-attempt timeouts and a
//!   hard session deadline, every failure a typed [`pufatt::PufattError`],
//!   never a panic.
//! * [`sweep`] — the `noise_sweep` experiment reproducing the paper's
//!   false-negative boundary at the code's `t = 7`.
//!
//! Everything runs in simulated time from caller-supplied seeds: the same
//! plan, policy, and seed replay the identical verdict sequence at any
//! parallelism, which is what lets CI assert on chaos outcomes.
//!
//! # Quickstart
//!
//! ```
//! use pufatt::enroll::enroll;
//! use pufatt::protocol::{provision, Channel};
//! use pufatt_alupuf::device::AluPufConfig;
//! use pufatt_faults::{run_chaos_session, FaultPlan, LossyChannel, RetryPolicy, SimDevice};
//! use pufatt_pe32::cpu::Clock;
//! use pufatt_swatt::checksum::SwattParams;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let enrolled = enroll(AluPufConfig::paper_32bit(), 42, 0)?;
//! let params = SwattParams { region_bits: 8, rounds: 256, puf_interval: 32 };
//! let (prover, verifier, _) =
//!     provision(&enrolled, params, Clock::new(100.0), Channel::sensor_link(), 7, 1.10)?;
//!
//! // A flaky link and a noisy-but-in-spec PUF. (Jitter is survivable only
//! // up to the δ slack — the bound judges real elapsed time.)
//! let plan = FaultPlan::parse("flip=0.01,drop=0.2", 1).map_err(std::io::Error::other)?;
//! let mut device = SimDevice::new(prover, &plan);
//! let channel = LossyChannel::from_plan(verifier.channel(), &plan);
//! let policy = RetryPolicy::for_verifier(&verifier, 5);
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(plan.seed);
//! let report = run_chaos_session(&mut device, &verifier, &channel, &policy, &mut rng);
//! assert!(report.accepted(), "sub-t noise and 20% loss must be survivable: {report:?}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod plan;
pub mod session;
pub mod sweep;

pub use channel::{Delivery, LossyChannel};
pub use plan::FaultPlan;
pub use session::{
    mid_traversal_addr, run_chaos_session, ChaosReport, RetryPolicy, SimDevice, MID_TRAVERSAL_CYCLE, MID_TRAVERSAL_XOR,
};
pub use sweep::{run_noise_sweep, NoiseSweep, SweepConfig, WeightRow, PAPER_T};
