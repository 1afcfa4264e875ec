//! Gate-level silicon substrate for the PUFatt reproduction.
//!
//! The PUFatt paper (DAC 2014) evaluates its ALU PUF with a *gate-level delay
//! simulation*: a netlist of logic gates whose delays are perturbed by a
//! quad-tree process-variation model at the 45 nm node, evaluated under
//! voltage and temperature corners. This crate is that substrate:
//!
//! * [`netlist`] — a compact combinational netlist data model with a builder
//!   API, topological ordering and structural validation.
//! * [`gen`] — generators for the circuits the paper needs: full adders,
//!   ripple-carry adders (the ALU datapath the PUF races through) and XOR
//!   reduction trees (the obfuscation network).
//! * [`gen_adders`] — faster adder architectures (carry-lookahead,
//!   carry-select) for the PUF design-space ablation.
//! * [`delay`] — an alpha-power-law gate-delay model parameterised by supply
//!   voltage, threshold voltage and temperature, with per-gate-kind intrinsic
//!   delays and fanout loading.
//! * [`variation`] — the hierarchical quad-tree threshold-voltage variation
//!   model (Cline et al., ICCAD 2006) used by the paper, plus chip sampling.
//! * [`env`](mod@crate::env) — operating conditions (voltage and temperature corners).
//! * [`sim`] — an event-driven transport-delay timing simulator that reports
//!   per-net settling times (the quantity the PUF arbiters race on).
//! * [`wave`] — a bit-sliced 64-lane waveform simulator with incremental
//!   cone re-evaluation; the batch hot path for PUF evaluation/emulation,
//!   bit-identical to [`sim`] on continuous delay tables.
//! * [`sta`] — static timing analysis (topological worst-case arrival times),
//!   used to derive `T_ALU` for the overclocking-attack analysis.
//! * [`dot`] — Graphviz export (optionally heat-coloured by gate delay).
//!
//! # Example
//!
//! Build a 4-bit ripple-carry adder, sample a chip from the process, and
//! simulate an input transition:
//!
//! ```
//! use pufatt_silicon::env::Environment;
//! use pufatt_silicon::gen::{ripple_carry_adder, RcaPorts};
//! use pufatt_silicon::netlist::Netlist;
//! use pufatt_silicon::sim::EventSimulator;
//! use pufatt_silicon::variation::ChipSampler;
//! use rand::SeedableRng;
//!
//! let mut netlist = Netlist::new();
//! let ports: RcaPorts = ripple_carry_adder(&mut netlist, 4, "alu");
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let chip = ChipSampler::default().sample(&netlist, &mut rng);
//! let delays = chip.gate_delays(&netlist, &Environment::nominal());
//!
//! let mut sim = EventSimulator::new(&netlist, &delays);
//! let from = netlist.input_vector(&[(&ports.a, 0b0000), (&ports.b, 0b0000)]);
//! let to = netlist.input_vector(&[(&ports.a, 0b0111), (&ports.b, 0b0001)]);
//! let result = sim.run_transition(&from, &to);
//! assert_eq!(result.word(&ports.sum), 0b1000);
//! ```

// The simulation kernels are this crate's only unsafe code (the vendored
// ChaCha generator's SSE2 refill is the workspace's other); every unsafe
// operation must sit in an explicit `unsafe {}` block with a SAFETY
// comment, even inside unsafe fns.
#![deny(unsafe_op_in_unsafe_fn)]
// Tests may unwrap/expect freely; library code must not panic on fallible
// paths (the clippy lints in Cargo.toml enforce this, and CI denies them).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod delay;
pub mod dot;
pub mod env;
pub mod gen;
pub mod gen_adders;
pub mod netlist;
pub mod sim;
pub mod sta;
pub mod variation;
pub mod wave;

pub use delay::{DelayModel, Technology};
pub use env::Environment;
pub use netlist::{FanoutCsr, Gate, GateId, GateKind, Net, NetId, Netlist};
pub use sim::{EventSimulator, SimResult};
pub use sta::ArrivalTimes;
pub use variation::{Chip, ChipSampler};
pub use wave::SlicedWaveSimulator;
