//! PE32: a cycle-counted 32-bit embedded RISC CPU simulator.
//!
//! The PUFatt prover is a resource-constrained embedded processor whose
//! instruction set is extended with `pstart`/`pend` to drive the ALU PUF
//! (paper §2, "Architectural Support"). PE32 is that processor: a small
//! word-addressed RISC with a real binary encoding (the attestation
//! checksum hashes encoded program memory), per-instruction cycle costs
//! (the time bound δ is enforced in cycles), a clock model (the
//! overclocking attack turns on cycle time), and a pluggable PUF port.
//!
//! * [`isa`] — instructions, encoding, semantics.
//! * [`asm`] — two-pass assembler with labels and data directives, plus a
//!   disassembler.
//! * [`cpu`] — the machine and its traps.
//! * [`op`] — the executor's form of a program: each word decoded once
//!   into the operation it performs, in a table CPUs can share.
//! * [`puf_port`] — the CPU ↔ PUF interface (implemented for the real PUF
//!   pipeline in the `pufatt` core crate).
//! * [`trace`] — execution profiling (cycle attribution per instruction
//!   class, hot program counters).
//! * [`programs`] — a small library of assembly workloads (regression
//!   tests, "normal mode" applications, attestation memory content).
//!
//! # Example
//!
//! ```
//! use pufatt_pe32::asm::assemble;
//! use pufatt_pe32::cpu::Cpu;
//! use pufatt_pe32::isa::Reg;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "addi r1, r0, 6\n\
//!      addi r2, r0, 7\n\
//!      mul  r3, r1, r2\n\
//!      halt",
//! )?;
//! let mut cpu = Cpu::new(64);
//! cpu.load_program(&program.image);
//! let result = cpu.run(1_000)?;
//! assert_eq!(cpu.reg(Reg(3)), 42);
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod cpu;
pub mod isa;
pub mod op;
pub mod programs;
pub mod puf_port;
pub mod trace;

pub use asm::{assemble, disassemble, AsmError, Program};
pub use cpu::{Clock, Cpu, RunResult, Trap};
pub use isa::{AluOp, BranchCond, Instruction, Reg};
pub use op::DecodedProgram;
pub use puf_port::{MockPufPort, PufOutput, PufPort};
pub use trace::{run_profiled, ExecutionProfile, InstClass};
