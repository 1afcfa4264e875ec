//! Execution profiling: where the prover's cycles go.
//!
//! The attestation time bound δ is a cycle budget; this module breaks a
//! run down by instruction class and hot program counters, which is how
//! the experiments attribute the memory-copy attack's overhead (extra
//! branches and address arithmetic in the load path) and how the docs'
//! cycle-count claims were produced.

use crate::cpu::{Cpu, Trap};
use crate::op::Op;
use std::collections::HashMap;
use std::fmt;

/// Coarse instruction classes for cycle attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstClass {
    /// Register/immediate ALU operations (including `mul`).
    Alu,
    /// Loads and stores.
    Memory,
    /// Branches and jumps.
    Control,
    /// `pstart`/`pend`/`pread`/`phelp` and PUF-mode `add`s are counted as
    /// Alu; this class covers only the dedicated PUF opcodes.
    Puf,
    /// `nop`, `halt`, `lui`.
    Other,
}

impl InstClass {
    fn of(op: Op) -> InstClass {
        match op {
            Op::AddRR { .. }
            | Op::SubRR { .. }
            | Op::AndRR { .. }
            | Op::OrRR { .. }
            | Op::XorRR { .. }
            | Op::SllRR { .. }
            | Op::SrlRR { .. }
            | Op::SraRR { .. }
            | Op::SltRR { .. }
            | Op::SltuRR { .. }
            | Op::MulRR { .. }
            | Op::AddI { .. }
            | Op::SubI { .. }
            | Op::AndI { .. }
            | Op::OrI { .. }
            | Op::XorI { .. }
            | Op::SllI { .. }
            | Op::SrlI { .. }
            | Op::SraI { .. }
            | Op::SltI { .. }
            | Op::SltuI { .. }
            | Op::MulI { .. } => InstClass::Alu,
            Op::Lw { .. } | Op::Sw { .. } => InstClass::Memory,
            Op::Beq { .. }
            | Op::Bne { .. }
            | Op::Blt { .. }
            | Op::Bge { .. }
            | Op::Bltu { .. }
            | Op::Bgeu { .. }
            | Op::Jal { .. }
            | Op::Jalr { .. } => InstClass::Control,
            Op::Pstart | Op::Pend | Op::Pread { .. } | Op::Phelp { .. } => InstClass::Puf,
            // `fetch` hands out no `Undecodable`: that word traps first.
            Op::Lui { .. } | Op::Halt | Op::Nop | Op::Undecodable => InstClass::Other,
        }
    }

    /// All classes, in display order.
    pub const ALL: [InstClass; 5] = [
        InstClass::Alu,
        InstClass::Memory,
        InstClass::Control,
        InstClass::Puf,
        InstClass::Other,
    ];
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::Alu => "alu",
            InstClass::Memory => "memory",
            InstClass::Control => "control",
            InstClass::Puf => "puf",
            InstClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// Profile of one traced execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionProfile {
    /// Instructions retired per class.
    pub instructions: HashMap<InstClass, u64>,
    /// Cycles consumed per class (including taken-branch penalties).
    pub cycles: HashMap<InstClass, u64>,
    /// Execution count per program counter.
    pub pc_heat: HashMap<u32, u64>,
    /// Total cycles.
    pub total_cycles: u64,
    /// Total instructions.
    pub total_instructions: u64,
}

impl ExecutionProfile {
    /// The `count` hottest program counters, hottest first.
    pub fn hottest(&self, count: usize) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.pc_heat.iter().map(|(&pc, &n)| (pc, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(count);
        v
    }

    /// Fraction of cycles spent in a class.
    pub fn cycle_fraction(&self, class: InstClass) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        *self.cycles.get(&class).unwrap_or(&0) as f64 / self.total_cycles as f64
    }
}

impl fmt::Display for ExecutionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "execution profile: {} instructions, {} cycles", self.total_instructions, self.total_cycles)?;
        for class in InstClass::ALL {
            let i = self.instructions.get(&class).unwrap_or(&0);
            let c = self.cycles.get(&class).unwrap_or(&0);
            if *i > 0 {
                writeln!(
                    f,
                    "  {class:<8} {i:>10} insts {c:>10} cycles ({:>5.1}%)",
                    100.0 * self.cycle_fraction(class)
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the CPU to completion while collecting an [`ExecutionProfile`].
///
/// Functionally identical to [`Cpu::run`] (same architectural results);
/// only the bookkeeping differs.
///
/// # Errors
///
/// Propagates the same traps as [`Cpu::run`].
pub fn run_profiled(cpu: &mut Cpu, max_cycles: u64) -> Result<ExecutionProfile, Trap> {
    let mut profile = ExecutionProfile::default();
    while !cpu.halted() {
        if cpu.cycles() >= max_cycles {
            return Err(Trap::CycleLimit);
        }
        let pc = cpu.pc();
        let class = InstClass::of(cpu.fetch(pc)?);
        let before = cpu.cycles();
        cpu.step()?;
        let spent = cpu.cycles() - before;
        *profile.instructions.entry(class).or_insert(0) += 1;
        *profile.cycles.entry(class).or_insert(0) += spent;
        *profile.pc_heat.entry(pc).or_insert(0) += 1;
        profile.total_instructions += 1;
        profile.total_cycles += spent;
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn traced(src: &str) -> (Cpu, ExecutionProfile) {
        let program = assemble(src).expect("assembles");
        let mut cpu = Cpu::new(256);
        cpu.load_program(&program.image);
        let profile = run_profiled(&mut cpu, 1_000_000).expect("halts");
        (cpu, profile)
    }

    #[test]
    fn profile_matches_cpu_counters() {
        let (cpu, profile) = traced("addi r1, r0, 10\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt");
        assert_eq!(profile.total_cycles, cpu.cycles());
        let insts: u64 = profile.instructions.values().sum();
        assert_eq!(insts, profile.total_instructions);
        let cycles: u64 = profile.cycles.values().sum();
        assert_eq!(cycles, profile.total_cycles);
    }

    #[test]
    fn classes_are_attributed() {
        let (_, profile) = traced("addi r1, r0, 40\nsw r1, 100(r0)\nlw r2, 100(r0)\nbeq r0, r0, end\nnop\nend: halt");
        assert_eq!(*profile.instructions.get(&InstClass::Alu).unwrap(), 1);
        assert_eq!(*profile.instructions.get(&InstClass::Memory).unwrap(), 2);
        assert_eq!(*profile.instructions.get(&InstClass::Control).unwrap(), 1);
        // memory ops cost 2 cycles each.
        assert_eq!(*profile.cycles.get(&InstClass::Memory).unwrap(), 4);
    }

    #[test]
    fn hot_spot_is_the_loop() {
        let (_, profile) = traced("addi r1, r0, 50\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt");
        let hottest = profile.hottest(2);
        // The two loop instructions (addresses 1 and 2) dominate.
        assert_eq!(hottest.len(), 2);
        assert!(hottest.iter().all(|&(pc, n)| (pc == 1 || pc == 2) && n == 50), "{hottest:?}");
    }

    #[test]
    fn profiled_run_is_architecturally_identical() {
        let src = "addi r1, r0, 6\naddi r2, r0, 7\nmul r3, r1, r2\nhalt";
        let program = assemble(src).unwrap();
        let mut plain = Cpu::new(64);
        plain.load_program(&program.image);
        plain.run(1000).unwrap();
        let (profiled, _) = traced(src);
        assert_eq!(plain.reg(crate::isa::Reg(3)), profiled.reg(crate::isa::Reg(3)));
        assert_eq!(plain.cycles(), profiled.cycles());
    }

    #[test]
    fn display_renders_nonempty() {
        let (_, profile) = traced("addi r1, r0, 1\nhalt");
        let text = profile.to_string();
        assert!(text.contains("alu"));
        assert!(text.contains("cycles"));
    }
}
