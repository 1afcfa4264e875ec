//! The PE32 machine: memory, register file, cycle-accounted interpreter,
//! clock model, and the PUF-mode execution state.
//!
//! The interpreter decodes the program image once, at
//! [`Cpu::load_program`], into a per-word instruction cache that covers the
//! image only. Every write goes through [`Cpu::store_word`] (or its bulk
//! form [`Cpu::write_words`]), which re-decodes a cached word it
//! overwrites, so the cache always equals `Instruction::decode` of memory.
//! A fetch outside the image, or of a word that does not decode, takes the
//! load-and-decode path, so traps and their order are those of an
//! interpreter that decodes every word on every step.

use crate::isa::{AluOp, Instruction, Reg};
use crate::puf_port::{PufOutput, PufPort};
use std::fmt;

/// Execution traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// PC or data access outside memory.
    OutOfBounds {
        /// The offending word address.
        addr: u32,
    },
    /// Unassigned opcode reached the decoder.
    IllegalInstruction {
        /// The undecodable word.
        word: u32,
        /// Its address.
        addr: u32,
    },
    /// `pread`/`phelp` executed before any `pend`.
    PufNotReady,
    /// A PUF instruction executed with no PUF attached.
    NoPufAttached,
    /// The cycle budget given to [`Cpu::run`] was exhausted.
    CycleLimit,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfBounds { addr } => write!(f, "memory access out of bounds at word {addr:#x}"),
            Trap::IllegalInstruction { word, addr } => {
                write!(f, "illegal instruction {word:#010x} at word {addr:#x}")
            }
            Trap::PufNotReady => write!(f, "pread/phelp before pend"),
            Trap::NoPufAttached => write!(f, "PUF instruction with no PUF port attached"),
            Trap::CycleLimit => write!(f, "cycle limit exhausted"),
        }
    }
}

impl std::error::Error for Trap {}

/// Clock configuration: translates cycle counts to wall time.
///
/// The overclocking attack of §4.2 is expressed through this type: raising
/// `frequency_mhz` shortens `cycle_ps`, and once the PUF's
/// `T_ALU + T_set` no longer fits in a cycle, responses corrupt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Core frequency in MHz.
    pub frequency_mhz: f64,
}

impl Clock {
    /// Creates a clock.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < frequency_mhz <= 10_000`.
    pub fn new(frequency_mhz: f64) -> Self {
        assert!(frequency_mhz > 0.0 && frequency_mhz <= 10_000.0, "frequency {frequency_mhz} MHz out of range");
        Clock { frequency_mhz }
    }

    /// Cycle time in picoseconds.
    pub fn cycle_ps(&self) -> f64 {
        1e6 / self.frequency_mhz
    }

    /// Wall-clock duration of `cycles` in nanoseconds.
    pub fn duration_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_ps() / 1000.0
    }

    /// Returns this clock overclocked by `factor` (e.g. 1.25 = +25 %).
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn overclocked(&self, factor: f64) -> Clock {
        assert!(factor > 0.0, "overclock factor must be positive");
        Clock::new(self.frequency_mhz * factor)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new(100.0)
    }
}

/// Result of a completed [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles consumed until `halt`.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
}

/// One instruction-cache entry: a decoded word and its base cycle cost
/// (cached too, so `step` charges cycles without a second dispatch on the
/// instruction), or `None` where the word does not decode.
type CacheEntry = Option<(Instruction, u8)>;

fn cache_entry(word: u32) -> CacheEntry {
    // `base_cycles` is at most 4.
    Instruction::decode(word).ok().map(|inst| (inst, inst.base_cycles() as u8))
}

/// The PE32 processor with word-addressed memory.
pub struct Cpu {
    regs: [u32; 16],
    pc: u32,
    cycles: u64,
    instructions: u64,
    halted: bool,
    puf_mode: bool,
    puf_result: Option<PufOutput>,
    memory: Vec<u32>,
    /// The instruction cache: one entry per word of the loaded image, kept
    /// in step with memory by `store_word`.
    decoded: Vec<CacheEntry>,
    puf: Option<Box<dyn PufPort + Send>>,
    clock: Clock,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &self.pc)
            .field("cycles", &self.cycles)
            .field("halted", &self.halted)
            .field("puf_mode", &self.puf_mode)
            .field("mem_words", &self.memory.len())
            .finish()
    }
}

impl Cpu {
    /// Creates a CPU with `mem_words` words of zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `mem_words == 0` or exceeds 2^24 (16 M words).
    pub fn new(mem_words: usize) -> Self {
        assert!(mem_words > 0 && mem_words <= 1 << 24, "memory size {mem_words} out of range");
        Cpu {
            regs: [0; 16],
            pc: 0,
            cycles: 0,
            instructions: 0,
            halted: false,
            puf_mode: false,
            puf_result: None,
            memory: vec![0; mem_words],
            decoded: Vec::new(),
            puf: None,
            clock: Clock::default(),
        }
    }

    /// Attaches a PUF device to the port. The port must be `Send` so the
    /// whole CPU (and the prover built on it) can migrate across worker
    /// threads in fleet-scale attestation campaigns.
    pub fn attach_puf(&mut self, puf: Box<dyn PufPort + Send>) {
        self.puf = Some(puf);
    }

    /// Sets the core clock.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// The core clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Loads a program image at word address 0, decodes it into the
    /// instruction cache, and resets execution state (registers, pc, cycle
    /// counters; memory beyond the image is kept but not cached).
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds memory.
    pub fn load_program(&mut self, image: &[u32]) {
        assert!(image.len() <= self.memory.len(), "program image larger than memory");
        self.memory[..image.len()].copy_from_slice(image);
        self.decoded = image.iter().map(|&word| cache_entry(word)).collect();
        self.reset();
    }

    /// Resets registers, pc and counters; memory is untouched.
    pub fn reset(&mut self) {
        self.regs = [0; 16];
        self.pc = 0;
        self.cycles = 0;
        self.instructions = 0;
        self.halted = false;
        self.puf_mode = false;
        self.puf_result = None;
    }

    /// Reads a register (`r0` reads zero).
    pub fn reg(&self, r: Reg) -> u32 {
        // `set_reg` never leaves `regs[0]` non-zero.
        self.regs[r.index()]
    }

    /// Writes a register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        // Write, then re-zero `r0`: no branch on the destination.
        self.regs[r.index()] = value;
        self.regs[0] = 0;
    }

    /// Program counter (word address).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Whether the CPU has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the ALUs are in PUF mode.
    pub fn puf_mode(&self) -> bool {
        self.puf_mode
    }

    /// Reads a memory word.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBounds`] outside memory.
    pub fn load_word(&self, addr: u32) -> Result<u32, Trap> {
        self.memory.get(addr as usize).copied().ok_or(Trap::OutOfBounds { addr })
    }

    /// Writes a memory word; a write into the loaded image re-decodes the
    /// cached instruction there.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBounds`] outside memory.
    #[inline]
    pub fn store_word(&mut self, addr: u32, value: u32) -> Result<(), Trap> {
        let slot = self.memory.get_mut(addr as usize).ok_or(Trap::OutOfBounds { addr })?;
        *slot = value;
        if let Some(cached) = self.decoded.get_mut(addr as usize) {
            *cached = cache_entry(value);
        }
        Ok(())
    }

    /// Writes `words` to consecutive addresses from `base` (the adversary's
    /// lever: malware injection, a stashed copy of expected memory).
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBounds`] at the first address outside memory; nothing
    /// is written then.
    pub fn write_words(&mut self, base: u32, words: &[u32]) -> Result<(), Trap> {
        let end = base as usize + words.len();
        if end > self.memory.len() {
            let addr = base.max(self.memory.len() as u32);
            return Err(Trap::OutOfBounds { addr });
        }
        for (addr, &word) in (base..).zip(words) {
            self.store_word(addr, word)?;
        }
        Ok(())
    }

    /// Read-only view of memory (e.g. for the verifier's expected-memory
    /// copy). Writes go through [`Cpu::store_word`] so the instruction
    /// cache stays in step.
    pub fn memory(&self) -> &[u32] {
        &self.memory
    }

    /// The instruction at `pc` and its base cycle cost, exactly as
    /// [`Cpu::step`] would execute it: from the instruction cache inside
    /// the loaded image, otherwise loaded and decoded.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBounds`] if `pc` is outside memory,
    /// [`Trap::IllegalInstruction`] if the word there does not decode.
    #[inline]
    pub(crate) fn fetch(&self) -> Result<(Instruction, u8), Trap> {
        match self.decoded.get(self.pc as usize) {
            Some(Some(entry)) => Ok(*entry),
            _ => self.load_and_decode(self.pc).map(|inst| (inst, inst.base_cycles() as u8)),
        }
    }

    #[cold]
    fn load_and_decode(&self, addr: u32) -> Result<Instruction, Trap> {
        let word = self.load_word(addr)?;
        Instruction::decode(word).map_err(|e| Trap::IllegalInstruction { word: e.word, addr })
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Propagates execution traps; the CPU is left at the faulting state.
    // Always inlined, so `run`'s loop holds the fetch and dispatch with no
    // call per simulated instruction (plain `#[inline]` was not enough).
    #[inline(always)]
    pub fn step(&mut self) -> Result<(), Trap> {
        if self.halted {
            return Ok(());
        }
        let (inst, base_cycles) = self.fetch()?;
        self.pc = self.pc.wrapping_add(1);
        self.cycles += u64::from(base_cycles);
        self.instructions += 1;

        match inst {
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                if self.puf_mode && op == AluOp::Add {
                    match self.puf.as_mut() {
                        Some(p) => p.challenge(a, b),
                        None => return Err(Trap::NoPufAttached),
                    }
                }
                self.set_reg(rd, op.apply(a, b));
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                self.set_reg(rd, op.apply(a, imm as i32 as u32));
            }
            Instruction::Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 16),
            Instruction::Lw { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as i32 as u32);
                let v = self.load_word(addr)?;
                self.set_reg(rd, v);
            }
            Instruction::Sw { rs2, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as i32 as u32);
                let v = self.reg(rs2);
                self.store_word(addr, v)?;
            }
            Instruction::Branch { cond, rs1, rs2, imm } => {
                if cond.holds(self.reg(rs1), self.reg(rs2)) {
                    self.pc = self.pc.wrapping_add(imm as i32 as u32);
                    self.cycles += 1; // taken-branch penalty
                }
            }
            Instruction::Jal { rd, imm } => {
                self.set_reg(rd, self.pc);
                self.pc = self.pc.wrapping_add(imm as i32 as u32);
            }
            Instruction::Jalr { rd, rs1 } => {
                let target = self.reg(rs1);
                self.set_reg(rd, self.pc);
                self.pc = target;
            }
            Instruction::Halt => self.halted = true,
            Instruction::Nop => {}
            Instruction::Pstart => {
                match self.puf.as_mut() {
                    Some(p) => p.start(),
                    None => return Err(Trap::NoPufAttached),
                }
                self.puf_mode = true;
            }
            Instruction::Pend => {
                let out = match self.puf.as_mut() {
                    Some(p) => p.finalize(),
                    None => return Err(Trap::NoPufAttached),
                };
                self.puf_result = Some(out);
                self.puf_mode = false;
            }
            Instruction::Pread { rd } => {
                let z = self.puf_result.as_ref().ok_or(Trap::PufNotReady)?.z;
                self.set_reg(rd, z);
            }
            Instruction::Phelp { rd, imm } => {
                let helper = &self.puf_result.as_ref().ok_or(Trap::PufNotReady)?.helper;
                let v = helper.get(imm as usize).copied().unwrap_or(0);
                self.set_reg(rd, v);
            }
        }
        Ok(())
    }

    /// Runs until `halt` or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`Trap::CycleLimit`] if the budget runs out, or any execution trap.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, Trap> {
        while !self.halted {
            if self.cycles >= max_cycles {
                return Err(Trap::CycleLimit);
            }
            self.step()?;
        }
        Ok(RunResult { cycles: self.cycles, instructions: self.instructions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BranchCond};
    use crate::puf_port::MockPufPort;

    fn program(insts: &[Instruction]) -> Vec<u32> {
        insts.iter().map(|i| i.encode()).collect()
    }

    #[test]
    fn arithmetic_program() {
        let mut cpu = Cpu::new(64);
        cpu.load_program(&program(&[
            Instruction::AluImm { op: AluOp::Add, rd: Reg(1), rs1: Reg::ZERO, imm: 21 },
            Instruction::AluImm { op: AluOp::Add, rd: Reg(2), rs1: Reg::ZERO, imm: 2 },
            Instruction::Alu { op: AluOp::Mul, rd: Reg(3), rs1: Reg(1), rs2: Reg(2) },
            Instruction::Halt,
        ]));
        cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(Reg(3)), 42);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut cpu = Cpu::new(16);
        cpu.load_program(&program(&[
            Instruction::AluImm { op: AluOp::Add, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 99 },
            Instruction::Halt,
        ]));
        cpu.run(100).unwrap();
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loop_counts_cycles() {
        // r1 = 10; loop { r1 -= 1 } until r1 == 0.
        let mut cpu = Cpu::new(16);
        cpu.load_program(&program(&[
            Instruction::AluImm { op: AluOp::Add, rd: Reg(1), rs1: Reg::ZERO, imm: 10 },
            Instruction::AluImm { op: AluOp::Add, rd: Reg(1), rs1: Reg(1), imm: -1 },
            Instruction::Branch { cond: BranchCond::Ne, rs1: Reg(1), rs2: Reg::ZERO, imm: -2 },
            Instruction::Halt,
        ]));
        let r = cpu.run(10_000).unwrap();
        assert_eq!(cpu.reg(Reg(1)), 0);
        // 1 (addi) + 10·(1 addi + 1 branch) + 9 taken penalties + 1 halt.
        assert_eq!(r.cycles, 1 + 20 + 9 + 1);
    }

    #[test]
    fn memory_load_store() {
        let mut cpu = Cpu::new(64);
        cpu.load_program(&program(&[
            Instruction::AluImm { op: AluOp::Add, rd: Reg(1), rs1: Reg::ZERO, imm: 40 }, // base
            Instruction::AluImm { op: AluOp::Add, rd: Reg(2), rs1: Reg::ZERO, imm: 123 },
            Instruction::Sw { rs2: Reg(2), rs1: Reg(1), imm: 2 },
            Instruction::Lw { rd: Reg(3), rs1: Reg(1), imm: 2 },
            Instruction::Halt,
        ]));
        cpu.run(100).unwrap();
        assert_eq!(cpu.reg(Reg(3)), 123);
        assert_eq!(cpu.memory()[42], 123);
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut cpu = Cpu::new(16);
        cpu.load_program(&program(&[
            Instruction::Lw { rd: Reg(1), rs1: Reg::ZERO, imm: 100 },
            Instruction::Halt,
        ]));
        assert_eq!(cpu.run(100), Err(Trap::OutOfBounds { addr: 100 }));
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut cpu = Cpu::new(16);
        cpu.load_program(&[0xFF00_0000]);
        assert!(matches!(cpu.run(100), Err(Trap::IllegalInstruction { addr: 0, .. })));
    }

    #[test]
    fn cycle_limit_traps() {
        // Infinite loop: jal r0, -1.
        let mut cpu = Cpu::new(16);
        cpu.load_program(&program(&[Instruction::Jal { rd: Reg::ZERO, imm: -1 }]));
        assert_eq!(cpu.run(100), Err(Trap::CycleLimit));
    }

    #[test]
    fn puf_mode_forwards_add_operands() {
        let mut cpu = Cpu::new(32);
        cpu.attach_puf(Box::new(MockPufPort::new()));
        cpu.load_program(&program(&[
            Instruction::AluImm { op: AluOp::Add, rd: Reg(1), rs1: Reg::ZERO, imm: 11 },
            Instruction::AluImm { op: AluOp::Add, rd: Reg(2), rs1: Reg::ZERO, imm: 22 },
            Instruction::Pstart,
            Instruction::Alu { op: AluOp::Add, rd: Reg(3), rs1: Reg(1), rs2: Reg(2) },
            Instruction::Pend,
            Instruction::Pread { rd: Reg(4) },
            Instruction::Phelp { rd: Reg(5), imm: 0 },
            Instruction::Halt,
        ]));
        cpu.run(1000).unwrap();
        // The add still computes its architectural result…
        assert_eq!(cpu.reg(Reg(3)), 33);
        // …and the PUF saw exactly one challenge.
        assert_eq!(cpu.reg(Reg(5)), 1);
        assert_ne!(cpu.reg(Reg(4)), 0, "z latched");
    }

    #[test]
    fn add_outside_puf_mode_does_not_challenge() {
        let mut cpu = Cpu::new(32);
        cpu.attach_puf(Box::new(MockPufPort::new()));
        cpu.load_program(&program(&[
            Instruction::Pstart,
            Instruction::Pend, // zero challenges
            Instruction::Phelp { rd: Reg(5), imm: 0 },
            Instruction::Alu { op: AluOp::Add, rd: Reg(3), rs1: Reg(1), rs2: Reg(2) },
            Instruction::Halt,
        ]));
        cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(Reg(5)), 0, "no challenges outside PUF mode");
    }

    #[test]
    fn pread_before_pend_traps() {
        let mut cpu = Cpu::new(16);
        cpu.attach_puf(Box::new(MockPufPort::new()));
        cpu.load_program(&program(&[Instruction::Pread { rd: Reg(1) }, Instruction::Halt]));
        assert_eq!(cpu.run(100), Err(Trap::PufNotReady));
    }

    #[test]
    fn puf_instructions_without_port_trap() {
        let mut cpu = Cpu::new(16);
        cpu.load_program(&program(&[Instruction::Pstart, Instruction::Halt]));
        assert_eq!(cpu.run(100), Err(Trap::NoPufAttached));
    }

    #[test]
    fn clock_translates_cycles() {
        let c = Clock::new(100.0); // 100 MHz ⇒ 10 ns ⇒ 10_000 ps
        assert!((c.cycle_ps() - 10_000.0).abs() < 1e-9);
        assert!((c.duration_ns(100) - 1000.0).abs() < 1e-9);
        let oc = c.overclocked(1.25);
        assert!((oc.frequency_mhz - 125.0).abs() < 1e-9);
        assert!(oc.cycle_ps() < c.cycle_ps());
    }

    #[test]
    fn jalr_returns() {
        // jal r15, +2 (skip one); halt at target; subroutine jumps back.
        let mut cpu = Cpu::new(32);
        cpu.load_program(&program(&[
            Instruction::Jal { rd: Reg(15), imm: 1 }, // 0: to 2, r15 = 1
            Instruction::Halt,                        // 1: final halt
            Instruction::AluImm { op: AluOp::Add, rd: Reg(1), rs1: Reg::ZERO, imm: 7 }, // 2
            Instruction::Jalr { rd: Reg::ZERO, rs1: Reg(15) }, // 3: back to 1
        ]));
        cpu.run(100).unwrap();
        assert!(cpu.halted());
        assert_eq!(cpu.reg(Reg(1)), 7);
    }
}
