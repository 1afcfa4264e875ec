//! The PE32 machine: memory, register file, cycle-accounted interpreter,
//! clock model, and the PUF-mode execution state.
//!
//! The interpreter decodes the program image once, at [`Cpu::load_program`]
//! or [`Cpu::load_decoded`], into an op table that covers the image only:
//! one `Op` per word ([`op`](crate::op)), whose variant is the operation
//! itself, so each instruction costs one dispatch. Every write goes
//! through [`Cpu::store_word`] (or its bulk form [`Cpu::write_words`]),
//! which re-decodes a table word it overwrites, so the table always equals
//! the decode of memory. A fetch outside the image, or of a word that does
//! not decode, takes the load-and-decode path, so traps and their order
//! are those of an interpreter that decodes every word on every step.

use crate::isa::{AluOp, BranchCond, Instruction, Reg};
use crate::op::{decode_all, DecodedProgram, Op};
use crate::puf_port::{PufOutput, PufPort};
use std::fmt;
use std::sync::Arc;

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

/// What every instruction advances: the program counter and the cycle
/// and retired-instruction counts. [`Cpu::run`] holds it in a local for
/// its whole loop, where no call can reach it, so it stays in registers.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    pc: u32,
    cycles: u64,
    instructions: u64,
}

/// The PE32 processor with word-addressed memory.
pub struct Cpu {
    regs: [u32; 16],
    at: Progress,
    halted: bool,
    puf_mode: bool,
    puf_result: Option<PufOutput>,
    memory: Vec<u32>,
    /// The op table: one entry per word of the loaded image, kept in step
    /// with memory by `store_word`. Shared with every CPU loaded from the
    /// same [`DecodedProgram`] until this one writes into its code.
    ops: Arc<[Op]>,
    puf: Option<Box<dyn PufPort + Send>>,
    clock: Clock,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &self.at.pc)
            .field("cycles", &self.at.cycles)
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
            at: Progress::default(),
            halted: false,
            puf_mode: false,
            puf_result: None,
            memory: vec![0; mem_words],
            ops: Arc::default(),
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

    /// Loads a program image at word address 0, decodes it into a private
    /// op table, and resets execution state (registers, pc, cycle
    /// counters; memory beyond the image is kept but not decoded).
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds memory.
    pub fn load_program(&mut self, image: &[u32]) {
        self.load(image, decode_all(image));
    }

    /// [`Cpu::load_program`] from an image decoded once: the CPU shares the
    /// program's op table instead of decoding its own.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds memory.
    pub fn load_decoded(&mut self, program: &DecodedProgram) {
        self.load(program.words(), Arc::clone(program.ops()));
    }

    fn load(&mut self, image: &[u32], ops: Arc<[Op]>) {
        assert!(image.len() <= self.memory.len(), "program image larger than memory");
        self.memory[..image.len()].copy_from_slice(image);
        self.ops = ops;
        self.reset();
    }

    /// Resets registers, pc and counters; memory is untouched.
    pub fn reset(&mut self) {
        self.regs = [0; 16];
        self.at = Progress::default();
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
        self.at.pc
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.at.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.at.instructions
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
    /// op there. The first such write copies a shared op table, so other
    /// CPUs loaded from the same program keep executing their own code.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBounds`] outside memory.
    #[inline]
    pub fn store_word(&mut self, addr: u32, value: u32) -> Result<(), Trap> {
        let slot = self.memory.get_mut(addr as usize).ok_or(Trap::OutOfBounds { addr })?;
        *slot = value;
        if (addr as usize) < self.ops.len() {
            self.redecode(addr as usize, value);
        }
        Ok(())
    }

    /// Re-decodes the op table entry a write into the image overwrote.
    /// Cold: honest programs never write their own code.
    #[cold]
    #[inline(never)]
    fn redecode(&mut self, addr: usize, value: u32) {
        Arc::make_mut(&mut self.ops)[addr] = Op::decode(value);
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
    /// copy). Writes go through [`Cpu::store_word`] so the op table stays
    /// in step.
    pub fn memory(&self) -> &[u32] {
        &self.memory
    }

    /// The op at `pc`, exactly as [`Cpu::step`] would execute it there:
    /// from the op table inside the loaded image, otherwise loaded and
    /// decoded.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBounds`] if `pc` is outside memory,
    /// [`Trap::IllegalInstruction`] if the word there does not decode.
    #[inline(always)]
    pub(crate) fn fetch(&self, pc: u32) -> Result<Op, Trap> {
        match self.ops.get(pc as usize) {
            Some(&op) if !matches!(op, Op::Undecodable) => Ok(op),
            _ => self.load_and_decode(pc),
        }
    }

    #[cold]
    fn load_and_decode(&self, addr: u32) -> Result<Op, Trap> {
        let word = self.load_word(addr)?;
        Instruction::decode(word)
            .map(Op::from)
            .map_err(|e| Trap::IllegalInstruction { word: e.word, addr })
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Propagates execution traps; the CPU is left at the faulting state.
    pub fn step(&mut self) -> Result<(), Trap> {
        if self.halted {
            return Ok(());
        }
        let mut at = self.at;
        let outcome = self.fetch(at.pc).and_then(|op| self.execute(op, &mut at));
        self.at = at;
        outcome
    }

    /// Runs until `halt` or the cycle budget is exhausted. The budget is
    /// checked before every instruction.
    ///
    /// # Errors
    ///
    /// [`Trap::CycleLimit`] if the budget runs out, or any execution trap.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, Trap> {
        let mut at = self.at;
        let outcome = self.run_loop(&mut at, max_cycles);
        self.at = at;
        outcome.map(|()| RunResult { cycles: at.cycles, instructions: at.instructions })
    }

    #[inline(always)]
    fn run_loop(&mut self, at: &mut Progress, max_cycles: u64) -> Result<(), Trap> {
        while !self.halted {
            if at.cycles >= max_cycles {
                return Err(Trap::CycleLimit);
            }
            let op = self.fetch(at.pc)?;
            self.execute(op, at)?;
        }
        Ok(())
    }

    /// Reads register `r` of an op (`< 16`; the mask drops the bounds
    /// check).
    #[inline(always)]
    fn r(&self, r: u8) -> u32 {
        self.regs[usize::from(r & 15)]
    }

    /// Writes register `rd` of an op, then re-zeroes `r0`: no branch on the
    /// destination.
    #[inline(always)]
    fn w(&mut self, rd: u8, value: u32) {
        self.regs[usize::from(rd & 15)] = value;
        self.regs[0] = 0;
    }

    /// `rd ← rs1 op b`, one cycle (three for `mul`).
    #[inline(always)]
    fn alu(&mut self, at: &mut Progress, op: AluOp, rd: u8, rs1: u8, b: u32) {
        at.cycles += if op == AluOp::Mul { 3 } else { 1 };
        self.w(rd, op.apply(self.r(rs1), b));
    }

    /// A branch: one cycle, plus one and the jump when `cond` holds.
    #[inline(always)]
    fn branch(&self, at: &mut Progress, cond: BranchCond, rs1: u8, rs2: u8, imm: u32) {
        at.cycles += 1;
        if cond.holds(self.r(rs1), self.r(rs2)) {
            at.pc = at.pc.wrapping_add(imm);
            at.cycles += 1; // taken-branch penalty
        }
    }

    fn port(&mut self) -> Result<&mut (dyn PufPort + Send + 'static), Trap> {
        self.puf.as_deref_mut().ok_or(Trap::NoPufAttached)
    }

    /// The one executor, shared by [`Cpu::step`] and [`Cpu::run`]: retires
    /// `op`, fetched at `at.pc`. Its cycles are charged before anything
    /// can trap, so a trapping instruction is counted as the
    /// decode-every-step interpreter counted it.
    // Always inlined, so `run`'s loop holds the fetch and dispatch with no
    // call per simulated instruction.
    #[inline(always)]
    fn execute(&mut self, op: Op, at: &mut Progress) -> Result<(), Trap> {
        at.pc = at.pc.wrapping_add(1);
        at.instructions += 1;
        match op {
            Op::AddRR { rd, rs1, rs2 } => {
                at.cycles += 1;
                let (a, b) = (self.r(rs1), self.r(rs2));
                if self.puf_mode {
                    self.port()?.challenge(a, b);
                }
                self.w(rd, a.wrapping_add(b));
            }
            Op::SubRR { rd, rs1, rs2 } => self.alu(at, AluOp::Sub, rd, rs1, self.r(rs2)),
            Op::AndRR { rd, rs1, rs2 } => self.alu(at, AluOp::And, rd, rs1, self.r(rs2)),
            Op::OrRR { rd, rs1, rs2 } => self.alu(at, AluOp::Or, rd, rs1, self.r(rs2)),
            Op::XorRR { rd, rs1, rs2 } => self.alu(at, AluOp::Xor, rd, rs1, self.r(rs2)),
            Op::SllRR { rd, rs1, rs2 } => self.alu(at, AluOp::Sll, rd, rs1, self.r(rs2)),
            Op::SrlRR { rd, rs1, rs2 } => self.alu(at, AluOp::Srl, rd, rs1, self.r(rs2)),
            Op::SraRR { rd, rs1, rs2 } => self.alu(at, AluOp::Sra, rd, rs1, self.r(rs2)),
            Op::SltRR { rd, rs1, rs2 } => self.alu(at, AluOp::Slt, rd, rs1, self.r(rs2)),
            Op::SltuRR { rd, rs1, rs2 } => self.alu(at, AluOp::Sltu, rd, rs1, self.r(rs2)),
            Op::MulRR { rd, rs1, rs2 } => self.alu(at, AluOp::Mul, rd, rs1, self.r(rs2)),
            Op::AddI { rd, rs1, imm } => self.alu(at, AluOp::Add, rd, rs1, imm),
            Op::SubI { rd, rs1, imm } => self.alu(at, AluOp::Sub, rd, rs1, imm),
            Op::AndI { rd, rs1, imm } => self.alu(at, AluOp::And, rd, rs1, imm),
            Op::OrI { rd, rs1, imm } => self.alu(at, AluOp::Or, rd, rs1, imm),
            Op::XorI { rd, rs1, imm } => self.alu(at, AluOp::Xor, rd, rs1, imm),
            Op::SllI { rd, rs1, imm } => self.alu(at, AluOp::Sll, rd, rs1, imm),
            Op::SrlI { rd, rs1, imm } => self.alu(at, AluOp::Srl, rd, rs1, imm),
            Op::SraI { rd, rs1, imm } => self.alu(at, AluOp::Sra, rd, rs1, imm),
            Op::SltI { rd, rs1, imm } => self.alu(at, AluOp::Slt, rd, rs1, imm),
            Op::SltuI { rd, rs1, imm } => self.alu(at, AluOp::Sltu, rd, rs1, imm),
            Op::MulI { rd, rs1, imm } => self.alu(at, AluOp::Mul, rd, rs1, imm),
            Op::Lui { rd, value } => {
                at.cycles += 1;
                self.w(rd, value);
            }
            Op::Lw { rd, rs1, imm } => {
                at.cycles += 2;
                let v = self.load_word(self.r(rs1).wrapping_add(imm))?;
                self.w(rd, v);
            }
            Op::Sw { rs2, rs1, imm } => {
                at.cycles += 2;
                self.store_word(self.r(rs1).wrapping_add(imm), self.r(rs2))?;
            }
            Op::Beq { rs1, rs2, imm } => self.branch(at, BranchCond::Eq, rs1, rs2, imm),
            Op::Bne { rs1, rs2, imm } => self.branch(at, BranchCond::Ne, rs1, rs2, imm),
            Op::Blt { rs1, rs2, imm } => self.branch(at, BranchCond::Lt, rs1, rs2, imm),
            Op::Bge { rs1, rs2, imm } => self.branch(at, BranchCond::Ge, rs1, rs2, imm),
            Op::Bltu { rs1, rs2, imm } => self.branch(at, BranchCond::Ltu, rs1, rs2, imm),
            Op::Bgeu { rs1, rs2, imm } => self.branch(at, BranchCond::Geu, rs1, rs2, imm),
            Op::Jal { rd, imm } => {
                at.cycles += 2;
                self.w(rd, at.pc);
                at.pc = at.pc.wrapping_add(imm);
            }
            Op::Jalr { rd, rs1 } => {
                at.cycles += 2;
                let target = self.r(rs1);
                self.w(rd, at.pc);
                at.pc = target;
            }
            Op::Halt => {
                at.cycles += 1;
                self.halted = true;
            }
            Op::Nop => at.cycles += 1,
            Op::Pstart => {
                at.cycles += 1;
                self.port()?.start();
                self.puf_mode = true;
            }
            Op::Pend => {
                at.cycles += 4; // post-processing pipeline drain
                let out = self.port()?.finalize();
                self.puf_result = Some(out);
                self.puf_mode = false;
            }
            Op::Pread { rd } => {
                at.cycles += 1;
                let z = self.puf_result.as_ref().ok_or(Trap::PufNotReady)?.z;
                self.w(rd, z);
            }
            Op::Phelp { rd, imm } => {
                at.cycles += 1;
                let helper = &self.puf_result.as_ref().ok_or(Trap::PufNotReady)?.helper;
                let v = helper.get(imm as usize).copied().unwrap_or(0);
                self.w(rd, v);
            }
            // `fetch` never hands this out: an undecodable word traps on
            // the load-and-decode path.
            Op::Undecodable => unreachable!("fetch returned an undecodable op"),
        }
        Ok(())
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
