//! The PE32 instruction set.
//!
//! A minimal 32-bit embedded RISC: 16 registers (`r0` hardwired to zero),
//! word-addressed memory, fixed 32-bit instruction words. The encoding is
//! real (the attestation checksum hashes *encoded program memory*), with
//! three formats:
//!
//! ```text
//! R-type:  op[31:24] rd[23:20] rs1[19:16] rs2[15:12] 0[11:0]
//! I-type:  op[31:24] rd[23:20] rs1[19:16] imm16[15:0]   (imm sign-extended)
//! B-type:  op[31:24] rs1[23:20] rs2[19:16] imm16[15:0]  (word offset)
//! ```
//!
//! The PUFatt extension adds `pstart`, `pend`, `pread` and `phelp`
//! (§2, "Architectural Support"); in PUF mode, `add` additionally forwards
//! its operands to the ALU PUF as a challenge.

use std::fmt;

/// Register identifier `r0`–`r15`; `r0` always reads zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register.
    pub const ZERO: Reg = Reg(0);

    /// Creates a register.
    ///
    /// # Panics
    ///
    /// Panics if `index > 15`.
    pub fn new(index: u8) -> Self {
        assert!(index < 16, "register index {index} out of range");
        Reg(index)
    }

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Binary operation of an R-type or I-type ALU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (wrapping). In PUF mode this also queries the ALU PUF.
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (amount masked to 5 bits).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set-less-than, signed.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
    /// Multiplication (low 32 bits, wrapping).
    Mul,
}

impl AluOp {
    /// Applies the operation.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Mul => a.wrapping_mul(b),
        }
    }
}

/// Branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than, signed.
    Lt,
    /// Greater or equal, signed.
    Ge,
    /// Less than, unsigned.
    Ltu,
    /// Greater or equal, unsigned.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition.
    #[inline]
    pub fn holds(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// A decoded PE32 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register-register ALU operation: `rd ← rs1 op rs2`.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Register-immediate ALU operation: `rd ← rs1 op imm`.
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: i16 },
    /// Load upper immediate: `rd ← imm << 16`.
    Lui { rd: Reg, imm: u16 },
    /// Load word: `rd ← mem[rs1 + imm]` (word address).
    Lw { rd: Reg, rs1: Reg, imm: i16 },
    /// Store word: `mem[rs1 + imm] ← rs2` (`rs2` travels in the rd slot).
    Sw { rs2: Reg, rs1: Reg, imm: i16 },
    /// Conditional branch: `if rs1 cond rs2 then pc ← pc + 1 + imm`.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        imm: i16,
    },
    /// Jump and link: `rd ← pc + 1; pc ← pc + 1 + imm`.
    Jal { rd: Reg, imm: i16 },
    /// Jump and link register: `rd ← pc + 1; pc ← rs1`.
    Jalr { rd: Reg, rs1: Reg },
    /// Stop execution.
    Halt,
    /// No operation.
    Nop,
    /// Enter PUF mode (clears the PUF port's challenge buffer).
    Pstart,
    /// Leave PUF mode; runs post-processing and latches `z`/helper data.
    Pend,
    /// Read the obfuscated PUF output: `rd ← z`.
    Pread { rd: Reg },
    /// Read helper-data word `imm`: `rd ← helper[imm]`.
    Phelp { rd: Reg, imm: i16 },
}

/// Errors from decoding a memory word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

// Opcode byte assignments. ALU R-type occupy 0x01..=0x0B, I-type mirror
// them at 0x21..=0x2B.
const OP_ALU_BASE: u8 = 0x01;
const OP_ALUI_BASE: u8 = 0x21;
const OP_LUI: u8 = 0x30;
const OP_LW: u8 = 0x31;
const OP_SW: u8 = 0x32;
const OP_BRANCH_BASE: u8 = 0x40; // + BranchCond discriminant
const OP_JAL: u8 = 0x50;
const OP_JALR: u8 = 0x51;
const OP_HALT: u8 = 0x00;
const OP_NOP: u8 = 0x60;
const OP_PSTART: u8 = 0x70;
const OP_PEND: u8 = 0x71;
const OP_PREAD: u8 = 0x72;
const OP_PHELP: u8 = 0x73;

const ALU_OPS: [AluOp; 11] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Mul,
];

const BRANCH_CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

fn alu_code(op: AluOp) -> u8 {
    ALU_OPS.iter().position(|&o| o == op).expect("op listed") as u8
}

fn branch_code(c: BranchCond) -> u8 {
    BRANCH_CONDS.iter().position(|&o| o == c).expect("cond listed") as u8
}

impl Instruction {
    /// Encodes the instruction into a memory word.
    pub fn encode(self) -> u32 {
        let r = |op: u8, rd: Reg, rs1: Reg, rs2: Reg| {
            ((op as u32) << 24) | ((rd.0 as u32) << 20) | ((rs1.0 as u32) << 16) | ((rs2.0 as u32) << 12)
        };
        let i = |op: u8, rd: Reg, rs1: Reg, imm: i16| {
            ((op as u32) << 24) | ((rd.0 as u32) << 20) | ((rs1.0 as u32) << 16) | (imm as u16 as u32)
        };
        match self {
            Instruction::Alu { op, rd, rs1, rs2 } => r(OP_ALU_BASE + alu_code(op), rd, rs1, rs2),
            Instruction::AluImm { op, rd, rs1, imm } => i(OP_ALUI_BASE + alu_code(op), rd, rs1, imm),
            Instruction::Lui { rd, imm } => i(OP_LUI, rd, Reg::ZERO, imm as i16),
            Instruction::Lw { rd, rs1, imm } => i(OP_LW, rd, rs1, imm),
            Instruction::Sw { rs2, rs1, imm } => i(OP_SW, rs2, rs1, imm),
            Instruction::Branch { cond, rs1, rs2, imm } => i(OP_BRANCH_BASE + branch_code(cond), rs1, rs2, imm),
            Instruction::Jal { rd, imm } => i(OP_JAL, rd, Reg::ZERO, imm),
            Instruction::Jalr { rd, rs1 } => i(OP_JALR, rd, rs1, 0),
            Instruction::Halt => (OP_HALT as u32) << 24,
            Instruction::Nop => (OP_NOP as u32) << 24,
            Instruction::Pstart => (OP_PSTART as u32) << 24,
            Instruction::Pend => (OP_PEND as u32) << 24,
            Instruction::Pread { rd } => i(OP_PREAD, rd, Reg::ZERO, 0),
            Instruction::Phelp { rd, imm } => i(OP_PHELP, rd, Reg::ZERO, imm),
        }
    }

    /// Decodes a memory word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for an unassigned opcode.
    pub fn decode(word: u32) -> Result<Self, DecodeError> {
        let op = (word >> 24) as u8;
        let rd = Reg(((word >> 20) & 0xF) as u8);
        let rs1 = Reg(((word >> 16) & 0xF) as u8);
        let rs2 = Reg(((word >> 12) & 0xF) as u8);
        let imm = word as u16 as i16;
        let inst = match op {
            OP_HALT => Instruction::Halt,
            OP_NOP => Instruction::Nop,
            o if (OP_ALU_BASE..OP_ALU_BASE + 11).contains(&o) => {
                Instruction::Alu { op: ALU_OPS[(o - OP_ALU_BASE) as usize], rd, rs1, rs2 }
            }
            o if (OP_ALUI_BASE..OP_ALUI_BASE + 11).contains(&o) => {
                Instruction::AluImm { op: ALU_OPS[(o - OP_ALUI_BASE) as usize], rd, rs1, imm }
            }
            OP_LUI => Instruction::Lui { rd, imm: imm as u16 },
            OP_LW => Instruction::Lw { rd, rs1, imm },
            OP_SW => Instruction::Sw { rs2: rd, rs1, imm },
            o if (OP_BRANCH_BASE..OP_BRANCH_BASE + 6).contains(&o) => Instruction::Branch {
                cond: BRANCH_CONDS[(o - OP_BRANCH_BASE) as usize],
                rs1: rd,
                rs2: rs1,
                imm,
            },
            OP_JAL => Instruction::Jal { rd, imm },
            OP_JALR => Instruction::Jalr { rd, rs1 },
            OP_PSTART => Instruction::Pstart,
            OP_PEND => Instruction::Pend,
            OP_PREAD => Instruction::Pread { rd },
            OP_PHELP => Instruction::Phelp { rd, imm },
            _ => return Err(DecodeError { word }),
        };
        Ok(inst)
    }

    /// Cycle cost of the instruction (branch-taken penalty is added by the
    /// CPU). The CPU's executor charges the same cost from each decoded op
    /// without calling this; the pe32 differential test holds the two
    /// equal.
    pub fn base_cycles(self) -> u64 {
        match self {
            Instruction::Alu { op: AluOp::Mul, .. } | Instruction::AluImm { op: AluOp::Mul, .. } => 3,
            Instruction::Lw { .. } | Instruction::Sw { .. } => 2,
            Instruction::Jal { .. } | Instruction::Jalr { .. } => 2,
            Instruction::Pend => 4, // post-processing pipeline drain
            _ => 1,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Alu { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", alu_name(op)),
            Instruction::AluImm { op, rd, rs1, imm } => write!(f, "{}i {rd}, {rs1}, {imm}", alu_name(op)),
            Instruction::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Instruction::Lw { rd, rs1, imm } => write!(f, "lw {rd}, {imm}({rs1})"),
            Instruction::Sw { rs2, rs1, imm } => write!(f, "sw {rs2}, {imm}({rs1})"),
            Instruction::Branch { cond, rs1, rs2, imm } => write!(f, "b{} {rs1}, {rs2}, {imm}", cond_name(cond)),
            Instruction::Jal { rd, imm } => write!(f, "jal {rd}, {imm}"),
            Instruction::Jalr { rd, rs1 } => write!(f, "jalr {rd}, {rs1}"),
            Instruction::Halt => write!(f, "halt"),
            Instruction::Nop => write!(f, "nop"),
            Instruction::Pstart => write!(f, "pstart"),
            Instruction::Pend => write!(f, "pend"),
            Instruction::Pread { rd } => write!(f, "pread {rd}"),
            Instruction::Phelp { rd, imm } => write!(f, "phelp {rd}, {imm}"),
        }
    }
}

pub(crate) fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::And => "and",
        AluOp::Or => "or",
        AluOp::Xor => "xor",
        AluOp::Sll => "sll",
        AluOp::Srl => "srl",
        AluOp::Sra => "sra",
        AluOp::Slt => "slt",
        AluOp::Sltu => "sltu",
        AluOp::Mul => "mul",
    }
}

pub(crate) fn cond_name(c: BranchCond) -> &'static str {
    match c {
        BranchCond::Eq => "eq",
        BranchCond::Ne => "ne",
        BranchCond::Lt => "lt",
        BranchCond::Ge => "ge",
        BranchCond::Ltu => "ltu",
        BranchCond::Geu => "geu",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_instructions() -> Vec<Instruction> {
        let mut v = Vec::new();
        for &op in &ALU_OPS {
            v.push(Instruction::Alu { op, rd: Reg(3), rs1: Reg(4), rs2: Reg(5) });
            v.push(Instruction::AluImm { op, rd: Reg(6), rs1: Reg(7), imm: -42 });
        }
        for &cond in &BRANCH_CONDS {
            v.push(Instruction::Branch { cond, rs1: Reg(1), rs2: Reg(2), imm: -5 });
        }
        v.extend([
            Instruction::Lui { rd: Reg(8), imm: 0xBEEF },
            Instruction::Lw { rd: Reg(9), rs1: Reg(10), imm: 100 },
            Instruction::Sw { rs2: Reg(11), rs1: Reg(12), imm: -100 },
            Instruction::Jal { rd: Reg(13), imm: 77 },
            Instruction::Jalr { rd: Reg(14), rs1: Reg(15) },
            Instruction::Halt,
            Instruction::Nop,
            Instruction::Pstart,
            Instruction::Pend,
            Instruction::Pread { rd: Reg(5) },
            Instruction::Phelp { rd: Reg(6), imm: 3 },
        ]);
        v
    }

    #[test]
    fn encode_decode_round_trip() {
        for inst in all_sample_instructions() {
            let word = inst.encode();
            assert_eq!(Instruction::decode(word), Ok(inst), "word {word:#010x}");
        }
    }

    #[test]
    fn alu_op_semantics() {
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u32::MAX);
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Srl.apply(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Slt.apply(u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.apply(u32::MAX, 0), 0, "MAX > 0 unsigned");
        assert_eq!(AluOp::Mul.apply(0x1_0001, 0x1_0001), 0x1_0001u32.wrapping_mul(0x1_0001));
        assert_eq!(AluOp::Mul.apply(0x8000_0000, 2), 0, "mul wraps");
        assert_eq!(AluOp::Sll.apply(1, 33), 2, "shift amount masked to 5 bits");
    }

    #[test]
    fn branch_cond_semantics() {
        assert!(BranchCond::Eq.holds(5, 5));
        assert!(BranchCond::Ne.holds(5, 6));
        assert!(BranchCond::Lt.holds(u32::MAX, 0));
        assert!(!BranchCond::Ltu.holds(u32::MAX, 0));
        assert!(BranchCond::Ge.holds(0, u32::MAX));
        assert!(BranchCond::Geu.holds(u32::MAX, 0));
    }

    #[test]
    fn undecodable_word_is_an_error() {
        assert!(Instruction::decode(0xFF00_0000).is_err());
    }

    #[test]
    fn distinct_instructions_encode_distinctly() {
        let all = all_sample_instructions();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.encode(), b.encode(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cycle_costs() {
        assert_eq!(Instruction::Nop.base_cycles(), 1);
        assert_eq!(Instruction::Lw { rd: Reg(1), rs1: Reg(2), imm: 0 }.base_cycles(), 2);
        assert_eq!(Instruction::Alu { op: AluOp::Mul, rd: Reg(1), rs1: Reg(2), rs2: Reg(3) }.base_cycles(), 3);
        assert_eq!(Instruction::Pend.base_cycles(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_bounds() {
        Reg::new(16);
    }
}
