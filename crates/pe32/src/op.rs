//! The interpreter's form of an instruction: each program word decoded
//! once into the operation it performs.
//!
//! An `Op`'s variant is the operation itself (`AddRR`, `XorI`, `Lw`,
//! `Bne`, …), so the executor dispatches once per instruction, where an
//! [`Instruction`] would dispatch on its format and then again on its
//! [`AluOp`] or [`BranchCond`]. Register fields are masked to 4 bits and
//! immediates are sign-extended ahead of time. [`Instruction`] stays the
//! type of the ISA, the assembler and the disassembler.

use crate::isa::{AluOp, BranchCond, Instruction, Reg};
use std::sync::Arc;

/// One decoded program word, 8 bytes: a tag, up to three register
/// indices (each `< 16`) and a 32-bit operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip] // one line per op: the table is the point
pub(crate) enum Op {
    AddRR { rd: u8, rs1: u8, rs2: u8 },
    SubRR { rd: u8, rs1: u8, rs2: u8 },
    AndRR { rd: u8, rs1: u8, rs2: u8 },
    OrRR { rd: u8, rs1: u8, rs2: u8 },
    XorRR { rd: u8, rs1: u8, rs2: u8 },
    SllRR { rd: u8, rs1: u8, rs2: u8 },
    SrlRR { rd: u8, rs1: u8, rs2: u8 },
    SraRR { rd: u8, rs1: u8, rs2: u8 },
    SltRR { rd: u8, rs1: u8, rs2: u8 },
    SltuRR { rd: u8, rs1: u8, rs2: u8 },
    MulRR { rd: u8, rs1: u8, rs2: u8 },
    AddI { rd: u8, rs1: u8, imm: u32 },
    SubI { rd: u8, rs1: u8, imm: u32 },
    AndI { rd: u8, rs1: u8, imm: u32 },
    OrI { rd: u8, rs1: u8, imm: u32 },
    XorI { rd: u8, rs1: u8, imm: u32 },
    SllI { rd: u8, rs1: u8, imm: u32 },
    SrlI { rd: u8, rs1: u8, imm: u32 },
    SraI { rd: u8, rs1: u8, imm: u32 },
    SltI { rd: u8, rs1: u8, imm: u32 },
    SltuI { rd: u8, rs1: u8, imm: u32 },
    MulI { rd: u8, rs1: u8, imm: u32 },
    /// `rd ← value`, the immediate already shifted into the upper half.
    Lui { rd: u8, value: u32 },
    Lw { rd: u8, rs1: u8, imm: u32 },
    Sw { rs2: u8, rs1: u8, imm: u32 },
    Beq { rs1: u8, rs2: u8, imm: u32 },
    Bne { rs1: u8, rs2: u8, imm: u32 },
    Blt { rs1: u8, rs2: u8, imm: u32 },
    Bge { rs1: u8, rs2: u8, imm: u32 },
    Bltu { rs1: u8, rs2: u8, imm: u32 },
    Bgeu { rs1: u8, rs2: u8, imm: u32 },
    Jal { rd: u8, imm: u32 },
    Jalr { rd: u8, rs1: u8 },
    Halt,
    Nop,
    Pstart,
    Pend,
    Pread { rd: u8 },
    Phelp { rd: u8, imm: i16 },
    /// A word no instruction encodes to; fetching it takes the
    /// load-and-decode path, which raises the trap.
    Undecodable,
}

const _: () = assert!(std::mem::size_of::<Op>() == 8);

fn r(reg: Reg) -> u8 {
    reg.0 & 15
}

fn sext(imm: i16) -> u32 {
    imm as i32 as u32
}

impl Op {
    /// Decodes one memory word.
    pub(crate) fn decode(word: u32) -> Op {
        Instruction::decode(word).map_or(Op::Undecodable, Op::from)
    }
}

impl From<Instruction> for Op {
    fn from(inst: Instruction) -> Op {
        match inst {
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let (rd, rs1, rs2) = (r(rd), r(rs1), r(rs2));
                match op {
                    AluOp::Add => Op::AddRR { rd, rs1, rs2 },
                    AluOp::Sub => Op::SubRR { rd, rs1, rs2 },
                    AluOp::And => Op::AndRR { rd, rs1, rs2 },
                    AluOp::Or => Op::OrRR { rd, rs1, rs2 },
                    AluOp::Xor => Op::XorRR { rd, rs1, rs2 },
                    AluOp::Sll => Op::SllRR { rd, rs1, rs2 },
                    AluOp::Srl => Op::SrlRR { rd, rs1, rs2 },
                    AluOp::Sra => Op::SraRR { rd, rs1, rs2 },
                    AluOp::Slt => Op::SltRR { rd, rs1, rs2 },
                    AluOp::Sltu => Op::SltuRR { rd, rs1, rs2 },
                    AluOp::Mul => Op::MulRR { rd, rs1, rs2 },
                }
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let (rd, rs1, imm) = (r(rd), r(rs1), sext(imm));
                match op {
                    AluOp::Add => Op::AddI { rd, rs1, imm },
                    AluOp::Sub => Op::SubI { rd, rs1, imm },
                    AluOp::And => Op::AndI { rd, rs1, imm },
                    AluOp::Or => Op::OrI { rd, rs1, imm },
                    AluOp::Xor => Op::XorI { rd, rs1, imm },
                    AluOp::Sll => Op::SllI { rd, rs1, imm },
                    AluOp::Srl => Op::SrlI { rd, rs1, imm },
                    AluOp::Sra => Op::SraI { rd, rs1, imm },
                    AluOp::Slt => Op::SltI { rd, rs1, imm },
                    AluOp::Sltu => Op::SltuI { rd, rs1, imm },
                    AluOp::Mul => Op::MulI { rd, rs1, imm },
                }
            }
            Instruction::Lui { rd, imm } => Op::Lui { rd: r(rd), value: u32::from(imm) << 16 },
            Instruction::Lw { rd, rs1, imm } => Op::Lw { rd: r(rd), rs1: r(rs1), imm: sext(imm) },
            Instruction::Sw { rs2, rs1, imm } => Op::Sw { rs2: r(rs2), rs1: r(rs1), imm: sext(imm) },
            Instruction::Branch { cond, rs1, rs2, imm } => {
                let (rs1, rs2, imm) = (r(rs1), r(rs2), sext(imm));
                match cond {
                    BranchCond::Eq => Op::Beq { rs1, rs2, imm },
                    BranchCond::Ne => Op::Bne { rs1, rs2, imm },
                    BranchCond::Lt => Op::Blt { rs1, rs2, imm },
                    BranchCond::Ge => Op::Bge { rs1, rs2, imm },
                    BranchCond::Ltu => Op::Bltu { rs1, rs2, imm },
                    BranchCond::Geu => Op::Bgeu { rs1, rs2, imm },
                }
            }
            Instruction::Jal { rd, imm } => Op::Jal { rd: r(rd), imm: sext(imm) },
            Instruction::Jalr { rd, rs1 } => Op::Jalr { rd: r(rd), rs1: r(rs1) },
            Instruction::Halt => Op::Halt,
            Instruction::Nop => Op::Nop,
            Instruction::Pstart => Op::Pstart,
            Instruction::Pend => Op::Pend,
            Instruction::Pread { rd } => Op::Pread { rd: r(rd) },
            Instruction::Phelp { rd, imm } => Op::Phelp { rd: r(rd), imm },
        }
    }
}

/// A program image decoded once: its words and the op table the CPU
/// executes them from. Every [`Cpu`](crate::cpu::Cpu) loaded from it with
/// [`Cpu::load_decoded`](crate::cpu::Cpu::load_decoded) shares the one
/// table until it writes into its own code, which copies the table for
/// that CPU alone.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    words: Vec<u32>,
    ops: Arc<[Op]>,
}

impl DecodedProgram {
    /// Decodes `words`, an image to be loaded at word address 0.
    pub fn new(words: Vec<u32>) -> Self {
        let ops = decode_all(&words);
        DecodedProgram { words, ops }
    }

    /// The image's words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    pub(crate) fn ops(&self) -> &Arc<[Op]> {
        &self.ops
    }
}

/// The op table of an image: one [`Op`] per word.
pub(crate) fn decode_all(words: &[u32]) -> Arc<[Op]> {
    words.iter().map(|&word| Op::decode(word)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_is_eight_bytes_and_fields_are_pre_extended() {
        assert_eq!(std::mem::size_of::<Op>(), 8);
        let word = Instruction::AluImm { op: AluOp::Add, rd: Reg(1), rs1: Reg(2), imm: -3 }.encode();
        assert_eq!(Op::decode(word), Op::AddI { rd: 1, rs1: 2, imm: (-3i32) as u32 });
        let lui = Instruction::Lui { rd: Reg(4), imm: 0xBEEF }.encode();
        assert_eq!(Op::decode(lui), Op::Lui { rd: 4, value: 0xBEEF_0000 });
        assert_eq!(Op::decode(0xFF00_0000), Op::Undecodable);
    }

    #[test]
    fn clones_of_a_decoded_program_share_one_table() {
        let program = DecodedProgram::new(vec![Instruction::Nop.encode(), Instruction::Halt.encode()]);
        let copy = program.clone();
        assert!(Arc::ptr_eq(program.ops(), copy.ops()));
        assert_eq!(&program.ops()[..], &[Op::Nop, Op::Halt]);
    }
}
