//! Differential test of the pe32 op table.
//!
//! `Cpu` decodes its program image once, at `load_program` (or
//! `load_decoded`, which shares one `DecodedProgram`'s table between
//! CPUs), into one op per word, and re-decodes a word when `store_word`
//! overwrites it. This suite runs it in lockstep with a reference
//! interpreter that lives only here and decodes every word on every step,
//! as the CPU did before it had a cache. Both machines must agree on
//! registers, pc, memory, cycles, retired instructions, halt and PUF-mode
//! state, every trap, and the sequence of PUF-port calls — on every
//! shipped SWATT image (PUFatt and classic), on the memory-copy
//! adversary's program, under mid-traversal tampers (including ones that
//! land on executed code), on self-modifying programs, on every
//! instruction shape from random register states, at every cycle budget
//! of a toy run, on CPUs sharing one decoded program, and on random
//! programs.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use pufatt::adversary::build_malicious_prover;
use pufatt::enroll::enroll;
use pufatt::protocol::ProverDevice;
use pufatt_alupuf::device::AluPufConfig;
use pufatt_faults::{mid_traversal_addr, MID_TRAVERSAL_XOR};
use pufatt_pe32::asm::assemble;
use pufatt_pe32::cpu::{Clock, Cpu, Trap};
use pufatt_pe32::isa::{AluOp, BranchCond, Instruction, Reg};
use pufatt_pe32::op::DecodedProgram;
use pufatt_pe32::puf_port::{MockPufPort, PufOutput, PufPort};
use pufatt_pe32::trace::run_profiled;
use pufatt_swatt::checksum::SwattParams;
use pufatt_swatt::codegen::{generate, CodegenOptions, Redirection, SwattLayout};
use pufatt_swatt::codegen_classic::generate_classic;
use pufatt_swatt::swatt_classic::ClassicParams;

/// The PUFatt parameter points the repository ships: the three the static
/// analyzer verifies, and the toy fleet configuration.
const PUFATT_PARAMS: [SwattParams; 4] = [
    SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 },
    SwattParams { region_bits: 10, rounds: 2048, puf_interval: 32 },
    SwattParams { region_bits: 8, rounds: 192, puf_interval: 32 },
    SwattParams { region_bits: 8, rounds: 128, puf_interval: 32 },
];

/// The classical-SWATT points: the codegen tests' and the design-space
/// bench's.
const CLASSIC_PARAMS: [ClassicParams; 2] = [
    ClassicParams { region_bits: 9, rounds: 256 },
    ClassicParams { region_bits: 10, rounds: 8192 },
];

const BUDGET: u64 = 50_000_000;

// ------------------------------------------------------------ the reference

/// A decode-every-step PE32 interpreter: fetch loads the word and runs
/// `Instruction::decode` on every step, with the same semantics, cycle
/// costs and trap order as `Cpu`.
struct ReferenceCpu {
    regs: [u32; 16],
    pc: u32,
    cycles: u64,
    instructions: u64,
    halted: bool,
    puf_mode: bool,
    puf_result: Option<PufOutput>,
    memory: Vec<u32>,
    puf: Option<Box<dyn PufPort>>,
}

impl ReferenceCpu {
    fn new(mem_words: usize) -> Self {
        ReferenceCpu {
            regs: [0; 16],
            pc: 0,
            cycles: 0,
            instructions: 0,
            halted: false,
            puf_mode: false,
            puf_result: None,
            memory: vec![0; mem_words],
            puf: None,
        }
    }

    fn load_program(&mut self, image: &[u32]) {
        self.memory[..image.len()].copy_from_slice(image);
        self.regs = [0; 16];
        self.pc = 0;
        self.cycles = 0;
        self.instructions = 0;
        self.halted = false;
        self.puf_mode = false;
        self.puf_result = None;
    }

    fn reg(&self, r: Reg) -> u32 {
        if r.index() == 0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, value: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = value;
        }
    }

    fn load_word(&self, addr: u32) -> Result<u32, Trap> {
        self.memory.get(addr as usize).copied().ok_or(Trap::OutOfBounds { addr })
    }

    fn store_word(&mut self, addr: u32, value: u32) -> Result<(), Trap> {
        let slot = self.memory.get_mut(addr as usize).ok_or(Trap::OutOfBounds { addr })?;
        *slot = value;
        Ok(())
    }

    fn port(&mut self) -> Result<&mut Box<dyn PufPort>, Trap> {
        self.puf.as_mut().ok_or(Trap::NoPufAttached)
    }

    fn step(&mut self) -> Result<(), Trap> {
        if self.halted {
            return Ok(());
        }
        let addr = self.pc;
        let word = self.load_word(addr)?;
        let inst = Instruction::decode(word).map_err(|e| Trap::IllegalInstruction { word: e.word, addr })?;
        self.pc = self.pc.wrapping_add(1);
        self.cycles += inst.base_cycles();
        self.instructions += 1;
        match inst {
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                if self.puf_mode && op == AluOp::Add {
                    self.port()?.challenge(a, b);
                }
                self.set_reg(rd, op.apply(a, b));
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                self.set_reg(rd, op.apply(a, imm as i32 as u32));
            }
            Instruction::Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 16),
            Instruction::Lw { rd, rs1, imm } => {
                let v = self.load_word(self.reg(rs1).wrapping_add(imm as i32 as u32))?;
                self.set_reg(rd, v);
            }
            Instruction::Sw { rs2, rs1, imm } => {
                self.store_word(self.reg(rs1).wrapping_add(imm as i32 as u32), self.reg(rs2))?;
            }
            Instruction::Branch { cond, rs1, rs2, imm } => {
                if cond.holds(self.reg(rs1), self.reg(rs2)) {
                    self.pc = self.pc.wrapping_add(imm as i32 as u32);
                    self.cycles += 1;
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
                self.port()?.start();
                self.puf_mode = true;
            }
            Instruction::Pend => {
                let out = self.port()?.finalize();
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

    fn run(&mut self, max_cycles: u64) -> Result<(u64, u64), Trap> {
        while !self.halted {
            if self.cycles >= max_cycles {
                return Err(Trap::CycleLimit);
            }
            self.step()?;
        }
        Ok((self.cycles, self.instructions))
    }
}

// ------------------------------------------------------ the lockstep harness

/// One call on a PUF port.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PortCall {
    Start,
    Challenge(u32, u32),
    Finalize,
}

/// The calls one port has received, shared with the test.
type PortLog = Arc<Mutex<Vec<PortCall>>>;

/// A `MockPufPort` that logs every call it receives.
struct RecordingPort {
    inner: MockPufPort,
    log: PortLog,
}

impl RecordingPort {
    fn new() -> (Self, PortLog) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (RecordingPort { inner: MockPufPort::new(), log: Arc::clone(&log) }, log)
    }

    fn record(&self, call: PortCall) {
        self.log.lock().expect("log lock").push(call);
    }
}

impl PufPort for RecordingPort {
    fn start(&mut self) {
        self.record(PortCall::Start);
        self.inner.start();
    }

    fn challenge(&mut self, a: u32, b: u32) {
        self.record(PortCall::Challenge(a, b));
        self.inner.challenge(a, b);
    }

    fn finalize(&mut self) -> PufOutput {
        self.record(PortCall::Finalize);
        self.inner.finalize()
    }
}

/// The cached `Cpu` and the reference, fed the same image and writes.
struct Lockstep {
    cpu: Cpu,
    reference: ReferenceCpu,
    logs: Option<(PortLog, PortLog)>,
}

impl Lockstep {
    fn new(mem_words: usize, image: &[u32], with_puf: bool) -> Self {
        Lockstep::loaded(mem_words, image, with_puf, |cpu| cpu.load_program(image))
    }

    /// A pair whose CPU shares `program`'s op table.
    fn shared(mem_words: usize, program: &DecodedProgram, with_puf: bool) -> Self {
        Lockstep::loaded(mem_words, program.words(), with_puf, |cpu| cpu.load_decoded(program))
    }

    /// A pair holding `image`, loaded into the CPU by `load`.
    fn loaded(mem_words: usize, image: &[u32], with_puf: bool, load: impl FnOnce(&mut Cpu)) -> Self {
        let mut cpu = Cpu::new(mem_words);
        let mut reference = ReferenceCpu::new(mem_words);
        let logs = with_puf.then(|| {
            let (port, cpu_log) = RecordingPort::new();
            cpu.attach_puf(Box::new(port));
            let (port, ref_log) = RecordingPort::new();
            reference.puf = Some(Box::new(port));
            (cpu_log, ref_log)
        });
        load(&mut cpu);
        reference.load_program(image);
        let pair = Lockstep { cpu, reference, logs };
        pair.assert_same("after load");
        pair
    }

    /// A host-side write (challenge planting, tamper, malware), through
    /// `store_word` on the CPU.
    fn store(&mut self, addr: u32, value: u32) {
        let cached = self.cpu.store_word(addr, value);
        assert_eq!(cached, self.reference.store_word(addr, value), "store at {addr:#x}");
    }

    /// XORs the word at `addr` on both machines.
    fn tamper(&mut self, addr: u32, xor: u32) {
        let word = self.cpu.load_word(addr).expect("tamper inside memory");
        self.store(addr, word ^ xor);
    }

    fn run(&mut self, max_cycles: u64) -> Result<(u64, u64), Trap> {
        let cached = self.cpu.run(max_cycles).map(|r| (r.cycles, r.instructions));
        let reference = self.reference.run(max_cycles);
        assert_eq!(cached, reference, "run({max_cycles}) outcome");
        self.assert_same(&format!("after run({max_cycles})"));
        cached
    }

    fn assert_same(&self, at: &str) {
        let (cpu, reference) = (&self.cpu, &self.reference);
        for i in 0..16 {
            assert_eq!(cpu.reg(Reg(i)), reference.reg(Reg(i)), "r{i} {at}");
        }
        assert_eq!(cpu.pc(), reference.pc, "pc {at}");
        assert_eq!(cpu.cycles(), reference.cycles, "cycles {at}");
        assert_eq!(cpu.instructions(), reference.instructions, "instructions {at}");
        assert_eq!(cpu.halted(), reference.halted, "halted {at}");
        assert_eq!(cpu.puf_mode(), reference.puf_mode, "puf mode {at}");
        assert!(cpu.memory() == reference.memory.as_slice(), "memory {at}");
        if let Some((cpu_log, ref_log)) = &self.logs {
            let (cpu_log, ref_log) = (cpu_log.lock().expect("log lock"), ref_log.lock().expect("log lock"));
            assert_eq!(*cpu_log, *ref_log, "PUF-port calls {at}");
        }
    }
}

fn swatt_image(params: &SwattParams, options: &CodegenOptions) -> (Vec<u32>, SwattLayout) {
    let generated = generate(params, options);
    let program = assemble(&generated.source).expect("generated PUFatt program assembles");
    (program.image, generated.layout)
}

/// A lockstep pair holding the PUFatt program for `params`, with the
/// challenge cells planted as `ProverDevice::attest` plants them.
fn pufatt_pair(params: &SwattParams, r0: u32, x0: u32) -> (Lockstep, SwattLayout, usize) {
    let (image, layout) = swatt_image(params, &CodegenOptions::default());
    let mut pair = Lockstep::new(layout.memory_words.max(64) as usize, &image, true);
    pair.store(layout.seed_cell, r0);
    pair.store(layout.x0_cell, x0);
    (pair, layout, image.len())
}

fn program(insts: &[Instruction]) -> Vec<u32> {
    insts.iter().map(|i| i.encode()).collect()
}

// ------------------------------------------------------------- the images

#[test]
fn shipped_pufatt_images_match_reference() {
    for params in &PUFATT_PARAMS {
        for (r0, x0) in [(1, 1), (0xDEAD_BEEF, 0x0F1E_2D3C)] {
            let (mut pair, _, _) = pufatt_pair(params, r0, x0);
            let outcome = pair.run(BUDGET);
            assert!(outcome.is_ok(), "{params:?} halts: {outcome:?}");
        }
    }
}

#[test]
fn shipped_classic_images_match_reference() {
    for params in &CLASSIC_PARAMS {
        let generated = generate_classic(params);
        let program = assemble(&generated.source).expect("generated classic program assembles");
        let mut pair = Lockstep::new(generated.layout.memory_words as usize, &program.image, false);
        pair.store(generated.layout.seed_cell, 0x0BAD_CAFE);
        let outcome = pair.run(BUDGET);
        assert!(outcome.is_ok(), "{params:?} halts: {outcome:?}");
    }
}

#[test]
fn memory_copy_adversary_matches_reference() {
    let enrolled = enroll(AluPufConfig::fpga_16bit(), 0xADD, 0).expect("supported width");
    for params in [PUFATT_PARAMS[3], PUFATT_PARAMS[1]] {
        let honest = ProverDevice::new(enrolled.device_handle(1), params, &CodegenOptions::default(), Clock::default())
            .expect("honest prover provisions");
        let expected_region = honest.expected_region();
        let adversary =
            build_malicious_prover(enrolled.device_handle(2), params, &expected_region, Clock::default(), 1.0)
                .expect("adversary provisions");

        // The same device, rebuilt here word by word the way
        // `build_malicious_prover` builds it: the redirecting program, the
        // stashed copy of expected memory, and the planted malware.
        let region_words = expected_region.len() as u32;
        let redirect = Redirection {
            malware_start: 0,
            malware_end: region_words - 2,
            copy_base: region_words * 4,
        };
        let (image, layout) = swatt_image(&params, &CodegenOptions { redirect: Some(redirect) });
        let mut pair = Lockstep::new(layout.memory_words.max(64) as usize, &image, true);
        for (addr, &word) in (redirect.copy_base..).zip(&expected_region[..region_words as usize - 2]) {
            pair.store(addr, word);
        }
        for i in 0..8 {
            pair.store(region_words - 18 + i, 0xEB1B_0000 | i);
        }
        assert!(pair.cpu.memory() == adversary.memory(), "rebuilt adversary memory differs from the shipped one");

        pair.store(layout.seed_cell, 0x5EED);
        pair.store(layout.x0_cell, 0xC0FFEE);
        assert!(pair.run(BUDGET).is_ok(), "{params:?}: the adversary's program halts");
    }
}

// ---------------------------------------------------------------- tampers

#[test]
fn mid_traversal_data_tamper_matches_reference() {
    for params in &PUFATT_PARAMS {
        let (mut pair, layout, _) = pufatt_pair(params, 7, 9);
        assert_eq!(pair.run(pufatt_faults::MID_TRAVERSAL_CYCLE), Err(Trap::CycleLimit));
        pair.tamper(mid_traversal_addr(&layout), MID_TRAVERSAL_XOR);
        assert!(pair.run(BUDGET).is_ok(), "{params:?} halts after a data tamper");
    }
}

#[test]
fn mid_traversal_code_tamper_matches_reference() {
    // XOR masks that keep a word legal but change it (immediate low bit,
    // destination register), and one that makes every opcode illegal.
    const MASKS: [u32; 3] = [0x0000_0001, 0x0010_0000, 0xFF00_0000];
    let params = PUFATT_PARAMS[3];
    let (mut clean, _, image_words) = pufatt_pair(&params, 3, 4);
    let (total_cycles, _) = clean.run(BUDGET).expect("clean run halts");
    let (mut completed, mut trapped) = (0, 0);
    for addr in (0..image_words as u32).step_by(3) {
        for (k, xor) in MASKS.into_iter().enumerate() {
            let (mut pair, _, _) = pufatt_pair(&params, 3, 4);
            let at_cycle = 1 + (u64::from(addr) * 97 + k as u64 * 331) % (total_cycles - 1);
            assert_eq!(pair.run(at_cycle), Err(Trap::CycleLimit), "tamper at word {addr} is mid-traversal");
            pair.tamper(addr, xor);
            match pair.run(BUDGET) {
                Ok(_) => completed += 1,
                Err(_) => trapped += 1,
            }
        }
    }
    assert!(trapped > 0, "some code tamper must trap");
    assert!(completed > 0, "some code tamper must run to completion");
}

#[test]
fn code_tamper_on_the_hottest_word_changes_the_result() {
    // The hottest register-register ALU word of the checksum loop: after
    // the tamper both machines must execute the new instruction, not a
    // stale cached copy, so the response differs from an untampered run.
    let params = PUFATT_PARAMS[3];
    let (mut clean, layout, _) = pufatt_pair(&params, 11, 12);
    let profile = run_profiled(&mut clean.cpu, BUDGET).expect("profiled run halts");
    clean.reference.run(BUDGET).expect("reference halts");
    clean.assert_same("after the clean run");
    let (hot, _) = profile
        .hottest(usize::MAX)
        .into_iter()
        .find(|&(pc, _)| {
            let word = clean.cpu.load_word(pc).expect("in memory");
            matches!(Instruction::decode(word), Ok(Instruction::Alu { .. }))
        })
        .expect("the checksum loop has a register-register ALU word");

    let (mut tampered, _, _) = pufatt_pair(&params, 11, 12);
    assert_eq!(tampered.run(500), Err(Trap::CycleLimit));
    // R-type words keep rs2 in bits 15:12; flipping its low bit reads a
    // different source register.
    tampered.tamper(hot, 0x0000_1000);
    tampered.run(BUDGET).expect("tampered run halts");
    let response = |pair: &Lockstep| -> Vec<u32> {
        (0..8)
            .map(|k| pair.cpu.load_word(layout.result_base + k).expect("in memory"))
            .collect()
    };
    assert_ne!(response(&clean), response(&tampered), "the tampered instruction must execute");
}

// ---------------------------------------------------- self-modifying code

#[test]
fn store_of_a_legal_word_over_an_illegal_one_executes_it() {
    let mut image = program(&[
        Instruction::Lw { rd: Reg(1), rs1: Reg::ZERO, imm: 5 },
        Instruction::Sw { rs2: Reg(1), rs1: Reg::ZERO, imm: 3 },
        Instruction::Nop,
        Instruction::Halt, // replaced by the illegal word below
        Instruction::Halt,
        Instruction::AluImm { op: AluOp::Add, rd: Reg(5), rs1: Reg::ZERO, imm: 7 },
    ]);
    image[3] = 0xFF00_0000;
    let mut pair = Lockstep::new(32, &image, false);
    assert_eq!(pair.run(1_000), Ok((2 + 2 + 1 + 1 + 1, 5)));
    assert_eq!(pair.cpu.reg(Reg(5)), 7);
}

#[test]
fn store_of_an_illegal_word_over_a_legal_one_traps_when_fetched() {
    let mut image = program(&[
        Instruction::Lw { rd: Reg(1), rs1: Reg::ZERO, imm: 5 },
        Instruction::Sw { rs2: Reg(1), rs1: Reg::ZERO, imm: 3 },
        Instruction::Nop,
        Instruction::AluImm { op: AluOp::Add, rd: Reg(5), rs1: Reg::ZERO, imm: 7 },
        Instruction::Halt,
        Instruction::Halt, // replaced by the illegal word below
    ]);
    image[5] = 0xFF00_0000;
    let mut pair = Lockstep::new(32, &image, false);
    assert_eq!(pair.run(1_000), Err(Trap::IllegalInstruction { word: 0xFF00_0000, addr: 3 }));
    assert_eq!(pair.cpu.reg(Reg(5)), 0);
}

#[test]
fn code_written_beyond_the_image_runs_uncached() {
    // Store `addi r6, r0, 9; halt` past the image, then jump there.
    let addi = Instruction::AluImm { op: AluOp::Add, rd: Reg(6), rs1: Reg::ZERO, imm: 9 };
    let image = program(&[
        Instruction::Lw { rd: Reg(1), rs1: Reg::ZERO, imm: 6 },
        Instruction::Lw { rd: Reg(2), rs1: Reg::ZERO, imm: 7 },
        Instruction::Sw { rs2: Reg(1), rs1: Reg::ZERO, imm: 40 },
        Instruction::Sw { rs2: Reg(2), rs1: Reg::ZERO, imm: 41 },
        Instruction::Jal { rd: Reg::ZERO, imm: 35 }, // pc 5 + 35 = 40
        Instruction::Halt,
        addi,
        Instruction::Halt,
    ]);
    let mut pair = Lockstep::new(64, &image, false);
    assert!(pair.run(1_000).is_ok());
    assert_eq!(pair.cpu.reg(Reg(6)), 9);
    assert_eq!(pair.cpu.pc(), 42);
}

#[test]
fn host_writes_into_the_image_are_seen() {
    let image = program(&[Instruction::Nop, Instruction::Nop, Instruction::Halt]);
    let mut pair = Lockstep::new(16, &image, false);
    let addi = Instruction::AluImm { op: AluOp::Add, rd: Reg(3), rs1: Reg::ZERO, imm: 4 }.encode();
    pair.cpu.write_words(1, &[addi]).expect("in memory");
    pair.reference.store_word(1, addi).expect("in memory");
    pair.run(100).expect("halts");
    assert_eq!(pair.cpu.reg(Reg(3)), 4);
    // A bulk write that would leave memory writes nothing.
    assert_eq!(pair.cpu.write_words(14, &[0, 0, 0]), Err(Trap::OutOfBounds { addr: 16 }));
    assert_eq!(pair.cpu.write_words(20, &[0]), Err(Trap::OutOfBounds { addr: 20 }));
    pair.assert_same("after refused bulk writes");
}

#[test]
fn reloading_a_shorter_image_drops_the_old_cache() {
    let long = program(&[Instruction::Nop, Instruction::Nop, Instruction::Nop, Instruction::Halt]);
    let short = program(&[Instruction::Jal { rd: Reg::ZERO, imm: 1 }]);
    let mut pair = Lockstep::new(16, &long, false);
    pair.run(100).expect("halts");
    // Word 2 (a nop) is now outside the cached image; overwrite it.
    pair.cpu.load_program(&short);
    pair.reference.load_program(&short);
    pair.store(2, 0xFF00_0000);
    assert_eq!(pair.run(100), Err(Trap::IllegalInstruction { word: 0xFF00_0000, addr: 2 }));
}

// ------------------------------------------------------- random programs

const RANDOM_MEM_WORDS: usize = 96;

/// A legal instruction from a kind index and raw fields. Memory immediates
/// stay near memory so loads and stores (including into the program
/// itself) mostly succeed.
fn instruction(kind: u8, a: u8, b: u8, c: u8, imm: i16) -> Instruction {
    const OPS: [AluOp; 11] = [
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
    const CONDS: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    let (rd, rs1, rs2) = (Reg(a & 15), Reg(b & 15), Reg(c & 15));
    let op = OPS[c as usize % OPS.len()];
    let branch = imm % 12;
    match kind {
        0 | 1 => Instruction::Alu { op: OPS[a as usize % OPS.len()], rd, rs1, rs2 },
        2 | 3 => Instruction::AluImm { op, rd, rs1, imm: imm % 64 },
        4 => Instruction::Lui { rd, imm: imm as u16 & 3 },
        5 => Instruction::Lw { rd, rs1: Reg(b & 1), imm },
        // Stores aim at the low words, where the program is, to exercise
        // cache invalidation.
        6 | 7 => Instruction::Sw { rs2: rd, rs1: Reg(b & 1), imm: imm % 52 },
        8 => Instruction::Branch {
            cond: CONDS[c as usize % CONDS.len()],
            rs1: rd,
            rs2: rs1,
            imm: branch,
        },
        9 => Instruction::Jal { rd, imm: branch },
        10 => Instruction::Jalr { rd, rs1 },
        11 => Instruction::Pstart,
        12 => Instruction::Pend,
        13 => Instruction::Pread { rd },
        14 => Instruction::Phelp { rd, imm: imm % 4 },
        15 => Instruction::Nop,
        _ => Instruction::Halt,
    }
}

fn program_word() -> impl Strategy<Value = u32> {
    let legal = || {
        (0u8..17, any::<u8>(), any::<u8>(), any::<u8>(), -4i16..RANDOM_MEM_WORDS as i16 + 4)
            .prop_map(|(kind, a, b, c, imm)| instruction(kind, a, b, c, imm).encode())
    };
    prop_oneof![legal(), legal(), legal(), legal(), legal(), any::<u32>()]
}

proptest! {
    /// Random programs — self-modifying, trapping, looping, PUF-driving —
    /// behave identically on both machines, including a host write that
    /// lands on a random word (often code) between two runs.
    #[test]
    fn random_programs_match_reference(
        image in prop::collection::vec(program_word(), 1..48),
        with_puf in any::<bool>(),
        pause in 1u64..400,
        write_at in any::<u16>(),
        write_word in program_word(),
    ) {
        let mut pair = Lockstep::new(RANDOM_MEM_WORDS, &image, with_puf);
        if pair.run(pause) == Err(Trap::CycleLimit) {
            // Mostly into the program, sometimes just past it.
            pair.store(u32::from(write_at) % (image.len() as u32 + 4), write_word);
            let _ = pair.run(4_000);
        }
    }
}

// ------------------------------------------------------ every op variant

/// Instruction shapes: one per op the CPU executes (11 register and 11
/// immediate ALU ops, `lui`, `lw`, `sw`, six branches, `jal`, `jalr`,
/// `halt`, `nop` and the four PUF instructions), then an undecodable word.
const SHAPES: usize = 40;

fn shape(k: usize, rd: Reg, rs1: Reg, rs2: Reg, imm: i16) -> u32 {
    const OPS: [AluOp; 11] = [
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
    const CONDS: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    let inst = match k {
        0..=10 => Instruction::Alu { op: OPS[k], rd, rs1, rs2 },
        11..=21 => Instruction::AluImm { op: OPS[k - 11], rd, rs1, imm },
        22 => Instruction::Lui { rd, imm: imm as u16 },
        23 => Instruction::Lw { rd, rs1, imm },
        24 => Instruction::Sw { rs2, rs1, imm },
        25..=30 => Instruction::Branch { cond: CONDS[k - 25], rs1, rs2, imm: imm % 8 },
        31 => Instruction::Jal { rd, imm: imm % 8 },
        32 => Instruction::Jalr { rd, rs1 },
        33 => Instruction::Halt,
        34 => Instruction::Nop,
        35 => Instruction::Pstart,
        36 => Instruction::Pend,
        37 => Instruction::Pread { rd },
        38 => Instruction::Phelp { rd, imm: imm % 4 },
        _ => return 0xFF00_0000,
    };
    inst.encode()
}

/// A register value: mostly a word address inside `RANDOM_MEM_WORDS`
/// (so loads, stores and `jalr` land in memory), sometimes any word.
fn register_value() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..RANDOM_MEM_WORDS as u32 + 8,
        0u32..RANDOM_MEM_WORDS as u32,
        any::<u32>()
    ]
}

proptest! {
    /// Every op in turn, from random registers, behind each PUF state: idle
    /// (`pread`/`phelp` trap before any `pend`), in PUF mode (an `add`
    /// challenges the port), and with a result latched. With no port
    /// attached the PUF instructions trap instead.
    #[test]
    fn every_op_matches_reference(
        fields in (0u8..16, 0u8..16, 0u8..16, any::<i16>()),
        regs in prop::collection::vec(register_value(), 16),
        puf_state in 0u8..3,
        with_puf in any::<bool>(),
    ) {
        let (rd, rs1, rs2, imm) = fields;
        let prelude: &[Instruction] = match puf_state {
            0 => &[],
            1 => &[Instruction::Pstart],
            _ => &[
                Instruction::Pstart,
                Instruction::Alu { op: AluOp::Add, rd: Reg(1), rs1: Reg(2), rs2: Reg(3) },
                Instruction::Pend,
            ],
        };
        for k in 0..SHAPES {
            let mut image = program(prelude);
            image.push(shape(k, Reg(rd), Reg(rs1), Reg(rs2), imm));
            image.extend(program(&[Instruction::Nop, Instruction::Nop, Instruction::Halt]));
            let mut pair = Lockstep::new(RANDOM_MEM_WORDS, &image, with_puf);
            for (i, &value) in regs.iter().enumerate() {
                pair.cpu.set_reg(Reg(i as u8), value);
                pair.reference.set_reg(Reg(i as u8), value);
            }
            pair.assert_same("after setting the registers");
            let _ = pair.run(1_000);
        }
    }
}

// ----------------------------------------------------- every cycle budget

#[test]
fn run_stops_where_the_reference_stops_at_every_budget() {
    // The toy image, run from scratch under every budget up to a whole
    // run: the budget is checked before every instruction, so each run
    // stops on the same instruction boundary, in the same state.
    let params = PUFATT_PARAMS[3];
    let (image, layout) = swatt_image(&params, &CodegenOptions::default());
    let mem_words = layout.memory_words.max(64) as usize;
    let start = || {
        let mut pair = Lockstep::new(mem_words, &image, true);
        pair.store(layout.seed_cell, 0x0005_EED5);
        pair.store(layout.x0_cell, 0x0000_0A0A);
        pair
    };
    let (total, _) = start().run(BUDGET).expect("the toy image halts");
    for budget in 0..=total {
        let outcome = start().run(budget);
        assert_eq!(outcome.is_ok(), budget == total, "budget {budget} of {total}");
    }
}

// --------------------------------------------------- one shared program

#[test]
fn a_write_into_shared_code_leaves_the_other_cpu_unchanged() {
    // Two CPUs load one decoded program. A mid-run write into the first
    // one's checksum loop must reach only that CPU: the second keeps
    // executing the program as loaded, in lockstep with a reference that
    // never saw the write.
    let params = PUFATT_PARAMS[3];
    let (image, layout) = swatt_image(&params, &CodegenOptions::default());
    let mem_words = layout.memory_words.max(64) as usize;
    let program = DecodedProgram::new(image.clone());
    let hot = {
        let mut cpu = Cpu::new(mem_words);
        cpu.load_decoded(&program);
        let profile = run_profiled(&mut cpu, BUDGET).expect("profiled run halts");
        profile
            .hottest(usize::MAX)
            .into_iter()
            .map(|(pc, _)| pc)
            .find(|&pc| matches!(Instruction::decode(image[pc as usize]), Ok(Instruction::Alu { .. })))
            .expect("the checksum loop has a register-register ALU word")
    };
    let response = |pair: &Lockstep| -> Vec<u32> {
        (0..8)
            .map(|k| pair.cpu.load_word(layout.result_base + k).expect("in memory"))
            .collect()
    };
    let mut pairs = [(); 2].map(|()| {
        let mut pair = Lockstep::shared(mem_words, &program, true);
        pair.store(layout.seed_cell, 21);
        pair.store(layout.x0_cell, 22);
        assert_eq!(pair.run(500), Err(Trap::CycleLimit));
        pair
    });
    pairs[0].tamper(hot, 0x0000_1000);
    for pair in &mut pairs {
        pair.run(BUDGET).expect("both halt");
    }
    let mut private = Lockstep::new(mem_words, &image, true);
    private.store(layout.seed_cell, 21);
    private.store(layout.x0_cell, 22);
    private.run(BUDGET).expect("halts");
    assert_eq!(response(&pairs[1]), response(&private), "the untouched CPU runs the program as loaded");
    assert_ne!(response(&pairs[0]), response(&private), "the written CPU runs its own code");
    assert!(pairs[1].cpu.memory() == private.cpu.memory());
}
