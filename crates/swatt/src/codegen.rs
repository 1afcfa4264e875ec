//! PE32 code generation for the PUFatt checksum.
//!
//! Emits assembly that computes *bit-identical* results to
//! [`crate::checksum::compute`], so the verifier can predict the response
//! while the prover executes real instructions with real cycle counts —
//! the quantity the time bound δ is enforced on.
//!
//! Memory layout of the generated program (word addresses):
//!
//! ```text
//! 0 .. code_end        the checksum program itself (attested)
//! seed_cell            the attestation challenge r₀ (attested — the
//!                      verifier chose it and knows its value)
//! … free …             remainder of the 2^region_bits attested region
//! region_end ..        scratch (NOT attested): result\[8\], helper words,
//!                      helper write pointer
//! ```
//!
//! Register allocation: `r1..r8` = lanes `C[0..7]`, `r9` = T-function state
//! `x`, `r10` = block counter, `r11/r12/r15` = temporaries, `r13` = address
//! mask, `r14` = PUF interval countdown.

use crate::checksum::{SwattParams, CANARY, STATE_WORDS};
use std::fmt::Write;

/// Addresses of the generated program's memory interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwattLayout {
    /// Word address holding the attestation seed r₀ (inside the region).
    pub seed_cell: u32,
    /// Word address holding the PUF challenge seed x₀ (inside the region).
    pub x0_cell: u32,
    /// First scratch address: the 8 response words land here.
    pub result_base: u32,
    /// Helper-data words are appended from this address upward.
    pub helper_base: u32,
    /// Scratch cell holding the helper write pointer.
    pub helper_ptr_cell: u32,
    /// Total memory words the program needs.
    pub memory_words: u32,
    /// End of the attested region (`2^region_bits`).
    pub region_end: u32,
}

/// Options controlling code generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodegenOptions {
    /// Generate the adversary's *modified* checksum that hides malware by
    /// redirecting reads of `[malware_start, malware_end)` to a clean copy
    /// at `copy_base` (the classic memory-copy attack). The redirection
    /// costs extra cycles every round — exactly what the time bound δ
    /// catches.
    pub redirect: Option<Redirection>,
}

/// Address-redirection parameters of the memory-copy attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redirection {
    /// First word of the malware-occupied region.
    pub malware_start: u32,
    /// One past the last malware word.
    pub malware_end: u32,
    /// Clean copy of the original words, placed in scratch.
    pub copy_base: u32,
}

/// Generated program: assembly source plus its layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedSwatt {
    /// PE32 assembly source.
    pub source: String,
    /// Memory layout constants.
    pub layout: SwattLayout,
}

/// Emits the PUFatt checksum program for `params`.
///
/// # Panics
///
/// Panics if the parameters fail [`SwattParams::validate`], if the block
/// count exceeds the 16-bit immediate range, or if a redirection copy
/// region would overlap the generated scratch area.
pub fn generate(params: &SwattParams, options: &CodegenOptions) -> GeneratedSwatt {
    params.validate();
    let blocks = params.blocks();
    assert!(blocks <= i16::MAX as u32, "block count {blocks} exceeds immediate range");
    let region_end = 1u32 << params.region_bits;
    let seed_cell = region_end - 1;
    let x0_cell = region_end - 2;
    let result_base = region_end;
    let helper_ptr_cell = region_end + STATE_WORDS as u32;
    let helper_base = helper_ptr_cell + 1;
    // When the PUF section is emitted at all (puf_interval != 0) the
    // image contains helper stores for one burst even if the block count
    // never lets them execute (puf_queries() == 0); scratch must cover
    // that statically reachable span so every store is provably in
    // bounds.
    let helper_words = if params.puf_interval == 0 {
        0
    } else {
        params.puf_queries().max(1) * STATE_WORDS as u32
    };
    let mut memory_words = helper_base + helper_words.max(1);
    if let Some(r) = options.redirect {
        let copy_words = r.malware_end - r.malware_start;
        assert!(r.copy_base >= memory_words, "redirection copy region overlaps program scratch");
        memory_words = r.copy_base + copy_words;
    }

    let mut s = String::new();
    let w = &mut s;
    let mask = region_end - 1;
    writeln!(
        w,
        "; PUFatt checksum ({} rounds, region 2^{} words{})",
        params.rounds,
        params.region_bits,
        if options.redirect.is_some() { ", WITH memory-copy redirection" } else { "" }
    )
    .unwrap();
    writeln!(w, "        lw   r9, {seed_cell}(r0)       ; x = r0 (attestation challenge)").unwrap();
    writeln!(w, "        lw   r12, {x0_cell}(r0)        ; x0 (PUF challenge seed)").unwrap();
    for k in 0..STATE_WORDS {
        writeln!(w, "        addi r{}, r9, {}", k + 1, k + 1).unwrap();
        writeln!(w, "        xor  r{0}, r{0}, r12          ; C[{k}] = (r0 + {1}) ^ x0", k + 1, k + 1).unwrap();
    }
    // Address mask: region_end - 1 fits 16 bits for region_bits <= 16.
    assert!(params.region_bits <= 15, "codegen supports region_bits <= 15 (mask must fit a positive imm16)");
    writeln!(w, "        addi r13, r0, {mask}        ; address mask").unwrap();
    writeln!(w, "        addi r10, r0, {blocks}      ; block counter").unwrap();
    if params.puf_interval != 0 {
        writeln!(w, "        addi r14, r0, {}        ; PUF interval countdown", params.puf_interval).unwrap();
        writeln!(w, "        addi r11, r0, {helper_base}").unwrap();
        writeln!(w, "        sw   r11, {helper_ptr_cell}(r0)   ; helper write pointer").unwrap();
    }
    writeln!(w, "block:").unwrap();
    for k in 0..STATE_WORDS {
        let ck = k + 1; // register holding C[k]
        let prev = (k + STATE_WORDS - 1) % STATE_WORDS + 1;
        writeln!(w, "        ; lane {k}").unwrap();
        writeln!(w, "        mul  r11, r9, r9").unwrap();
        writeln!(w, "        ori  r11, r11, 5").unwrap();
        writeln!(w, "        add  r9, r9, r11           ; x = x + (x*x | 5)").unwrap();
        writeln!(w, "        and  r12, r9, r13          ; addr = x & mask").unwrap();
        match options.redirect {
            None => {
                writeln!(w, "        lw   r11, 0(r12)           ; w = mem[addr]").unwrap();
            }
            Some(r) => {
                // if (addr - start) <u (end - start) then redirect
                let span = r.malware_end - r.malware_start;
                writeln!(w, "        addi r15, r12, -{}         ; addr - malware_start", r.malware_start).unwrap();
                writeln!(w, "        addi r11, r0, {span}").unwrap();
                writeln!(w, "        bltu r15, r11, redir_{k}").unwrap();
                writeln!(w, "        lw   r11, 0(r12)           ; clean read").unwrap();
                writeln!(w, "        jal  r0, after_{k}").unwrap();
                writeln!(w, "redir_{k}:").unwrap();
                writeln!(w, "        addi r15, r15, {}          ; copy_base + offset", r.copy_base).unwrap();
                writeln!(w, "        lw   r11, 0(r15)           ; redirected read").unwrap();
                writeln!(w, "after_{k}:").unwrap();
            }
        }
        writeln!(w, "        add  r11, r11, r{prev}         ; w + C[prev]").unwrap();
        writeln!(w, "        xor  r{ck}, r{ck}, r11").unwrap();
        writeln!(w, "        slli r12, r{ck}, 1").unwrap();
        writeln!(w, "        srli r15, r{ck}, 31").unwrap();
        writeln!(w, "        or   r{ck}, r12, r15           ; C[{k}] = rotl1(C[{k}])").unwrap();
    }
    if params.puf_interval != 0 {
        writeln!(w, "        addi r14, r14, -1").unwrap();
        writeln!(w, "        bne  r14, r0, noPuf").unwrap();
        writeln!(w, "        addi r14, r0, {}         ; reset countdown", params.puf_interval).unwrap();
        writeln!(w, "        pstart").unwrap();
        for k in 0..STATE_WORDS - 1 {
            writeln!(w, "        add  r11, r9, r{}          ; challenge (x, C[{k}])", k + 1).unwrap();
        }
        // The full-carry canary: pins the PUF's timing requirement to
        // T_ALU (see `CANARY`). Both halves fit a signed 16-bit immediate.
        writeln!(w, "        addi r11, r0, {}", CANARY.0 as i32).unwrap();
        writeln!(w, "        addi r12, r0, {}", CANARY.1 as i32).unwrap();
        writeln!(w, "        add  r15, r11, r12         ; canary challenge (all-ones, 1)").unwrap();
        writeln!(w, "        pend").unwrap();
        writeln!(w, "        pread r11").unwrap();
        writeln!(w, "        xor  r1, r1, r11           ; C[0] ^= z").unwrap();
        // Persist the helper words for transmission to the verifier.
        writeln!(w, "        lw   r12, {helper_ptr_cell}(r0)").unwrap();
        for k in 0..STATE_WORDS {
            writeln!(w, "        phelp r11, {k}").unwrap();
            writeln!(w, "        sw   r11, {k}(r12)").unwrap();
        }
        writeln!(w, "        addi r12, r12, {STATE_WORDS}").unwrap();
        writeln!(w, "        sw   r12, {helper_ptr_cell}(r0)").unwrap();
        writeln!(w, "noPuf:").unwrap();
    }
    writeln!(w, "        addi r10, r10, -1").unwrap();
    writeln!(w, "        bne  r10, r0, block").unwrap();
    for k in 0..STATE_WORDS {
        writeln!(w, "        sw   r{}, {}(r0)         ; result[{k}]", k + 1, result_base + k as u32).unwrap();
    }
    writeln!(w, "        halt").unwrap();

    GeneratedSwatt {
        source: s,
        layout: SwattLayout {
            seed_cell,
            x0_cell,
            result_base,
            helper_base,
            helper_ptr_cell,
            memory_words,
            region_end,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::{compute, MixPuf, NoPuf};
    use pufatt_pe32::asm::assemble;
    use pufatt_pe32::cpu::Cpu;
    use pufatt_pe32::puf_port::MockPufPort;

    const X0: u32 = 0x0F1E_2D3C;

    fn run_generated(params: &SwattParams, options: &CodegenOptions, seed: u32) -> (Vec<u32>, Vec<u32>, u64, Vec<u32>) {
        let gen = generate(params, options);
        let prog = assemble(&gen.source).expect("generated assembly must assemble");
        assert!(
            (prog.image.len() as u32) < gen.layout.seed_cell,
            "program ({} words) must fit below the seed cell ({})",
            prog.image.len(),
            gen.layout.seed_cell
        );
        let mut cpu = Cpu::new(gen.layout.memory_words.max(64) as usize);
        cpu.attach_puf(Box::new(MockPufPort::new()));
        cpu.load_program(&prog.image);
        cpu.store_word(gen.layout.seed_cell, seed).unwrap();
        cpu.store_word(gen.layout.x0_cell, X0).unwrap();
        let memory_snapshot: Vec<u32> = cpu.memory()[..gen.layout.region_end as usize].to_vec();
        let result = cpu.run(200_000_000).expect("checksum program must halt");
        let response: Vec<u32> = (0..8).map(|k| cpu.load_word(gen.layout.result_base + k).unwrap()).collect();
        let helper_end = cpu.load_word(gen.layout.helper_ptr_cell).unwrap_or(gen.layout.helper_base);
        let helper: Vec<u32> = (gen.layout.helper_base..helper_end)
            .map(|a| cpu.load_word(a).unwrap())
            .collect();
        (response, memory_snapshot, result.cycles, helper)
    }

    #[test]
    fn cpu_matches_reference_without_puf() {
        let params = SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 };
        let (cpu_resp, snapshot, _, _) = run_generated(&params, &CodegenOptions::default(), 0xDEAD_BEEF);
        let reference = compute(&snapshot, 0xDEAD_BEEF, X0, &params, &mut NoPuf);
        assert_eq!(cpu_resp, reference.response.to_vec());
    }

    #[test]
    fn cpu_matches_reference_with_puf() {
        // MockPufPort (CPU side) and MixPuf (reference side) compute the
        // same mixing function, so the full PUF-entangled paths must agree.
        let params = SwattParams { region_bits: 9, rounds: 1024, puf_interval: 4 };
        let (cpu_resp, snapshot, _, helper) = run_generated(&params, &CodegenOptions::default(), 0x1234_5678);
        let reference = compute(&snapshot, 0x1234_5678, X0, &params, &mut MixPuf);
        assert_eq!(cpu_resp, reference.response.to_vec());
        // MockPufPort helper word = challenge count (8 per query).
        assert_eq!(helper.len() as u32, params.puf_queries() * 8);
        assert!(helper.iter().step_by(8).all(|&h| h == 8));
    }

    #[test]
    fn seed_changes_cpu_response() {
        let params = SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 };
        let (a, _, _, _) = run_generated(&params, &CodegenOptions::default(), 1);
        let (b, _, _, _) = run_generated(&params, &CodegenOptions::default(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn full_memory_copy_attack_forges_response_but_pays_cycles() {
        // The classic attack the paper defends against: the adversary
        // replaces the whole attested region (its own modified checksum code
        // + malware) and redirects EVERY read to a pristine copy of the
        // expected memory S kept in scratch. The forged response equals the
        // honest one — but every round pays the redirection overhead, which
        // is what the time bound δ catches.
        let params = SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 };
        let seed = 99;

        // Honest device: clean memory.
        let honest_gen = generate(&params, &CodegenOptions::default());
        let honest_prog = assemble(&honest_gen.source).unwrap();
        let mut honest = Cpu::new(1024);
        honest.attach_puf(Box::new(MockPufPort::new()));
        honest.load_program(&honest_prog.image);
        honest.store_word(honest_gen.layout.seed_cell, seed).unwrap();
        honest.store_word(honest_gen.layout.x0_cell, X0).unwrap();
        let expected_memory: Vec<u32> = honest.memory()[..512].to_vec();
        let honest_run = honest.run(200_000_000).unwrap();
        let honest_resp: Vec<u32> = (0..8)
            .map(|k| honest.load_word(honest_gen.layout.result_base + k).unwrap())
            .collect();

        // Infected device: the attacker's program occupies the region, the
        // pristine copy of S lives at copy_base.
        let copy_base = 2048;
        let redirect = Redirection { malware_start: 0, malware_end: 512, copy_base };
        let attack_gen = generate(&params, &CodegenOptions { redirect: Some(redirect) });
        let attack_prog = assemble(&attack_gen.source).unwrap();
        let mut infected = Cpu::new(attack_gen.layout.memory_words as usize);
        infected.attach_puf(Box::new(MockPufPort::new()));
        infected.load_program(&attack_prog.image);
        infected.store_word(attack_gen.layout.seed_cell, seed).unwrap();
        infected.store_word(attack_gen.layout.x0_cell, X0).unwrap();
        for (offset, &word) in expected_memory.iter().enumerate() {
            infected.store_word(copy_base + offset as u32, word).unwrap();
        }
        let infected_run = infected.run(200_000_000).unwrap();
        let infected_resp: Vec<u32> = (0..8)
            .map(|k| infected.load_word(attack_gen.layout.result_base + k).unwrap())
            .collect();

        // The forgery succeeds functionally…
        let reference = compute(&expected_memory, seed, X0, &params, &mut NoPuf);
        assert_eq!(honest_resp, reference.response.to_vec());
        assert_eq!(infected_resp, honest_resp, "redirection must forge the correct response");

        // …but costs at least a branch + compare per round.
        assert!(
            infected_run.cycles > honest_run.cycles + 2 * params.rounds as u64,
            "attack must pay per-round overhead: {} vs {}",
            infected_run.cycles,
            honest_run.cycles
        );
    }

    #[test]
    fn layout_is_consistent() {
        let params = SwattParams { region_bits: 10, rounds: 2048, puf_interval: 16 };
        let gen = generate(&params, &CodegenOptions::default());
        let l = gen.layout;
        assert_eq!(l.region_end, 1024);
        assert!(l.seed_cell < l.region_end);
        assert!(l.result_base >= l.region_end, "results must live outside the attested region");
        assert!(l.helper_base > l.helper_ptr_cell);
        assert!(l.memory_words >= l.helper_base + params.puf_queries() * 8);
    }

    #[test]
    #[should_panic(expected = "overlaps program scratch")]
    fn rejects_overlapping_copy_region() {
        let params = SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 };
        let redirect = Redirection { malware_start: 300, malware_end: 316, copy_base: 512 };
        generate(&params, &CodegenOptions { redirect: Some(redirect) });
    }
}
