//! Golden diagnostics tests: every lint ID is pinned by a seeded defect,
//! and the shipped designs, generated programs and source tree are clean.
//!
//! These tests are the tool's compatibility contract. A lint that stops
//! firing on its seeded defect, or that starts firing on shipped
//! artefacts, is a regression even if the code "works".

// Panicking on a broken fixture is exactly what a test should do.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use pufatt_alupuf::device::{AluPufConfig, AluPufDesign};
use pufatt_analyze::circuit::{verify_alu_puf, CircuitGate, CircuitModel, CsrView};
use pufatt_analyze::program::{verify_program, ProgramSpec};
use pufatt_analyze::taint::{scan_paths, scan_source};
use pufatt_analyze::{conc, dur, LintId, Report};
use pufatt_pe32::asm::assemble;
use pufatt_silicon::netlist::GateKind;
use pufatt_swatt::checksum::SwattParams;
use pufatt_swatt::codegen::{generate, CodegenOptions, Redirection};
use std::path::PathBuf;

fn lint_set(diags: &[pufatt_analyze::Diagnostic]) -> Vec<LintId> {
    let mut lints: Vec<LintId> = diags.iter().map(|d| d.lint).collect();
    lints.dedup();
    lints
}

// ---------------------------------------------------------------- Pass 1

/// A sound 2-gate model: c = AND(a, b); d = BUF(c); PO = d.
fn sound_model() -> CircuitModel {
    CircuitModel {
        name: "fixture".into(),
        net_count: 4,
        gates: vec![
            CircuitGate { kind: GateKind::And2, inputs: vec![0, 1], output: 2 },
            CircuitGate { kind: GateKind::Buf, inputs: vec![2], output: 3 },
        ],
        primary_inputs: vec![0, 1],
        primary_outputs: vec![3],
        net_names: vec![None; 4],
        csr: None,
    }
}

#[test]
fn net001_combinational_loop() {
    let mut m = sound_model();
    // Close the loop: the AND now also reads the BUF's output.
    m.gates[0].inputs = vec![0, 3];
    let diags = m.verify();
    assert!(lint_set(&diags).contains(&LintId::CombinationalLoop), "{diags:?}");
}

#[test]
fn net002_floating_net() {
    let mut m = sound_model();
    // Net 1 loses its primary-input status but keeps its reader.
    m.primary_inputs = vec![0];
    let diags = m.verify();
    assert!(lint_set(&diags).contains(&LintId::FloatingNet), "{diags:?}");
}

#[test]
fn net003_multi_driven_net() {
    let mut m = sound_model();
    // A second gate drives net 2.
    m.gates.push(CircuitGate { kind: GateKind::Or2, inputs: vec![0, 1], output: 2 });
    let diags = m.verify();
    assert!(lint_set(&diags).contains(&LintId::MultiDrivenNet), "{diags:?}");
}

#[test]
fn net004_unreachable_gate() {
    let mut m = sound_model();
    // A gate whose output feeds nothing and no primary output.
    m.net_count = 5;
    m.net_names.push(None);
    m.gates
        .push(CircuitGate { kind: GateKind::Xor2, inputs: vec![0, 1], output: 4 });
    let diags = m.verify();
    assert!(lint_set(&diags).contains(&LintId::UnreachableGate), "{diags:?}");
}

#[test]
fn net005_corrupted_fanout_csr() {
    let mut m = sound_model();
    // CSR claims net 0 has no readers although gate 0 reads it.
    m.csr = Some(CsrView { offsets: vec![0, 0, 1, 2, 2], targets: vec![0, 1] });
    let diags = m.verify();
    assert!(lint_set(&diags).contains(&LintId::FanoutCsrMismatch), "{diags:?}");
}

#[test]
fn net006_asymmetric_arbiter_cone() {
    // Left cone: AND(a,b). Right cone: BUF(AND(a,b)) — one extra level.
    let m = CircuitModel {
        name: "fixture".into(),
        net_count: 5,
        gates: vec![
            CircuitGate { kind: GateKind::And2, inputs: vec![0, 1], output: 2 },
            CircuitGate { kind: GateKind::And2, inputs: vec![0, 1], output: 3 },
            CircuitGate { kind: GateKind::Buf, inputs: vec![3], output: 4 },
        ],
        primary_inputs: vec![0, 1],
        primary_outputs: vec![2, 4],
        net_names: vec![None; 5],
        csr: None,
    };
    let diags = m.arbiter_symmetry(&[(2, 4)]);
    assert_eq!(lint_set(&diags), vec![LintId::ArbiterAsymmetry], "{diags:?}");
}

// ---------------------------------------------------------------- Pass 3

fn spec(src: &str, memory_words: u32) -> ProgramSpec {
    let prog = assemble(src).expect("fixture assembles");
    ProgramSpec {
        name: "fixture".into(),
        code_words: prog.image.len() as u32,
        image: prog.image,
        memory_words,
        pointer_cells: vec![],
    }
}

#[test]
fn swp001_undecodable_word() {
    let mut s = spec("        nop\n        halt\n", 64);
    s.image.push(0xFFFF_FFFF);
    s.code_words += 1;
    let diags = verify_program(&s);
    assert!(lint_set(&diags).contains(&LintId::UndecodableInstruction), "{diags:?}");
}

#[test]
fn swp002_out_of_bounds_access() {
    let diags = verify_program(&spec("        lw r1, 63(r0)\n        halt\n", 32));
    assert!(lint_set(&diags).contains(&LintId::OutOfBoundsAccess), "{diags:?}");
}

#[test]
fn swp003_data_dependent_loop() {
    let src = "
        lw   r1, 50(r0)
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt
";
    let diags = verify_program(&spec(src, 64));
    assert!(lint_set(&diags).contains(&LintId::DataDependentLoop), "{diags:?}");
}

#[test]
fn swp004_store_into_code() {
    let diags = verify_program(&spec("        addi r1, r0, 7\n        sw r1, 0(r0)\n        halt\n", 64));
    assert!(lint_set(&diags).contains(&LintId::StoreIntoCode), "{diags:?}");
}

#[test]
fn swp005_unreachable_instruction() {
    let src = "
        jal  r0, end
        addi r1, r0, 1
end:    halt
";
    let diags = verify_program(&spec(src, 64));
    assert_eq!(lint_set(&diags), vec![LintId::UnreachableInstruction], "{diags:?}");
}

#[test]
fn swp006_indirect_jump() {
    let src = "
        addi r1, r0, 3
        jalr r0, r1
        halt
";
    let diags = verify_program(&spec(src, 64));
    assert!(lint_set(&diags).contains(&LintId::IndirectJump), "{diags:?}");
}

#[test]
fn swp007_no_reachable_halt() {
    let src = "
loop:   nop
        jal  r0, loop
";
    let diags = verify_program(&spec(src, 64));
    assert!(lint_set(&diags).contains(&LintId::NoReachableHalt), "{diags:?}");
}

#[test]
fn memory_copy_attack_program_is_not_statically_safe() {
    // The adversary's redirect checksum subtracts malware_start from a
    // masked address, losing the bound — the verifier must refuse to
    // certify it. (Its *timing* is what the protocol's δ catches; its
    // *shape* is what this pass catches.)
    let params = SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 };
    let gen = generate(
        &params,
        &CodegenOptions {
            redirect: Some(Redirection { malware_start: 100, malware_end: 116, copy_base: 600 }),
        },
    );
    let prog = assemble(&gen.source).expect("attack program assembles");
    let s = ProgramSpec::from_generated("attack", &gen, &params, &prog);
    let diags = verify_program(&s);
    assert!(lint_set(&diags).contains(&LintId::OutOfBoundsAccess), "{diags:?}");
}

// ---------------------------------------------------------------- Pass 2

#[test]
fn tnt_lints_fire_on_leaky_fixture() {
    let leaky = r#"
pub fn leak(raw_response: u32, reference: u32) -> Result<(), Error> {
    println!("response was {raw_response}");
    if raw_response == reference {
        return Ok(());
    }
    Err(Error::Mismatch(raw_response))
}

#[derive(Debug)]
pub struct Session {
    pub raw_bits: u64,
}

pub fn fragile(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    let lints: Vec<LintId> = scan_source("leaky.rs", leaky).iter().map(|d| d.lint).collect();
    for expected in [
        LintId::SecretInFormat,
        LintId::SecretComparison,
        LintId::SecretInError,
        LintId::SecretDebugImpl,
        LintId::UnpinnedPanic,
    ] {
        assert!(lints.contains(&expected), "expected {expected} in {lints:?}");
    }
}

// ---------------------------------------------------------------- Pass 4

fn conc_lints(src: &str) -> Vec<LintId> {
    conc::scan_sources(&[("fixture.rs", src)]).iter().map(|d| d.lint).collect()
}

#[test]
fn conc001_lock_order_rank_violation() {
    // pool_receiver (70) held while a service_slot (50) lock is taken:
    // backwards against the documented rank order.
    let src = "fn f(&self) {\n    let g = lock(receiver);\n    let h = lock(&self.slots[0]);\n}\n";
    assert!(conc_lints(src).contains(&LintId::LockOrderCycle), "{:?}", conc_lints(src));
}

#[test]
fn conc001_opposite_orders_across_files_flagged_in_merged_graph() {
    // File a takes slot -> receiver (ascending: fine); file b takes the
    // same pair backwards. The merged class graph pins the violation to
    // file b's inner acquisition.
    let a = "fn f(&self) {\n    let g = lock(&self.slots[0]);\n    let h = lock(receiver);\n}\n";
    let b = "fn g(&self) {\n    let g = lock(receiver);\n    let h = lock(&self.slots[0]);\n}\n";
    assert!(conc::scan_sources(&[("a.rs", a)]).is_empty(), "in-order file alone is clean");
    let diags = conc::scan_sources(&[("a.rs", a), ("b.rs", b)]);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == LintId::LockOrderCycle && d.location.starts_with("b.rs")),
        "{diags:?}"
    );
}

#[test]
fn conc002_blocking_op_under_lock() {
    let src = "fn f(&self) {\n    let g = lock(&self.tickets);\n    self.tx.send(job).ok();\n}\n";
    assert!(conc_lints(src).contains(&LintId::LockAcrossBlocking), "{:?}", conc_lints(src));
}

#[test]
fn conc003_raw_lock_unwrap() {
    let src = "fn f(&self) { let g = self.conns.lock().unwrap(); }";
    assert!(conc_lints(src).contains(&LintId::RawLockUnwrap), "{:?}", conc_lints(src));
}

#[test]
fn conc004_condvar_wait_without_loop() {
    let src = "fn f(&self) {\n    let g = self.cv.wait(guard);\n}\n";
    assert!(conc_lints(src).contains(&LintId::CondvarNoLoop), "{:?}", conc_lints(src));
}

#[test]
fn conc005_detached_thread() {
    let src = "fn f() {\n    std::thread::spawn(move || pump());\n}\n";
    assert!(conc_lints(src).contains(&LintId::DetachedThread), "{:?}", conc_lints(src));
}

#[test]
fn conc006_unknown_lock_class() {
    let src = "fn f(&self) { let g = lock(&self.mystery_box); }";
    assert!(conc_lints(src).contains(&LintId::UnknownLockClass), "{:?}", conc_lints(src));
}

// ---------------------------------------------------------------- Pass 5

fn dur_lints(src: &str) -> Vec<LintId> {
    dur::scan_source("fixture.rs", src).iter().map(|d| d.lint).collect()
}

#[test]
fn dur001_critical_record_without_fsync() {
    let src = "fn f(&self) { self.store.append_nosync(&Record::DeviceEnrolled { id }); }";
    assert!(dur_lints(src).contains(&LintId::UnsyncedCriticalRecord), "{:?}", dur_lints(src));
}

#[test]
fn dur001_critical_record_through_the_journal_helper() {
    // The fleet's group commit goes through `journal(store, record)`, not
    // a literal `append_nosync`; a critical record there is just as lost.
    let inline = "fn f(&self) { journal(&store, &Record::Meta { config_hash }).map_err(storage_err)?; }";
    assert!(dur_lints(inline).contains(&LintId::UnsyncedCriticalRecord), "{:?}", dur_lints(inline));
    let via_var = "fn f(&self) {\n    let record = Record::Meta { config_hash };\n    journal(&store, &record)?;\n}\n";
    assert!(dur_lints(via_var).contains(&LintId::UnsyncedCriticalRecord), "{:?}", dur_lints(via_var));
}

#[test]
fn dur002_rename_without_sync() {
    let src = "fn commit(&self) {\n    self.vfs.truncate(tmp, &bytes)?;\n    self.vfs.rename(tmp, path)?;\n}\n";
    assert!(dur_lints(src).contains(&LintId::RenameBeforeSync), "{:?}", dur_lints(src));
}

#[test]
fn dur003_direct_write_to_committed_path() {
    let src = "fn f(&self) {\n    self.vfs.sync(tmp)?;\n    self.vfs.rename(tmp, path)?;\n    self.vfs.append(path, &bytes)?;\n}\n";
    assert!(dur_lints(src).contains(&LintId::DirectCommitWrite), "{:?}", dur_lints(src));
}

#[test]
fn dur004_compaction_before_snapshot() {
    let src = "fn f(&self) {\n    let wal = Wal::create(vfs, &wal_path)?;\n}\n";
    assert!(dur_lints(src).contains(&LintId::CompactionBeforeSnapshot), "{:?}", dur_lints(src));
}

#[test]
fn dur005_discarded_sync_result() {
    let src = "fn f(&self) { let _ = self.store.checkpoint(); }";
    assert!(dur_lints(src).contains(&LintId::IgnoredSyncResult), "{:?}", dur_lints(src));
}

#[test]
fn dur006_sync_retried_on_poisoned_handle() {
    let retry_loop = "fn f(&self) {\n    while self.wal.sync().is_err() {\n        backoff();\n    }\n}\n";
    assert!(dur_lints(retry_loop).contains(&LintId::SyncRetriedOnPoisonedHandle), "{:?}", dur_lints(retry_loop));
    let guard = "fn f(&self) {\n    if self.wal.sync().is_err() {\n        self.wal.sync()?;\n    }\n}\n";
    assert!(dur_lints(guard).contains(&LintId::SyncRetriedOnPoisonedHandle), "{:?}", dur_lints(guard));
    // The correct recovery — reopen the handle, then sync the fresh one —
    // stays clean.
    let reopen = "fn f(&self) {\n    if self.wal.sync().is_err() {\n        self.reopen()?;\n    }\n}\n";
    assert!(dur_lints(reopen).is_empty(), "{:?}", dur_lints(reopen));
}

// ------------------------------------------------------------- clean runs

#[test]
fn shipped_netlists_are_clean() {
    for (name, config) in [
        ("paper32", AluPufConfig::paper_32bit()),
        ("fpga16", AluPufConfig::fpga_16bit()),
    ] {
        let design = AluPufDesign::new(config);
        let diags = verify_alu_puf(name, &design);
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
}

#[test]
fn shipped_checksum_programs_are_clean() {
    for params in [
        SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 },
        SwattParams { region_bits: 10, rounds: 2048, puf_interval: 32 },
        SwattParams { region_bits: 8, rounds: 192, puf_interval: 32 },
        SwattParams::default_for_region(9),
    ] {
        let gen = generate(&params, &CodegenOptions::default());
        let prog = assemble(&gen.source).expect("generated assembly assembles");
        let s = ProgramSpec::from_generated("swatt", &gen, &params, &prog);
        let diags = verify_program(&s);
        assert!(diags.is_empty(), "{params:?}: {diags:?}");
    }
}

#[test]
fn protocol_and_ecc_sources_are_clean_and_allowlist_is_pinned() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let roots = [
        manifest.join("../core/src"),
        manifest.join("../ecc/src"),
        manifest.join("../store/src"),
        manifest.join("../transport/src"),
    ];
    for root in &roots {
        assert!(root.is_dir(), "missing source root {}", root.display());
    }
    let diags = scan_paths(&roots).expect("source roots readable");
    let mut report = Report::new();
    report.extend(diags);
    assert!(report.is_clean(), "taint findings on shipped sources:\n{report}");

    // The panic allowlist is pinned: adding an unwrap/expect to a library
    // path requires either a typed error or a reviewed marker, and the
    // marker count is part of the golden contract.
    let mut markers = 0;
    for root in &roots {
        for entry in walk(root) {
            let text = std::fs::read_to_string(&entry).expect("source readable");
            markers += text.matches("analyze: allow(panic").count();
        }
    }
    // 4 in crates/core (pipeline x2, enroll, slender) + 8 in crates/ecc
    // (bch, repetition, rm, golay x2, code, table, analysis) + 0 in
    // crates/store and 0 in crates/transport (both layers return typed
    // errors everywhere — a decoder that panics on wire bytes is a DoS).
    // Update this count only together with a reviewed marker change.
    assert_eq!(markers, 12, "panic-allowlist size changed; review the new/removed markers");
}

#[test]
fn shipped_sources_pass_the_concurrency_verifier() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let roots = [
        manifest.join("../core/src"),
        manifest.join("../store/src"),
        manifest.join("../transport/src"),
        manifest.join("../fleet/src"),
    ];
    for root in &roots {
        assert!(root.is_dir(), "missing source root {}", root.display());
    }
    let diags = conc::scan_paths(&roots).expect("source roots readable");
    let mut report = Report::new();
    report.extend(diags);
    assert!(report.is_clean(), "concurrency findings on shipped sources:\n{report}");

    // Reviewed `allow(conc:)` sites are part of the golden contract —
    // each one is a deliberate, documented exception (see DESIGN.md §10):
    // 2 in fleet/service.rs (fsync-before-visibility under the slot
    // shard), 1 in fleet/pool.rs (recv on the shared receiver IS the
    // handoff), 1 in transport/server.rs (whole-frame writer lock),
    // 1 in transport/shim.rs (self-terminating chaos pump thread).
    let mut markers = 0;
    for root in &roots {
        for entry in walk(root) {
            let text = std::fs::read_to_string(&entry).expect("source readable");
            markers += text.matches("analyze: allow(conc:").count();
        }
    }
    assert_eq!(markers, 5, "conc-allowlist size changed; review the new/removed markers");
}

#[test]
fn shipped_sources_pass_the_durability_verifier() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let roots = [manifest.join("../store/src"), manifest.join("../fleet/src")];
    for root in &roots {
        assert!(root.is_dir(), "missing source root {}", root.display());
    }
    let diags = dur::scan_paths(&roots).expect("source roots readable");
    let mut report = Report::new();
    report.extend(diags);
    assert!(report.is_clean(), "durability findings on shipped sources:\n{report}");

    // 1 in store/vfs.rs (best-effort directory sync after rename), 1 in
    // fleet/service.rs (configured-fleet enrollment rides group commit on
    // purpose: resume re-derives it). The stopping committer's flush
    // marker is gone: commit_tick now degrades the failing shard and
    // counts the failure instead of discarding it.
    let mut markers = 0;
    for root in &roots {
        for entry in walk(root) {
            let text = std::fs::read_to_string(&entry).expect("source readable");
            markers += text.matches("analyze: allow(dur:").count();
        }
    }
    assert_eq!(markers, 2, "dur-allowlist size changed; review the new/removed markers");
}

fn walk(root: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(p) = stack.pop() {
        if p.is_dir() {
            for e in std::fs::read_dir(&p).expect("readable dir") {
                stack.push(e.expect("dir entry").path());
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out
}
