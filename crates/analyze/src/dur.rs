//! Pass 5 — durability-ordering verifier over `crates/store` and
//! `crates/fleet`.
//!
//! The store's crash-safety argument is a chain of *orderings*: an
//! externally-visible record is fsync'd before the state it implies
//! becomes observable; a snapshot is written to a temp file, fsync'd,
//! and only then renamed over the committed path; the WAL is truncated
//! (compacted) only after a snapshot rename has made it redundant. The
//! crash-matrix tests sample those orderings; this pass checks the
//! source for the ways they are most plausibly broken:
//!
//! * `DUR001` — an externally-visible record class (`Meta`,
//!   `DeviceEnrolled`, `DeviceReEnrolled`, `StatusChanged`) reaches a
//!   group-commit append — `append_nosync`, or the fleet's `journal`
//!   helper in front of it — so a crash can lose a decision another party
//!   already observed;
//! * `DUR002` — a `rename` whose source was never `sync`'d in the same
//!   function (the commit protocol reordered or skipped);
//! * `DUR003` — a write (`truncate`/`append`) directly targeting a path
//!   that the same function installs by rename — committed snapshots
//!   are immutable, replacements go through the temp file;
//! * `DUR004` — WAL compaction (`Wal::create`) with no earlier snapshot
//!   commit in the same function: the WAL's contents die before any
//!   snapshot covers them;
//! * `DUR005` — a sync-class result discarded with `let _ =` — an
//!   fsync error is a lost-durability event, not a hint;
//! * `DUR006` — a failed sync-class call *retried on the same handle*
//!   (`while x.sync().is_err()`, or an `is_err()` guard whose body syncs
//!   `x` again). After a failed fsync the kernel may have dropped the
//!   dirty pages, so a later "successful" sync on the same handle proves
//!   nothing (the fsyncgate failure mode) — the handle is poisoned and
//!   must be reopened, never re-synced.
//!
//! `// analyze: allow(dur: reason)` on the line (or the line above)
//! acknowledges a reviewed site. The analysis is intraprocedural and
//! line-based over comment/string-stripped source, skips `#[cfg(test)]`
//! modules, and — like the other passes — trades soundness for zero
//! dependencies and zero false positives on the shipped tree.

use crate::taint::{clean_lines, collect_rs, is_ident_char, tokens};
use crate::{Diagnostic, LintId};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Record classes whose loss is visible outside the process (campaign
/// identity, fleet membership, lifecycle/trust transitions).
const CRITICAL_RECORDS: &[&str] = &["Meta", "DeviceEnrolled", "DeviceReEnrolled", "StatusChanged"];

/// Group-commit appends: the record argument may be lost by a crash.
/// `journal(` is the fleet's free-function wrapper around the sharded
/// store's group-commit `append`.
const UNSYNCED_APPENDS: &[&str] = &[".append_nosync(", "journal("];

/// Sync-class calls whose `Result` must not be discarded.
const SYNC_CALLS: &[&str] = &[
    ".sync(",
    ".sync_all(",
    ".sync_data(",
    ".flush(",
    ".append_synced(",
    ".checkpoint(",
];

/// Last identifier of an argument expression: `&self.tmp` → `tmp`,
/// `MANIFEST_TMP` → `MANIFEST_TMP`.
fn arg_token(expr: &str) -> String {
    let cut = expr.find(['[', '(']).unwrap_or(expr.len());
    tokens(&expr[..cut])
        .map(|(_, t)| t)
        .filter(|t| !matches!(*t, "self" | "mut" | "crate"))
        .last()
        .unwrap_or("")
        .to_string()
}

/// Splits a call's argument list at top-level commas.
fn split_args(args: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in args.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(args[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(args[start..].trim());
    out
}

/// Receiver identifier of a method call at `at` (the byte offset of the
/// pattern's leading `.`): `self.wal.sync(` → `wal`, `file.sync_all(` →
/// `file`.
fn recv_token(code: &str, at: usize) -> String {
    let bytes = code.as_bytes();
    let mut start = at;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    code[start..at].to_string()
}

/// First sync-class call on the line, as `(receiver, call pattern)`.
fn sync_call_on(code: &str) -> Option<(String, &'static str)> {
    for pat in SYNC_CALLS {
        if let Some(at) = code.find(pat) {
            let recv = recv_token(code, at);
            if !recv.is_empty() {
                return Some((recv, pat));
            }
        }
    }
    None
}

/// Argument span of the call whose `(` follows `pattern` at `at`.
fn call_args<'a>(code: &'a str, at: usize, pattern: &str) -> &'a str {
    let open = at + pattern.len() - 1;
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (off, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return &code[open + 1..off];
                }
            }
            _ => {}
        }
    }
    &code[open + 1..]
}

/// Scans one file's source text.
pub fn scan_source(name: &str, source: &str) -> Vec<Diagnostic> {
    let cleaned = clean_lines(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();

    let mut depth: i32 = 0;
    let mut skip_exit: Option<i32> = None;
    let mut cfg_test_pending = false;

    // Per-function state, reset at each `fn` item.
    let mut fn_name = String::new();
    let mut synced: BTreeSet<String> = BTreeSet::new();
    let mut renamed_to: BTreeSet<String> = BTreeSet::new();
    let mut critical_vars: BTreeSet<String> = BTreeSet::new();
    let mut snapshot_committed = false;
    // Active `if <recv>.<sync>().is_err()` guard: receiver and the depth
    // to drop back to when its block closes.
    let mut retry_guard: Option<(String, i32)> = None;

    for (idx, clean) in cleaned.iter().enumerate() {
        let lineno = idx + 1;
        let code = clean.code.as_str();
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        let prev = if idx > 0 { raw_lines[idx - 1] } else { "" };
        let allow = raw.contains("analyze: allow(dur") || prev.contains("analyze: allow(dur");
        let loc = format!("{name}:{lineno}");
        let trimmed = code.trim();

        let depth_before = depth;
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }

        // ---- test-module skipping -------------------------------------
        if let Some(exit) = skip_exit {
            if depth <= exit {
                skip_exit = None;
            }
            continue;
        }
        if trimmed.contains("#[cfg(test)]") {
            cfg_test_pending = true;
        }
        if cfg_test_pending && !trimmed.is_empty() && !trimmed.contains("#[cfg(test)]") && !trimmed.starts_with("#[") {
            cfg_test_pending = false;
            if depth > depth_before {
                skip_exit = Some(depth_before);
            }
            continue;
        }

        // ---- function boundary: reset intraprocedural state -----------
        if let Some(fpos) = code.find("fn ") {
            let legit = fpos == 0 || !is_ident_char(code.as_bytes()[fpos - 1] as char);
            if legit {
                let after = &code[fpos + 3..];
                let end = after.find(|c: char| !is_ident_char(c)).unwrap_or(after.len());
                fn_name = after[..end].to_string();
                synced.clear();
                renamed_to.clear();
                critical_vars.clear();
                snapshot_committed = false;
                retry_guard = None;
            }
        }

        // ---- track critical-record bindings ---------------------------
        if trimmed.starts_with("let ") {
            if let Some(eq) = code.find('=') {
                let rhs = &code[eq + 1..];
                if CRITICAL_RECORDS.iter().any(|r| rhs.contains(&format!("Record::{r}"))) {
                    let lhs = code[..eq].trim().trim_start_matches("let ").trim_start_matches("mut ").trim();
                    let end = lhs.find(|c: char| !is_ident_char(c)).unwrap_or(lhs.len());
                    if end > 0 {
                        critical_vars.insert(lhs[..end].to_string());
                    }
                }
            }
        }

        // ---- DUR001: critical record reaches a group-commit append -----
        for pat in UNSYNCED_APPENDS {
            let mut search = 0;
            while let Some(rel) = code[search..].find(pat) {
                let at = search + rel;
                search = at + pat.len();
                // `journal(` must be the whole name, not `with_journal(`.
                if !pat.starts_with('.') && at > 0 && is_ident_char(code.as_bytes()[at - 1] as char) {
                    continue;
                }
                let args = call_args(code, at, pat);
                let inline = CRITICAL_RECORDS.iter().find(|r| args.contains(&format!("Record::{r}")));
                let via_var = tokens(args).map(|(_, t)| t).find(|t| critical_vars.contains(*t));
                let Some(class) = inline.map(|r| (*r).to_string()).or_else(|| via_var.map(String::from)) else {
                    continue;
                };
                if !allow {
                    let call = pat.trim_matches(['.', '(']);
                    out.push(
                        Diagnostic::new(
                            LintId::UnsyncedCriticalRecord,
                            loc.clone(),
                            format!("externally-visible record `{class}` is appended without fsync (`{call}`)"),
                            "route it through `append_synced` so the decision survives a crash",
                        )
                        .with_classes(vec![class]),
                    );
                }
            }
        }

        // ---- sync/rename protocol tracking ----------------------------
        let mut search = 0;
        while let Some(rel) = code[search..].find(".sync(") {
            let at = search + rel;
            search = at + 6;
            let args = call_args(code, at, ".sync(");
            let tok = arg_token(split_args(args).first().copied().unwrap_or(""));
            if !tok.is_empty() {
                synced.insert(tok);
            }
        }

        let mut search = 0;
        while let Some(rel) = code[search..].find("rename(") {
            let at = search + rel;
            search = at + 7;
            let before = code[..at].chars().next_back();
            if matches!(before, Some(c) if is_ident_char(c)) {
                continue; // part of a longer identifier
            }
            // A `fn rename(..)` signature or the vfs primitive's own body
            // is the protocol's implementation, not a use of it.
            if code[..at].contains("fn ") || fn_name == "rename" {
                continue;
            }
            let parts_owned = call_args(code, at, "rename(").to_string();
            let parts = split_args(&parts_owned);
            let from = arg_token(parts.first().copied().unwrap_or(""));
            let to = arg_token(parts.get(1).copied().unwrap_or(""));
            if !from.is_empty() && !synced.contains(&from) && !allow {
                out.push(
                    Diagnostic::new(
                        LintId::RenameBeforeSync,
                        loc.clone(),
                        format!("`{from}` is renamed into place without an fsync in this function"),
                        "follow the commit protocol: write temp, `sync` it, then `rename`",
                    )
                    .with_classes(vec![from.clone()]),
                );
            }
            if !to.is_empty() {
                renamed_to.insert(to);
            }
            snapshot_committed = true;
        }

        if code.contains("write_snapshot(") {
            snapshot_committed = true;
        }

        // ---- DUR003: direct write to a committed path -----------------
        for pat in [".truncate(", ".append("] {
            let mut search = 0;
            while let Some(rel) = code[search..].find(pat) {
                let at = search + rel;
                search = at + pat.len();
                if pat == ".append(" && code[at..].starts_with(".append_") {
                    continue;
                }
                let args = call_args(code, at, pat);
                let tok = arg_token(split_args(args).first().copied().unwrap_or(""));
                if !tok.is_empty() && renamed_to.contains(&tok) && !allow {
                    out.push(
                        Diagnostic::new(
                            LintId::DirectCommitWrite,
                            loc.clone(),
                            format!("direct write to `{tok}`, a path this function installs by rename"),
                            "committed files are immutable; write a temp file and rename it over",
                        )
                        .with_classes(vec![tok.clone()]),
                    );
                }
            }
        }

        // ---- DUR004: WAL compaction before any snapshot commit --------
        if code.contains("Wal::create(") && !snapshot_committed && !allow {
            out.push(Diagnostic::new(
                LintId::CompactionBeforeSnapshot,
                loc.clone(),
                "WAL compaction (`Wal::create`) with no earlier snapshot commit in this function",
                "write and rename the snapshot first; only then is the WAL redundant",
            ));
        }

        // ---- DUR006: failed sync retried on the same handle -----------
        // Expire the guard once its block has closed (`}` also covers the
        // `} else {` line — the else branch is the *failure* path, not a
        // retry site).
        if matches!(retry_guard, Some((_, exit)) if depth_before <= exit || trimmed.starts_with('}')) {
            retry_guard = None;
        }
        if let Some((recv, pat)) = sync_call_on(code) {
            let call = pat.trim_matches(['.', '(']);
            let retry_while = trimmed.starts_with("while ") && code.contains(".is_err()");
            let retry_in_guard = matches!(&retry_guard, Some((g, _)) if *g == recv);
            if (retry_while || retry_in_guard) && !allow {
                out.push(
                    Diagnostic::new(
                        LintId::SyncRetriedOnPoisonedHandle,
                        loc.clone(),
                        format!("failed `{recv}.{call}()` is retried on the same handle"),
                        "a failed fsync may have dropped the dirty pages (fsyncgate); \
                         reopen and rewrite instead of re-syncing",
                    )
                    .with_classes(vec![recv.clone()]),
                );
            }
            if trimmed.starts_with("if ") && code.contains(".is_err()") && depth > depth_before {
                retry_guard = Some((recv, depth_before));
            }
        }

        // ---- DUR005: discarded sync-class results ---------------------
        if let Some(dpos) = code.find("let _ =").or_else(|| code.find("let _:")) {
            if let Some(call) = SYNC_CALLS.iter().find(|p| code[dpos..].contains(**p)) {
                if !allow {
                    out.push(Diagnostic::new(
                        LintId::IgnoredSyncResult,
                        loc.clone(),
                        format!("sync-class result (`{}`) discarded with `let _ =`", call.trim_matches(['.', '('])),
                        "propagate or handle the error; a failed fsync is lost durability",
                    ));
                }
            }
        }
    }
    out
}

/// Scans a set of in-memory sources (used by the golden tests).
pub fn scan_sources(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    files.iter().flat_map(|(name, source)| scan_source(name, source)).collect()
}

/// Recursively scans every `.rs` file under the given roots.
pub fn scan_paths(roots: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs(root, &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let source = fs::read_to_string(&f)?;
        out.extend(scan_source(&f.display().to_string(), &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints(src: &str) -> Vec<LintId> {
        scan_source("fixture.rs", src).into_iter().map(|d| d.lint).collect()
    }

    #[test]
    fn critical_record_to_append_nosync_is_flagged_inline_and_via_binding() {
        let inline = "fn f(&self) { self.store.append_nosync(&Record::DeviceReEnrolled { id }); }";
        assert_eq!(lints(inline), vec![LintId::UnsyncedCriticalRecord]);
        let via_var = "fn f(&self) {\n    let rec = Record::StatusChanged { id, status };\n    self.store.append_nosync(&rec);\n}\n";
        assert_eq!(lints(via_var), vec![LintId::UnsyncedCriticalRecord]);
        // Synced appends and non-critical records are clean.
        assert!(lints("fn f(&self) { self.store.append_synced(&Record::Meta { h }); }").is_empty());
        assert!(lints("fn f(&self) { self.store.append_nosync(&Record::SessionClosed { id }); }").is_empty());
    }

    #[test]
    fn critical_record_to_journal_is_flagged_inline_and_via_binding() {
        let inline = "fn f(&self) { journal(&store, &Record::Meta { h }); }";
        assert_eq!(lints(inline), vec![LintId::UnsyncedCriticalRecord]);
        let via_var =
            "fn f(&self) {\n    let record = Record::DeviceEnrolled { id };\n    journal(store, &record)?;\n}\n";
        assert_eq!(lints(via_var), vec![LintId::UnsyncedCriticalRecord]);
        // Session records, a forwarded parameter, and longer names that
        // end in `journal` are clean.
        assert!(lints("fn f(&self) { let _ = journal(store, &Record::SessionClosed { id }); }").is_empty());
        assert!(lints("fn f(&self, record: &Record) { let _ = journal(store, record); }").is_empty());
        assert!(lints("fn f(&self) { FleetService::with_journal(cfg, Record::Meta { h }); }").is_empty());
    }

    #[test]
    fn rename_without_sync_is_flagged() {
        let bad = "fn commit(&self) {\n    self.vfs.truncate(tmp, &bytes)?;\n    self.vfs.rename(tmp, path)?;\n}\n";
        assert_eq!(lints(bad), vec![LintId::RenameBeforeSync]);
        let good = "fn commit(&self) {\n    self.vfs.truncate(tmp, &bytes)?;\n    self.vfs.sync(tmp)?;\n    self.vfs.rename(tmp, path)?;\n}\n";
        assert!(lints(good).is_empty());
        // The vfs primitive's own implementation is not a protocol use.
        let primitive = "fn rename(&self, from: &str, to: &str) -> Result<(), StoreError> {\n    fs::rename(self.abs(from), self.abs(to))\n}\n";
        assert!(lints(primitive).is_empty());
    }

    #[test]
    fn direct_write_to_committed_path_is_flagged() {
        let bad = "fn f(&self) {\n    self.vfs.sync(tmp)?;\n    self.vfs.rename(tmp, path)?;\n    self.vfs.truncate(path, &bytes)?;\n}\n";
        assert_eq!(lints(bad), vec![LintId::DirectCommitWrite]);
        let good = "fn f(&self) {\n    self.vfs.sync(tmp)?;\n    self.vfs.rename(tmp, path)?;\n    self.vfs.truncate(tmp, &bytes)?;\n}\n";
        assert!(lints(good).is_empty());
    }

    #[test]
    fn compaction_requires_a_prior_snapshot_commit() {
        let bad = "fn f(&self) {\n    let wal = Wal::create(vfs, &wal_path)?;\n}\n";
        assert_eq!(lints(bad), vec![LintId::CompactionBeforeSnapshot]);
        let good = "fn f(&self) {\n    write_snapshot(&*vfs, &state, &tmp, &path)?;\n    let wal = Wal::create(vfs, &wal_path)?;\n}\n";
        assert!(lints(good).is_empty());
    }

    #[test]
    fn discarded_sync_results_are_flagged_and_pins_respected() {
        assert_eq!(lints("fn f(&self) { let _ = self.store.flush(); }"), vec![LintId::IgnoredSyncResult]);
        assert_eq!(lints("fn f(&self) { let _ = file.sync_all(); }"), vec![LintId::IgnoredSyncResult]);
        assert!(lints("fn f(&self) { let _ = self.store.flush(); // analyze: allow(dur: shutdown path)\n}").is_empty());
        assert!(lints("fn f(&self) { self.store.flush()?; }").is_empty());
    }

    #[test]
    fn sync_retry_on_the_same_handle_is_flagged() {
        let while_loop = "fn f(&self) {\n    while self.wal.sync().is_err() {\n        backoff();\n    }\n}\n";
        assert_eq!(lints(while_loop), vec![LintId::SyncRetriedOnPoisonedHandle]);
        let guard = "fn f(&self) {\n    if self.wal.sync().is_err() {\n        self.wal.sync()?;\n    }\n}\n";
        assert_eq!(lints(guard), vec![LintId::SyncRetriedOnPoisonedHandle]);
        // Reopening (or syncing a different handle) is the correct recovery.
        let reopen = "fn f(&self) {\n    if self.wal.sync().is_err() {\n        self.reopen()?;\n        self.journal.sync()?;\n    }\n}\n";
        assert!(lints(reopen).is_empty());
        // A sync after the guard's block has closed is a fresh operation.
        let after = "fn f(&self) {\n    if self.wal.sync().is_err() {\n        return Err(e);\n    }\n    self.wal.sync()?;\n}\n";
        assert!(lints(after).is_empty());
        let pinned =
            "fn f(&self) {\n    // analyze: allow(dur: bounded retry against a remounted fs)\n    while self.wal.sync().is_err() {}\n}\n";
        assert!(lints(pinned).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(&self) { let _ = s.flush(); }\n}\n";
        assert!(lints(src).is_empty());
    }
}
