//! Pass 4 — concurrency verifier over the fleet/transport/store/core
//! sources.
//!
//! PRs 6–8 made the reproduction genuinely concurrent: a campaign worker
//! pool, a background group-commit thread, a socket server whose handler
//! threads share a connection map and the fleet's slot shards. The deadlock- and
//! stall-freedom arguments for that code live in module docs; this pass
//! turns them into checked facts. It extracts a *lock-acquisition graph*
//! from the sources — every `sync::lock` / `sync::lock_ranked` wrapper
//! call, every inline poison-tolerant `.lock().unwrap_or_else(..)`,
//! resolved to a named **lock class** (see [`RANKS`]) — and lints:
//!
//! * `CONC001` — a cycle in the class graph, or an acquisition edge that
//!   contradicts the documented rank order (potential deadlock);
//! * `CONC002` — a lock held across a blocking operation (channel
//!   send/recv, fsync, socket I/O, `JoinHandle::join`, bounded-queue
//!   submit); `// analyze: allow(conc: reason)` acknowledges a reviewed
//!   site;
//! * `CONC003` — a raw `.lock().unwrap()` / `.expect()` (or any raw
//!   `.lock()` not immediately recovered with `unwrap_or_else`)
//!   bypassing the poison-tolerant wrapper;
//! * `CONC004` — `Condvar::wait`/`wait_timeout` outside a loop (misses
//!   spurious wakeups);
//! * `CONC005` — a spawned thread whose `JoinHandle` is discarded, so no
//!   join/drain path exists;
//! * `CONC006` — a lock site whose class cannot be resolved (warning:
//!   the graph is only as good as its node set).
//!
//! The rank order here is the *same table* the runtime witness in
//! `pufatt-fleet`'s `sync::rank` asserts under `debug_assertions`; the
//! static and dynamic orderings are pinned against each other by unit
//! tests on both sides. Like the taint pass this is a line-based lint,
//! not a proof: it works on comment/string-stripped source, skips
//! `#[cfg(test)]` modules, and trades soundness for zero dependencies
//! and zero false positives on the shipped tree.

use crate::taint::{clean_lines, collect_rs, is_ident_char, tokens};
use crate::{Diagnostic, LintId};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::PathBuf;

/// The documented lock classes and their acquisition ranks. A thread may
/// only acquire a lock whose rank is *strictly greater* than every lock
/// it already holds. The first four classes (ranks 10–70) are enforced
/// at runtime by `pufatt-fleet`'s `sync::rank` witness; the store/core
/// classes cannot use that witness (the dependency points the other way)
/// so they are documented here and checked statically only.
pub const RANKS: &[(&str, u32)] = &[
    ("server_conns", 10),
    ("handler_handles", 20),
    ("service_slot", 50),
    ("pool_receiver", 70),
    ("store_inner", 80),
    ("vfs_handles", 90),
    ("vfs_state", 95),
    ("crp_cache", 100),
    ("device_puf", 105),
    ("shim_budget", 110),
];

/// Maps the receiver/argument token at a lock site to its class. `""`
/// means "generic wrapper parameter" (the `m` of the `sync::lock`
/// helpers themselves) which participates in no ordering.
const CLASS_MAP: &[(&str, &str)] = &[
    ("conns", "server_conns"),
    ("handler_handles", "handler_handles"),
    ("slots", "service_slot"),
    ("receiver", "pool_receiver"),
    ("inner", "store_inner"),
    ("handles", "vfs_handles"),
    ("state", "vfs_state"),
    ("cache", "crp_cache"),
    // `SharedDevicePuf` is a newtype; its lock is tuple field `.0`.
    ("0", "device_puf"),
    ("budget", "shim_budget"),
    // Generic parameter names of the poison-tolerant wrapper fns
    // themselves: they alias every class, so they belong to none.
    ("m", ""),
    ("mutex", ""),
];

/// Leaf I/O classes whose entire purpose is to serialize a blocking
/// commit path (the durable store's mutex *is* the commit ordering
/// point). They are exempt from `CONC002` but still feed the cycle and
/// rank analysis, so an ordering regression against them is caught.
const BLOCKING_EXEMPT: &[&str] = &["store_inner", "vfs_handles", "vfs_state"];

/// Operations that can block the calling thread for an unbounded or
/// I/O-scale time.
const BLOCKING_OPS: &[(&str, &str)] = &[
    (".send(", "channel/socket send"),
    (".recv(", "channel recv"),
    (".recv_timeout(", "channel recv"),
    (".join()", "thread join"),
    (".sync(", "fsync"),
    (".sync_all(", "fsync"),
    (".sync_data(", "fsync"),
    (".append_synced(", "synced append (fsync)"),
    (".flush(", "flush/fsync"),
    (".checkpoint(", "checkpoint (fsync)"),
    ("write_frame(", "socket write"),
    ("read_frame(", "socket read"),
    (".accept(", "socket accept"),
    ("thread::sleep", "sleep"),
    (".submit(", "bounded-queue submit"),
];

/// Interprocedural summaries: a method call through one of these
/// receivers momentarily acquires the named class inside the callee.
/// This small table is what lets the pass see `service.enroll(..)` under
/// a connection-map guard as a `server_conns -> service_slot` edge
/// without whole-program analysis.
const CALL_SUMMARIES: &[(&str, &str)] = &[
    ("service.", "service_slot"),
    ("store.", "store_inner"),
    ("journal.", "store_inner"),
];

/// A directed acquisition edge between two lock classes: `from` was held
/// while `to` was acquired at `location`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// The class already held.
    pub from: String,
    /// The class acquired under it.
    pub to: String,
    /// `file:line` of the inner acquisition.
    pub location: String,
}

/// Per-file scan result: local diagnostics plus the acquisition edges
/// this file contributes to the global class graph.
#[derive(Debug, Default)]
pub struct FileScan {
    /// CONC002–CONC006 findings local to the file.
    pub diagnostics: Vec<Diagnostic>,
    /// Acquisition edges for the cross-file CONC001 graph check.
    pub edges: Vec<LockEdge>,
}

fn rank_of(class: &str) -> Option<u32> {
    RANKS.iter().find(|(c, _)| *c == class).map(|&(_, r)| r)
}

fn map_class(token: &str) -> Option<&'static str> {
    CLASS_MAP.iter().find(|(t, _)| *t == token).map(|&(_, c)| c)
}

/// How long an acquisition's guard lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardKind {
    /// `let g = lock(..);` — lives to the end of the enclosing block.
    Let,
    /// Acquired in a `for`/`if`/`while`/`match` header (or any line that
    /// opens a brace) — lives to the matching close brace. This matches
    /// Rust's temporary-lifetime rule for scrutinees and loop headers.
    Header,
    /// A statement temporary — lives to the next `;` on its line.
    Temp,
    /// A summarized callee acquisition — held only inside the call.
    Momentary,
}

/// One lock acquisition found on a line.
struct Acquisition {
    col: usize,
    class: Option<String>,
    kind: GuardKind,
    raw_token: String,
}

/// A guard known to be live across lines.
struct Held {
    class: Option<String>,
    name: Option<String>,
    /// Dies when the brace depth after a line drops below this.
    min_depth: i32,
    location: String,
}

/// Last identifier segment of a lock-site expression: `&self.slots[..]`
/// → `slots`, `self.shard(id)` → `shard`, `receiver` → `receiver`.
fn expr_token(expr: &str) -> String {
    let expr = expr
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches('*');
    let cut = expr.find(['[', '(']).unwrap_or(expr.len());
    tokens(&expr[..cut])
        .map(|(_, t)| t)
        .filter(|t| !matches!(*t, "self" | "crate" | "mut" | "sync"))
        .last()
        .unwrap_or("")
        .to_string()
}

/// Identifier immediately left of byte offset `at` (receiver of a `.`
/// call): for `self.0.lock()` with `at` on the final `.`, yields `0`.
fn receiver_token(code: &str, at: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = at;
    while i > 0 && is_ident_char(bytes[i - 1] as char) {
        i -= 1;
    }
    code[i..at].to_string()
}

/// Byte offset of the `)` matching the `(` at `open`, if it is on this
/// line.
fn paren_close(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (off, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(off);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the parenthesized argument span starting at `open` (the
/// byte offset of `(`), staying on one line.
fn paren_arg(code: &str, open: usize) -> &str {
    match paren_close(code, open) {
        Some(close) => &code[open + 1..close],
        None => &code[open + 1..],
    }
}

/// Refines the line-level guard kind for one acquisition: on a `let`
/// line the guard is only block-scoped if the lock call is the whole
/// right-hand side (`let g = lock(x);`); a trailing method chain
/// (`let n = lock(x).len();`) makes it a statement temporary.
fn kind_at(code: &str, close: Option<usize>, outer: GuardKind) -> GuardKind {
    if outer != GuardKind::Let {
        return outer;
    }
    match close {
        Some(c) => {
            let rest = code[c + 1..].trim_start();
            if rest.is_empty() || rest.starts_with(';') || rest.starts_with('?') {
                GuardKind::Let
            } else {
                GuardKind::Temp
            }
        }
        None => GuardKind::Let,
    }
}

/// Scans one file, producing local diagnostics and acquisition edges.
pub fn scan_source(name: &str, source: &str) -> FileScan {
    let cleaned = clean_lines(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut out = FileScan::default();

    let mut depth: i32 = 0;
    let mut skip_exit: Option<i32> = None;
    let mut cfg_test_pending = false;
    let mut held: Vec<Held> = Vec::new();
    let mut loop_stack: Vec<i32> = Vec::new();
    // Head of the current statement, for spawn-binding and let checks on
    // continuation lines of a builder chain.
    let mut stmt_head = String::new();
    let mut new_stmt = true;

    for (idx, clean) in cleaned.iter().enumerate() {
        let lineno = idx + 1;
        let code = clean.code.as_str();
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        let prev = if idx > 0 { raw_lines[idx - 1] } else { "" };
        let allow = raw.contains("analyze: allow(conc") || prev.contains("analyze: allow(conc");
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

        // ---- test-module skipping (same protocol as the taint pass) ---
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

        if new_stmt && !trimmed.is_empty() {
            stmt_head = trimmed.to_string();
        }
        let head = stmt_head.as_str();
        new_stmt = trimmed.is_empty()
            || trimmed.ends_with(';')
            || trimmed.ends_with('{')
            || trimmed.ends_with('}')
            || trimmed.ends_with(']')
            || trimmed.ends_with(',');

        let net_open = depth > depth_before;
        let is_let = head.starts_with("let ");
        let let_name = if is_let {
            let rest = head[4..].trim_start().trim_start_matches("mut ").trim_start();
            let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
            Some(rest[..end].to_string()).filter(|n| !n.is_empty() && n != "_")
        } else {
            None
        };

        // ---- loop tracking for CONC004 --------------------------------
        if net_open
            && (trimmed.starts_with("while ")
                || trimmed.starts_with("for ")
                || trimmed.starts_with("loop")
                || trimmed.contains(" while ")
                || trimmed.contains(" loop {"))
        {
            loop_stack.push(depth_before);
        }

        // ---- collect this line's acquisitions -------------------------
        let outer_kind = if net_open {
            GuardKind::Header
        } else if let_name.is_some() {
            GuardKind::Let
        } else {
            GuardKind::Temp
        };
        let mut acquisitions: Vec<Acquisition> = Vec::new();

        // `lock(expr)` / `sync::lock(expr)` wrapper calls.
        let mut search = 0;
        while let Some(rel) = code[search..].find("lock(") {
            let at = search + rel;
            search = at + 5;
            let before = code[..at].chars().next_back();
            if matches!(before, Some(c) if is_ident_char(c) || c == '.') {
                continue; // `.lock(` or part of a longer identifier
            }
            let token = expr_token(paren_arg(code, at + 4));
            acquisitions.push(Acquisition {
                col: at,
                class: map_class(&token).map(String::from).filter(|c| !c.is_empty()),
                kind: kind_at(code, paren_close(code, at + 4), outer_kind),
                raw_token: token,
            });
        }

        // `lock_ranked(expr, rank::CLASS)` wrapper calls: the class is
        // named by the rank constant, so resolution cannot drift from
        // the runtime witness.
        let mut search = 0;
        while let Some(rel) = code[search..].find("lock_ranked(") {
            let at = search + rel;
            search = at + 12;
            let token = code[at..].find("rank::").map_or(String::new(), |r| {
                let after = &code[at + r + 6..];
                let end = after.find(|c: char| !is_ident_char(c)).unwrap_or(after.len());
                after[..end].to_lowercase()
            });
            let known = rank_of(&token).is_some();
            acquisitions.push(Acquisition {
                col: at,
                class: Some(token.clone()).filter(|_| known),
                kind: kind_at(code, paren_close(code, at + 11), outer_kind),
                raw_token: token,
            });
        }

        // Raw `.lock()` sites: poison-tolerant `unwrap_or_else` is an
        // acquisition; anything else bypasses the wrapper (CONC003).
        let mut search = 0;
        while let Some(rel) = code[search..].find(".lock()") {
            let at = search + rel;
            search = at + 7;
            let after = &code[at + 7..];
            if after.starts_with(".unwrap_or_else(") {
                let token = receiver_token(code, at);
                acquisitions.push(Acquisition {
                    col: at,
                    class: map_class(&token).map(String::from).filter(|c| !c.is_empty()),
                    kind: kind_at(code, paren_close(code, at + 7 + 15), outer_kind),
                    raw_token: token,
                });
            } else if !allow {
                out.diagnostics.push(Diagnostic::new(
                    LintId::RawLockUnwrap,
                    loc.clone(),
                    "raw `.lock()` bypasses the poison-tolerant `sync::lock` wrapper",
                    "use `sync::lock`/`sync::lock_ranked`, or `.unwrap_or_else(|e| e.into_inner())`",
                ));
            }
        }

        // Summarized callee acquisitions (momentary).
        for &(pattern, class) in CALL_SUMMARIES {
            let mut search = 0;
            while let Some(rel) = code[search..].find(pattern) {
                let at = search + rel;
                search = at + pattern.len();
                // Require `recv.method(` shape so field mentions and
                // `Arc::clone(&x.store)` do not count as calls.
                let after = &code[at + pattern.len()..];
                let end = after.find(|c: char| !is_ident_char(c)).unwrap_or(after.len());
                if end == 0 || !after[end..].starts_with('(') {
                    continue;
                }
                acquisitions.push(Acquisition {
                    col: at,
                    class: Some(class.to_string()),
                    kind: GuardKind::Momentary,
                    raw_token: pattern.trim_end_matches('.').to_string(),
                });
            }
        }
        acquisitions.sort_by_key(|a| a.col);

        // ---- CONC006 + edges ------------------------------------------
        for acq in &acquisitions {
            if acq.class.is_none()
                && acq.kind != GuardKind::Momentary
                && !acq.raw_token.is_empty()
                && !allow
                && map_class(&acq.raw_token) != Some("")
            {
                out.diagnostics.push(
                    Diagnostic::new(
                        LintId::UnknownLockClass,
                        loc.clone(),
                        format!("lock site `{}` resolves to no documented lock class", acq.raw_token),
                        "add the class to the rank table (analyze `conc::RANKS` + `fleet::sync::rank`)",
                    )
                    .with_classes(vec![acq.raw_token.clone()]),
                );
            }
            if let Some(to) = &acq.class {
                for h in held.iter().filter(|h| h.class.is_some()) {
                    let from = h.class.clone().unwrap_or_default();
                    if from != *to {
                        out.edges.push(LockEdge { from, to: to.clone(), location: loc.clone() });
                    }
                }
                // Same-line nesting: a Header/Let acquired earlier on
                // this line is held for later acquisitions.
                for prior in acquisitions.iter().filter(|p| p.col < acq.col) {
                    if matches!(prior.kind, GuardKind::Header | GuardKind::Let) {
                        if let Some(from) = &prior.class {
                            if from != to {
                                out.edges
                                    .push(LockEdge { from: from.clone(), to: to.clone(), location: loc.clone() });
                            }
                        }
                    }
                }
            }
        }

        // ---- CONC002: blocking ops under a lock -----------------------
        for &(op, what) in BLOCKING_OPS {
            let mut search = 0;
            while let Some(rel) = code[search..].find(op) {
                let at = search + rel;
                search = at + op.len();
                let mut offenders: Vec<(String, String)> = held
                    .iter()
                    .filter(|h| !h.class.as_deref().is_some_and(|c| BLOCKING_EXEMPT.contains(&c)))
                    .map(|h| (h.class.clone().unwrap_or_else(|| "?".into()), h.location.clone()))
                    .collect();
                for acq in &acquisitions {
                    if acq.col >= at || acq.kind == GuardKind::Momentary {
                        continue;
                    }
                    // A statement temporary only pins the op if no `;`
                    // separates them.
                    if acq.kind == GuardKind::Temp && code[acq.col..at].contains(';') {
                        continue;
                    }
                    if acq.class.as_deref().is_some_and(|c| BLOCKING_EXEMPT.contains(&c)) {
                        continue;
                    }
                    offenders.push((acq.class.clone().unwrap_or_else(|| "?".into()), loc.clone()));
                }
                if let Some((class, where_held)) = offenders.first() {
                    if !allow {
                        out.diagnostics.push(
                            Diagnostic::new(
                                LintId::LockAcrossBlocking,
                                loc.clone(),
                                format!("lock `{class}` (held since {where_held}) is held across {what} `{op}`"),
                                "release the lock before blocking, or pin a reviewed site with `// analyze: allow(conc: ...)`",
                            )
                            .with_classes(vec![class.clone()]),
                        );
                    }
                }
            }
        }

        // ---- CONC004: condvar wait outside a loop ---------------------
        for pat in [".wait(", ".wait_timeout("] {
            if code.contains(pat) && loop_stack.is_empty() && !allow {
                out.diagnostics.push(Diagnostic::new(
                    LintId::CondvarNoLoop,
                    loc.clone(),
                    "Condvar wait without an enclosing re-check loop (spurious wakeups)",
                    "wrap the wait in `while !condition { .. }`",
                ));
            }
        }

        // ---- CONC005: detached spawn ----------------------------------
        if (code.contains("thread::spawn(") || code.contains(".spawn(")) && !allow {
            let spawn_at = code.find("thread::spawn(").or_else(|| code.find(".spawn(")).unwrap_or(0);
            // The spawn's own statement head: after the last `{`/`;` on
            // this line before the spawn, else the multi-line head.
            let local = code[..spawn_at]
                .rfind(['{', ';'])
                .map(|p| code[p + 1..].trim_start())
                .filter(|h| !h.is_empty());
            let head = local.unwrap_or(head);
            let discarded = head.starts_with("let _ =")
                || head.starts_with("let _:")
                || head.starts_with("thread::spawn")
                || head.starts_with("std::thread::spawn")
                || head.starts_with("drop(");
            if discarded {
                out.diagnostics.push(Diagnostic::new(
                    LintId::DetachedThread,
                    loc.clone(),
                    "spawned thread's JoinHandle is discarded: no join/drain path",
                    "bind the handle and join it on shutdown, or pin with `// analyze: allow(conc: ...)`",
                ));
            }
        }

        // ---- guard lifetime upkeep ------------------------------------
        if let Some(dpos) = code.find("drop(") {
            let dropped = expr_token(paren_arg(code, dpos + 4));
            held.retain(|h| h.name.as_deref() != Some(dropped.as_str()));
        }
        for acq in acquisitions {
            match acq.kind {
                GuardKind::Let => held.push(Held {
                    class: acq.class,
                    name: let_name.clone(),
                    min_depth: depth_before,
                    location: loc.clone(),
                }),
                GuardKind::Header => held.push(Held {
                    class: acq.class,
                    name: None,
                    min_depth: depth_before + 1,
                    location: loc.clone(),
                }),
                GuardKind::Temp | GuardKind::Momentary => {}
            }
        }
        held.retain(|h| depth >= h.min_depth);
        while loop_stack.last().is_some_and(|&top| depth <= top) {
            loop_stack.pop();
        }
    }
    out
}

/// Cross-file graph analysis: lock-order cycles and rank-order
/// violations over the accumulated acquisition edges.
pub fn graph_check(edges: &[LockEdge]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Dedup edges, keeping the first location seen for each class pair.
    let mut by_pair: BTreeMap<(String, String), String> = BTreeMap::new();
    for e in edges {
        by_pair
            .entry((e.from.clone(), e.to.clone()))
            .or_insert_with(|| e.location.clone());
    }

    // Rank-order violations (covers every 2-cycle as well).
    for ((from, to), loc) in &by_pair {
        if let (Some(rf), Some(rt)) = (rank_of(from), rank_of(to)) {
            if rf >= rt {
                out.push(
                    Diagnostic::new(
                        LintId::LockOrderCycle,
                        loc.clone(),
                        format!("`{to}` (rank {rt}) acquired while holding `{from}` (rank {rf}): violates the documented rank order"),
                        "acquire locks in ascending rank order (DESIGN.md lock-class table), or re-rank the classes",
                    )
                    .with_classes(vec![from.clone(), to.clone()]),
                );
            }
        }
    }

    // General cycle detection, for classes outside the rank table.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in by_pair.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        let mut path: Vec<&str> = vec![start];
        let mut stack: Vec<Vec<&str>> = vec![adj.get(start).cloned().unwrap_or_default()];
        while let Some(frame) = stack.last_mut() {
            let Some(next) = frame.pop() else {
                path.pop();
                stack.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|&n| n == next) {
                let mut cycle: Vec<String> = path[pos..].iter().map(|s| (*s).to_string()).collect();
                let display = cycle.clone();
                cycle.sort();
                // Rank violations above already cover ranked cycles.
                let all_ranked = display.iter().all(|c| rank_of(c).is_some());
                if reported.insert(cycle) && !all_ranked {
                    let loc = by_pair
                        .get(&(display[0].clone(), display.get(1).cloned().unwrap_or_else(|| display[0].clone())))
                        .cloned()
                        .unwrap_or_default();
                    out.push(
                        Diagnostic::new(
                            LintId::LockOrderCycle,
                            loc,
                            format!("lock-order cycle between classes: {}", display.join(" -> ")),
                            "break the cycle by fixing one acquisition order",
                        )
                        .with_classes(display),
                    );
                }
                continue;
            }
            if path.len() > 32 {
                continue; // defensive bound; class graphs are tiny
            }
            path.push(next);
            stack.push(adj.get(next).cloned().unwrap_or_default());
        }
    }
    out
}

/// Scans a set of in-memory sources (used by the golden tests).
pub fn scan_sources(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut edges = Vec::new();
    for (name, source) in files {
        let scan = scan_source(name, source);
        diags.extend(scan.diagnostics);
        edges.extend(scan.edges);
    }
    diags.extend(graph_check(&edges));
    diags
}

/// Recursively scans every `.rs` file under the given roots.
pub fn scan_paths(roots: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs(root, &mut files)?;
    }
    files.sort();
    let mut diags = Vec::new();
    let mut edges = Vec::new();
    for f in files {
        let source = fs::read_to_string(&f)?;
        let scan = scan_source(&f.display().to_string(), &source);
        diags.extend(scan.diagnostics);
        edges.extend(scan.edges);
    }
    diags.extend(graph_check(&edges));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints(src: &str) -> Vec<LintId> {
        scan_sources(&[("fixture.rs", src)]).into_iter().map(|d| d.lint).collect()
    }

    #[test]
    fn rank_table_matches_the_runtime_witness() {
        // Pinned against `pufatt-fleet`'s `sync::rank` constants (which
        // carry the mirror-image assertion); if either side re-ranks a
        // class without the other, one of the two tests fails.
        let expect = [
            ("server_conns", 10),
            ("handler_handles", 20),
            ("service_slot", 50),
            ("pool_receiver", 70),
        ];
        for (class, rank) in expect {
            assert_eq!(rank_of(class), Some(rank), "class {class}");
        }
        for retired in ["ticket_table", "conn_writer"] {
            assert_eq!(rank_of(retired), None, "class {retired} is retired");
        }
    }

    #[test]
    fn rank_violation_and_cycle_are_flagged() {
        let src = "fn a(&self) {\n    let g = lock(&self.inner);\n    let h = lock(&self.conns);\n}\n";
        assert!(lints(src).contains(&LintId::LockOrderCycle), "store_inner(80) -> server_conns(10)");
        let clean = "fn a(&self) {\n    let g = lock(&self.conns);\n    let h = lock(&self.inner);\n}\n";
        assert!(!lints(clean).contains(&LintId::LockOrderCycle));
    }

    #[test]
    fn blocking_under_lock_flagged_and_allow_pin_respected() {
        let src = "fn f(&self) {\n    let g = lock(&self.slots);\n    self.tx.send(1).ok();\n}\n";
        assert!(lints(src).contains(&LintId::LockAcrossBlocking));
        let pinned = "fn f(&self) {\n    let g = lock(&self.slots);\n    self.tx.send(1).ok(); // analyze: allow(conc: reviewed)\n}\n";
        assert!(!lints(pinned).contains(&LintId::LockAcrossBlocking));
        // A statement temporary released before the blocking call is clean.
        let seq = "fn f(&self) {\n    lock(&self.slots).clear();\n    self.tx.send(1).ok();\n}\n";
        assert!(!lints(seq).contains(&LintId::LockAcrossBlocking));
        // ...but a chained blocking call on the guard itself is not.
        let chain = "fn f(&self) {\n    let x = lock(receiver).recv();\n}\n";
        assert!(lints(chain).contains(&LintId::LockAcrossBlocking));
    }

    #[test]
    fn raw_lock_flagged_poison_tolerant_inline_is_not() {
        assert!(lints("fn f(&self) { self.m.lock().unwrap(); }").contains(&LintId::RawLockUnwrap));
        assert!(lints("fn f(&self) { self.m.lock().expect(\"x\"); }").contains(&LintId::RawLockUnwrap));
        let tolerant = "fn f(&self) { let g = self.budget.lock().unwrap_or_else(|e| e.into_inner()); }";
        assert!(!lints(tolerant).contains(&LintId::RawLockUnwrap));
    }

    #[test]
    fn condvar_wait_needs_a_loop() {
        let bare = "fn f(&self) {\n    let g = self.cv.wait(guard);\n}\n";
        assert!(lints(bare).contains(&LintId::CondvarNoLoop));
        let looped = "fn f(&self) {\n    while !done {\n        guard = self.cv.wait_timeout(guard, t).0;\n    }\n}\n";
        assert!(!lints(looped).contains(&LintId::CondvarNoLoop));
    }

    #[test]
    fn detached_spawn_flagged_bound_spawn_is_not() {
        assert!(lints("fn f() { let _ = std::thread::Builder::new().spawn(|| {}); }").contains(&LintId::DetachedThread));
        assert!(lints("fn f() { thread::spawn(|| {}); }").contains(&LintId::DetachedThread));
        assert!(!lints("fn f() { let h = thread::spawn(|| {}); h.join().ok(); }").contains(&LintId::DetachedThread));
    }

    #[test]
    fn unknown_class_is_a_warning_known_and_wrapper_param_are_not() {
        assert!(lints("fn f(&self) { let g = lock(&self.mystery); }").contains(&LintId::UnknownLockClass));
        assert!(!lints("fn f(&self) { let g = lock(&self.slots); }").contains(&LintId::UnknownLockClass));
        // The wrapper's own generic parameter participates in no class.
        assert!(!lints("fn lockit(m: &Mutex<u32>) { let g = m.lock().unwrap_or_else(|e| e.into_inner()); }")
            .contains(&LintId::UnknownLockClass));
    }

    #[test]
    fn call_summaries_create_edges() {
        // service_slot(50) held while calling into the store (80): in
        // order. The reverse would be a rank violation.
        let good = "fn f(&self) {\n    let g = lock(&self.slots[i]);\n    self.store.append(rec);\n}\n";
        assert!(!lints(good).contains(&LintId::LockOrderCycle));
        let bad = "fn f(&self) {\n    let g = lock(receiver);\n    self.service.attest(id);\n}\n";
        assert!(lints(bad).contains(&LintId::LockOrderCycle), "pool_receiver(70) -> service_slot(50)");
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(&self) { self.m.lock().unwrap(); }\n}\n";
        assert!(lints(src).is_empty());
    }
}
