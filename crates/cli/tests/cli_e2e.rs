//! End-to-end tests of the `pufatt` binary via the actual executable.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

fn pufatt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pufatt"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pufatt-e2e-{}-{name}", std::process::id()))
}

#[test]
fn help_prints_usage() {
    let out = pufatt().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("enroll"));
    assert!(text.contains("attest"));
}

/// Flags shared by `fleet` and `serve`.
const CAMPAIGN_FLAGS: &[&str] = &[
    "--devices",
    "--shards",
    "--sessions",
    "--seed",
    "--tamper",
    "--profile",
    "--rounds",
    "--region-bits",
    "--retries",
    "--timeout-ms",
    "--history",
    "--fault-plan",
    "--flaky",
    "--commit-interval",
    "--state-dir",
];

#[test]
fn every_subcommand_prints_its_own_flags_on_help() {
    // Every flag each subcommand's parser accepts, and no other.
    let accepted: [(&str, Vec<&str>); 10] = [
        ("enroll", vec!["--profile", "--fab-seed", "--out"]),
        (
            "attest",
            vec![
                "--table",
                "--profile",
                "--fab-seed",
                "--rounds",
                "--malware",
                "--overclock",
                "--fault-plan",
                "--channel",
                "--retries",
                "--seed",
            ],
        ),
        ("characterize", vec!["--profile", "--chips", "--challenges", "--threads", "--seed"]),
        ("dot", vec!["--width", "--out", "--chip-seed"]),
        ("profile", vec!["--program"]),
        (
            "fleet",
            [
                CAMPAIGN_FLAGS,
                &["--workers", "--threads", "--resume", "--online-enroll", "--fail-fast"],
            ]
            .concat(),
        ),
        (
            "serve",
            [
                CAMPAIGN_FLAGS,
                &[
                    "--listen",
                    "--max-conns",
                    "--read-timeout-ms",
                    "--write-timeout-ms",
                    "--rate-limit",
                    "--rate-burst",
                    "--drain-grace-ms",
                ],
            ]
            .concat(),
        ),
        (
            "loadgen",
            vec![
                "--connect",
                "--devices",
                "--sessions",
                "--connections",
                "--window",
                "--read-timeout-ms",
                "--write-timeout-ms",
                "--json",
                "--label",
                "--shutdown",
            ],
        ),
        ("noise-sweep", vec!["--seed", "--trials", "--sessions", "--max-weight"]),
        ("analyze", vec!["--deny", "--lints", "--src-root", "--json"]),
    ];
    for (command, mut flags) in accepted {
        flags.sort_unstable();
        for help in ["--help", "-h"] {
            let out = pufatt().args([command, help]).output().expect("binary runs");
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{command} {help}: {}", String::from_utf8_lossy(&out.stderr));
            assert!(text.starts_with(&format!("usage: pufatt {command} ")), "{command} {help}: {text}");
            // Only this subcommand's entry, not the whole command list.
            assert!(!text.contains("commands:"), "{command} {help}: {text}");
            let mut listed: Vec<&str> = text
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|token| token.starts_with("--"))
                .collect();
            listed.sort_unstable();
            listed.dedup();
            assert_eq!(listed, flags, "{command} {help} must list exactly the flags it accepts:\n{text}");
        }
    }
    // Help wins over other flags, even ones the subcommand would reject.
    let out = pufatt().args(["fleet", "--bogus", "--help"]).output().expect("binary runs");
    assert!(out.status.success());
    // The removed no-op is refused, not silently ignored.
    let out = pufatt().args(["profile", "--threads", "2"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `--threads`"));
}

#[test]
fn serve_refuses_fail_fast() {
    // Only a campaign's `finish` reads the storage-failure policy, and a
    // server has none: the flag is refused, not accepted and ignored.
    let out = pufatt()
        .args(["serve", "--listen", "uds:/nonexistent/pufatt.sock", "--fail-fast"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `--fail-fast`"));
}

#[test]
fn journaled_fleet_prints_the_store_statistics_once() {
    let dir = temp_path("fleet-state");
    let out = pufatt()
        .args(["fleet", "--devices", "4", "--workers", "2", "--sessions", "1"])
        .args([
            "--profile",
            "fpga16",
            "--rounds",
            "128",
            "--state-dir",
            dir.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let store_lines: Vec<&str> = stdout.lines().filter(|line| line.starts_with("store")).collect();
    assert_eq!(store_lines.len(), 1, "one store line: {store_lines:?}");
}

#[test]
fn no_args_fails_with_usage() {
    let out = pufatt().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn unknown_command_fails() {
    let out = pufatt().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn enroll_attest_happy_path_and_attacks() {
    let table = temp_path("dev.puft");
    let table_s = table.to_str().expect("utf8 path");

    let out = pufatt()
        .args(["enroll", "--fab-seed", "7", "--out", table_s])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(table.exists());

    // Honest device: accepted.
    let out = pufatt()
        .args(["attest", "--table", table_s, "--fab-seed", "7", "--rounds", "1024"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ACCEPT"), "{text}");

    // Infected device: rejected.
    let out = pufatt()
        .args([
            "attest",
            "--table",
            table_s,
            "--fab-seed",
            "7",
            "--rounds",
            "1024",
            "--malware",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("REJECT"));

    // Wrong chip (impersonation): rejected.
    let out = pufatt()
        .args(["attest", "--table", table_s, "--fab-seed", "8", "--rounds", "1024"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("REJECT"));

    std::fs::remove_file(&table).ok();
}

#[test]
fn attest_rejects_corrupt_table() {
    let table = temp_path("corrupt.puft");
    std::fs::write(&table, b"not a delay table").expect("write");
    let out = pufatt()
        .args(["attest", "--table", table.to_str().expect("utf8"), "--rounds", "1024"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));
    std::fs::remove_file(&table).ok();
}

#[test]
fn dot_and_characterize_and_profile() {
    let dot = temp_path("g.dot");
    let out = pufatt()
        .args(["dot", "--width", "4", "--out", dot.to_str().expect("utf8")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(std::fs::read_to_string(&dot).expect("dot written").starts_with("digraph"));
    std::fs::remove_file(&dot).ok();

    let out = pufatt()
        .args(["characterize", "--chips", "2", "--challenges", "40"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("uniqueness"));

    let out = pufatt().args(["profile", "--program", "memcpy"]).output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("execution profile"));
}
