//! `pufatt serve` / `pufatt loadgen` — attestation as a service from the
//! command line.
//!
//! `serve` binds a socket (UDS or loopback TCP) and fronts the fleet
//! engine with the full campaign flag set; it runs until a wire
//! `Shutdown` arrives, then drains gracefully and prints the same
//! snapshot `fleet` would. `loadgen` drives a running server with
//! thousands of concurrent simulated devices and reports sessions/sec
//! and latency percentiles — optionally appending a JSON row for the
//! bench artefacts, and optionally shutting the server down when done
//! (which is how the two commands compose into one scripted e2e run).

use crate::args::Args;
use crate::commands::{campaign_config, print_campaign_banner, CAMPAIGN_VALUE_KEYS};
use pufatt_transport::client::Client;
use pufatt_transport::loadgen::{run_loadgen, LoadgenConfig};
use pufatt_transport::message::{Request, Response};
use pufatt_transport::server::{Server, ServerConfig};
use pufatt_transport::Endpoint;

pub fn serve(argv: &[String]) -> Result<(), String> {
    let mut value_keys = CAMPAIGN_VALUE_KEYS.to_vec();
    value_keys.extend_from_slice(&[
        "listen",
        "state-dir",
        "max-conns",
        "read-timeout-ms",
        "write-timeout-ms",
        "rate-limit",
        "rate-burst",
        "drain-grace-ms",
    ]);
    let args = Args::parse(argv, &value_keys, &[])?;
    let cfg = campaign_config(&args)?;
    let endpoint = Endpoint::parse(args.require("listen")?);
    let defaults = ServerConfig::default();
    let server_cfg = ServerConfig {
        max_connections: args.num_or("max-conns", defaults.max_connections)?,
        read_timeout_ms: args.num_or("read-timeout-ms", defaults.read_timeout_ms)?,
        write_timeout_ms: args.num_or("write-timeout-ms", defaults.write_timeout_ms)?,
        rate_limit_per_s: args.num_or("rate-limit", defaults.rate_limit_per_s)?,
        rate_burst: args.num_or("rate-burst", defaults.rate_burst)?,
        drain_grace_ms: args.num_or("drain-grace-ms", defaults.drain_grace_ms)?,
    };
    print_campaign_banner(&cfg, None);
    let state_dir = args.get_or("state-dir", "");
    let server = if state_dir.is_empty() {
        Server::start(&endpoint, cfg, server_cfg)
    } else {
        let dir = std::path::Path::new(state_dir);
        println!(
            "state: journaling to {}, group commit every {:.1} ms (prior state is restored, new enrollments admitted online)",
            dir.display(),
            cfg.commit_interval_s * 1e3
        );
        let journaled = pufatt_fleet::open_state_dir(dir, cfg.history_capacity)
            .and_then(|store| pufatt_fleet::FleetService::with_journal(cfg, store))
            .map_err(|e| e.to_string())?;
        Server::start_with_service(&endpoint, std::sync::Arc::new(journaled), server_cfg)
    }
    .map_err(|e| e.to_string())?;
    println!("serving on {} (send a wire Shutdown to drain)", server.endpoint());
    while !server.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("drain requested; completing in-flight sessions");
    let service = std::sync::Arc::clone(server.service());
    let report = server.finish();
    if let Err(e) = service.checkpoint() {
        // A sick shard makes the final checkpoint fail by design; the
        // snapshot and per-shard health below still tell the whole story.
        println!("final checkpoint incomplete: {e}");
    }
    print!("{}", report.snapshot);
    if let Some(stats) = service.store_stats() {
        println!("store: {stats}");
    }
    let t = &report.transport;
    println!(
        "transport: {} conn(s) served, {} shed, {} request(s), {} busy (rate limit), \
         {} malformed, {} frame error(s), {} idle timeout(s), {} aborted session(s), {} reply write(s), \
         {} panicked handler(s)",
        t.connections_served,
        t.connections_shed,
        t.requests,
        t.busy_rate,
        t.malformed,
        t.frame_errors,
        t.idle_timeouts,
        t.sessions_aborted,
        t.reply_writes,
        report.panicked_jobs,
    );
    Ok(())
}

pub fn loadgen(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "connect",
            "devices",
            "sessions",
            "connections",
            "window",
            "read-timeout-ms",
            "write-timeout-ms",
            "json",
            "label",
        ],
        &["shutdown"],
    )?;
    let endpoint = Endpoint::parse(args.require("connect")?);
    let defaults = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        endpoint: endpoint.clone(),
        devices: args.num_or("devices", defaults.devices)?,
        sessions_per_device: args.num_or("sessions", defaults.sessions_per_device)?,
        connections: args.num_or("connections", defaults.connections)?,
        window: args.num_or("window", defaults.window)?,
        read_timeout_ms: args.num_or("read-timeout-ms", defaults.read_timeout_ms)?,
        write_timeout_ms: args.num_or("write-timeout-ms", defaults.write_timeout_ms)?,
    };
    let concurrent = (cfg.connections * cfg.window) as u64;
    println!(
        "loadgen: {} device(s) x {} session(s) over {} connection(s), window {} ({} concurrent devices)",
        cfg.devices, cfg.sessions_per_device, cfg.connections, cfg.window, concurrent
    );
    let report = run_loadgen(&cfg).map_err(|e| e.to_string())?;
    println!(
        "completed {} device(s) ({} errored), {} session(s) ({} accepted, {} refused), {} busy retries",
        report.devices_completed,
        report.devices_errored,
        report.sessions_completed,
        report.sessions_accepted,
        report.sessions_refused,
        report.busy_retries,
    );
    println!(
        "wall {:.2} s, {:.0} sessions/s, latency p50 {} us / p90 {} us / p99 {} us / max {} us",
        report.wall_s, report.sessions_per_s, report.p50_us, report.p90_us, report.p99_us, report.max_us
    );
    if let Ok(json_path) = args.require("json") {
        let row = report.json_object(args.get_or("label", "loadgen"), concurrent);
        std::fs::write(json_path, format!("{row}\n")).map_err(|e| format!("write {json_path}: {e}"))?;
        println!("wrote {json_path}");
    }
    if args.has("shutdown") {
        let mut client = Client::connect(&endpoint, 10_000, 10_000).map_err(|e| e.to_string())?;
        match client.call(&Request::Shutdown).map_err(|e| e.to_string())? {
            Response::ShutdownAck => println!("server draining"),
            other => return Err(format!("unexpected shutdown reply: {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// The scripted composition the docs promise: serve in a thread,
    /// loadgen against it with --shutdown, server drains and exits.
    #[test]
    fn serve_and_loadgen_compose_over_a_socket() {
        let dir = std::env::temp_dir().join(format!("pufatt-cli-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        let listen = format!("uds:{}", sock.display());
        let serve_args: Vec<String> = [
            "--listen",
            &listen,
            "--devices",
            "6",
            "--sessions",
            "1",
            "--profile",
            "fpga16",
            "--rounds",
            "128",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let handle = std::thread::spawn(move || serve(&serve_args));
        // Wait for the socket to come up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !sock.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let json = dir.join("bench.json");
        let loadgen_args: Vec<String> = [
            "--connect",
            &listen,
            "--devices",
            "6",
            "--sessions",
            "1",
            "--connections",
            "2",
            "--window",
            "4",
            "--json",
            json.to_str().unwrap(),
            "--shutdown",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        loadgen(&loadgen_args).expect("loadgen succeeds");
        handle.join().expect("serve thread").expect("serve exits cleanly");
        let row = std::fs::read_to_string(&json).unwrap();
        assert!(row.contains("\"sessions_completed\":6"), "bench row records the sessions: {row}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `serve --state-dir` journals the fleet and a second server on the
    /// same directory restores it: the restart sees already-enrolled
    /// devices and keeps serving sessions from where the first stopped.
    #[test]
    fn serve_journals_and_restores_state() {
        let dir = std::env::temp_dir().join(format!("pufatt-cli-net-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("state");
        for round in 0..2 {
            let sock = dir.join(format!("serve-{round}.sock"));
            let listen = format!("uds:{}", sock.display());
            let serve_args: Vec<String> = [
                "--listen",
                &listen,
                "--state-dir",
                state.to_str().unwrap(),
                "--commit-interval",
                "2",
                "--devices",
                "4",
                "--sessions",
                "2",
                "--profile",
                "fpga16",
                "--rounds",
                "128",
            ]
            .iter()
            .map(ToString::to_string)
            .collect();
            let handle = std::thread::spawn(move || serve(&serve_args));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while !sock.exists() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let loadgen_args: Vec<String> = [
                "--connect",
                &listen,
                "--devices",
                "4",
                "--sessions",
                "1",
                "--connections",
                "2",
                "--window",
                "2",
                "--shutdown",
            ]
            .iter()
            .map(ToString::to_string)
            .collect();
            loadgen(&loadgen_args).expect("loadgen succeeds");
            handle.join().expect("serve thread").expect("serve exits cleanly");
            assert!(state.join("manifest.bin").is_file(), "journal written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadgen_requires_a_target() {
        assert!(loadgen(&[]).unwrap_err().contains("--connect"));
        assert!(serve(&[]).unwrap_err().contains("--listen"));
    }
}
