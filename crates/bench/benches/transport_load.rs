//! Attestation-as-a-service throughput: the socket server under load.
//!
//! Not a paper figure — a transport benchmark for the `pufatt-transport`
//! subsystem. A server fronting the fleet engine listens on a Unix-domain
//! socket; the load generator drives it with concurrent simulated devices
//! (connections × window devices in flight at once) and reports
//! sessions/sec plus latency percentiles per connection count.
//!
//! The headline row holds ≥10 000 concurrent devices in flight — every
//! device enrolled, holding an open attestation ticket, and pipelining
//! its sessions. Each connection's handler runs its requests one at a
//! time, so a deep window queues in that connection's socket, never in
//! the server; with the rate limit off no row should see a `Busy` retry.
//! The sweep ends in the graceful drain.
//!
//! Results are printed and written to `BENCH_transport.json` at the
//! workspace root for CI artifact upload. `--test` (as passed by
//! `cargo test` to harness=false benches) or `PUFATT_SMOKE=1` selects a
//! small workload.

use pufatt_bench::{full_scale, header, host_json, timed};
use pufatt_fleet::campaign::small_test_config;
use pufatt_transport::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
use pufatt_transport::server::{Server, ServerConfig};
use pufatt_transport::Endpoint;

struct Sweep {
    connections: usize,
    window: usize,
}

fn run_sweep(sock_dir: &std::path::Path, sweep: &Sweep, sessions: u32) -> (LoadgenReport, u64) {
    let concurrent = (sweep.connections * sweep.window) as u64;
    // One live device per concurrent slot: the whole fleet is in flight
    // at once, so "concurrent devices" is not just a window product.
    let devices = concurrent as u32;
    let campaign = small_test_config(devices as usize, 4, 0x10AD ^ concurrent);
    let sock = sock_dir.join(format!("load-{}.sock", sweep.connections));
    let server = Server::start(
        &Endpoint::Uds(sock),
        campaign,
        ServerConfig {
            rate_limit_per_s: 0.0,
            max_connections: sweep.connections + 8,
            read_timeout_ms: 120_000,
            write_timeout_ms: 120_000,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let report = run_loadgen(&LoadgenConfig {
        endpoint: server.endpoint().clone(),
        devices,
        sessions_per_device: sessions,
        connections: sweep.connections,
        window: sweep.window,
        read_timeout_ms: 120_000,
        write_timeout_ms: 120_000,
    })
    .expect("loadgen runs");
    let server_report = server.finish();
    assert_eq!(report.devices_errored, 0, "no device may be stranded by transport errors");
    assert_eq!(report.devices_completed, u64::from(devices), "every device completes its schedule");
    assert_eq!(server_report.panicked_jobs, 0);
    assert_eq!(server_report.transport.sessions_aborted, 0, "clean loadgen run leaves no torn sessions");
    (report, concurrent)
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--test") || std::env::var("PUFATT_SMOKE").map(|v| v == "1").unwrap_or(false);
    // connections × window = concurrent devices in flight.
    let sweeps: Vec<Sweep> = if smoke {
        vec![
            Sweep { connections: 2, window: 8 },
            Sweep { connections: 4, window: 16 },
        ]
    } else if full_scale() {
        vec![
            Sweep { connections: 4, window: 64 },
            Sweep { connections: 16, window: 256 },
            Sweep { connections: 64, window: 256 },
        ]
    } else {
        vec![
            Sweep { connections: 4, window: 64 },
            Sweep { connections: 16, window: 256 },
            Sweep { connections: 40, window: 256 },
        ]
    };
    let sessions = 2u32;

    header("TRANSPORT", "Attestation as a service: sessions/sec vs connection count (UDS)");
    let sock_dir = std::env::temp_dir().join(format!("pufatt-bench-transport-{}", std::process::id()));
    std::fs::create_dir_all(&sock_dir).expect("socket dir");

    let mut rows: Vec<String> = Vec::new();
    let mut peak_concurrent = 0u64;
    for sweep in &sweeps {
        let label = format!("{} conns x {} window", sweep.connections, sweep.window);
        let (report, concurrent) = timed(&label, || run_sweep(&sock_dir, sweep, sessions));
        peak_concurrent = peak_concurrent.max(concurrent);
        println!(
            "    {:>3} conns, {:>5} concurrent: {:>8.0} sessions/s, p50 {:>6} us, p99 {:>7} us ({} busy retries)",
            sweep.connections, concurrent, report.sessions_per_s, report.p50_us, report.p99_us, report.busy_retries
        );
        rows.push(format!("    {}", report.json_object(&format!("uds_{}conns", sweep.connections), concurrent)));
    }
    std::fs::remove_dir_all(&sock_dir).ok();

    if !smoke {
        assert!(
            peak_concurrent >= 10_000,
            "headline sweep must hold >= 10000 concurrent devices, got {peak_concurrent}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"transport_load\",\n  \"smoke\": {},\n{}  \"sessions_per_device\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        smoke,
        host_json(),
        sessions,
        rows.join(",\n")
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json");
    std::fs::write(out_path, json).expect("write BENCH_transport.json");
    println!("  wrote {out_path}");
}
