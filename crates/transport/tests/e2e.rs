//! End-to-end server tests: the wire must not change a single verdict.
//!
//! The headline assertion (ISSUE 6 acceptance): a seeded load-generator
//! campaign over a real unix-domain socket produces device records and a
//! fleet snapshot **bit-identical** to `run_campaign` executing the same
//! configuration entirely in process.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pufatt_fleet::campaign::{run_campaign, run_persistent_campaign, small_test_config};
use pufatt_fleet::FleetService;
use pufatt_store::{ErrorInjection, InjectedErrorKind, ShardedOptions, ShardedStore, SimVfs};
use pufatt_transport::client::Client;
use pufatt_transport::error::{ErrorCode, TransportError};
use pufatt_transport::loadgen::{run_loadgen, LoadgenConfig};
use pufatt_transport::message::{Request, Response, PROTOCOL_MAGIC};
use pufatt_transport::server::{Server, ServerConfig, BUSY_RETRY_MS};
use pufatt_transport::Endpoint;
use std::sync::Arc;

fn uds_endpoint(tag: &str) -> Endpoint {
    let dir = std::env::temp_dir().join(format!("pufatt-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    Endpoint::Uds(dir.join(format!("{tag}.sock")))
}

fn identity_server_config() -> ServerConfig {
    ServerConfig {
        rate_limit_per_s: 0.0, // backpressure off: identity runs must not shed
        ..ServerConfig::default()
    }
}

fn assert_served_matches_in_process(endpoint: &Endpoint, devices: usize, seed: u64) {
    let cfg = small_test_config(devices, 3, seed);
    let in_process = run_campaign(&cfg).expect("in-process campaign runs");

    let server = Server::start(endpoint, cfg.clone(), identity_server_config()).expect("server starts");
    let report = run_loadgen(&LoadgenConfig {
        endpoint: server.endpoint().clone(),
        devices: devices as u32,
        sessions_per_device: cfg.sessions_per_device as u32,
        connections: 3,
        window: 8,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    let served = server.finish();

    assert_eq!(report.devices_errored, 0, "no device may be stranded: {report:?}");
    assert_eq!(report.devices_completed, devices as u64);
    assert_eq!(served.panicked_jobs, 0);
    assert_eq!(served.transport.sessions_aborted, 0, "clean campaign aborts nothing");
    assert_eq!(
        served.device_records, in_process.device_records,
        "wire verdicts must be bit-identical to in-process"
    );
    assert_eq!(served.snapshot, in_process.snapshot, "fleet counters must match exactly");
    // The client-side tallies agree with the server's books.
    assert_eq!(
        report.sessions_completed + report.sessions_refused,
        served.snapshot.sessions_started + served.snapshot.sessions_refused
    );
    assert_eq!(report.sessions_accepted, served.snapshot.sessions_accepted);
}

#[cfg(unix)]
#[test]
fn uds_loadgen_campaign_is_bit_identical_to_in_process() {
    assert_served_matches_in_process(&uds_endpoint("identity"), 24, 0xC0FFEE);
}

#[test]
fn tcp_loadgen_campaign_is_bit_identical_to_in_process() {
    assert_served_matches_in_process(&Endpoint::Tcp("127.0.0.1:0".into()), 12, 0xBEEF);
}

/// A journaled service whose store shard 1 fails every I/O from the first
/// append on, in the geometry of the fleet crate's sick-shard campaign
/// test (4 store shards of 2 ids each).
fn sick_shard_store(history_capacity: usize) -> Arc<ShardedStore> {
    let vfs = SimVfs::new();
    let opts = ShardedOptions {
        history_capacity,
        shards: 4,
        range_width: 2,
        ..ShardedOptions::default()
    };
    let store = Arc::new(ShardedStore::open(Arc::new(vfs.clone()), opts).expect("fresh store"));
    vfs.inject(ErrorInjection::on_prefix("shard-001/", InjectedErrorKind::Eio).sticky());
    store
}

#[test]
fn sick_shard_loadgen_campaign_matches_in_process() {
    let mut cfg = small_test_config(8, 2, 0xD16E);
    cfg.tamper_fraction = 0.0;
    let store = sick_shard_store(cfg.history_capacity);
    let sick = (0..cfg.devices as u32).filter(|&id| store.shard_of_id(id) == 1).count() as u64;
    assert!(sick > 0, "test geometry must home devices on the sick shard");
    let in_process = run_persistent_campaign(&cfg, &store, false).expect("degraded campaign reports");

    let service = FleetService::with_journal(cfg.clone(), sick_shard_store(cfg.history_capacity)).expect("service");
    let server =
        Server::start_with_service(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::new(service), identity_server_config())
            .expect("server starts");
    let report = run_loadgen(&LoadgenConfig {
        endpoint: server.endpoint().clone(),
        devices: cfg.devices as u32,
        sessions_per_device: cfg.sessions_per_device,
        connections: 2,
        window: 4,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    let served = server.finish();

    assert_eq!(report.devices_errored, 0, "a sick shard strands no device: {report:?}");
    assert_eq!(report.device_faults, 0, "a storage refusal is not a device fault: {report:?}");
    assert_eq!(report.sessions_unavailable, in_process.snapshot.sessions_unavailable, "{report:?}");
    assert_eq!(report.devices_unavailable, sick, "{report:?}");
    assert_eq!(served.device_records, in_process.device_records, "healthy-shard verdicts must match");
    // The sick shard refuses these devices' `Enroll`, before any session
    // gate, and a server cannot know how many sessions a client meant to
    // run, so its snapshot counts none of them; the in-process campaign
    // and loadgen count every session a refused device owed.
    assert!(in_process.snapshot.sessions_unavailable > 0);
    assert_eq!(served.snapshot.sessions_unavailable, 0, "{:?}", served.snapshot);
}

#[test]
fn drain_completes_inflight_sessions_and_refuses_new_work() {
    let cfg = small_test_config(4, 2, 11);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");

    assert!(matches!(client.call(&Request::Enroll { device: 0 }).unwrap(), Response::EnrollOk { device: 0, .. }));
    let ticket = match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
        Response::Challenge { ticket, .. } => ticket,
        other => panic!("expected a challenge, got {other:?}"),
    };

    // Shutdown arrives while device 0's session is still open.
    assert!(matches!(client.call(&Request::Shutdown).unwrap(), Response::ShutdownAck));
    assert!(server.is_draining());

    // New work is refused during the drain…
    match client.call(&Request::Enroll { device: 1 }).unwrap() {
        Response::Error { code: ErrorCode::Draining, .. } => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
        Response::Error { code: ErrorCode::Draining, .. } => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    // …but the open ticket still runs to a verdict.
    match client.call(&Request::Attest { device: 0, ticket }).unwrap() {
        Response::Verdict { device: 0, .. } => {}
        other => panic!("expected a verdict, got {other:?}"),
    }
    drop(client);

    let report = server.finish();
    assert_eq!(report.panicked_jobs, 0);
    assert_eq!(report.snapshot.sessions_lost, 0, "drain must not lose the in-flight session");
    assert_eq!(report.snapshot.sessions_started, 1);
    assert_eq!(
        report.snapshot.sessions_accepted + report.snapshot.sessions_rejected + report.snapshot.sessions_timed_out,
        1,
        "the open session reached a verdict: {:?}",
        report.snapshot
    );
}

#[test]
fn dying_connection_aborts_its_open_session_into_the_lifecycle() {
    let cfg = small_test_config(2, 1, 5);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");

    // Two dropped connections, each leaving device 0's session open: the
    // lifecycle counts both as lost and the hysteresis quarantines.
    for _ in 0..2 {
        let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");
        let _ = client.call(&Request::Enroll { device: 0 }).unwrap();
        match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
            Response::Challenge { .. } => {}
            other => panic!("expected a challenge, got {other:?}"),
        }
        drop(client); // vanish without attesting
    }

    // The abort happens on the server's handler thread after it sees the
    // close; poll the metrics briefly instead of sleeping blind.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.transport_stats().sessions_aborted < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let report = server.finish();
    assert_eq!(report.transport.sessions_aborted, 2);
    assert_eq!(report.snapshot.sessions_lost, 2, "a torn session is a lost session");
    let record = &report.device_records[0];
    assert_eq!(record.id, 0);
    assert_eq!(record.status, pufatt_fleet::FleetStatus::Quarantined, "hysteresis fires on repeated loss");
}

#[test]
fn protocol_violations_get_typed_errors() {
    let cfg = small_test_config(2, 1, 9);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    let mut client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");

    // Unknown device.
    match client.call(&Request::ChallengeRequest { device: 1 }).unwrap() {
        Response::Error { code: ErrorCode::UnknownDevice, .. } => {}
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
    // Attest without an open session.
    let _ = client.call(&Request::Enroll { device: 0 }).unwrap();
    match client.call(&Request::Attest { device: 0, ticket: 42 }).unwrap() {
        Response::Error { code: ErrorCode::BadTicket, .. } => {}
        other => panic!("expected BadTicket, got {other:?}"),
    }
    // A second Hello mid-conversation.
    match client.call(&pufatt_transport::hello()).unwrap() {
        Response::Error { code: ErrorCode::Malformed, .. } => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
    // Revoke, then the session gate refuses.
    match client.call(&Request::Revoke { device: 0 }).unwrap() {
        Response::RevokeOk { device: 0, .. } => {}
        other => panic!("expected RevokeOk, got {other:?}"),
    }
    match client.call(&Request::ChallengeRequest { device: 0 }).unwrap() {
        Response::Error { code: ErrorCode::Refused, .. } => {}
        other => panic!("expected Refused, got {other:?}"),
    }
    // Stats reflect what happened.
    match client.call(&Request::Stats).unwrap() {
        Response::StatsReply(stats) => {
            assert_eq!(stats.refused, 1);
            assert_eq!(stats.revoked, 1);
        }
        other => panic!("expected StatsReply, got {other:?}"),
    }
    drop(client);
    let report = server.finish();
    assert_eq!(report.panicked_jobs, 0);
}

#[test]
fn version_negotiation_rejects_a_future_only_client() {
    let cfg = small_test_config(1, 1, 13);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    // Hand-roll a client that only speaks versions 2..=3.
    let mut stream = pufatt_transport::Stream::connect(server.endpoint()).expect("connects");
    stream.set_read_timeout_ms(10_000).unwrap();
    let mut payload = Vec::new();
    Request::Hello { magic: PROTOCOL_MAGIC, min_version: 2, max_version: 3 }.encode(7, &mut payload);
    pufatt_transport::write_frame(&mut stream, &payload, 0).unwrap();
    let mut frames = pufatt_transport::FrameReader::new();
    let mut reply = Vec::new();
    assert!(frames.read_frame(&mut stream, &mut reply, 10_000).unwrap());
    let (corr, response) = Response::decode(&reply).unwrap();
    assert_eq!(corr, 7);
    match response {
        Response::Error { code: ErrorCode::VersionMismatch, .. } => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // …and the server closed the connection afterwards.
    assert!(!frames.read_frame(&mut stream, &mut reply, 10_000).unwrap());
    server.finish();
}

#[test]
fn a_bad_first_frame_ends_the_connection() {
    let cfg = small_test_config(1, 1, 19);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    let mut stats = Vec::new();
    Request::Stats.encode(4, &mut stats);
    let mut bad_magic = Vec::new();
    Request::Hello { magic: *b"NOTPUFAT", min_version: 1, max_version: 1 }.encode(5, &mut bad_magic);
    // Each first frame, and the reply it gets before the server closes:
    // none for a payload that does not decode, a typed error otherwise.
    let cases = [
        ("undecodable", vec![0xEE; 3], None),
        ("not a Hello", stats, Some((4, "expected Hello before any request"))),
        ("bad magic", bad_magic, Some((5, ""))),
    ];
    for (name, first, expected) in cases {
        let mut stream = pufatt_transport::Stream::connect(server.endpoint()).expect("connects");
        stream.set_read_timeout_ms(10_000).unwrap();
        pufatt_transport::write_frame(&mut stream, &first, 0).unwrap();
        let mut frames = pufatt_transport::FrameReader::new();
        let mut reply = Vec::new();
        if let Some((want_corr, want_detail)) = expected {
            assert!(frames.read_frame(&mut stream, &mut reply, 10_000).unwrap(), "{name}: no reply");
            match Response::decode(&reply).unwrap() {
                (corr, Response::Error { code: ErrorCode::Malformed, detail }) => {
                    assert_eq!(corr, want_corr, "{name}");
                    assert!(detail.contains(want_detail), "{name}: {detail}");
                }
                other => panic!("{name}: expected a Malformed error, got {other:?}"),
            }
        }
        assert!(!frames.read_frame(&mut stream, &mut reply, 10_000).unwrap(), "{name}: the server must close");
    }
    let report = server.finish();
    assert_eq!(report.transport.malformed, 3);
    assert_eq!(report.transport.requests, 0, "a handshake frame is not a request");
}

#[test]
fn capacity_and_rate_limits_shed_with_busy() {
    let cfg = small_test_config(2, 1, 17);
    let server_cfg = ServerConfig {
        max_connections: 1,
        rate_limit_per_s: 1.0,
        rate_burst: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, server_cfg).expect("server starts");
    let mut first = Client::connect(server.endpoint(), 10_000, 10_000).expect("first client connects");

    // Connection capacity: the second connection is shed at accept.
    match Client::connect(server.endpoint(), 10_000, 10_000) {
        Err(TransportError::Server { code: ErrorCode::RateLimited, .. }) => {}
        Err(TransportError::Closed(_)) => {} // raced the Busy frame; also a shed
        Err(other) => panic!("expected a shed connection, got {other:?}"),
        Ok(_) => panic!("second connection must be shed at capacity 1"),
    }

    // Rate limit: burst of 1 means back-to-back requests see Busy.
    let mut saw_busy = false;
    for _ in 0..5 {
        match first.call(&Request::Enroll { device: 0 }).unwrap() {
            Response::Busy { retry_after_ms } => {
                assert!(retry_after_ms >= BUSY_RETRY_MS);
                saw_busy = true;
                break;
            }
            Response::EnrollOk { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(saw_busy, "a 1 req/s bucket must shed a burst of 5");
    drop(first);
    let report = server.finish();
    assert_eq!(report.transport.connections_shed, 1);
    assert!(report.transport.busy_rate >= 1);
}

#[test]
fn pipelined_connection_is_never_answered_busy() {
    // One connection pipelines a whole phase at a time. The server reads
    // and answers a connection's requests in order, so a deep pipeline
    // only waits its turn; with the rate limit off nothing answers Busy.
    const DEVICES: u32 = 256;
    let cfg = small_test_config(DEVICES as usize, 1, 23);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.endpoint(), 30_000, 30_000).expect("client connects");

    let enrolls: Vec<u32> = (0..DEVICES)
        .map(|device| client.send(&Request::Enroll { device }).unwrap())
        .collect();
    for corr in enrolls {
        match client.recv(corr).unwrap() {
            Response::EnrollOk { .. } => {}
            other => panic!("expected EnrollOk, got {other:?}"),
        }
    }
    let challenges: Vec<u32> = (0..DEVICES)
        .map(|device| client.send(&Request::ChallengeRequest { device }).unwrap())
        .collect();
    let tickets: Vec<u64> = challenges
        .into_iter()
        .map(|corr| match client.recv(corr).unwrap() {
            Response::Challenge { ticket, .. } => ticket,
            other => panic!("expected a challenge, got {other:?}"),
        })
        .collect();
    let attests: Vec<u32> = (0..DEVICES)
        .zip(tickets)
        .map(|(device, ticket)| client.send(&Request::Attest { device, ticket }).unwrap())
        .collect();
    let mut verdicts = 0;
    for corr in attests {
        match client.recv(corr).unwrap() {
            Response::Verdict { .. } => verdicts += 1,
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
    assert_eq!(verdicts, DEVICES);
    drop(client);

    let report = server.finish();
    assert_eq!(report.transport.busy_queue, 0);
    assert_eq!(report.transport.busy_rate, 0);
    assert_eq!(report.snapshot.sessions_started, u64::from(DEVICES));
}

#[test]
fn pipelined_burst_is_answered_in_order_with_batched_writes() {
    // A raw socket sends Hello and a burst of requests in one write. The
    // handler runs them in arrival order (each challenge needs the enroll
    // before it) and writes its replies in batches, not one by one.
    const DEVICES: u32 = 128;
    let cfg = small_test_config(DEVICES as usize, 1, 31);
    let server =
        Server::start(&Endpoint::Tcp("127.0.0.1:0".into()), cfg, identity_server_config()).expect("server starts");
    let mut stream = pufatt_transport::Stream::connect(server.endpoint()).expect("connects");
    stream.set_read_timeout_ms(10_000).unwrap();

    let mut requests = vec![pufatt_transport::hello()];
    requests.extend((0..DEVICES).map(|device| Request::Enroll { device }));
    requests.extend((0..DEVICES).map(|device| Request::ChallengeRequest { device }));
    let mut burst = Vec::new();
    let mut payload = Vec::new();
    for (corr, request) in requests.iter().enumerate() {
        payload.clear();
        request.encode(corr as u32, &mut payload);
        pufatt_transport::encode_frame(&payload, &mut burst);
    }
    std::io::Write::write_all(&mut stream, &burst).unwrap();

    let mut frames = pufatt_transport::FrameReader::new();
    let mut reply = Vec::new();
    for (expected_corr, request) in requests.iter().enumerate() {
        assert!(frames.read_frame(&mut stream, &mut reply, 10_000).unwrap());
        let (corr, response) = Response::decode(&reply).unwrap();
        assert_eq!(corr, expected_corr as u32, "replies come back in request order");
        match (request, response) {
            (Request::Hello { .. }, Response::HelloAck { .. }) => {}
            (Request::Enroll { device }, Response::EnrollOk { device: got, .. }) => assert_eq!(got, *device),
            (Request::ChallengeRequest { device }, Response::Challenge { device: got, .. }) => assert_eq!(got, *device),
            (request, response) => panic!("{request:?} answered {response:?}"),
        }
    }
    let replies = requests.len() as u64;
    let writes = server.transport_stats().reply_writes;
    assert!(writes < replies, "{replies} replies took {writes} writes");
    drop(stream);

    let report = server.finish();
    assert_eq!(report.transport.requests, replies - 1, "every request after the Hello ran");
    assert_eq!(report.transport.write_errors, 0);
    assert_eq!(report.transport.sessions_aborted, u64::from(DEVICES), "the open tickets died with the connection");
}

/// `VmSize` and `VmRSS` from `/proc/self/status`, where the OS has one.
fn vm_report() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .filter(|line| line.starts_with("VmSize:") || line.starts_with("VmRSS:"))
        .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(unix)]
#[test]
fn reaped_handlers_stay_bounded_over_sequential_connections() {
    // Connect, Hello, close, one connection at a time. Each admit joins
    // the handlers that have exited, so the server never keeps more than
    // the live connections plus one handler still on its way out.
    const CYCLES: u64 = 2_000;
    let cfg = small_test_config(1, 1, 29);
    let server = Server::start(&uds_endpoint("reap"), cfg, identity_server_config()).expect("server starts");
    for cycle in 1..=CYCLES {
        let client = Client::connect(server.endpoint(), 10_000, 10_000).expect("client connects");
        let live = server.live_connections();
        let retained = server.retained_handlers();
        assert!(retained <= live + 1, "cycle {cycle}: {retained} handler(s) kept for {live} live connection(s)");
        drop(client);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.live_connections() > 0 {
            assert!(std::time::Instant::now() < deadline, "cycle {cycle}: the handler never saw the close");
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        if cycle == 100 || cycle == CYCLES {
            // A report, not a gate: the host's other tenants move these.
            println!("after {cycle} connections: {}", vm_report());
        }
    }
    let report = server.finish();
    assert_eq!(report.transport.connections_served, CYCLES);
    assert_eq!(report.panicked_jobs, 0);
}
