//! The traced run: a fixed-work socket replay with spans, then direct
//! timed calls into each layer's public entry points on the same seeded
//! inputs. Its numbers are the per-layer metrics.

use crate::check;
use crate::closed_loop::Control;
use crate::metrics::Metrics;
use crate::run::{drive_sessions, mean, percentile, Outcome, Sessions};
use crate::serve::{open_store, out_dir, restart, set_up, socket_path, Served};
use crate::trace::{durations, to_jsonl, Span, Tracer};
use crate::workload::Inputs;
use pufatt::enroll::enroll_with_design;
use pufatt::protocol::{provision, puf_limited_clock, AttestationRequest, Channel};
use pufatt_alupuf::{AluPufDesign, Challenge, RawResponse};
use pufatt_fleet::service::SessionGate;
use pufatt_fleet::{DeviceId, FleetService, FleetSnapshot};
use pufatt_store::SimVfs;
use pufatt_transport::{decode_frame, encode_frame, Endpoint, Request, Response, Server, ServerConfig, WireStatus};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const NS_PER_US: f64 = 1e3;
const NS_PER_MS: f64 = 1e6;

fn p50(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    percentile(&ns, 0.5)
}

/// A fresh service of the workload's kind (journaled on a new in-memory
/// disk, or plain).
fn fresh_service(inputs: &Inputs, journaled: bool) -> Result<FleetService, String> {
    if journaled {
        let store = open_store(&SimVfs::new(), inputs.campaign.history_capacity)?;
        FleetService::with_journal(inputs.campaign.clone(), store).map_err(|e| e.to_string())
    } else {
        FleetService::new(inputs.campaign.clone()).map_err(|e| e.to_string())
    }
}

/// Direct single-thread calls: every device enrolled, then the socket
/// pass's traffic (`inputs.traced_rounds` passes) as `open_session` +
/// `attest`.
struct Replay {
    enroll_ns: Vec<u64>,
    open_ns: Vec<u64>,
    attest_ns: Vec<u64>,
}

fn replay_direct(inputs: &Inputs, journaled: bool, tracer: &mut Tracer) -> Result<Replay, String> {
    let service = fresh_service(inputs, journaled)?;
    let mut r = Replay {
        enroll_ns: Vec::new(),
        open_ns: Vec::new(),
        attest_ns: Vec::new(),
    };
    let mut live = Vec::new();
    for id in inputs.fleet() {
        let (result, ns) = tracer.time("fleet.enroll", || service.enroll(black_box(id)));
        r.enroll_ns.push(ns);
        if result.is_ok() {
            live.push(id);
        }
    }
    for _ in 0..inputs.traced_rounds {
        for &id in &live {
            let session = tracer.next_id();
            let t0 = Instant::now();
            let gate = service.open_session(id);
            let t1 = Instant::now();
            tracer.record_with_id(session, "fleet.open_session", 0, session, t0, t1);
            r.open_ns.push((t1 - t0).as_nanos() as u64);
            if let SessionGate::Granted { .. } = gate {
                let t2 = Instant::now();
                black_box(service.attest(id));
                let t3 = Instant::now();
                tracer.record("fleet.attest", session, session, t2, t3);
                r.attest_ns.push((t3 - t2).as_nanos() as u64);
            }
        }
    }
    Ok(r)
}

/// The socket traffic (`inputs.traced_rounds` passes per lane) driven
/// straight into a service from one thread per connection.
fn inprocess_sessions_per_s(inputs: &Inputs) -> Result<f64, String> {
    let service = fresh_service(inputs, inputs.workload.journaled())?;
    let strides: Vec<Vec<DeviceId>> = (0..inputs.connections).map(|c| inputs.devices_of(c)).collect();
    let live: Vec<Vec<DeviceId>> = std::thread::scope(|s| {
        let hs: Vec<_> = strides
            .iter()
            .map(|ids| s.spawn(|| ids.iter().copied().filter(|&id| service.enroll(id).is_ok()).collect()))
            .collect();
        hs.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    let t = Instant::now();
    let sessions: u64 = std::thread::scope(|s| {
        let hs: Vec<_> = live
            .iter()
            .map(|ids| {
                let service = &service;
                s.spawn(move || {
                    let mut n = 0u64;
                    for _ in 0..inputs.traced_rounds {
                        for &id in ids {
                            if let SessionGate::Granted { .. } = service.open_session(id) {
                                black_box(service.attest(id));
                            }
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    Ok(sessions as f64 / t.elapsed().as_secs_f64())
}

/// Prover, verifier and provisioning on benchmark-seeded devices of the
/// workload's product line, plus the PUF emulator and the ECC stage.
fn core_layers(inputs: &Inputs, tracer: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let cfg = &inputs.campaign;
    let design = Arc::new(AluPufDesign::new(cfg.puf.clone()));
    let mut rng = ChaCha8Rng::seed_from_u64(inputs.seed ^ 0xC08E);
    let (mut provision_ns, mut prover_ns, mut verify_ns, mut cycles) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for device in 0..3u64 {
        let seed = inputs.seed.wrapping_mul(0x9E37_79B9).wrapping_add(device);
        let (provisioned, ns) = tracer.time("core.provision", || {
            let enrolled = enroll_with_design(&design, seed)?;
            let clock = puf_limited_clock(&enrolled, 1.10, 16, seed ^ 1);
            let (prover, verifier, _) =
                provision(&enrolled, cfg.params, clock, Channel::sensor_link(), seed ^ 2, 1.10)?;
            Ok::<_, pufatt::PufattError>((enrolled, prover, verifier))
        });
        let (enrolled, mut prover, verifier) = provisioned.map_err(|e| format!("provision: {e}"))?;
        provision_ns.push(ns);
        for _ in 0..6 {
            let request = AttestationRequest::random(&mut rng);
            let (report, ns) = tracer.time("core.prover_attest", || prover.attest(request));
            let report = report.map_err(|e| format!("prover: {e}"))?;
            prover_ns.push(ns);
            cycles.push(report.cycles);
            let compute_s = prover.clock().duration_ns(report.cycles) * 1e-9;
            verifier.begin_session();
            let (verdict, ns) = tracer.time("core.verifier_verify", || verifier.verify(request, &report, compute_s));
            black_box(verdict);
            verify_ns.push(ns);
        }
        last = Some(enrolled);
    }
    m.set("core.provision_ms", p50(provision_ns) as f64 / NS_PER_MS);
    m.set("core.prover_attest_ms", p50(prover_ns.clone()) as f64 / NS_PER_MS);
    m.set("core.verifier_verify_ms", p50(verify_ns) as f64 / NS_PER_MS);
    m.set("pe32.cycles_per_session", mean(&cycles));
    m.set(
        "pe32.host_ns_per_cycle",
        prover_ns.iter().sum::<u64>() as f64 / cycles.iter().sum::<u64>().max(1) as f64,
    );

    let enrolled = last.ok_or("no device provisioned")?;
    let width = cfg.puf.width;
    let vpuf = enrolled.verifier_puf().map_err(|e| e.to_string())?;
    let challenges: Vec<Challenge> = (0..2048).map(|_| Challenge::random(&mut rng, width)).collect();
    let (refs, ns) = tracer.time("alupuf.emulate_batch", || vpuf.emulate_batch(&challenges, 1));
    black_box(refs);
    m.set("alupuf.emulate_us_per_crp", ns as f64 / NS_PER_US / challenges.len() as f64);

    let mut device = enrolled.device_puf(inputs.seed ^ 0xECC);
    let pipeline = device.pipeline().clone();
    let groups: Vec<([RawResponse; 8], [u32; 8])> = (0..64)
        .map(|_| {
            let chs: [Challenge; 8] = std::array::from_fn(|_| Challenge::random(&mut rng, width));
            let helpers = device.respond(&chs).helpers;
            let emulated = vpuf.emulate_batch(&chs, 1);
            (std::array::from_fn(|j| emulated[j]), helpers)
        })
        .collect();
    let mut conclude_ns = Vec::new();
    for _ in 0..4 {
        for (refs, helpers) in &groups {
            let (out, ns) = tracer.time("ecc.conclude", || pipeline.conclude(refs, helpers));
            black_box(out.ok());
            conclude_ns.push(ns);
        }
    }
    let per_output_us = p50(conclude_ns) as f64 / NS_PER_US;
    m.set("ecc.conclude_us_per_session", per_output_us * f64::from(cfg.params.puf_queries()));
    Ok(())
}

/// Encode, frame, unframe and decode one session's four messages.
fn codec(m: &mut Metrics, tracer: &mut Tracer) -> Result<(), String> {
    let device = 1234;
    let requests = [
        Request::ChallengeRequest { device },
        Request::Attest { device, ticket: 987_654 },
    ];
    let responses = [
        Response::Challenge { device, ticket: 987_654 },
        Response::Verdict {
            device,
            accepted: true,
            response_ok: true,
            time_ok: true,
            timed_out: false,
            attempts: 1,
            elapsed_bits: 0.0123f64.to_bits(),
            status: WireStatus::Active,
        },
    ];
    let (mut payload, mut frame) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    const N: u32 = 20_000;
    let (result, ns) = tracer.time("transport.codec", || {
        for i in 0..N {
            bytes = 0;
            for r in &requests {
                payload.clear();
                frame.clear();
                r.encode(i, &mut payload);
                encode_frame(&payload, &mut frame);
                bytes += frame.len();
                let (body, _) = decode_frame(black_box(&frame))?;
                black_box(Request::decode(body)?);
            }
            for r in &responses {
                payload.clear();
                frame.clear();
                r.encode(i, &mut payload);
                encode_frame(&payload, &mut frame);
                bytes += frame.len();
                let (body, _) = decode_frame(black_box(&frame))?;
                black_box(Response::decode(body)?);
            }
        }
        Ok::<(), pufatt_transport::TransportError>(())
    });
    result.map_err(|e| format!("codec: {e}"))?;
    m.set("transport.wire_bytes_per_session", bytes as f64);
    m.set("transport.codec_us_per_session", ns as f64 / NS_PER_US / f64::from(N));
    Ok(())
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// One fixed-work socket pass over the fleet: set up, drive
/// `inputs.traced_rounds` passes per lane, close, check.
struct SocketPass {
    run: Sessions,
    requests: u64,
    busy: u64,
    snapshot: FleetSnapshot,
    store_records: u64,
    store_bytes: u64,
    setup_spans: Vec<Span>,
    journal: Option<(SimVfs, Arc<FleetService>)>,
    attempted: u64,
    problems: Vec<String>,
}

fn socket_pass(inputs: &Inputs, origin: Option<Instant>) -> Result<SocketPass, String> {
    let (mut served, _) = set_up(inputs, &socket_path(inputs), origin)?;
    let store_stats = |s: &Served| s.server.service().store_stats().unwrap_or_default();
    let (stats0, req0) = (store_stats(&served), served.server.transport_stats().requests);
    let ctl = Control::rounds(inputs.traced_rounds);
    let run = drive_sessions(&mut served, inputs, &ctl, None, origin);
    let (stats1, req1) = (store_stats(&served), served.server.transport_stats().requests);
    let (enrolled, faulted) = (served.enrolled, served.faulted.len() as u64);
    let setup_spans = std::mem::take(&mut served.spans);
    let closed = served.close();
    let report = closed.report;
    let mut problems: Vec<String> = run.error.iter().cloned().collect();
    if let Err(e) = check::tallies_match(&run.tally, enrolled, faulted, &report) {
        problems.push(e);
    }
    if let Err(e) = check::same_verdicts_in_process(&inputs.campaign, &run.seen) {
        problems.push(e);
    }
    Ok(SocketPass {
        requests: req1 - req0,
        busy: report.transport.busy_queue + report.transport.busy_rate,
        snapshot: report.snapshot,
        store_records: stats1.records_appended - stats0.records_appended,
        store_bytes: stats1.wal_bytes.saturating_sub(stats0.wal_bytes),
        setup_spans,
        journal: closed.journal,
        attempted: run.tally.sessions + run.tally.stranded + enrolled + faulted,
        problems,
        run,
    })
}

/// The traced run. Its socket replay is fixed work, so every count in it
/// repeats exactly for a seed.
///
/// # Errors
///
/// A failure that leaves nothing to report.
pub fn trace_layers(inputs: &Inputs) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 1 << 12);
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // transport: the bare start call.
    let sock = socket_path(inputs);
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let mut start_ns = Vec::new();
    for _ in 0..5 {
        let endpoint = Endpoint::Uds(sock.clone());
        let (server, ns) = tracer.time("transport.server_start", || {
            Server::start(&endpoint, inputs.campaign.clone(), ServerConfig::default())
        });
        server.map_err(|e| format!("start server: {e}"))?.finish();
        start_ns.push(ns);
    }
    let _ = std::fs::remove_file(&sock);
    m.set("transport.server_start_ms", p50(start_ns) as f64 / NS_PER_MS);

    // The same fixed work untraced, then traced.
    let plain = socket_pass(inputs, None)?;
    let mut problems = plain.problems;
    let traced = socket_pass(inputs, Some(origin))?;
    problems.extend(traced.problems);
    let sessions = traced.run.tally.sessions;
    let untraced_sps = plain.run.tally.sessions as f64 / plain.run.wall_s;
    let traced_sps = sessions as f64 / traced.run.wall_s;
    m.set("trace.untraced_sessions_per_s", untraced_sps);
    m.set("trace.sessions_per_s", traced_sps);
    m.set("trace.overhead_pct", 100.0 * (untraced_sps - traced_sps) / untraced_sps);
    let challenge_us = p50(durations(&traced.run.spans, "transport.challenge_leg")) as f64 / NS_PER_US;
    let attest_us = p50(durations(&traced.run.spans, "transport.attest_leg")) as f64 / NS_PER_US;
    m.set("transport.challenge_rtt_us", challenge_us);
    m.set("transport.attest_rtt_us", attest_us);
    m.set("transport.round_trips_per_session", frac(traced.requests, sessions));
    m.set("transport.busy_replies", traced.busy as f64);
    let lat = &traced.run.windows[0].latencies_ns;
    m.set("transport.session_p99_ms", percentile(lat, 0.99) as f64 / NS_PER_MS);
    m.set("transport.session_max_ms", lat.last().copied().unwrap_or(0) as f64 / NS_PER_MS);
    let server_cpu_us = traced.run.server_cpu_ns[0] as f64 / NS_PER_US / sessions.max(1) as f64;
    m.set("transport.server_cpu_us_per_session", server_cpu_us);
    let snap = &traced.snapshot;
    let closed = snap.sessions_accepted + snap.sessions_rejected;
    m.set(
        "fleet.attempts_per_session",
        frac(snap.sessions_started + snap.attempts_retried, snap.sessions_started),
    );
    m.set("fleet.accepted_frac", frac(snap.sessions_accepted, closed + snap.sessions_refused));
    m.set("fleet.refused_frac", frac(snap.sessions_refused, closed + snap.sessions_refused));
    m.set("alupuf.crp_misses_per_session", frac(snap.crp_misses, snap.sessions_started));
    m.set("alupuf.crp_hit_ratio", frac(snap.crp_hits, snap.crp_hits + snap.crp_misses));
    let journaled = inputs.workload.journaled();
    m.set("store.records_per_session", if journaled { frac(traced.store_records, sessions) } else { 0.0 });
    m.set("store.bytes_per_session", if journaled { frac(traced.store_bytes, sessions) } else { 0.0 });

    // fleet: direct calls, then the in-process ceiling.
    let replay = replay_direct(inputs, journaled, &mut tracer)?;
    m.set("fleet.enroll_ms", p50(replay.enroll_ns.clone()) as f64 / NS_PER_MS);
    m.set("fleet.enroll_ms_mean", mean(&replay.enroll_ns) / NS_PER_MS);
    m.set("fleet.open_session_us", p50(replay.open_ns.clone()) as f64 / NS_PER_US);
    m.set("fleet.open_session_us_mean", mean(&replay.open_ns) / NS_PER_US);
    m.set("fleet.attest_us", p50(replay.attest_ns.clone()) as f64 / NS_PER_US);
    m.set("fleet.attest_us_mean", mean(&replay.attest_ns) / NS_PER_US);
    m.set("transport.attest_wait_us", attest_us - p50(replay.attest_ns.clone()) as f64 / NS_PER_US);
    let inproc = inprocess_sessions_per_s(inputs)?;
    m.set("fleet.inprocess_sessions_per_s", inproc);
    m.set("transport.socket_overhead_ratio", inproc / untraced_sps);

    // store: journaled minus plain direct calls, and the reopen.
    let (mut journal_us, mut sync_us, mut replayed, mut recover_s, mut restore_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some((disk, service)) = traced.journal {
        let plain_replay = replay_direct(inputs, false, &mut tracer)?;
        journal_us = (mean(&replay.attest_ns) - mean(&plain_replay.attest_ns)) / NS_PER_US;
        sync_us = (mean(&replay.enroll_ns) - mean(&plain_replay.enroll_ns)) / NS_PER_US;
        // A crash restart replays the WAL the fixed-work pass wrote; the
        // graceful one (after the shutdown checkpoint) is `restart_s`'s path.
        let (crash, _) = tracer.time("store.crash_restart", || restart(inputs, &disk, &sock));
        let crash = crash?;
        service.checkpoint().map_err(|e| format!("shutdown checkpoint: {e}"))?;
        drop(service);
        let (graceful, _) = tracer.time("store.restart", || restart(inputs, &disk, &sock));
        let graceful = graceful?;
        (replayed, recover_s, restore_s) = (crash.replayed_records as f64, crash.recover_s, graceful.restore_s);
        for r in [&crash, &graceful] {
            if let Err(e) = check::restored_matches(&traced.snapshot, &r.snapshot) {
                problems.push(e);
            }
        }
    }
    m.set("store.journal_us_per_session", journal_us);
    m.set("store.enroll_sync_us", sync_us);
    m.set("store.replayed_records", replayed);
    m.set("store.recover_s", recover_s);
    m.set("fleet.restore_s", restore_s);

    core_layers(inputs, &mut tracer, &mut m)?;
    codec(&mut m, &mut tracer)?;

    let codec_us = m.get("transport.codec_us_per_session").unwrap_or(0.0);
    let open_us = mean(&replay.open_ns) / NS_PER_US;
    // Mean attest cost per *session*: refused sessions never reach attest.
    let attest_per_session_us =
        replay.attest_ns.iter().sum::<u64>() as f64 / NS_PER_US / replay.open_ns.len().max(1) as f64;
    let unattributed = server_cpu_us - open_us - attest_per_session_us - codec_us;
    m.set("transport.unattributed_us_per_session", unattributed);
    notes.push(format!(
        "attribution: server CPU {server_cpu_us:.2} us/session = open_session {open_us:.2} + attest {attest_per_session_us:.2} \
         + codec {codec_us:.2} + unattributed {unattributed:.2} (syscalls, wake-ups, locks, contention)"
    ));
    notes.push(format!(
        "tracing overhead: traced {traced_sps:.1} vs untraced {untraced_sps:.1} sessions/s over the same fixed work"
    ));

    let mut spans = tracer.into_spans();
    spans.extend(traced.setup_spans);
    spans.extend(traced.run.spans.iter().copied());
    spans.sort_by_key(|s| s.start_ns);
    m.set("trace.spans", spans.len() as f64);
    let dump = out_dir().join(format!("spans-{}-seed{}.jsonl", inputs.workload.name(), inputs.seed));
    std::fs::write(&dump, to_jsonl(&spans)).map_err(|e| format!("write {}: {e}", dump.display()))?;
    notes.push(format!("spans: {} written to {}", spans.len(), dump.display()));

    notes.push(format!(
        "traced socket pass: {sessions} sessions, {} verdict sequences checked in process, final states {:?}",
        traced.run.seen.len(),
        traced.snapshot.devices
    ));
    notes.extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.run.tally.failed + traced.run.tally.failed,
        metrics: m,
        notes,
    })
}
