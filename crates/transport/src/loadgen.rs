//! The load generator: a fleet's worth of simulated devices multiplexed
//! over a bounded set of real connections.
//!
//! Each connection thread owns the devices whose `id % connections`
//! matches it and drives every one through the full protocol —
//! `Enroll`, then `sessions_per_device` rounds of `ChallengeRequest` +
//! `Attest` — keeping up to `window` devices in flight concurrently via
//! correlation-id pipelining. Concurrency is therefore
//! `connections × window` devices, which reaches tens of thousands
//! without tens of thousands of sockets or threads.
//!
//! The generator follows the service's own semantics exactly, which is
//! what makes its campaigns comparable to in-process runs:
//!
//! * a refused `ChallengeRequest` still *spends* one of the device's
//!   sessions (the in-process campaign counts one refusal per scheduled
//!   session of a revoked device);
//! * an `Enroll` fault abandons the device without opening sessions;
//! * `Busy` answers are retried after the server's hint — backpressure
//!   is a pacing signal, not an error.
//!
//! Latency is sampled per *session* (send of its `ChallengeRequest` to
//! receipt of its `Verdict`, busy-retry backoff included) — the
//! device-visible attestation round-trip.

use crate::client::Client;
use crate::conn::Endpoint;
use crate::error::{ErrorCode, TransportError};
use crate::message::{Request, Response};
use pufatt_fleet::registry::DeviceId;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// What to drive and how hard.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server endpoint.
    pub endpoint: Endpoint,
    /// Devices to simulate (ids `0..devices`).
    pub devices: u32,
    /// Attestation sessions per device.
    pub sessions_per_device: u32,
    /// Real connections to open.
    pub connections: usize,
    /// Devices each connection keeps in flight concurrently.
    pub window: usize,
    /// Socket read timeout in ms (`0` = block forever).
    pub read_timeout_ms: u64,
    /// Socket write timeout in ms (`0` = block forever).
    pub write_timeout_ms: u64,
    /// `Busy` answers tolerated per request before the device errors out.
    pub max_busy_retries: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            devices: 64,
            sessions_per_device: 2,
            connections: 4,
            window: 16,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            max_busy_retries: 1_000,
        }
    }
}

/// The protocol phase a device was in when its connection died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LostPhase {
    /// Its `Enroll` was in flight; nothing was admitted.
    Enrolling,
    /// A `ChallengeRequest` was in flight; no session was open.
    AwaitingChallenge,
    /// An `Attest` was in flight: a session was opened but its verdict
    /// never arrived (the server records it as an aborted, lost session).
    Attesting,
    /// The connection died before its stride reached this device.
    Unstarted,
}

impl fmt::Display for LostPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LostPhase::Enrolling => "enrolling",
            LostPhase::AwaitingChallenge => "awaiting-challenge",
            LostPhase::Attesting => "attesting",
            LostPhase::Unstarted => "unstarted",
        })
    }
}

/// Typed summary of mid-campaign connection loss: which connections died,
/// the first transport error seen, and the exact disposition of every
/// stranded device — instead of a generic error that hides how far the
/// campaign got.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnectionLost {
    /// Connections that died before completing their device stride.
    pub connections_lost: u64,
    /// The first transport error observed (the root cause, rendered).
    pub first_error: String,
    /// Every stranded device with the phase it was lost in, ascending by
    /// id.
    pub devices: Vec<(DeviceId, LostPhase)>,
}

impl fmt::Display for ConnectionLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = |p: LostPhase| self.devices.iter().filter(|&&(_, q)| q == p).count();
        write!(
            f,
            "{} connection(s) lost mid-campaign ({}): {} device(s) stranded — \
             {} enrolling, {} awaiting-challenge, {} attesting, {} unstarted",
            self.connections_lost,
            self.first_error,
            self.devices.len(),
            count(LostPhase::Enrolling),
            count(LostPhase::AwaitingChallenge),
            count(LostPhase::Attesting),
            count(LostPhase::Unstarted),
        )
    }
}

/// What the campaign did, aggregated over all connections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadgenReport {
    /// Devices driven to their terminal state.
    pub devices_completed: u64,
    /// Devices stranded by a transport error or busy-retry exhaustion.
    pub devices_errored: u64,
    /// Sessions that reached a verdict.
    pub sessions_completed: u64,
    /// Sessions the server refused (revoked device).
    pub sessions_refused: u64,
    /// Verdicts with `accepted = true`.
    pub sessions_accepted: u64,
    /// Enrolls answered with a device fault.
    pub enroll_faults: u64,
    /// Sessions refused with `storage-unavailable` (the device's durable
    /// home shard was sick; its remaining schedule is counted here).
    pub sessions_unavailable: u64,
    /// Devices that stopped because their storage shard was unavailable.
    pub devices_unavailable: u64,
    /// `Busy` answers absorbed (rate-limit backpressure).
    pub busy_retries: u64,
    /// Real connections that completed their share.
    pub connections: u64,
    /// Wall-clock seconds for the whole campaign.
    pub wall_s: f64,
    /// Completed sessions per wall-clock second.
    pub sessions_per_s: f64,
    /// Median session latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile session latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile session latency in microseconds.
    pub p99_us: u64,
    /// Worst session latency in microseconds.
    pub max_us: u64,
    /// Present when at least one connection died mid-campaign: the typed
    /// loss summary with per-device disposition. The campaign-level
    /// counters above still cover everything the surviving connections
    /// finished.
    pub connection_lost: Option<ConnectionLost>,
}

impl LoadgenReport {
    /// Renders one JSON object (no trailing newline) for bench output.
    pub fn json_object(&self, label: &str, concurrent_devices: u64) -> String {
        format!(
            concat!(
                "{{\"label\":\"{}\",\"connections\":{},\"concurrent_devices\":{},",
                "\"devices_completed\":{},\"devices_errored\":{},\"devices_unavailable\":{},",
                "\"sessions_completed\":{},\"sessions_refused\":{},\"sessions_accepted\":{},",
                "\"sessions_unavailable\":{},",
                "\"enroll_faults\":{},\"busy_retries\":{},\"connections_lost\":{},",
                "\"wall_s\":{:.6},\"sessions_per_s\":{:.1},",
                "\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}"
            ),
            label,
            self.connections,
            concurrent_devices,
            self.devices_completed,
            self.devices_errored,
            self.devices_unavailable,
            self.sessions_completed,
            self.sessions_refused,
            self.sessions_accepted,
            self.sessions_unavailable,
            self.enroll_faults,
            self.busy_retries,
            self.connection_lost.as_ref().map_or(0, |l| l.connections_lost),
            self.wall_s,
            self.sessions_per_s,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
        )
    }
}

/// One device's progress on its connection.
struct InFlight {
    id: DeviceId,
    /// Sessions this device still owes (including the one in flight).
    remaining: u32,
    /// The request awaiting its reply (resent verbatim on `Busy`).
    request: Request,
    /// When this session's `ChallengeRequest` went out.
    session_started: Option<Instant>,
    busy_retries: u32,
}

#[derive(Default)]
struct ConnTally {
    devices_completed: u64,
    devices_errored: u64,
    devices_unavailable: u64,
    sessions_completed: u64,
    sessions_refused: u64,
    sessions_accepted: u64,
    sessions_unavailable: u64,
    enroll_faults: u64,
    busy_retries: u64,
    latencies_us: Vec<u64>,
    /// Whether the TCP connect + handshake succeeded (distinguishes a
    /// server that was never reachable from one that vanished mid-run).
    connected: bool,
    /// Stranded devices with the phase each was lost in.
    lost_devices: Vec<(DeviceId, LostPhase)>,
}

/// Runs a full campaign against a live server and reports throughput and
/// latency.
///
/// # Errors
///
/// [`TransportError`] only when *no* connection could even be
/// established. A connection that dies *after* reaching the server does
/// not fail the call: its stranded devices are counted in
/// `devices_errored` and itemised, with the root-cause error, in the
/// report's [`LoadgenReport::connection_lost`] summary.
#[allow(clippy::result_large_err)] // the spawn closure carries drive_connection's tally-with-error pair
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadgenReport, TransportError> {
    let connections = cfg.connections.max(1);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for conn_index in 0..connections {
        let cfg = cfg.clone();
        let handle = std::thread::Builder::new()
            .name(format!("pufatt-loadgen-{conn_index}"))
            .spawn(move || drive_connection(&cfg, conn_index))
            .map_err(|e| TransportError::Closed(format!("spawn loadgen worker: {e}")))?;
        handles.push(handle);
    }
    let mut tally = ConnTally::default();
    let mut live_connections = 0u64;
    let mut connections_lost = 0u64;
    let mut any_connected = false;
    let mut first_error = String::new();
    for handle in handles {
        match handle.join() {
            Ok(Ok(conn_tally)) => {
                live_connections += 1;
                any_connected = true;
                merge(&mut tally, conn_tally);
            }
            Ok(Err((conn_tally, err))) => {
                connections_lost += 1;
                any_connected |= conn_tally.connected;
                if first_error.is_empty() {
                    first_error = err.to_string();
                }
                merge(&mut tally, conn_tally);
            }
            Err(_) => {
                connections_lost += 1;
                if first_error.is_empty() {
                    first_error = "loadgen worker panicked".into();
                }
            }
        }
    }
    if !any_connected {
        return Err(TransportError::Closed("no loadgen connection reached the server".into()));
    }
    let wall_s = started.elapsed().as_secs_f64();
    tally.latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if tally.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((tally.latencies_us.len() as f64 * p).ceil() as usize).clamp(1, tally.latencies_us.len());
        tally.latencies_us[idx - 1]
    };
    let connection_lost = (connections_lost > 0).then(|| {
        let mut devices = std::mem::take(&mut tally.lost_devices);
        devices.sort_unstable_by_key(|&(id, _)| id);
        ConnectionLost { connections_lost, first_error, devices }
    });
    Ok(LoadgenReport {
        devices_completed: tally.devices_completed,
        devices_errored: tally.devices_errored,
        devices_unavailable: tally.devices_unavailable,
        sessions_completed: tally.sessions_completed,
        sessions_refused: tally.sessions_refused,
        sessions_accepted: tally.sessions_accepted,
        sessions_unavailable: tally.sessions_unavailable,
        enroll_faults: tally.enroll_faults,
        busy_retries: tally.busy_retries,
        connections: live_connections,
        wall_s,
        sessions_per_s: if wall_s > 0.0 { tally.sessions_completed as f64 / wall_s } else { 0.0 },
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        max_us: tally.latencies_us.last().copied().unwrap_or(0),
        connection_lost,
    })
}

fn merge(into: &mut ConnTally, from: ConnTally) {
    into.devices_completed += from.devices_completed;
    into.devices_errored += from.devices_errored;
    into.devices_unavailable += from.devices_unavailable;
    into.sessions_completed += from.sessions_completed;
    into.sessions_refused += from.sessions_refused;
    into.sessions_accepted += from.sessions_accepted;
    into.sessions_unavailable += from.sessions_unavailable;
    into.enroll_faults += from.enroll_faults;
    into.busy_retries += from.busy_retries;
    into.latencies_us.extend(from.latencies_us);
    into.lost_devices.extend(from.lost_devices);
}

/// Drives this connection's device stride to completion. On a transport
/// error the tally so far rides along with the error.
#[allow(clippy::result_large_err)]
fn drive_connection(cfg: &LoadgenConfig, conn_index: usize) -> Result<ConnTally, (ConnTally, TransportError)> {
    let mut tally = ConnTally::default();
    let mut client = match Client::connect(&cfg.endpoint, cfg.read_timeout_ms, cfg.write_timeout_ms) {
        Ok(client) => client,
        Err(e) => {
            // Never reached the server: the whole stride is unstarted.
            strand(&mut tally, &HashMap::new(), conn_index as u32, cfg.devices, cfg.connections.max(1) as u32);
            return Err((tally, e));
        }
    };
    tally.connected = true;
    let connections = cfg.connections.max(1) as u32;
    let mut next_device = conn_index as u32;
    let window = cfg.window.max(1);
    let mut inflight: HashMap<u32, InFlight> = HashMap::new();
    loop {
        // Fill the window with fresh devices.
        while inflight.len() < window && next_device < cfg.devices {
            let id = next_device;
            next_device += connections;
            let request = Request::Enroll { device: id };
            match client.send(&request) {
                Ok(corr) => {
                    inflight.insert(
                        corr,
                        InFlight {
                            id,
                            remaining: cfg.sessions_per_device,
                            request,
                            session_started: None,
                            busy_retries: 0,
                        },
                    );
                }
                Err(e) => {
                    tally.devices_errored += 1;
                    tally.lost_devices.push((id, LostPhase::Enrolling));
                    strand(&mut tally, &inflight, next_device, cfg.devices, connections);
                    return Err((tally, e));
                }
            }
        }
        if inflight.is_empty() {
            return Ok(tally);
        }
        let (corr, response) = match client.recv_any() {
            Ok(pair) => pair,
            Err(e) => {
                strand(&mut tally, &inflight, next_device, cfg.devices, connections);
                return Err((tally, e));
            }
        };
        let Some(mut entry) = inflight.remove(&corr) else {
            continue; // stale reply for a device we already gave up on
        };
        let was_busy = matches!(response, Response::Busy { .. });
        let next = match response {
            Response::Busy { retry_after_ms } => {
                entry.busy_retries += 1;
                tally.busy_retries += 1;
                if entry.busy_retries > cfg.max_busy_retries {
                    tally.devices_errored += 1;
                    continue;
                }
                std::thread::sleep(std::time::Duration::from_millis(u64::from(retry_after_ms.max(1))));
                Some(entry.request.clone())
            }
            Response::EnrollOk { .. } => {
                if entry.remaining == 0 {
                    tally.devices_completed += 1;
                    None
                } else {
                    entry.session_started = Some(Instant::now());
                    Some(Request::ChallengeRequest { device: entry.id })
                }
            }
            Response::Challenge { device, ticket } => Some(Request::Attest { device, ticket }),
            Response::Verdict { accepted, .. } => {
                tally.sessions_completed += 1;
                tally.sessions_accepted += u64::from(accepted);
                if let Some(t0) = entry.session_started.take() {
                    tally
                        .latencies_us
                        .push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                }
                entry.remaining -= 1;
                if entry.remaining > 0 {
                    entry.session_started = Some(Instant::now());
                    Some(Request::ChallengeRequest { device: entry.id })
                } else {
                    tally.devices_completed += 1;
                    None
                }
            }
            Response::Error { code: ErrorCode::Refused, .. } => {
                // One scheduled session spent on a revoked device —
                // mirrors the in-process campaign's refusal accounting.
                tally.sessions_refused += 1;
                entry.remaining = entry.remaining.saturating_sub(1);
                if entry.remaining > 0 {
                    entry.session_started = Some(Instant::now());
                    Some(Request::ChallengeRequest { device: entry.id })
                } else {
                    tally.devices_completed += 1;
                    None
                }
            }
            Response::Error { code: ErrorCode::DeviceFault, .. } => {
                // Provisioning faulted: the device is abandoned with no
                // sessions, as in process.
                tally.enroll_faults += 1;
                tally.devices_completed += 1;
                None
            }
            Response::Error { code: ErrorCode::StorageUnavailable, .. } => {
                // The device's durable home shard is sick: the server
                // refuses its requests up front. Mirror the fleet's own
                // accounting — the rest of this device's schedule is
                // unavailable and the device stops (its healthy-shard
                // peers keep attesting on this same connection).
                tally.sessions_unavailable += u64::from(entry.remaining);
                tally.devices_unavailable += 1;
                None
            }
            Response::Error { .. }
            | Response::HelloAck { .. }
            | Response::RevokeOk { .. }
            | Response::StatsReply(_)
            | Response::ShutdownAck => {
                tally.devices_errored += 1;
                None
            }
        };
        if let Some(request) = next {
            if !was_busy {
                entry.busy_retries = 0;
            }
            match client.send(&request) {
                Ok(new_corr) => {
                    entry.request = request;
                    inflight.insert(new_corr, entry);
                }
                Err(e) => {
                    tally.devices_errored += 1;
                    tally.lost_devices.push((entry.id, phase_of(&request)));
                    strand(&mut tally, &inflight, next_device, cfg.devices, connections);
                    return Err((tally, e));
                }
            }
        }
    }
}

/// The loss phase a device's outstanding request pins it to.
fn phase_of(request: &Request) -> LostPhase {
    match request {
        Request::Enroll { .. } => LostPhase::Enrolling,
        Request::ChallengeRequest { .. } => LostPhase::AwaitingChallenge,
        Request::Attest { .. } => LostPhase::Attesting,
        _ => LostPhase::Unstarted,
    }
}

/// Records every device this connection strands when it dies: the
/// in-flight ones (with the phase their outstanding request names) plus
/// the unstarted remainder of its stride, all counted as errored.
fn strand(tally: &mut ConnTally, inflight: &HashMap<u32, InFlight>, next_device: u32, devices: u32, connections: u32) {
    for entry in inflight.values() {
        tally.lost_devices.push((entry.id, phase_of(&entry.request)));
    }
    let mut id = next_device;
    while id < devices {
        tally.lost_devices.push((id, LostPhase::Unstarted));
        id += connections;
    }
    let unstarted = u64::from(if next_device < devices {
        (devices - next_device).div_ceil(connections)
    } else {
        0
    });
    tally.devices_errored += inflight.len() as u64 + unstarted;
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::conn::Listener;
    use crate::frame::{read_frame, write_frame};
    use crate::message::negotiate;

    /// A server that completes the handshake, reads one request, then
    /// vanishes — the canonical mid-campaign connection loss.
    fn vanish_after_first_request(listener: Listener) {
        let Ok(mut stream) = listener.accept() else {
            return;
        };
        let _ = stream.set_read_timeout_ms(5_000);
        let _ = stream.set_write_timeout_ms(5_000);
        let mut payload = Vec::new();
        if !matches!(read_frame(&mut stream, &mut payload, 5_000), Ok(true)) {
            return;
        }
        let Ok((corr, Request::Hello { magic, min_version, max_version })) = Request::decode(&payload) else {
            return;
        };
        let Ok(version) = negotiate(magic, min_version, max_version) else {
            return;
        };
        let mut out = Vec::new();
        Response::HelloAck { version }.encode(corr, &mut out);
        let _ = write_frame(&mut stream, &out, 5_000);
        // Swallow the first real request, then drop the socket.
        let _ = read_frame(&mut stream, &mut payload, 5_000);
    }

    #[test]
    fn connection_loss_yields_a_typed_per_device_disposition() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let endpoint = listener.local_endpoint().clone();
        let server = std::thread::spawn(move || vanish_after_first_request(listener));
        let cfg = LoadgenConfig {
            endpoint,
            devices: 2,
            sessions_per_device: 1,
            connections: 1,
            window: 1,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&cfg).expect("a connected-then-lost campaign still reports");
        let lost = report.connection_lost.expect("typed connection-loss summary");
        assert_eq!(lost.connections_lost, 1);
        assert!(!lost.first_error.is_empty(), "root cause must be carried");
        assert_eq!(
            lost.devices,
            vec![(0, LostPhase::Enrolling), (1, LostPhase::Unstarted)],
            "each stranded device carries the phase it was lost in"
        );
        assert_eq!(report.devices_errored, 2);
        assert_eq!(report.devices_completed, 0);
        let line = lost.to_string();
        assert!(line.contains("1 connection(s) lost") && line.contains("1 enrolling"), "display: {line}");
        server.join().unwrap();
    }

    #[test]
    fn an_unreachable_server_is_still_a_hard_error() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let endpoint = listener.local_endpoint().clone();
        drop(listener);
        let cfg = LoadgenConfig {
            endpoint,
            devices: 1,
            connections: 1,
            ..LoadgenConfig::default()
        };
        assert!(run_loadgen(&cfg).is_err(), "no connection established at all");
    }
}
