//! The load generator: a fleet's worth of simulated devices multiplexed
//! over a bounded set of real connections.
//!
//! Each connection thread owns the devices whose `id % connections`
//! matches it and drives every one through its schedule — `Enroll`, then
//! `sessions_per_device` rounds of `ChallengeRequest` + `Attest` — keeping
//! up to `window` devices in flight concurrently via correlation-id
//! pipelining. Concurrency is therefore `connections × window` devices,
//! which reaches tens of thousands without tens of thousands of sockets
//! or threads.
//!
//! Each device's schedule is a [`DeviceDriver`], the one the in-process
//! campaign steps: the generator maps every wire reply onto the driver's
//! [`Outcome`] and sends the request for its next [`Step`]. So what a
//! refusal, a device fault or a sick storage shard does to a schedule is
//! decided in one place (`pufatt_fleet::driver`), and a socket campaign
//! keeps the in-process campaign's accounting. Only the wire's own
//! concerns live here: pipelining, `Busy` answers re-sent after the
//! server's hint (backpressure is a pacing signal, not an error), latency
//! samples, and stranding devices when a connection dies.
//!
//! Latency is sampled per *session* (send of its `ChallengeRequest` to
//! receipt of its `Verdict`, busy-retry backoff included) — the
//! device-visible attestation round-trip.

use crate::client::Client;
use crate::conn::Endpoint;
use crate::error::{ErrorCode, TransportError};
use crate::message::{Request, Response};
use pufatt_fleet::driver::{DeviceDriver, DeviceTally, Outcome, Step};
use pufatt_fleet::registry::DeviceId;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// `Busy` answers re-sent per request; one more stops the device as
/// errored.
const MAX_BUSY_RETRIES: u32 = 1_000;

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

impl From<Step> for LostPhase {
    /// The phase a device whose request for `step` is outstanding is lost
    /// in.
    fn from(step: Step) -> Self {
        match step {
            Step::Enroll => LostPhase::Enrolling,
            Step::Open => LostPhase::AwaitingChallenge,
            Step::Attest { .. } => LostPhase::Attesting,
            Step::Done => LostPhase::Unstarted,
        }
    }
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
    /// Device faults the server answered: at `Enroll` (the device's
    /// programs could not be built) or at `Attest` (its first session
    /// could not provision it, or it trapped).
    pub device_faults: u64,
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
        let counts = [
            ("connections", self.connections),
            ("concurrent_devices", concurrent_devices),
            ("devices_completed", self.devices_completed),
            ("devices_errored", self.devices_errored),
            ("devices_unavailable", self.devices_unavailable),
            ("sessions_completed", self.sessions_completed),
            ("sessions_refused", self.sessions_refused),
            ("sessions_accepted", self.sessions_accepted),
            ("sessions_unavailable", self.sessions_unavailable),
            ("device_faults", self.device_faults),
            ("busy_retries", self.busy_retries),
            ("connections_lost", self.connection_lost.as_ref().map_or(0, |l| l.connections_lost)),
        ];
        let mut row = format!("{{\"label\":\"{label}\"");
        for (key, value) in counts {
            row += &format!(",\"{key}\":{value}");
        }
        row + &format!(
            ",\"wall_s\":{:.6},\"sessions_per_s\":{:.1},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            self.wall_s, self.sessions_per_s, self.p50_us, self.p90_us, self.p99_us, self.max_us
        )
    }
}

/// One device in flight on its connection.
struct InFlight {
    driver: DeviceDriver,
    /// When the device's current session sent its `ChallengeRequest`.
    session_started: Instant,
    busy_retries: u32,
}

/// One connection's share of the campaign: its devices in flight, the
/// next device of its stride, and what its devices did. The devices'
/// protocol counts are a [`DeviceTally`]; the rest belongs to the wire.
#[derive(Default)]
struct Lane {
    /// Devices awaiting a reply, by the correlation id of their request.
    inflight: HashMap<u32, InFlight>,
    next_device: u32,
    tally: DeviceTally,
    busy_retries: u64,
    latencies_us: Vec<u64>,
    /// Whether the connect + handshake succeeded (distinguishes a server
    /// that was never reachable from one that vanished mid-run).
    connected: bool,
    /// Stranded devices with the phase each was lost in.
    lost_devices: Vec<(DeviceId, LostPhase)>,
    /// The transport error that ended the connection early, rendered.
    error: Option<String>,
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
    let mut total = Lane::default();
    let (mut connections_lost, mut first_error) = (0u64, None);
    for handle in handles {
        let run = handle.join().unwrap_or_else(|_| Lane {
            error: Some("loadgen worker panicked".into()),
            ..Lane::default()
        });
        if let Some(error) = run.error {
            connections_lost += 1;
            first_error.get_or_insert(error);
        }
        total.connected |= run.connected;
        total.tally.merge(&run.tally);
        total.busy_retries += run.busy_retries;
        total.latencies_us.extend(run.latencies_us);
        total.lost_devices.extend(run.lost_devices);
    }
    if !total.connected {
        return Err(TransportError::Closed("no loadgen connection reached the server".into()));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let latencies = &mut total.latencies_us;
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len().max(1));
        latencies.get(idx - 1).copied().unwrap_or(0)
    };
    let stranded = total.lost_devices.len() as u64;
    let connection_lost = first_error.map(|first_error| {
        let mut devices = std::mem::take(&mut total.lost_devices);
        devices.sort_unstable_by_key(|&(id, _)| id);
        ConnectionLost { connections_lost, first_error, devices }
    });
    let tally = total.tally;
    Ok(LoadgenReport {
        devices_completed: tally.devices_completed,
        devices_errored: tally.devices_errored + stranded,
        devices_unavailable: tally.devices_unavailable,
        sessions_completed: tally.sessions_completed,
        sessions_refused: tally.sessions_refused,
        sessions_accepted: tally.sessions_accepted,
        sessions_unavailable: tally.sessions_unavailable,
        device_faults: tally.device_faults,
        busy_retries: total.busy_retries,
        connections: connections as u64 - connections_lost,
        wall_s,
        sessions_per_s: if wall_s > 0.0 { tally.sessions_completed as f64 / wall_s } else { 0.0 },
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        connection_lost,
    })
}

/// Drives this connection's device stride to completion. When the
/// connection dies, every device in flight is stranded in the phase of
/// its pending step, and the rest of the stride is stranded unstarted.
fn drive_connection(cfg: &LoadgenConfig, conn_index: usize) -> Lane {
    let mut lane = Lane { next_device: conn_index as u32, ..Lane::default() };
    let result = Client::connect(&cfg.endpoint, cfg.read_timeout_ms, cfg.write_timeout_ms).and_then(|mut client| {
        lane.connected = true;
        lane.pump(cfg, &mut client)
    });
    if let Err(e) = result {
        for entry in lane.inflight.values() {
            lane.lost_devices.push((entry.driver.id(), entry.driver.next().into()));
        }
        let unstarted = (lane.next_device..cfg.devices).step_by(cfg.connections.max(1));
        lane.lost_devices.extend(unstarted.map(|id| (id, LostPhase::Unstarted)));
        lane.error = Some(e.to_string());
    }
    lane
}

impl Lane {
    /// The connection's request loop: fill the window with fresh devices,
    /// then feed each reply to its device's driver and send the request
    /// for the driver's next step. Returns when every device is done, or
    /// with the transport error that ended the connection (a device whose
    /// request could not be sent is stranded here; the rest by the
    /// caller).
    fn pump(&mut self, cfg: &LoadgenConfig, client: &mut Client) -> Result<(), TransportError> {
        loop {
            let entry = if self.inflight.len() < cfg.window.max(1) && self.next_device < cfg.devices {
                let driver = DeviceDriver::new(self.next_device, cfg.sessions_per_device);
                self.next_device += cfg.connections.max(1) as u32;
                InFlight { driver, session_started: Instant::now(), busy_retries: 0 }
            } else if self.inflight.is_empty() {
                return Ok(());
            } else {
                let (corr, response) = client.recv_any()?;
                let Some(mut entry) = self.inflight.remove(&corr) else {
                    continue; // stale reply for a device we already gave up on
                };
                let outcome = match response {
                    Response::Busy { retry_after_ms } if entry.busy_retries < MAX_BUSY_RETRIES => {
                        entry.busy_retries += 1;
                        self.busy_retries += 1;
                        std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                        None
                    }
                    Response::EnrollOk { .. } => Some(Outcome::Enrolled),
                    Response::Challenge { ticket, .. } => Some(Outcome::Granted { ticket }),
                    Response::Verdict { accepted, .. } => {
                        let elapsed = entry.session_started.elapsed().as_micros();
                        self.latencies_us.push(elapsed.min(u128::from(u64::MAX)) as u64);
                        Some(Outcome::Verdict { accepted })
                    }
                    Response::Error { code: ErrorCode::Refused, .. } => Some(Outcome::Refused),
                    Response::Error { code: ErrorCode::DeviceFault, .. } => Some(Outcome::Fault),
                    Response::Error { code: ErrorCode::StorageUnavailable, .. } => Some(Outcome::Unavailable),
                    // Any other answer (a `Busy` past the cap included) is one
                    // the schedule cannot take: the driver stops the device as
                    // errored.
                    _ => Some(Outcome::Unknown),
                };
                if let Some(outcome) = outcome {
                    entry.busy_retries = 0;
                    entry.driver.record(outcome, &mut self.tally);
                    if entry.driver.next() == Step::Open {
                        entry.session_started = Instant::now();
                    }
                }
                entry
            };
            let (device, step) = (entry.driver.id(), entry.driver.next());
            let request = match step {
                Step::Enroll => Request::Enroll { device },
                Step::Open => Request::ChallengeRequest { device },
                Step::Attest { ticket } => Request::Attest { device, ticket },
                Step::Done => continue,
            };
            let corr = client
                .send(&request)
                .inspect_err(|_| self.lost_devices.push((device, step.into())))?;
            self.inflight.insert(corr, entry);
        }
    }
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
