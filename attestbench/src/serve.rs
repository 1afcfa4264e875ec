//! Starting, enrolling, stopping and restarting the served fleet.
//!
//! The server runs in process on a real Unix socket. The journaled
//! workload keeps its state directory on the store's in-memory disk
//! ([`SimVfs`]): like tmpfs it does no device I/O, so a shared disk's
//! fsync latency does not reach the figures, and it keeps the benchmark
//! from writing outside its own directory.

use crate::closed_loop::{enroll, Enrolled, IO_TIMEOUT_MS};
use crate::trace::{Span, Tracer};
use crate::workload::Inputs;
use pufatt_fleet::{DeviceId, FleetService, FleetSnapshot};
use pufatt_store::{ShardedOptions, ShardedStore, SimVfs, TornMode};
use pufatt_transport::{Client, Endpoint, Server, ServerConfig, ServerReport};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where the benchmark writes its socket and span dumps: `out/` next to
/// its manifest, as a path relative to the working directory when it can
/// be (a Unix socket path must stay short).
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let relative = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(&cwd).ok().map(Path::to_path_buf));
    relative.unwrap_or(dir)
}

/// A socket path for a server of `inputs`, unique within this process.
pub fn socket_path(inputs: &Inputs) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!("{}-{}-{n}.sock", inputs.workload.name(), std::process::id()))
}

/// Opens a sharded store over `disk` (the `open_state_dir` step, on the
/// in-memory disk).
pub fn open_store(disk: &SimVfs, history_capacity: usize) -> Result<Arc<ShardedStore>, String> {
    let opts = ShardedOptions {
        history_capacity: history_capacity.max(1),
        ..ShardedOptions::default()
    };
    ShardedStore::open(Arc::new(disk.clone()), opts)
        .map(Arc::new)
        .map_err(|e| format!("open state dir: {e}"))
}

/// A running server with its fleet enrolled over the benchmark's clients.
pub struct Served {
    /// The server.
    pub server: Server,
    /// The journaled workload's disk.
    pub disk: Option<SimVfs>,
    /// One connected client per connection, in connection order.
    pub clients: Vec<Client>,
    /// Devices whose provisioning faulted.
    pub faulted: HashSet<DeviceId>,
    /// Devices enrolled.
    pub enrolled: u64,
    /// Enrollment spans (traced set-ups only).
    pub spans: Vec<Span>,
    sock: PathBuf,
}

/// One connection after enrolling its devices, with its spans.
type ConnEnrollment = Result<(Client, Enrolled, Vec<Span>), String>;

/// Starts the server over `sock` and enrolls the whole fleet, returning
/// the served fleet and the set-up time in seconds: from the start call
/// (including opening the state dir) until every device is enrolled.
///
/// # Errors
///
/// Any start, connect or enrollment failure.
pub fn set_up(inputs: &Inputs, sock: &Path, origin: Option<Instant>) -> Result<(Served, f64), String> {
    let t = Instant::now();
    let endpoint = Endpoint::Uds(sock.to_path_buf());
    let (server, disk) = if inputs.workload.journaled() {
        let disk = SimVfs::new();
        let store = open_store(&disk, inputs.campaign.history_capacity)?;
        let service = FleetService::with_journal(inputs.campaign.clone(), store)
            .map_err(|e| format!("journaled service: {e}"))?;
        (Server::start_with_service(&endpoint, Arc::new(service), ServerConfig::default()), Some(disk))
    } else {
        (Server::start(&endpoint, inputs.campaign.clone(), ServerConfig::default()), None)
    };
    let server = server.map_err(|e| format!("start server: {e}"))?;
    let endpoint = server.endpoint().clone();
    let results: Vec<ConnEnrollment> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..inputs.connections)
            .map(|conn| {
                let endpoint = &endpoint;
                s.spawn(move || {
                    let mut client =
                        Client::connect(endpoint, IO_TIMEOUT_MS, IO_TIMEOUT_MS).map_err(|e| format!("connect: {e}"))?;
                    let mut tracer = origin.map(|o| Tracer::new(o, 64 + conn as u64));
                    let enrolled = enroll(&mut client, &inputs.devices_of(conn), inputs.in_flight, tracer.as_mut())?;
                    Ok((client, enrolled, tracer.map(Tracer::into_spans).unwrap_or_default()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("enrollment thread panicked".into())))
            .collect()
    });
    let setup_s = t.elapsed().as_secs_f64();
    let mut served = Served {
        server,
        disk,
        clients: Vec::new(),
        faulted: HashSet::new(),
        enrolled: 0,
        spans: Vec::new(),
        sock: sock.to_path_buf(),
    };
    let mut first_error = None;
    for result in results {
        match result {
            Ok((client, enrolled, spans)) => {
                served.clients.push(client);
                served.enrolled += enrolled.ok;
                served.faulted.extend(enrolled.faulted);
                served.spans.extend(spans);
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_error {
        served.close();
        return Err(e);
    }
    Ok((served, setup_s))
}

/// A drained server's final report, and for the journaled workload its
/// disk and the still-open service (for the shutdown checkpoint).
pub struct Closed {
    /// The server's final report.
    pub report: ServerReport,
    /// The journaled workload's disk and service.
    pub journal: Option<(SimVfs, Arc<FleetService>)>,
}

impl Served {
    /// Closes the clients and drains the server.
    pub fn close(self) -> Closed {
        let service = Arc::clone(self.server.service());
        drop(self.clients);
        let report = self.server.finish();
        let _ = std::fs::remove_file(&self.sock);
        Closed { report, journal: self.disk.map(|disk| (disk, service)) }
    }
}

/// One restart of the journaled server from a copy of `disk`.
pub struct Restart {
    /// The whole restart, in seconds.
    pub restart_s: f64,
    /// Of which: opening the store.
    pub recover_s: f64,
    /// Of which: restoring the service from it.
    pub restore_s: f64,
    /// WAL records replayed by the reopen.
    pub replayed_records: u64,
    /// The restored service's snapshot.
    pub snapshot: FleetSnapshot,
}

/// Restarts the journaled server from an identical copy of `disk`, so
/// every restart of a run does the same work: reopen the state dir,
/// restore the service, start serving, until the first `Hello` is
/// answered.
///
/// # Errors
///
/// Any reopen, restore, start or connect failure.
pub fn restart(inputs: &Inputs, disk: &SimVfs, sock: &Path) -> Result<Restart, String> {
    let copy = disk.power_cut(TornMode::Keep);
    let t = Instant::now();
    let store = open_store(&copy, inputs.campaign.history_capacity)?;
    let recover_s = t.elapsed().as_secs_f64();
    let replayed_records = store.stats().records_replayed;
    let service = FleetService::with_journal(inputs.campaign.clone(), store).map_err(|e| format!("restore: {e}"))?;
    let restore_s = t.elapsed().as_secs_f64() - recover_s;
    let endpoint = Endpoint::Uds(sock.to_path_buf());
    let server = Server::start_with_service(&endpoint, Arc::new(service), ServerConfig::default())
        .map_err(|e| format!("restart server: {e}"))?;
    let client = Client::connect(server.endpoint(), IO_TIMEOUT_MS, IO_TIMEOUT_MS);
    let restart_s = t.elapsed().as_secs_f64();
    let snapshot = server.service().snapshot();
    // Closed before the drain, which would otherwise wait for it.
    let connected = client.map(drop);
    server.finish();
    let _ = std::fs::remove_file(sock);
    connected.map_err(|e| format!("connect to the restarted server: {e}"))?;
    Ok(Restart { restart_s, recover_s, restore_s, replayed_records, snapshot })
}
