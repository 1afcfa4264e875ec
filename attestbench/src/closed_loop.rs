//! The benchmark's own closed-loop client, built on the public
//! [`pufatt_transport::Client`].
//!
//! Each connection is driven by one thread. The thread keeps one session
//! in flight per lane; a lane attests its devices one after another, so
//! every device's requests stay in order. A revoked device's refusal
//! spends one session, as in the load generator and the in-process
//! campaign.

use crate::trace::{Span, Tracer};
use pufatt_fleet::DeviceId;
use pufatt_transport::{Client, ErrorCode, Request, Response, WireStatus};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// `Busy` answers one request may receive before it counts as failed.
pub const MAX_BUSY_RETRIES: u32 = 100;

/// Socket read and write timeout of the benchmark's clients.
pub const IO_TIMEOUT_MS: u64 = 30_000;

/// How one session ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// The session reached a verdict.
    Verdict {
        /// Whether the verifier accepted.
        accepted: bool,
        /// Whether the final attempt's response matched.
        response_ok: bool,
        /// Whether the final attempt met the time bound.
        time_ok: bool,
        /// Whether the session exceeded the scheduler timeout.
        timed_out: bool,
        /// Attempts spent.
        attempts: u32,
        /// Simulated elapsed seconds, as IEEE-754 bits.
        elapsed_bits: u64,
        /// Lifecycle state after the verdict.
        status: WireStatus,
    },
    /// The device was revoked; the session was refused.
    Refused,
}

/// When the lanes stop starting sessions.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Until [`Control::stop`] is set; lanes report once they have made
    /// `warm_rounds` passes over their devices.
    Timed {
        /// Passes before a lane counts as warm.
        warm_rounds: u32,
    },
    /// Exactly this many passes per lane (fixed work, exact counts).
    Rounds(u32),
}

/// Shared between the client threads and the thread that keeps time.
pub struct Control {
    mode: Mode,
    /// Set to stop starting new sessions.
    pub stop: AtomicBool,
    t0: OnceLock<Instant>,
    window: Duration,
    windows: usize,
    /// Lanes that have made their warm-up passes.
    pub warm_lanes: AtomicUsize,
    /// Client threads that have returned.
    pub exited: AtomicUsize,
    /// Kernel thread ids of the client threads (for CPU accounting).
    pub tids: Mutex<Vec<u32>>,
}

impl Control {
    /// A timed run measured in `windows` windows of `window` each, from
    /// the instant [`Control::start_timing`] is called.
    pub fn timed(warm_rounds: u32, window: Duration, windows: usize) -> Self {
        Self::new(Mode::Timed { warm_rounds }, window, windows.max(1))
    }

    /// A fixed-work run; everything lands in one window that starts now.
    pub fn rounds(rounds: u32) -> Self {
        let ctl = Self::new(Mode::Rounds(rounds), Duration::from_secs(1 << 30), 1);
        ctl.start_timing(Instant::now());
        ctl
    }

    fn new(mode: Mode, window: Duration, windows: usize) -> Self {
        Control {
            mode,
            stop: AtomicBool::new(false),
            t0: OnceLock::new(),
            window,
            windows,
            warm_lanes: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            tids: Mutex::new(Vec::new()),
        }
    }

    /// Opens the first window at `t0`.
    pub fn start_timing(&self, t0: Instant) {
        let _ = self.t0.set(t0);
    }

    fn may_start(&self, passes: u32) -> bool {
        match self.mode {
            Mode::Timed { .. } => !self.stop.load(Ordering::Relaxed),
            Mode::Rounds(n) => passes < n,
        }
    }

    fn window_of(&self, end: Instant) -> Option<usize> {
        let t0 = *self.t0.get()?;
        let since = end.checked_duration_since(t0)?;
        let w = (since.as_nanos() / self.window.as_nanos().max(1)) as usize;
        (w < self.windows).then_some(w)
    }
}

/// Sessions that completed inside one timing window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Sessions completed (verdicts and refusals).
    pub sessions: u64,
    /// Request-to-verdict latency of each verdict, in ns.
    pub latencies_ns: Vec<u64>,
}

/// What a connection counted over its whole life.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Sessions completed (verdicts plus refusals).
    pub sessions: u64,
    /// Sessions that reached a verdict.
    pub verdicts: u64,
    /// Verdicts that accepted.
    pub accepted: u64,
    /// Sessions refused because the device was revoked.
    pub refused: u64,
    /// `Busy` answers absorbed.
    pub busy: u64,
    /// Operations that failed: transport errors, unexpected replies,
    /// `Busy` past the retry limit.
    pub failed: u64,
    /// Devices left mid-session by a failure.
    pub stranded: u64,
}

impl Tally {
    /// Adds another connection's counts.
    pub fn add(&mut self, o: &Tally) {
        self.sessions += o.sessions;
        self.verdicts += o.verdicts;
        self.accepted += o.accepted;
        self.refused += o.refused;
        self.busy += o.busy;
        self.failed += o.failed;
        self.stranded += o.stranded;
    }
}

/// Everything one client thread hands back.
pub struct ConnOutcome {
    /// The connection, for an orderly close after the run.
    pub client: Client,
    /// Whole-run counts.
    pub tally: Tally,
    /// Timed-window samples.
    pub windows: Vec<Window>,
    /// Session results of the checked devices, in completion order.
    pub seen: Vec<(DeviceId, Seen)>,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
    /// The first error, if any.
    pub error: Option<String>,
}

/// How enrollment over one connection went.
#[derive(Debug, Default)]
pub struct Enrolled {
    /// Devices enrolled and provisioned.
    pub ok: u64,
    /// Devices whose provisioning faulted (they never attest).
    pub faulted: Vec<DeviceId>,
}

/// Enrolls `devices` over `client`, keeping `window` requests in flight.
///
/// # Errors
///
/// A transport error, an unexpected reply, or `Busy` past the retry limit.
pub fn enroll(
    client: &mut Client,
    devices: &[DeviceId],
    window: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Enrolled, String> {
    let mut out = Enrolled::default();
    // (corr, device, sent, busy answers so far)
    let mut inflight: Vec<(u32, DeviceId, Instant, u32)> = Vec::with_capacity(window);
    let mut next = 0;
    let send = |client: &mut Client, id| {
        client
            .send(&Request::Enroll { device: id })
            .map_err(|e| format!("enroll {id}: {e}"))
    };
    loop {
        while inflight.len() < window.max(1) && next < devices.len() {
            let id = devices[next];
            inflight.push((send(client, id)?, id, Instant::now(), 0));
            next += 1;
        }
        if inflight.is_empty() {
            return Ok(out);
        }
        let (corr, response) = client.recv_any().map_err(|e| format!("enroll reply: {e}"))?;
        let i = inflight
            .iter()
            .position(|f| f.0 == corr)
            .ok_or_else(|| format!("enroll reply with unknown correlation id {corr}"))?;
        let (_, id, sent, busy) = inflight.swap_remove(i);
        match response {
            Response::EnrollOk { device, .. } if device == id => out.ok += 1,
            Response::Error { code: ErrorCode::DeviceFault, .. } => out.faulted.push(id),
            Response::Busy { retry_after_ms } if busy < MAX_BUSY_RETRIES => {
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                inflight.push((send(client, id)?, id, sent, busy + 1));
                continue;
            }
            other => return Err(format!("enroll {id}: unexpected reply {other:?}")),
        }
        if let Some(t) = tracer.as_deref_mut() {
            let id = t.next_id();
            t.record_with_id(id, "transport.enroll", 0, id, sent, Instant::now());
        }
    }
}

struct Active {
    device: DeviceId,
    corr: u32,
    request: Request,
    started: Instant,
    attest_sent: Option<Instant>,
    busy: u32,
}

struct Lane {
    devices: Vec<DeviceId>,
    next: usize,
    passes: u32,
    active: Option<Active>,
}

struct ConnState<'a> {
    client: Client,
    ctl: &'a Control,
    check: &'a HashSet<DeviceId>,
    tally: Tally,
    windows: Vec<Window>,
    seen: Vec<(DeviceId, Seen)>,
    tracer: Option<Tracer>,
    error: Option<String>,
}

impl ConnState<'_> {
    fn fail(&mut self, what: String) {
        self.tally.failed += 1;
        self.error.get_or_insert(what);
    }

    /// Starts the lane's next session if the run still wants one.
    fn start(&mut self, lane: &mut Lane) {
        if lane.devices.is_empty() || !self.ctl.may_start(lane.passes) {
            return;
        }
        let device = lane.devices[lane.next];
        let request = Request::ChallengeRequest { device };
        match self.client.send(&request) {
            Ok(corr) => {
                lane.active = Some(Active {
                    device,
                    corr,
                    request,
                    started: Instant::now(),
                    attest_sent: None,
                    busy: 0,
                })
            }
            Err(e) => {
                self.tally.stranded += 1;
                self.fail(format!("send challenge request for {device}: {e}"));
            }
        }
    }

    /// Books a finished session and starts the lane's next one.
    fn finish(&mut self, lane: &mut Lane, a: Active, seen: Seen) {
        let end = Instant::now();
        let verdict = matches!(seen, Seen::Verdict { .. });
        self.tally.sessions += 1;
        if let Seen::Verdict { accepted, .. } = seen {
            self.tally.verdicts += 1;
            self.tally.accepted += u64::from(accepted);
        } else {
            self.tally.refused += 1;
        }
        if self.check.contains(&a.device) {
            self.seen.push((a.device, seen));
        }
        if let Some(w) = self.ctl.window_of(end) {
            let window = &mut self.windows[w];
            window.sessions += 1;
            if verdict {
                window.latencies_ns.push((end - a.started).as_nanos() as u64);
            }
        }
        if let Some(t) = self.tracer.as_mut() {
            let session = t.next_id();
            t.record_with_id(session, "transport.session", 0, session, a.started, end);
            let mid = a.attest_sent.unwrap_or(end);
            t.record("transport.challenge_leg", session, session, a.started, mid);
            if let Some(sent) = a.attest_sent {
                t.record("transport.attest_leg", session, session, sent, end);
            }
        }
        lane.next += 1;
        if lane.next == lane.devices.len() {
            lane.next = 0;
            lane.passes += 1;
            if matches!(self.ctl.mode, Mode::Timed { warm_rounds } if lane.passes == warm_rounds) {
                self.ctl.warm_lanes.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.start(lane);
    }

    fn resend(&mut self, a: &mut Active) -> bool {
        match self.client.send(&a.request) {
            Ok(corr) => {
                a.corr = corr;
                true
            }
            Err(e) => {
                self.tally.stranded += 1;
                self.fail(format!("send for {}: {e}", a.device));
                false
            }
        }
    }

    /// Handles one reply for lane `lane`'s active session.
    fn on_reply(&mut self, lane: &mut Lane, mut a: Active, response: Response) {
        match response {
            Response::Busy { retry_after_ms } => {
                self.tally.busy += 1;
                a.busy += 1;
                if a.busy > MAX_BUSY_RETRIES {
                    self.tally.stranded += 1;
                    self.fail(format!("device {}: Busy past the retry limit", a.device));
                    return;
                }
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                if self.resend(&mut a) {
                    lane.active = Some(a);
                }
            }
            Response::Challenge { device, ticket } if a.attest_sent.is_none() && device == a.device => {
                a.request = Request::Attest { device, ticket };
                a.attest_sent = Some(Instant::now());
                a.busy = 0;
                if self.resend(&mut a) {
                    lane.active = Some(a);
                }
            }
            Response::Verdict {
                device,
                accepted,
                response_ok,
                time_ok,
                timed_out,
                attempts,
                elapsed_bits,
                status,
            } if a.attest_sent.is_some() && device == a.device => {
                let seen = Seen::Verdict {
                    accepted,
                    response_ok,
                    time_ok,
                    timed_out,
                    attempts,
                    elapsed_bits,
                    status,
                };
                self.finish(lane, a, seen);
            }
            Response::Error { code: ErrorCode::Refused, .. } if a.attest_sent.is_none() => {
                self.finish(lane, a, Seen::Refused);
            }
            other => {
                self.tally.stranded += 1;
                self.fail(format!("device {}: unexpected reply {other:?}", a.device));
            }
        }
    }
}

/// Drives one connection's lanes until the run stops, then waits for
/// every in-flight session's verdict.
pub fn drive(
    client: Client,
    lanes: &[Vec<DeviceId>],
    skip: &HashSet<DeviceId>,
    check: &HashSet<DeviceId>,
    ctl: &Control,
    tracer: Option<Tracer>,
) -> ConnOutcome {
    if let Ok(tid) = crate::sys::current_tid() {
        ctl.tids.lock().unwrap_or_else(|e| e.into_inner()).push(tid);
    }
    let mut lanes: Vec<Lane> = lanes
        .iter()
        .map(|devices| Lane {
            devices: devices.iter().copied().filter(|d| !skip.contains(d)).collect(),
            next: 0,
            passes: 0,
            active: None,
        })
        .collect();
    let mut d = ConnState {
        client,
        ctl,
        check,
        tally: Tally::default(),
        windows: vec![Window::default(); ctl.windows],
        seen: Vec::new(),
        tracer,
        error: None,
    };
    for lane in &mut lanes {
        if lane.devices.is_empty() {
            ctl.warm_lanes.fetch_add(1, Ordering::SeqCst);
        }
        d.start(lane);
    }
    while lanes.iter().any(|l| l.active.is_some()) {
        let (corr, response) = match d.client.recv_any() {
            Ok(reply) => reply,
            Err(e) => {
                d.tally.stranded += lanes.iter().filter(|l| l.active.is_some()).count() as u64;
                d.fail(format!("receive: {e}"));
                break;
            }
        };
        let Some(lane) = lanes.iter_mut().find(|l| l.active.as_ref().is_some_and(|a| a.corr == corr)) else {
            d.fail(format!("reply with unknown correlation id {corr}"));
            continue;
        };
        if let Some(a) = lane.active.take() {
            d.on_reply(lane, a, response);
        }
    }
    ctl.exited.fetch_add(1, Ordering::SeqCst);
    ConnOutcome {
        client: d.client,
        tally: d.tally,
        windows: d.windows,
        seen: d.seen,
        spans: d.tracer.map(Tracer::into_spans).unwrap_or_default(),
        error: d.error,
    }
}
