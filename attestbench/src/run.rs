//! The untraced, timed run that gives the end-to-end metrics.

use crate::check;
use crate::closed_loop::{drive, Control, Seen, Tally, Window};
use crate::metrics::Metrics;
use crate::serve::{out_dir, restart, set_up, socket_path, Served};
use crate::sys::{self, StealClock};
use crate::trace::{Span, Tracer};
use crate::workload::Inputs;
use pufatt_fleet::DeviceId;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Shortest warm-up before the timed phase starts.
const MIN_WARM: Duration = Duration::from_secs(1);
/// Longest warm-up before a run gives up.
const MAX_WARM: Duration = Duration::from_secs(60);

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (enrollments and sessions).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Nearest-rank percentile of sorted samples (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// The most of the machine's CPU the hypervisor may steal during a sample
/// (a timing window or a set-up) for the sample to count.
const MAX_STEAL_SHARE: f64 = 0.02;

/// Indices of the samples that count, given the share of CPU stolen during
/// each: those at most [`MAX_STEAL_SHARE`], or, when fewer than a quarter
/// are, the least-stolen quarter (ties included).
///
/// A sample during which the hypervisor ran another guest on this
/// machine's CPUs measures that guest, not the program: on the 2-vCPU host
/// the benchmark was built on, steal of 10–35 % came in spells of tens of
/// seconds and cut the toy session rate by up to half.
fn least_stolen(shares: &[f64]) -> Vec<usize> {
    let mut sorted = shares.to_vec();
    sorted.sort_by(f64::total_cmp);
    let limit = sorted.get(sorted.len() / 4).map_or(MAX_STEAL_SHARE, |q| q.max(MAX_STEAL_SHARE));
    (0..shares.len()).filter(|&i| shares[i] <= limit).collect()
}

/// Median of the samples that count, of `(value, stolen share)` pairs.
fn median_least_stolen(samples: &[(f64, f64)]) -> f64 {
    let shares: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let kept: Vec<f64> = least_stolen(&shares).into_iter().map(|i| samples[i].0).collect();
    median(&kept)
}

/// Sessions driven over the sockets of a served fleet.
pub struct Sessions {
    /// Whole-run client counts.
    pub tally: Tally,
    /// Per-window samples (one window for fixed-work runs).
    pub windows: Vec<Window>,
    /// Server CPU per window, in ns.
    pub server_cpu_ns: Vec<u64>,
    /// Timed runs: share of the machine's CPU stolen per window.
    pub steal_share: Vec<f64>,
    /// Timed runs: `VmHWM` (MB) when every lane finished its warm-up
    /// passes — a fixed amount of work, unlike the timed phase.
    pub warm_peak_rss_mb: f64,
    /// Wall time of a fixed-work run, in seconds.
    pub wall_s: f64,
    /// The checked devices' session results, in order.
    pub seen: BTreeMap<DeviceId, Vec<Seen>>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// The first client error.
    pub error: Option<String>,
}

fn bench_cpu_ns(tids: &[u32]) -> u64 {
    tids.iter().map(|&t| sys::thread_cpu_ns(t)).sum()
}

/// What the timekeeper sampled over a timed run.
struct Kept {
    /// Server CPU per window, in ns.
    cpu_ns: Vec<u64>,
    /// Share of the machine's CPU stolen per window.
    steal_share: Vec<f64>,
    /// `VmHWM` when every lane finished its warm-up passes, in MB.
    warm_rss_mb: f64,
}

/// Keeps time for a timed run: waits for every lane to warm up, then
/// samples CPU and steal at each window boundary and stops the lanes.
/// Returns the samples, or why the run never became steady.
fn keep_time(
    ctl: &Control,
    lanes: usize,
    connections: usize,
    window: Duration,
    windows: usize,
) -> Result<Kept, String> {
    let main = sys::current_tid()?;
    let begun = Instant::now();
    let mut warm_rss = None;
    loop {
        let warm = ctl.warm_lanes.load(Ordering::SeqCst) >= lanes;
        if warm && warm_rss.is_none() {
            warm_rss = Some(sys::peak_rss_mb());
        }
        if warm && begun.elapsed() >= MIN_WARM {
            break;
        }
        if ctl.exited.load(Ordering::SeqCst) > 0 || begun.elapsed() > MAX_WARM {
            return Err("the lanes never warmed up".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut tids = ctl.tids.lock().unwrap_or_else(|e| e.into_inner()).clone();
    if tids.len() != connections {
        return Err("a client thread did not report its thread id".into());
    }
    tids.push(main);
    let sample = || {
        let bench = bench_cpu_ns(&tids);
        sys::process_cpu_ns().saturating_sub(bench)
    };
    let (mut last, mut steal) = (sample(), StealClock::start());
    let t0 = Instant::now();
    ctl.start_timing(t0);
    let mut kept = Kept {
        cpu_ns: Vec::with_capacity(windows),
        steal_share: Vec::with_capacity(windows),
        warm_rss_mb: warm_rss.unwrap_or(0.0),
    };
    for k in 1..=windows as u32 {
        let due = t0 + window * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let now = sample();
        kept.cpu_ns.push(now.saturating_sub(last));
        kept.steal_share.push(steal.share());
        (last, steal) = (now, StealClock::start());
    }
    Ok(kept)
}

/// Drives the served fleet's clients. With `timed = Some((window,
/// windows))` the run warms up, measures `windows` windows and stops;
/// otherwise `ctl` is a fixed-work control and the run ends when every
/// lane has made its passes.
pub fn drive_sessions(
    served: &mut Served,
    inputs: &Inputs,
    ctl: &Control,
    timed: Option<(Duration, usize)>,
    origin: Option<Instant>,
) -> Sessions {
    let clients = std::mem::take(&mut served.clients);
    let check: HashSet<DeviceId> = inputs.check_devices.iter().copied().collect();
    let faulted = &served.faulted;
    let lanes = inputs.connections * inputs.in_flight;
    let main = sys::current_tid().unwrap_or(0);
    let cpu_before = sys::process_cpu_ns().saturating_sub(sys::thread_cpu_ns(main));
    let started = Instant::now();
    let (outcomes, kept) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let (lanes, check) = (&inputs.lanes[conn], &check);
                let tracer = origin.map(|o| Tracer::new(o, conn as u64));
                s.spawn(move || drive(client, lanes, faulted, check, ctl, tracer))
            })
            .collect();
        let kept = timed.map(|(window, windows)| {
            let kept = keep_time(ctl, lanes, inputs.connections, window, windows);
            ctl.stop.store(true, Ordering::SeqCst);
            kept
        });
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (outcomes, kept)
    });
    let wall_s = started.elapsed().as_secs_f64();
    // Fixed-work runs: the client threads have exited, so the live-thread
    // sum now covers only the server's threads and this one.
    let cpu_after = sys::process_cpu_ns().saturating_sub(sys::thread_cpu_ns(main));
    let mut out = Sessions {
        tally: Tally::default(),
        windows: Vec::new(),
        server_cpu_ns: Vec::new(),
        steal_share: Vec::new(),
        warm_peak_rss_mb: 0.0,
        wall_s,
        seen: BTreeMap::new(),
        spans: Vec::new(),
        error: None,
    };
    match kept {
        Some(Ok(kept)) => {
            (out.server_cpu_ns, out.steal_share, out.warm_peak_rss_mb) =
                (kept.cpu_ns, kept.steal_share, kept.warm_rss_mb)
        }
        Some(Err(e)) => out.error = Some(e),
        None => out.server_cpu_ns = vec![cpu_after.saturating_sub(cpu_before)],
    }
    for outcome in outcomes {
        let Ok(o) = outcome else {
            out.error.get_or_insert("a client thread panicked".into());
            out.tally.failed += 1;
            continue;
        };
        served.clients.push(o.client);
        out.tally.add(&o.tally);
        if out.windows.is_empty() {
            out.windows = o.windows;
        } else {
            for (w, ow) in out.windows.iter_mut().zip(o.windows) {
                w.sessions += ow.sessions;
                w.latencies_ns.extend(ow.latencies_ns);
            }
        }
        for (id, seen) in o.seen {
            out.seen.entry(id).or_default().push(seen);
        }
        out.spans.extend(o.spans);
        if let Some(e) = o.error {
            out.error.get_or_insert(e);
        }
    }
    for w in &mut out.windows {
        w.latencies_ns.sort_unstable();
    }
    out
}

/// The end-to-end run: set up, warm up, measure `seconds` one-second
/// windows over the sockets, drain, set up again, (journaled) restart,
/// and check.
///
/// # Errors
///
/// A failure that leaves nothing to report (the server did not start, a
/// connection could not be made, the lanes never warmed up).
pub fn measure(inputs: &Inputs, seconds: u64) -> Result<Outcome, String> {
    let windows = seconds.max(1) as usize;
    let window = Duration::from_secs(1);
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    let sock = socket_path(inputs);
    let timed_set_up = || -> Result<(Served, (f64, f64)), String> {
        let steal = StealClock::start();
        let (served, secs) = set_up(inputs, &sock, None)?;
        Ok((served, (secs, steal.share())))
    };
    let (mut served, first_setup) = timed_set_up()?;
    let ctl = Control::timed(inputs.warm_rounds, window, windows);
    let run = drive_sessions(&mut served, inputs, &ctl, Some((window, windows)), None);
    let (enrolled, faulted) = (served.enrolled, served.faulted.len() as u64);
    let closed = served.close();
    if let Some(e) = &run.error {
        if run.tally.sessions == 0 {
            return Err(e.clone());
        }
    }
    let mut problems: Vec<String> = run.error.iter().cloned().collect();
    if let Err(e) = check::tallies_match(&run.tally, enrolled, faulted, &closed.report) {
        problems.push(e);
    }
    if let Err(e) = check::same_verdicts_in_process(&inputs.campaign, &run.seen) {
        problems.push(e);
    }
    // The extra set-ups run after the timed phase: run before it, their
    // freed memory would raise the peak RSS that warm-up reads.
    let mut setups = vec![first_setup];
    while setups.len() < inputs.setups.max(1) {
        let (served, setup) = timed_set_up()?;
        setups.push(setup);
        served.close();
    }
    let setup_s = median_least_stolen(&setups);
    // The journaled workload restarts once from its shutdown checkpoint (as
    // `pufatt serve --state-dir` writes it) to check that the restarted
    // service holds the run's state. Its time is a note, not a metric:
    // restoring re-provisions the fleet on one thread, and one thread's
    // speed on the 2-vCPU host swings too far for a gate.
    let mut restart_s = None;
    if let Some((disk, service)) = closed.journal {
        service.checkpoint().map_err(|e| format!("shutdown checkpoint: {e}"))?;
        drop(service);
        let r = restart(inputs, &disk, &socket_path(inputs))?;
        if let Err(e) = check::restored_matches(&closed.report.snapshot, &r.snapshot) {
            problems.push(e);
        }
        restart_s = Some(r.restart_s);
    }

    // Aggregates over the windows that count, not medians of per-window
    // figures: the host's speed also swings for seconds at a time without
    // steal, and a median of windows jumps between its states while a
    // pooled rate or percentile averages over them.
    let counted = least_stolen(&run.steal_share);
    let timed_s = window.as_secs_f64() * counted.len().max(1) as f64;
    let timed_sessions: u64 = counted.iter().map(|&i| run.windows[i].sessions).sum();
    let mut all: Vec<u64> = counted
        .iter()
        .flat_map(|&i| run.windows[i].latencies_ns.iter().copied())
        .collect();
    all.sort_unstable();
    let server_cpu_ns: u64 = counted.iter().filter_map(|&i| run.server_cpu_ns.get(i)).sum();
    let mut m = Metrics::default();
    m.set("sessions_per_s", timed_sessions as f64 / timed_s);
    m.set("session_p50_ms", percentile(&all, 0.50) as f64 / 1e6);
    m.set("session_p90_ms", percentile(&all, 0.90) as f64 / 1e6);
    m.set("server_cpu_ms_per_session", server_cpu_ns as f64 / 1e6 / timed_sessions.max(1) as f64);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", run.warm_peak_rss_mb);

    let percent = |shares: Vec<f64>| -> Vec<f64> { shares.iter().map(|s| (s * 1000.0).round() / 10.0).collect() };
    let rates: Vec<u64> = run.windows.iter().map(|w| w.sessions).collect();
    let mut notes = vec![
        format!(
            "timed: {timed_sessions} sessions in the {} of {windows} 1-s windows that count ({} verdicts sampled); \
             whole run: {} sessions, {} accepted, {} refused, {} busy",
            counted.len(),
            all.len(),
            run.tally.sessions,
            run.tally.accepted,
            run.tally.refused,
            run.tally.busy
        ),
        format!(
            "set-ups {:?} s, steal {:?} %; restart {restart_s:?} s",
            setups.iter().map(|s| s.0).collect::<Vec<_>>(),
            percent(setups.iter().map(|s| s.1).collect()),
        ),
        format!(
            "pooled latency p99 {:.3} ms, max {:.3} ms (not gated)",
            percentile(&all, 0.99) as f64 / 1e6,
            all.last().copied().unwrap_or(0) as f64 / 1e6
        ),
        format!("window sessions {rates:?}"),
        format!("window steal % {:?}", percent(run.steal_share.clone())),
    ];
    notes.extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: run.tally.sessions + run.tally.stranded + enrolled + faulted,
        failed: run.tally.failed,
        metrics: m,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_count_unless_the_hypervisor_stole_from_them() {
        assert_eq!(least_stolen(&[0.0, 0.03, 0.02, 0.01]), vec![0, 2, 3]);
        // Fewer than a quarter under the limit: the least-stolen quarter.
        let shares = [0.30, 0.10, 0.25, 0.05, 0.20, 0.15, 0.35, 0.40];
        assert_eq!(least_stolen(&shares), vec![1, 3, 5]);
        assert_eq!(least_stolen(&[0.5]), vec![0]);
        assert!(least_stolen(&[]).is_empty());
    }
}
