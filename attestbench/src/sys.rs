//! What the benchmark reads from `/proc`: per-thread CPU time, peak
//! memory, and the host facts every result states.

use std::fs;
use std::time::Instant;

/// This thread's kernel id (first field of `/proc/thread-self/stat`).
pub fn current_tid() -> Result<u32, String> {
    let stat = fs::read_to_string("/proc/thread-self/stat").map_err(|e| format!("read /proc/thread-self/stat: {e}"))?;
    stat.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "malformed /proc/thread-self/stat".to_string())
}

fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path).ok()?.split_whitespace().next()?.parse().ok()
}

/// CPU time one thread of this process has run, in nanoseconds (the
/// scheduler's exact runtime from `schedstat`, not tick samples).
pub fn thread_cpu_ns(tid: u32) -> u64 {
    schedstat_ns(&format!("/proc/self/task/{tid}/schedstat")).unwrap_or(0)
}

/// CPU time of every live thread of this process, in nanoseconds. Exact
/// over an interval in which no thread starts or exits.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| schedstat_ns(&format!("{}/schedstat", t.path().display())))
        .sum()
}

/// Ticks per second of the `/proc/stat` counters (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Time the hypervisor ran something else while this machine's CPUs had
/// work (the `steal` column of `/proc/stat`, summed over CPUs), in ticks.
/// 0 where the kernel does not report it.
fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Measures how much of the machine's CPU the hypervisor stole since the
/// clock was started.
pub struct StealClock {
    at: Instant,
    ticks: u64,
}

impl StealClock {
    /// Starts counting now.
    pub fn start() -> Self {
        StealClock { at: Instant::now(), ticks: steal_ticks() }
    }

    /// The share (0 to 1) of all CPUs' time stolen since the start.
    pub fn share(&self) -> f64 {
        let capacity = USER_HZ * nproc() as f64 * self.at.elapsed().as_secs_f64();
        steal_ticks().saturating_sub(self.ticks) as f64 / capacity.max(f64::MIN_POSITIVE)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The running kernel release.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease").map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
