//! Shared harness utilities for the experiment benches.
//!
//! Every `harness = false` bench target in `benches/` regenerates one table
//! or figure of the PUFatt paper (see DESIGN.md's experiment index) and
//! prints the paper's value next to the measured one. Experiments default
//! to reduced sample counts so `cargo bench` completes in minutes; set
//! `PUFATT_FULL=1` to run at the paper's scale (e.g. 1 000 000 challenges
//! for Figures 3 and 4).

use std::time::Instant;

/// Scales a default sample count up to the paper's scale when
/// `PUFATT_FULL=1` is set.
pub fn sample_count(default: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        default
    }
}

/// Whether `PUFATT_FULL=1` is in effect.
pub fn full_scale() -> bool {
    std::env::var("PUFATT_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Prints a standard experiment header.
pub fn header(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints one "paper vs measured" row.
pub fn row(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<44} paper: {paper:>12}   measured: {measured:>12}");
}

/// Runs a closure and reports its wall time.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    println!("  [{label}: {:.2} s]", start.elapsed().as_secs_f64());
    out
}

/// Host CPU model for a bench artifact, so recorded numbers carry their
/// hardware provenance (`/proc/cpuinfo` on Linux; "unknown" elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The host's `"cpu_model"` and `"cores"` members for a `BENCH_*.json`
/// object: one per line, indented two spaces, each ending in a comma.
pub fn host_json() -> String {
    format!("  \"cpu_model\": \"{}\",\n  \"cores\": {},\n", cpu_model().replace('"', "'"), cores())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_respects_env() {
        // The env var is not set under `cargo test` (we do not set it), so
        // the default applies.
        if !full_scale() {
            assert_eq!(sample_count(10, 1000), 10);
        }
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("t", || 42), 42);
    }

    #[test]
    fn host_json_is_two_members() {
        let json = host_json();
        assert!(json.starts_with("  \"cpu_model\": \""), "{json}");
        assert!(json.ends_with(&format!("  \"cores\": {},\n", cores())), "{json}");
        assert_eq!(json.lines().count(), 2);
    }
}
