//! The metric catalogue and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sessions_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
    ("server_cpu_ms_per_session", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transport.challenge_rtt_us", "us"),
    ("transport.attest_rtt_us", "us"),
    ("transport.attest_wait_us", "us"),
    ("transport.round_trips_per_session", "count"),
    ("transport.wire_bytes_per_session", "bytes"),
    ("transport.codec_us_per_session", "us"),
    ("transport.busy_replies", "count"),
    ("transport.server_cpu_us_per_session", "us"),
    ("transport.unattributed_us_per_session", "us"),
    ("transport.socket_overhead_ratio", "ratio"),
    ("transport.server_start_ms", "ms"),
    ("transport.session_p99_ms", "ms"),
    ("transport.session_max_ms", "ms"),
    ("fleet.enroll_ms", "ms"),
    ("fleet.enroll_ms_mean", "ms"),
    ("fleet.open_session_us", "us"),
    ("fleet.open_session_us_mean", "us"),
    ("fleet.attest_us", "us"),
    ("fleet.attest_us_mean", "us"),
    ("fleet.inprocess_sessions_per_s", "1/s"),
    ("fleet.attempts_per_session", "count"),
    ("fleet.accepted_frac", "ratio"),
    ("fleet.refused_frac", "ratio"),
    ("fleet.restore_s", "s"),
    ("core.prover_attest_ms", "ms"),
    ("core.verifier_verify_ms", "ms"),
    ("core.provision_ms", "ms"),
    ("pe32.cycles_per_session", "count"),
    ("pe32.host_ns_per_cycle", "ns"),
    ("alupuf.crp_misses_per_session", "count"),
    ("alupuf.crp_hit_ratio", "ratio"),
    ("alupuf.emulate_us_per_crp", "us"),
    ("ecc.conclude_us_per_session", "us"),
    ("store.journal_us_per_session", "us"),
    ("store.enroll_sync_us", "us"),
    ("store.records_per_session", "count"),
    ("store.bytes_per_session", "bytes"),
    ("store.replayed_records", "count"),
    ("store.recover_s", "s"),
    ("trace.sessions_per_s", "1/s"),
    ("trace.untraced_sessions_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Named values collected by a run, printed in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value). Non-finite values read 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Renders the result line: exactly the catalogue's metrics, each with
    /// its unit.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric the run did not set.
    pub fn result_line(
        &self,
        catalogue: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out =
            format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n).collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit:?}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "names are unique");
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.result_line(&[("a", "s"), ("b", "s")], true, 1, 0).is_err());
        m.set("b", f64::NAN);
        let line = m.result_line(&[("a", "s"), ("b", "s")], true, 1, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
