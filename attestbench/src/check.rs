//! The correctness check every run passes before it reports.

use crate::closed_loop::{Seen, Tally};
use pufatt_fleet::service::{ServiceVerdict, SessionGate};
use pufatt_fleet::{CampaignConfig, DeviceId, FleetService, FleetSnapshot};
use pufatt_transport::{ServerReport, WireStatus};
use std::collections::BTreeMap;

/// Replays each checked device's sessions through a fresh in-process
/// [`FleetService`] and requires the same verdict sequence the socket
/// delivered.
///
/// # Errors
///
/// The first device and session whose verdicts differ.
pub fn same_verdicts_in_process(cfg: &CampaignConfig, seen: &BTreeMap<DeviceId, Vec<Seen>>) -> Result<(), String> {
    let service = FleetService::new(cfg.clone()).map_err(|e| format!("in-process service: {e}"))?;
    for (&id, sessions) in seen {
        service.enroll(id).map_err(|e| format!("in-process enroll {id}: {e}"))?;
        for (i, &socket) in sessions.iter().enumerate() {
            let local = match service.open_session(id) {
                SessionGate::Refused => Seen::Refused,
                SessionGate::Granted { .. } => match service.attest(id) {
                    ServiceVerdict::Closed { outcome, status } => Seen::Verdict {
                        accepted: outcome.accepted,
                        response_ok: outcome.response_ok,
                        time_ok: outcome.time_ok,
                        timed_out: outcome.timed_out,
                        attempts: outcome.attempts,
                        elapsed_bits: outcome.elapsed_s.to_bits(),
                        status: WireStatus::from(status),
                    },
                    other => return Err(format!("device {id} session {i}: in process gave {other:?}")),
                },
                other => return Err(format!("device {id} session {i}: in-process gate {other:?}")),
            };
            if local != socket {
                return Err(format!("device {id} session {i}: socket {socket:?} != in process {local:?}"));
            }
        }
    }
    Ok(())
}

/// Requires the clients' whole-run tallies to equal the server's final
/// report, with nothing stranded, aborted or panicked.
///
/// # Errors
///
/// Every disagreement, joined.
pub fn tallies_match(tally: &Tally, enrolled: u64, faulted: u64, report: &ServerReport) -> Result<(), String> {
    let s = &report.snapshot;
    let t = &report.transport;
    let rejected = tally.verdicts - tally.accepted;
    let checks = [
        ("accepted", tally.accepted, s.sessions_accepted),
        ("rejected", rejected, s.sessions_rejected),
        ("refused", tally.refused, s.sessions_refused),
        ("started", tally.verdicts, s.sessions_started),
        ("devices", enrolled + faulted, s.devices.total() as u64),
        ("device faults", faulted, s.device_faults),
        ("unavailable", 0, s.sessions_unavailable),
        ("lost", 0, s.sessions_lost),
        ("stranded devices", 0, tally.stranded),
        ("client failures", 0, tally.failed),
        ("sessions aborted", 0, t.sessions_aborted),
        ("panicked jobs", 0, report.panicked_jobs),
        ("malformed requests", 0, t.malformed),
        ("frame errors", 0, t.frame_errors),
    ];
    let bad: Vec<String> = checks
        .iter()
        .filter(|(_, want, got)| want != got)
        .map(|(what, want, got)| format!("{what}: expected {want}, server/client has {got}"))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Requires a restarted service to hold the state the run left.
///
/// # Errors
///
/// The fields that differ.
pub fn restored_matches(before: &FleetSnapshot, after: &FleetSnapshot) -> Result<(), String> {
    let pairs = [
        ("devices", format!("{:?}", before.devices), format!("{:?}", after.devices)),
        ("accepted", before.sessions_accepted.to_string(), after.sessions_accepted.to_string()),
        ("rejected", before.sessions_rejected.to_string(), after.sessions_rejected.to_string()),
        ("refused", before.sessions_refused.to_string(), after.sessions_refused.to_string()),
    ];
    let bad: Vec<String> = pairs
        .iter()
        .filter(|(_, a, b)| a != b)
        .map(|(what, a, b)| format!("restored {what}: {b}, run left {a}"))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}
