//! One device's attestation schedule as a sans-IO state machine.
//!
//! A device owes its verifier some number of sessions: it enrolls, then
//! opens and attests each session in turn. [`DeviceDriver`] holds where
//! the device stands in that schedule and decides what each answer does
//! to it. The caller carries each [`Step`] to the service and reports back
//! the [`Outcome`]: the in-process campaign calls [`FleetService`]
//! directly, and `pufatt-transport`'s load generator sends wire requests.
//! So both step the same schedule, and its rules live here once:
//!
//! * a refused session (revoked device) still spends one scheduled
//!   session;
//! * a fault at `Attest` spends the session and the schedule goes on (a
//!   device the fault abandoned is stopped by the next gate's fault); a
//!   fault at `Enroll` or `Open` ends the device;
//! * `Unavailable` (the device's home shard is sick) ends the device, and
//!   every session it still owed counts as unavailable;
//! * `Unknown`, or an answer the pending step cannot take, ends the device
//!   as errored.
//!
//! [`FleetService`]: crate::FleetService

use crate::registry::DeviceId;

/// What a device does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Enroll with the service.
    Enroll,
    /// Ask for a session (the wire's `ChallengeRequest`).
    Open,
    /// Attest in the session `ticket` names.
    Attest {
        /// The ticket the service granted at `Open`.
        ticket: u64,
    },
    /// Nothing left: the schedule ran out, or an answer ended it.
    Done,
}

/// What the service answered to a [`Step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The device is enrolled.
    Enrolled,
    /// A session was opened.
    Granted {
        /// The session's ticket.
        ticket: u64,
    },
    /// The device is revoked; the session was refused.
    Refused,
    /// The session reached a verdict.
    Verdict {
        /// Whether the verifier accepted the device.
        accepted: bool,
    },
    /// The device faulted: its programs could not be built at `Enroll`, it
    /// could not be provisioned or trapped at `Attest`, or an earlier fault
    /// abandoned it (`Open`).
    Fault,
    /// The device's durable home shard is sick.
    Unavailable,
    /// The service does not know the device.
    Unknown,
}

/// What a set of device schedules did. One tally can take any number of
/// drivers' outcomes; tallies of disjoint device sets [`merge`](Self::merge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTally {
    /// Devices whose schedule ran out, or ended on a device fault.
    pub devices_completed: u64,
    /// Devices stopped because their home shard was unavailable.
    pub devices_unavailable: u64,
    /// Devices stopped by an answer their schedule cannot take (and, on
    /// the wire, devices a transport failure stranded).
    pub devices_errored: u64,
    /// Sessions that reached a verdict.
    pub sessions_completed: u64,
    /// Verdicts that accepted the device.
    pub sessions_accepted: u64,
    /// Sessions refused because the device was revoked.
    pub sessions_refused: u64,
    /// Scheduled sessions a sick home shard kept from running.
    pub sessions_unavailable: u64,
    /// Device faults the service reported at `Enroll` or `Attest` (a fault
    /// at `Open` names a device abandoned by one of those).
    pub device_faults: u64,
}

impl DeviceTally {
    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &DeviceTally) {
        self.devices_completed += other.devices_completed;
        self.devices_unavailable += other.devices_unavailable;
        self.devices_errored += other.devices_errored;
        self.sessions_completed += other.sessions_completed;
        self.sessions_accepted += other.sessions_accepted;
        self.sessions_refused += other.sessions_refused;
        self.sessions_unavailable += other.sessions_unavailable;
        self.device_faults += other.device_faults;
    }
}

/// One device's position in its schedule — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDriver {
    id: DeviceId,
    /// Sessions still owed, the one in progress included.
    owed: u32,
    step: Step,
}

impl DeviceDriver {
    /// A device that has yet to enroll and then owes `owed` sessions (a
    /// resumed device owes what its journal does not already hold).
    pub fn new(id: DeviceId, owed: u32) -> Self {
        DeviceDriver { id, owed, step: Step::Enroll }
    }

    /// The device's id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The pending step: the one the next [`record`](Self::record)
    /// answers.
    pub fn next(&self) -> Step {
        self.step
    }

    /// Takes the service's answer to the pending step, counts it into
    /// `tally` and moves the schedule on.
    pub fn record(&mut self, outcome: Outcome, tally: &mut DeviceTally) {
        let spent = match (self.step, outcome) {
            (Step::Done, _) => return,
            (Step::Open, Outcome::Granted { ticket }) => {
                self.step = Step::Attest { ticket };
                return;
            }
            (Step::Enroll, Outcome::Enrolled) => 0,
            (Step::Open | Step::Attest { .. }, Outcome::Refused) => {
                tally.sessions_refused += 1;
                1
            }
            (Step::Attest { .. }, Outcome::Verdict { accepted }) => {
                tally.sessions_completed += 1;
                tally.sessions_accepted += u64::from(accepted);
                1
            }
            (Step::Attest { .. }, Outcome::Fault) => {
                tally.device_faults += 1;
                1
            }
            // Spends what is left: the device ends. A fault at `Open`
            // names a device an earlier fault abandoned, counted then.
            (Step::Enroll | Step::Open, Outcome::Fault) => {
                tally.device_faults += u64::from(self.step == Step::Enroll);
                self.owed
            }
            (_, Outcome::Unavailable) => {
                tally.devices_unavailable += 1;
                tally.sessions_unavailable += u64::from(self.owed);
                self.step = Step::Done;
                return;
            }
            _ => {
                tally.devices_errored += 1;
                self.step = Step::Done;
                return;
            }
        };
        self.owed -= spent;
        self.step = if self.owed > 0 {
            Step::Open
        } else {
            tally.devices_completed += 1;
            Step::Done
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRANTED: Outcome = Outcome::Granted { ticket: 7 };
    const ATTEST: Step = Step::Attest { ticket: 7 };
    const ACCEPTED: Outcome = Outcome::Verdict { accepted: true };
    const REJECTED: Outcome = Outcome::Verdict { accepted: false };

    /// One scripted device: what it owes, the answers it gets, the step
    /// pending before each answer and after the last, and its tally.
    struct Case {
        name: &'static str,
        owed: u32,
        outcomes: &'static [Outcome],
        steps: &'static [Step],
        tally: DeviceTally,
    }

    fn tally(completed: u64, sessions: u64, accepted: u64) -> DeviceTally {
        DeviceTally {
            devices_completed: completed,
            sessions_completed: sessions,
            sessions_accepted: accepted,
            ..DeviceTally::default()
        }
    }

    #[test]
    fn scripted_schedules_end_with_the_expected_steps_and_tally() {
        use Outcome::{Enrolled, Fault, Refused, Unavailable, Unknown};
        use Step::{Done, Enroll, Open};
        let cases = [
            Case {
                name: "clean schedule",
                owed: 2,
                outcomes: &[Enrolled, GRANTED, ACCEPTED, GRANTED, REJECTED],
                steps: &[Enroll, Open, ATTEST, Open, ATTEST, Done],
                tally: tally(1, 2, 1),
            },
            Case {
                name: "revoked device spends every session",
                owed: 3,
                outcomes: &[Enrolled, GRANTED, REJECTED, Refused, Refused],
                steps: &[Enroll, Open, ATTEST, Open, Open, Done],
                tally: DeviceTally { sessions_refused: 2, ..tally(1, 1, 0) },
            },
            Case {
                name: "refused at attest spends the session",
                owed: 2,
                outcomes: &[Enrolled, GRANTED, Refused, GRANTED, ACCEPTED],
                steps: &[Enroll, Open, ATTEST, Open, ATTEST, Done],
                tally: DeviceTally { sessions_refused: 1, ..tally(1, 1, 1) },
            },
            Case {
                name: "fault at attest goes on, fault at open ends",
                owed: 3,
                outcomes: &[Enrolled, GRANTED, Fault, Fault],
                steps: &[Enroll, Open, ATTEST, Open, Done],
                tally: DeviceTally { device_faults: 1, ..tally(1, 0, 0) },
            },
            Case {
                name: "a trap at attest spends only its own session",
                owed: 2,
                outcomes: &[Enrolled, GRANTED, Fault, GRANTED, ACCEPTED],
                steps: &[Enroll, Open, ATTEST, Open, ATTEST, Done],
                tally: DeviceTally { device_faults: 1, ..tally(1, 1, 1) },
            },
            Case {
                name: "fault at enroll ends the device",
                owed: 2,
                outcomes: &[Fault],
                steps: &[Enroll, Done],
                tally: DeviceTally { device_faults: 1, ..tally(1, 0, 0) },
            },
            Case {
                name: "unavailable at enroll",
                owed: 2,
                outcomes: &[Unavailable],
                steps: &[Enroll, Done],
                tally: DeviceTally {
                    devices_unavailable: 1,
                    sessions_unavailable: 2,
                    ..tally(0, 0, 0)
                },
            },
            Case {
                name: "unavailable at open",
                owed: 3,
                outcomes: &[Enrolled, GRANTED, ACCEPTED, Unavailable],
                steps: &[Enroll, Open, ATTEST, Open, Done],
                tally: DeviceTally {
                    devices_unavailable: 1,
                    sessions_unavailable: 2,
                    ..tally(0, 1, 1)
                },
            },
            Case {
                name: "unavailable at attest",
                owed: 2,
                outcomes: &[Enrolled, GRANTED, Unavailable],
                steps: &[Enroll, Open, ATTEST, Done],
                tally: DeviceTally {
                    devices_unavailable: 1,
                    sessions_unavailable: 2,
                    ..tally(0, 0, 0)
                },
            },
            Case {
                name: "nothing owed still enrolls",
                owed: 0,
                outcomes: &[Enrolled],
                steps: &[Enroll, Done],
                tally: tally(1, 0, 0),
            },
            Case {
                name: "a resumed device runs only what it owes",
                owed: 1,
                outcomes: &[Enrolled, GRANTED, ACCEPTED],
                steps: &[Enroll, Open, ATTEST, Done],
                tally: tally(1, 1, 1),
            },
            Case {
                name: "unknown device",
                owed: 2,
                outcomes: &[Enrolled, Unknown],
                steps: &[Enroll, Open, Done],
                tally: DeviceTally { devices_errored: 1, ..tally(0, 0, 0) },
            },
            Case {
                name: "an answer the step cannot take",
                owed: 2,
                outcomes: &[ACCEPTED],
                steps: &[Enroll, Done],
                tally: DeviceTally { devices_errored: 1, ..tally(0, 0, 0) },
            },
            Case {
                name: "a finished device ignores late answers",
                owed: 1,
                outcomes: &[Enrolled, Refused, ACCEPTED, Unavailable],
                steps: &[Enroll, Open, Done, Done, Done],
                tally: DeviceTally { sessions_refused: 1, ..tally(1, 0, 0) },
            },
        ];
        for case in &cases {
            let mut driver = DeviceDriver::new(42, case.owed);
            let mut tally = DeviceTally::default();
            let mut steps = vec![driver.next()];
            for &outcome in case.outcomes {
                driver.record(outcome, &mut tally);
                steps.push(driver.next());
            }
            assert_eq!(steps, case.steps, "{}: steps", case.name);
            assert_eq!(tally, case.tally, "{}: tally", case.name);
            assert_eq!(driver.id(), 42);
        }
    }

    #[test]
    fn tallies_of_disjoint_devices_merge_into_their_shared_tally() {
        let script = [Outcome::Enrolled, GRANTED, ACCEPTED, Outcome::Refused];
        let (mut shared, mut sum) = (DeviceTally::default(), DeviceTally::default());
        for id in 0..3 {
            let (mut one, mut own) = (DeviceDriver::new(id, 2), DeviceTally::default());
            let mut both = one.clone();
            for &outcome in &script {
                one.record(outcome, &mut own);
                both.record(outcome, &mut shared);
            }
            sum.merge(&own);
        }
        assert_eq!(sum, shared);
        assert_eq!(shared, DeviceTally { sessions_refused: 3, ..tally(3, 3, 3) });
    }
}
