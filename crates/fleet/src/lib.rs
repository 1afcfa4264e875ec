//! Fleet-scale attestation for the PUFatt reproduction.
//!
//! The paper's protocol is one verifier appraising one prover. This crate
//! is that verifier role scaled to a deployment — the engine an operator
//! would actually run against thousands of deployed sensors. One engine,
//! [`FleetService`], provisions, gates, runs, journals and restores every
//! device session; everything else is a driver over it or a part of it:
//!
//! * [`registry`] — the lifecycle policy: the pure
//!   `Active → Quarantined → Revoked` decision a closed session makes.
//!   The per-device record it decides on is the store's
//!   `pufatt_store::DeviceState`, held once, in the service's store.
//! * [`pool`] — a `std::thread` worker pool behind a bounded queue
//!   (backpressure by blocking submit), with contained job panics and
//!   graceful drain on shutdown.
//! * [`metrics`] — the printable [`FleetSnapshot`] of the store's
//!   counters, with its log-scale latency histogram.
//! * [`service`] — the engine behind a per-request façade
//!   (enroll / open-session / attest / revoke), driven by the
//!   `pufatt-transport` socket server. Its device table is a
//!   `pufatt_store::ShardedStore`: the caller's journal, restored as it
//!   stands on restart, or one kept in memory.
//! * [`campaign`] — the in-process driver: a worker pool attesting a
//!   whole fleet through the service, one job per device. Deterministic
//!   in its seed — worker count changes wall-clock time, never verdicts.
//!   [`RunningCampaign`] drives a journaled service: it resumes an
//!   interrupted run to the uninterrupted report and admits devices
//!   online.
//! * [`driver`] — one device's schedule (enroll, then open and attest
//!   each session it owes) as a sans-IO state machine, and the rules for
//!   what a refusal, a fault or a sick shard does to it. The campaign
//!   steps it against the service in process; the socket load generator
//!   steps it over the wire.
//! * [`durable`] — the journal codecs and the config fingerprint; each
//!   session record carries the device's RNG cursor, which lets a
//!   restarted device jump (instead of replaying) to where it stopped.
//!
//! Campaigns degrade gracefully under faults: with a
//! [`campaign::ChaosConfig`], a deterministic subset of the fleet becomes
//! *flaky* — it carries a `pufatt_faults::FaultPlan` and talks over the
//! plan's lossy channel — and repeated timeouts or lost sessions walk those
//! devices through the same `Active → Quarantined → Revoked` lifecycle as
//! attesting failures, with hysteresis
//! ([`LifecyclePolicy::reactivate_after`]) so marginal links settle instead
//! of flapping.
//!
//! Everything is std-only, same as the rest of the workspace.
//!
//! # Quickstart
//!
//! ```
//! use pufatt_fleet::{run_campaign, small_test_config};
//!
//! let report = run_campaign(&small_test_config(8, 2, 42)).unwrap();
//! assert!(report.snapshot.sessions_accepted > 0);
//! println!("{}", report.snapshot);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod driver;
pub mod durable;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod service;
pub mod sync;

pub use campaign::{
    device_is_flaky, device_is_tampered, run_campaign, run_persistent_campaign, small_test_config, CampaignConfig,
    CampaignReport, ChaosConfig, DeviceRecord, RunningCampaign,
};
pub use durable::{config_fingerprint, open_state_dir};
pub use metrics::{FleetSnapshot, LATENCY_BUCKETS};
pub use pool::WorkerPool;
pub use registry::{DeviceId, FleetStatus, LifecyclePolicy, SessionOutcome, StatusCounts};
pub use service::{EnrollOutcome, FleetService, ServiceVerdict, SessionGate};

// The whole design rests on prover/verifier state being movable across
// worker threads; fail the build, not the campaign, if that regresses.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<pufatt_faults::SimDevice>();
    assert_send::<pufatt::Verifier>();
    assert_send::<pufatt::EnrolledDevice>();
    assert_send::<FleetService>();
};
