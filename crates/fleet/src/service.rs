//! The fleet engine as a service: per-request attestation, the one code
//! path that provisions, gates, runs, journals and restores a device
//! session.
//!
//! Requests arrive one at a time, from many connections, in whatever
//! order the network delivers them, so [`FleetService`] works per
//! request:
//!
//! * [`FleetService::enroll`] admits one device: its record, in one
//!   slot. The device's prover/verifier session is provisioned (the
//!   golden run included) by the first call that needs it, as on restore;
//! * [`FleetService::open_session`] gates one attestation session (the
//!   revocation check before each session);
//! * [`FleetService::attest`] runs exactly one session and applies the
//!   lifecycle policy;
//! * [`FleetService::abort_session`] records a session the transport
//!   opened but never completed (client vanished mid-handshake) as a
//!   lost, timed-out failure — the same accounting a chaos campaign gives
//!   a session the channel ate, so quarantine hysteresis keeps working
//!   when the loss happens at the socket layer instead of the simulated
//!   channel.
//!
//! Both fronts drive this one engine: the `pufatt-transport` socket
//! server, and [`run_campaign`](crate::campaign::run_campaign) /
//! [`RunningCampaign`](crate::campaign::RunningCampaign), whose pool job
//! per device steps its [`DeviceDriver`](crate::driver::DeviceDriver) —
//! `enroll`, then `open_session`/`attest` for each scheduled session —
//! as the socket load generator does over the wire. A fixed-seed fleet
//! therefore gets **bit-identical** verdicts whichever front drives it
//! and in whatever order its devices interleave (pinned by
//! `service_matches_in_process_campaign` below and end to end over real
//! sockets by `pufatt-transport`).
//!
//! # One device record
//!
//! A device's record — lifecycle, streaks, bounded history, session count
//! and cursor — is the store's [`DeviceState`], the type journal replay
//! builds. The service changes it only by applying, with
//! [`DeviceState::apply`], each record it emits for the device, whether
//! or not a journal is attached; the lifecycle decision a closed session
//! carries comes from `LifecyclePolicy::next`.
//! A live record therefore equals the journal's by construction, and a
//! restore is a copy of the store's record.
//!
//! # Ordering contract
//!
//! One device's sessions must be applied in order (each session advances
//! the device's seeded RNG). Each device has one slot — its record and
//! its session — in one sharded map, and
//! the service serialises per *slot shard*: every call for device `id`
//! locks shard [`FleetService::shard_of`]`(id)` for the duration of the
//! session (provisioning included, on a device's first), and that is the
//! only fleet lock a session takes. A transport that runs each
//! connection's requests one at a time in arrival order (as
//! `pufatt-transport` does, with each client sending a device's requests
//! in protocol order), or a campaign that runs each device's schedule
//! inside one pool job, therefore preserves per-device order end to end
//! while distinct shards attest fully in parallel.
//!
//! Fleet-wide reads ([`FleetService::snapshot`],
//! [`FleetService::device_records`]) walk the slot shards one lock at a
//! time, so each device is read in one consistent view, but a read that
//! arrives under load waits behind at most one in-flight session per
//! shard.

use crate::campaign::{
    crp_delta, device_is_flaky, device_is_tampered, provision_device, run_session, session_outcome, CampaignConfig,
    DeviceRecord, DeviceSession, ProductLine,
};
use crate::durable::{config_fingerprint, from_outcome_rec, storage_err, to_outcome_rec};
use crate::metrics::{FleetMetrics, FleetSnapshot};
use crate::registry::{DeviceId, FleetStatus, SessionOutcome, StatusCounts};
use crate::sync::{lock_ranked, rank};
use pufatt::PufattError;
use pufatt_store::record::{CursorInfo, OutcomeRec, Record};
use pufatt_store::state::MetaInfo;
use pufatt_store::{DeviceState, ShardedStore, StoreError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One device's server-side state.
struct Slot {
    /// The device's record — status, streak counters, bounded session
    /// history, session count and cursor — as the journal holds it, and
    /// advanced by the same [`DeviceState::apply`] replay runs.
    state: DeviceState,
    /// The device's prover/verifier session, provisioned on first use
    /// and moved to the cursor `state` records. Stays `None` for good
    /// once provisioning failed (`state.abandoned`).
    session: Option<Box<DeviceSession>>,
}

/// How an enrollment record is committed (OPERATIONS.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnrollCommit {
    /// Forced fsync before the device becomes visible: wire and online
    /// enrollment, which a caller was told happened.
    Synced,
    /// Group commit: the configured fleet, whose enrollment a resume
    /// re-derives (and re-journals) if a crash loses it.
    Grouped,
}

/// How [`FleetService::enroll`] left a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnrollOutcome {
    /// Whether this call created the device (false: it was already
    /// enrolled — enrollment is idempotent, the live session state is
    /// kept).
    pub fresh: bool,
    /// The device's lifecycle state after the call.
    pub status: FleetStatus,
}

/// What [`FleetService::open_session`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionGate {
    /// The session may proceed; `ticket` identifies it until the matching
    /// [`FleetService::attest`] (or abort).
    Granted {
        /// Opaque session ticket (unique per service instance).
        ticket: u64,
    },
    /// The device is revoked; the session was counted as refused.
    Refused,
    /// The device was enrolled but could not be provisioned; it cannot
    /// attest.
    Faulty,
    /// The device id is not enrolled.
    Unknown,
    /// The device's durable home shard is sick (Degraded or Failed): the
    /// session is refused up front, before any RNG is consumed or any
    /// record written, so no accepted-but-undurable verdict can exist.
    /// Devices on healthy shards keep attesting; an operator
    /// [`FleetService::reopen_shard`] restores service.
    Unavailable,
}

/// The verdict of one service-driven session.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceVerdict {
    /// The session reached a verdict (accepted or rejected) and the
    /// lifecycle policy was applied.
    Closed {
        /// The session's outcome, as recorded in the device's history.
        outcome: SessionOutcome,
        /// The device's lifecycle state after the outcome.
        status: FleetStatus,
    },
    /// The device was revoked when the attest arrived; the session was
    /// refused without running.
    Refused,
    /// The device faulted outside the protocol (trap mid-attestation, or
    /// it could not be provisioned); no verdict, nothing recorded in the
    /// device's lifecycle.
    Fault,
    /// The device id is not enrolled.
    Unknown,
    /// The device's durable home shard is sick; the session was refused
    /// before running (see [`SessionGate::Unavailable`]).
    Unavailable,
}

/// The fleet engine behind a per-request API — see the module docs.
pub struct FleetService {
    cfg: CampaignConfig,
    line: ProductLine,
    metrics: FleetMetrics,
    slots: Vec<Mutex<HashMap<DeviceId, Slot>>>,
    next_ticket: AtomicU64,
    /// When present, every enrollment, verdict, refusal and fault is
    /// journaled through the sharded store, and construction restored the
    /// service from whatever the store already held.
    journal: Option<Arc<ShardedStore>>,
    /// Background group-commit thread bounding power-cut loss to the
    /// configured commit interval. Spawned by [`FleetService::with_journal`]
    /// when `commit_interval_s > 0`; stopped (with a final flush) on drop.
    committer: Option<pufatt_store::Committer>,
}

impl FleetService {
    /// Builds a service around a campaign configuration. The `workers`
    /// field sizes the campaign pool and is not read here (the socket
    /// server runs each connection on its own thread and ignores it);
    /// `devices` only marks where online enrollment begins. Everything
    /// verdict-affecting (seed, PUF profile, checksum parameters, policy,
    /// chaos plan) is honoured.
    ///
    /// # Errors
    ///
    /// Rejects unsupported PUF widths and zero sessions per device.
    pub fn new(cfg: CampaignConfig) -> Result<Self, PufattError> {
        let width = cfg.puf.width;
        if !(width.is_power_of_two() && (4..=32).contains(&width)) {
            return Err(PufattError::UnsupportedWidth { width });
        }
        if cfg.sessions_per_device == 0 {
            return Err(PufattError::Codegen("service needs sessions_per_device > 0".into()));
        }
        let shards = cfg.shards.max(1);
        Ok(FleetService {
            line: ProductLine::new(&cfg),
            metrics: FleetMetrics::new(),
            slots: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            next_ticket: AtomicU64::new(1),
            cfg,
            journal: None,
            committer: None,
        })
    }

    /// Builds a service whose state is journaled through (and restored
    /// from) a sharded durable store — the `pufatt serve --state-dir`
    /// entry point. An empty store starts fresh; a store holding this
    /// configuration's campaign is restored: every enrolled device gets
    /// its lifecycle back, and its session is provisioned and moved to
    /// its journaled cursor when it is first needed, so
    /// the restarted service hands out **bit-identical** verdicts from
    /// where the previous process stopped.
    ///
    /// # Errors
    ///
    /// As [`FleetService::new`]; [`PufattError::Storage`] if the store
    /// belongs to a different campaign configuration.
    pub fn with_journal(cfg: CampaignConfig, store: Arc<ShardedStore>) -> Result<Self, PufattError> {
        let mut service = FleetService::new(cfg)?;
        let meta = MetaInfo {
            config_hash: config_fingerprint(&service.cfg),
            devices: service.cfg.devices as u32,
            sessions_per_device: service.cfg.sessions_per_device,
            seed: service.cfg.seed,
        };
        match store.meta() {
            Some(existing) if existing != meta => {
                return Err(PufattError::Storage(
                    "state directory belongs to a different campaign configuration; refusing to blend them".into(),
                ));
            }
            Some(_) => {}
            None => {
                let MetaInfo { config_hash, devices, sessions_per_device, seed } = meta;
                let record = Record::Meta { config_hash, devices, sessions_per_device, seed };
                store.append_synced(&record).map_err(storage_err)?;
            }
        }
        service.metrics = FleetMetrics::from_store_counters(&store.counters());
        for id in service.restore_devices(&store, None) {
            if id as usize >= service.cfg.devices {
                service.metrics.device_enrolled_online();
            }
        }
        if service.cfg.commit_interval_s > 0.0 {
            service.committer =
                Some(store.committer(std::time::Duration::from_secs_f64(service.cfg.commit_interval_s)));
        }
        service.journal = Some(store);
        Ok(service)
    }

    /// Rebuilds the in-memory state of the devices `store` holds — all of
    /// them, or only those homed on store shard `only`: each device's slot
    /// is inserted whole, its record a copy of the store's and its session
    /// not provisioned yet. Returns the restored ids.
    fn restore_devices(&self, store: &ShardedStore, only: Option<usize>) -> Vec<DeviceId> {
        let mut devices = Vec::new();
        let visit = |id: DeviceId, device: &DeviceState| {
            devices.push((id, Slot { state: device.clone(), session: None }));
        };
        // Collected first: the store holds its shard lock while it visits,
        // and that ranks below the slot locks.
        match only {
            Some(shard) => store.for_each_device_in(shard, visit),
            None => store.for_each_device(visit),
        }
        devices
            .into_iter()
            .map(|(id, slot)| {
                lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT).insert(id, slot);
                id
            })
            .collect()
    }

    /// Advances the device's record `state` by `record` and counts it
    /// into the live metrics (see [`FleetService::advance`]), then appends
    /// it to the journal on the group-commit path.
    fn journal_event(&self, state: &mut DeviceState, record: &Record) {
        self.advance(state, record);
        if let Some(store) = &self.journal {
            // A failed append has already degraded the record's home shard,
            // so every subsequent request for its devices is refused up
            // front by `storage_guard`. The one record lost here is
            // re-derived bit-identically on restore after a reopen — the
            // same determinism argument that covers a lost group-commit
            // tail — so it is deliberately not re-raised to the caller.
            let _ = store.append_nosync(record);
        }
    }

    /// Applies `record` to the device's record `state` with the transition
    /// replay runs, and counts it into the live metrics. Every record the
    /// service emits for a device comes through here, journal or not, so
    /// a live device's record and the live counters are exactly what
    /// replaying the records gives.
    fn advance(&self, state: &mut DeviceState, record: &Record) {
        let applied = state.apply(record, self.cfg.history_capacity);
        debug_assert!(applied.is_ok(), "the service emitted a record replay refuses: {applied:?}");
        self.metrics.count(record);
    }

    /// Refuses requests for devices whose durable home shard is sick. A
    /// service without a journal has no shards to be sick.
    ///
    /// # Errors
    ///
    /// [`PufattError::StorageUnavailable`] naming the sick store shard.
    fn storage_guard(&self, id: DeviceId) -> Result<(), PufattError> {
        if let Some(store) = &self.journal {
            let shard = store.shard_of_id(id);
            if store.shard_health(shard) != pufatt_store::ShardHealth::Healthy {
                return Err(PufattError::StorageUnavailable { shard: shard as u32 });
            }
        }
        Ok(())
    }

    /// Device `id`'s session, provisioned on first use and moved to the
    /// cursor its record `state` holds (absolute generator positions:
    /// nothing before it is re-run); `None` if the device is abandoned. A
    /// provisioning failure (a golden-run trap) journals the device
    /// abandoned, for good.
    fn live<'s>(
        &self,
        id: DeviceId,
        session: &'s mut Option<Box<DeviceSession>>,
        state: &mut DeviceState,
    ) -> Option<&'s mut DeviceSession> {
        if session.is_none() && !state.abandoned {
            match provision_device(&self.line, &self.cfg, id) {
                Ok(mut provisioned) => {
                    if let Some(cursor) = &state.cursor {
                        provisioned.restore_cursor(cursor);
                    }
                    *session = Some(Box::new(provisioned));
                }
                Err(_) => self.journal_event(state, &Record::DeviceAbandoned { id }),
            }
        }
        session.as_deref_mut()
    }

    /// The verdict-affecting configuration this service runs.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// The shard all of device `id`'s requests must be serialised on.
    pub fn shard_of(&self, id: DeviceId) -> usize {
        id as usize % self.slots.len()
    }

    /// Enrolls one device. Idempotent: a second call for an enrolled
    /// device changes nothing and reports `fresh: false`. On a journaled
    /// service the enrollment is force-synced before the device becomes
    /// visible. The device's programs are built here (once per service);
    /// the device itself is provisioned by its first session.
    ///
    /// # Errors
    ///
    /// The program build failure ([`PufattError::Codegen`]); the device
    /// stays enrolled, but abandoned, and it is counted as a device fault.
    /// [`PufattError::StorageUnavailable`] if the device's durable home
    /// shard is sick — nothing is admitted that could not be journaled.
    pub fn enroll(&self, id: DeviceId) -> Result<EnrollOutcome, PufattError> {
        self.enroll_as(id, EnrollCommit::Synced)
    }

    /// [`FleetService::enroll`] with the enrollment record committed as
    /// `commit` says.
    pub(crate) fn enroll_as(&self, id: DeviceId, commit: EnrollCommit) -> Result<EnrollOutcome, PufattError> {
        let mut slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        self.storage_guard(id)?;
        if let Some(slot) = slots.get(&id) {
            return Ok(EnrollOutcome { fresh: false, status: slot.state.status });
        }
        // Admit-or-absent: the enrollment is journaled before the device
        // becomes visible in its slot.
        if let Some(store) = &self.journal {
            let record = Record::DeviceEnrolled { id };
            let committed = match commit {
                // analyze: allow(conc: the slot shard serializes this device's sessions; fsync-before-visibility under it is the ordering point)
                EnrollCommit::Synced => store.append_synced(&record),
                // analyze: allow(dur: configured-fleet enrollment; a resume re-derives and re-journals what a crash loses)
                EnrollCommit::Grouped => store.append_nosync(&record),
            };
            match committed {
                Ok(()) | Err(StoreError::IllegalTransition { .. }) => {}
                Err(e) => return Err(storage_err(e)),
            }
        }
        if id as usize >= self.cfg.devices {
            self.metrics.device_enrolled_online();
        }
        let mut state = DeviceState::default();
        let result = match self.line.check_programs(&self.cfg, id) {
            Ok(()) => Ok(EnrollOutcome { fresh: true, status: state.status }),
            Err(e) => {
                self.journal_event(&mut state, &Record::DeviceAbandoned { id });
                Err(e)
            }
        };
        slots.insert(id, Slot { state, session: None });
        result
    }

    /// The checks every session entry point makes first, under the
    /// device's slot-shard lock. Returns the device's slot, or `Err` with
    /// the gate that ends the request, already accounted for.
    fn precheck<'s>(&self, id: DeviceId, slots: &'s mut HashMap<DeviceId, Slot>) -> Result<&'s mut Slot, SessionGate> {
        let Some(slot) = slots.get_mut(&id) else {
            return Err(SessionGate::Unknown);
        };
        // Refused before the revocation branch: a sick shard cannot even
        // journal a refusal, so no record is attempted and no device RNG
        // is consumed — re-driving the session after a reopen yields the
        // verdict it would always have had.
        if self.storage_guard(id).is_err() {
            self.metrics.sessions_unavailable(1);
            return Err(SessionGate::Unavailable);
        }
        if slot.state.status == FleetStatus::Revoked {
            self.journal_event(&mut slot.state, &Record::SessionRefused { id });
            return Err(SessionGate::Refused);
        }
        Ok(slot)
    }

    /// Journals a closed session's outcome `rec` with the lifecycle
    /// transition the policy decides for it and the device's `cursor`
    /// after the session, which applying the record makes in the device's
    /// record. Returns the post-transition status.
    fn close(&self, id: DeviceId, state: &mut DeviceState, rec: OutcomeRec, cursor: CursorInfo) -> FleetStatus {
        let (status, fails, succs) = self.cfg.policy.next(state.status, state.fails, state.succs, rec.accepted);
        self.journal_event(state, &Record::SessionClosed { id, outcome: rec, status, fails, succs, cursor });
        status
    }

    /// Gates one attestation session: the pre-session revocation check. A
    /// revoked device's session is counted as refused here (never
    /// started) with one `SessionRefused` record. Provisions nothing, so a
    /// socket server can gate on a connection's reader thread.
    pub fn open_session(&self, id: DeviceId) -> SessionGate {
        let mut slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        match self.precheck(id, &mut slots) {
            Err(gate) => gate,
            Ok(slot) if slot.state.abandoned => SessionGate::Faulty,
            Ok(_) => SessionGate::Granted { ticket: self.next_ticket.fetch_add(1, Ordering::Relaxed) },
        }
    }

    /// Runs exactly one attestation session for `id` under the device's
    /// retry policy (plain, or chaos when the configuration carries a
    /// fault plan), applies the lifecycle policy, and returns the verdict.
    /// A device's first session provisions it first; a device that fails
    /// to provision is abandoned and answers [`ServiceVerdict::Fault`].
    pub fn attest(&self, id: DeviceId) -> ServiceVerdict {
        let mut slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        // Checked again here (not only at open_session): the shard may
        // have sickened between the gate and the attest, and running the
        // session would advance device RNG towards a verdict the journal
        // could never hold.
        let slot = match self.precheck(id, &mut slots) {
            Ok(slot) => slot,
            Err(SessionGate::Unavailable) => return ServiceVerdict::Unavailable,
            Err(SessionGate::Refused) => return ServiceVerdict::Refused,
            Err(_) => return ServiceVerdict::Unknown,
        };
        let Some(session) = self.live(id, &mut slot.session, &mut slot.state) else {
            return ServiceVerdict::Fault;
        };
        let crp0 = session.crp_stats();
        let report = run_session(session);
        let (crp_hits, crp_misses) = crp_delta(session, crp0);
        let (retried, dropped) = (report.retried, report.messages_dropped());
        let cursor = session.cursor();
        match session_outcome(&report) {
            Some(outcome) => {
                let rec = to_outcome_rec(&outcome, retried, dropped, report.timed_out(), crp_hits, crp_misses);
                let status = self.close(id, &mut slot.state, rec, cursor);
                ServiceVerdict::Closed { outcome, status }
            }
            None => {
                let fault = Record::SessionFault { id, retried, dropped, crp_hits, crp_misses, cursor };
                self.journal_event(&mut slot.state, &fault);
                ServiceVerdict::Fault
            }
        }
    }

    /// Records a session that was opened but never attested — the client
    /// disappeared between [`FleetService::open_session`] and
    /// [`FleetService::attest`]. Accounted exactly like a chaos session
    /// the channel ate: started, lost, rejected by timeout, and fed into
    /// the lifecycle so repeated transport loss quarantines the device.
    pub fn abort_session(&self, id: DeviceId) {
        let mut slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        // An abort racing a revocation is refused like any session on a
        // revoked device. On a sick shard the lost-session outcome cannot
        // be journaled, and counting it into the lifecycle would put
        // memory ahead of the store: it is dropped as unavailable (the
        // session was never granted in the first place).
        let Ok(slot) = self.precheck(id, &mut slots) else {
            return;
        };
        // An abort consumes no device randomness, so its record carries the
        // device's unchanged cursor — a restart resumes exactly here. The
        // cursor comes from the session, so a device not provisioned yet is
        // provisioned first; one that cannot be provisioned is abandoned
        // and, as in `attest`, runs no session to record.
        let Some(session) = self.live(id, &mut slot.session, &mut slot.state) else {
            return;
        };
        let cursor = session.cursor();
        let outcome = SessionOutcome {
            accepted: false,
            response_ok: false,
            time_ok: false,
            timed_out: true,
            attempts: 1,
            elapsed_s: self.cfg.timeout_s,
        };
        self.close(id, &mut slot.state, to_outcome_rec(&outcome, 0, 0, true, 0, 0), cursor);
    }

    /// Revokes a device (operator action). Returns its post-call status,
    /// or `Ok(None)` for unknown ids. The revocation record is journaled
    /// with a forced sync *before* the lifecycle transition becomes
    /// visible, so an operator's revocation survives an immediate crash.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] if the synced append fails. The lifecycle
    /// is left untouched, so the operator sees the revocation refused
    /// rather than a trust decision that would evaporate on restart.
    pub fn revoke(&self, id: DeviceId) -> Result<Option<FleetStatus>, PufattError> {
        self.operator_transition(id, Record::StatusChanged { id, status: FleetStatus::Revoked })
    }

    /// Re-enrolls a known device (operator action): back to Active with
    /// streaks cleared, history kept. Returns `Ok(false)` for unknown
    /// ids. Journaled with a forced sync before the lifecycle transition,
    /// like [`FleetService::revoke`].
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] if the synced append fails; the lifecycle
    /// is left untouched.
    pub fn re_enroll(&self, id: DeviceId) -> Result<bool, PufattError> {
        Ok(self.operator_transition(id, Record::DeviceReEnrolled { id })?.is_some())
    }

    /// An operator transition of known device `id`: `record` is appended
    /// with a forced sync *before* applying it makes the transition
    /// visible in the device's record (a status change to the status the
    /// device already has is skipped). An operator's decision must
    /// survive an immediate crash, and a crash between the two steps
    /// merely re-applies the record on resume — never the reverse (a
    /// visible transition the journal has no memory of). Returns the
    /// post-call status, `None` for unknown ids.
    fn operator_transition(&self, id: DeviceId, record: Record) -> Result<Option<FleetStatus>, PufattError> {
        let mut slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        let Some(slot) = slots.get_mut(&id) else {
            return Ok(None);
        };
        self.storage_guard(id)?;
        if !matches!(record, Record::StatusChanged { status, .. } if status == slot.state.status) {
            if let Some(store) = &self.journal {
                // analyze: allow(conc: the slot shard serializes this device's sessions; fsync-before-visibility under it is the ordering point)
                store.append_synced(&record).map_err(storage_err)?;
            }
            self.advance(&mut slot.state, &record);
        }
        Ok(Some(slot.state.status))
    }

    /// A device's current lifecycle state.
    pub fn status(&self, id: DeviceId) -> Option<FleetStatus> {
        lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT)
            .get(&id)
            .map(|slot| slot.state.status)
    }

    /// Point-in-time counters and device states. Statuses are counted
    /// shard by shard (each shard is consistent; the total is a
    /// near-point-in-time view), waiting behind any session in flight on
    /// a shard.
    pub fn snapshot(&self) -> FleetSnapshot {
        let mut counts = StatusCounts::default();
        for shard in &self.slots {
            for slot in lock_ranked(shard, rank::SERVICE_SLOT).values() {
                counts.add(slot.state.status);
            }
        }
        self.metrics.snapshot(counts)
    }

    /// Per-device end states and retained histories, ascending by id —
    /// the determinism witness a [`CampaignReport`](crate::CampaignReport)
    /// carries, so two runs can be compared bit for bit. Each device's
    /// status and history are read together, under its shard's lock.
    pub fn device_records(&self) -> Vec<DeviceRecord> {
        let mut records: Vec<DeviceRecord> = self
            .slots
            .iter()
            .flat_map(|shard| {
                let slots = lock_ranked(shard, rank::SERVICE_SLOT);
                slots
                    .iter()
                    .map(|(&id, slot)| DeviceRecord {
                        id,
                        tampered: device_is_tampered(self.cfg.seed, id, self.cfg.tamper_fraction),
                        flaky: matches!(&self.cfg.chaos, Some(c) if device_is_flaky(self.cfg.seed, id, c.flaky_fraction)),
                        status: slot.state.status,
                        outcomes: slot.state.outcomes.iter().map(from_outcome_rec).collect(),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        records.sort_unstable_by_key(|record| record.id);
        records
    }

    /// Flushes any group-committed tail and writes a snapshot checkpoint,
    /// so a subsequent [`FleetService::with_journal`] restore replays a
    /// short WAL suffix instead of the whole history. No-op for an
    /// unjournaled service.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] when the flush or checkpoint write fails;
    /// the journal itself stays consistent (the checkpoint is advisory).
    pub fn checkpoint(&self) -> Result<(), PufattError> {
        if let Some(store) = &self.journal {
            store.flush().map_err(storage_err)?;
            store.checkpoint().map_err(storage_err)?;
        }
        Ok(())
    }

    /// Point-in-time storage statistics (WAL bytes, replay counts, shard
    /// health tally) when the service is journaled, `None` otherwise.
    pub fn store_stats(&self) -> Option<pufatt_store::StoreStats> {
        self.journal.as_ref().map(|store| store.stats())
    }

    /// Operator recovery: reopens a sick *store* shard (fresh handles,
    /// shard-local recovery against whatever is actually durable) and
    /// rebuilds the in-memory state of every device homed on it from the
    /// reopened journal — lifecycle, and a session pending at the
    /// journaled cursor. In-memory progress past the
    /// durable prefix (the at-most-one session whose record the failing
    /// append lost) is rewound; re-driving it yields a bit-identical
    /// verdict, exactly like a post-power-cut resume. Returns the number
    /// of devices restored.
    ///
    /// Call this while the shard's traffic is still being refused (it is,
    /// until the reopen succeeds): a request racing the rebuild could
    /// otherwise attest against pre-rewind session state.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] for an unjournaled service or when the
    /// underlying reopen fails (the shard is then marked Failed and keeps
    /// refusing).
    pub fn reopen_shard(&self, store_shard: usize) -> Result<usize, PufattError> {
        let Some(store) = &self.journal else {
            return Err(PufattError::Storage("service has no journal; nothing to reopen".into()));
        };
        store.reopen_shard(store_shard).map_err(storage_err)?;
        Ok(self.restore_devices(store, Some(store_shard)).len())
    }

    /// Session records applied for `id` so far (0 for an unknown device):
    /// where a resumed campaign picks up the device's schedule.
    pub(crate) fn events_seen(&self, id: DeviceId) -> u32 {
        lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT)
            .get(&id)
            .map_or(0, |slot| slot.state.events_seen)
    }

    /// Counts `sessions` scheduled sessions refused because their
    /// device's home shard is sick.
    pub(crate) fn count_unavailable(&self, sessions: u64) {
        self.metrics.sessions_unavailable(sessions);
    }

    /// Every enrolled id, ascending.
    pub(crate) fn enrolled_ids(&self) -> Vec<DeviceId> {
        let mut ids: Vec<DeviceId> = self
            .slots
            .iter()
            .flat_map(|shard| lock_ranked(shard, rank::SERVICE_SLOT).keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, small_test_config, ChaosConfig};
    use pufatt_faults::FaultPlan;

    /// Drives a service exactly as a well-behaved wire client fleet would:
    /// enroll everything, then interleave sessions across devices.
    fn drive_service(cfg: &CampaignConfig) -> (Vec<DeviceRecord>, FleetSnapshot) {
        let service = FleetService::new(cfg.clone()).expect("valid config");
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        for &id in &ids {
            // Abandoned devices keep their slot; the client just
            // skips their sessions (same as the in-process campaign).
            let _ = service.enroll(id);
        }
        // Interleave: session k of every device before session k+1 of any —
        // a deliberately different schedule from run_campaign's
        // device-at-a-time jobs, to show scheduling cannot change verdicts.
        for _ in 0..cfg.sessions_per_device {
            for &id in &ids {
                match service.open_session(id) {
                    SessionGate::Granted { .. } => {
                        let verdict = service.attest(id);
                        assert!(
                            matches!(verdict, ServiceVerdict::Closed { .. } | ServiceVerdict::Fault),
                            "granted session must run: {verdict:?}"
                        );
                    }
                    SessionGate::Refused | SessionGate::Faulty => {}
                    SessionGate::Unknown => panic!("enrolled device went unknown"),
                    SessionGate::Unavailable => panic!("unjournaled service has no shards to be sick"),
                }
            }
        }
        (service.device_records(), service.snapshot())
    }

    #[test]
    fn service_matches_in_process_campaign() {
        let cfg = small_test_config(12, 3, 0xC0FFEE);
        let in_process = run_campaign(&cfg).expect("campaign runs");
        let (records, snapshot) = drive_service(&cfg);
        assert_eq!(records, in_process.device_records, "verdicts must be bit-identical");
        assert_eq!(snapshot, in_process.snapshot, "counters must match exactly");
    }

    #[test]
    fn chaos_service_matches_in_process_campaign() {
        let mut cfg = small_test_config(10, 2, 0xFA17);
        cfg.sessions_per_device = 4;
        cfg.chaos = Some(ChaosConfig {
            plan: FaultPlan::clean(0).with_drops(0.3).with_bit_flips(0.01),
            flaky_fraction: 0.5,
        });
        let in_process = run_campaign(&cfg).expect("campaign runs");
        let (records, snapshot) = drive_service(&cfg);
        assert_eq!(records, in_process.device_records);
        assert_eq!(snapshot, in_process.snapshot);
    }

    #[test]
    fn fleet_reads_run_beside_pool_attests() {
        // Snapshots and device records walk the slot shards while pool
        // workers attest a multi-shard fleet: a rendezvous after every
        // session hands the reader a turn while the other workers are
        // mid-session. Every read sees the whole fleet, every lock is
        // taken in rank order (the debug witness would panic the job or
        // the reader otherwise), and scheduling still cannot change a
        // verdict.
        let mut cfg = small_test_config(24, 1, 0x5EAD);
        cfg.sessions_per_device = 3;
        let reference = run_campaign(&cfg).expect("campaign runs");
        let service = Arc::new(FleetService::new(cfg.clone()).expect("valid config"));
        for id in 0..cfg.devices as DeviceId {
            let _ = service.enroll(id);
        }
        let (turn, turns) = std::sync::mpsc::sync_channel::<()>(0);
        let reader = {
            let (service, devices) = (Arc::clone(&service), cfg.devices);
            std::thread::spawn(move || {
                let mut reads = 0;
                for () in turns {
                    assert_eq!(service.snapshot().devices.total(), devices, "every enrolled device is counted");
                    let ids: Vec<DeviceId> = service.device_records().iter().map(|r| r.id).collect();
                    assert_eq!(ids, (0..devices as DeviceId).collect::<Vec<_>>());
                    reads += 1;
                }
                reads
            })
        };
        let pool = crate::pool::WorkerPool::new(3, 4);
        for id in 0..cfg.devices as DeviceId {
            let (service, turn, sessions) = (Arc::clone(&service), turn.clone(), cfg.sessions_per_device);
            pool.submit(move || {
                for _ in 0..sessions {
                    if matches!(service.open_session(id), SessionGate::Granted { .. }) {
                        let _ = service.attest(id);
                    }
                    // Fails only once the reader is gone; its join below
                    // reports why.
                    let _ = turn.send(());
                }
            });
        }
        drop(turn);
        assert_eq!(pool.shutdown(), 0, "no attest job panicked");
        let reads = reader.join().expect("reader never panicked");
        assert_eq!(reads, cfg.devices * cfg.sessions_per_device as usize, "one read after every session");
        assert_eq!(service.device_records(), reference.device_records, "verdicts match a one-worker run");
        assert_eq!(service.snapshot(), reference.snapshot, "counters match a one-worker run");
    }

    #[test]
    fn enroll_is_idempotent_and_revocation_refuses() {
        let cfg = small_test_config(4, 1, 3);
        let service = FleetService::new(cfg).expect("valid config");
        let first = service.enroll(0).expect("provision");
        assert!(first.fresh);
        let second = service.enroll(0).expect("idempotent");
        assert!(!second.fresh);
        service.revoke(0).expect("journal accepts");
        assert_eq!(service.open_session(0), SessionGate::Refused);
        assert_eq!(service.attest(0), ServiceVerdict::Refused);
        assert_eq!(service.snapshot().sessions_refused, 2);
        assert_eq!(service.open_session(99), SessionGate::Unknown);
        assert_eq!(service.attest(99), ServiceVerdict::Unknown);
    }

    #[test]
    fn aborted_sessions_walk_the_lifecycle() {
        let mut cfg = small_test_config(2, 1, 7);
        cfg.policy.quarantine_after = 2;
        let service = FleetService::new(cfg).expect("valid config");
        service.enroll(1).expect("provision");
        for _ in 0..2 {
            assert!(matches!(service.open_session(1), SessionGate::Granted { .. }));
            service.abort_session(1);
        }
        assert_eq!(service.status(1), Some(FleetStatus::Quarantined), "transport loss must quarantine");
        let snap = service.snapshot();
        assert_eq!(snap.sessions_lost, 2);
        assert_eq!(snap.sessions_started, snap.sessions_rejected);
        service.abort_session(42); // unknown ids are ignored
        assert_eq!(service.snapshot().sessions_lost, 2);
    }

    fn sharded_opts(cfg: &CampaignConfig) -> pufatt_store::ShardedOptions {
        pufatt_store::ShardedOptions {
            history_capacity: cfg.history_capacity,
            shards: 4,
            range_width: 2,
            ..pufatt_store::ShardedOptions::default()
        }
    }

    fn open_store(cfg: &CampaignConfig, vfs: &pufatt_store::SimVfs) -> Arc<ShardedStore> {
        Arc::new(ShardedStore::open(Arc::new(vfs.clone()), sharded_opts(cfg)).expect("recovery"))
    }

    #[test]
    fn journaled_service_restarts_bit_identically() {
        let cfg = small_test_config(6, 2, 0x5E12);
        let (reference_records, reference_snapshot) = drive_service(&cfg);

        let vfs = pufatt_store::SimVfs::new();
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        let service = FleetService::with_journal(cfg.clone(), open_store(&cfg, &vfs)).expect("fresh journal");
        for &id in &ids {
            let _ = service.enroll(id);
        }
        // First session of every device, then stop the process model (a
        // graceful handle drop: nothing was synced beyond the group
        // commit, but no power cut means nothing is lost either).
        for &id in &ids {
            if matches!(service.open_session(id), SessionGate::Granted { .. }) {
                let _ = service.attest(id);
            }
        }
        drop(service);

        let service = FleetService::with_journal(cfg.clone(), open_store(&cfg, &vfs)).expect("restore");
        for _ in 1..cfg.sessions_per_device {
            for &id in &ids {
                if matches!(service.open_session(id), SessionGate::Granted { .. }) {
                    let _ = service.attest(id);
                }
            }
        }
        assert_eq!(service.device_records(), reference_records, "restart must not change verdicts");
        assert_eq!(service.snapshot(), reference_snapshot, "restart must not change counters");
    }

    #[test]
    fn journaled_service_survives_a_power_cut() {
        // Tamper-free so every session closes (no refusals): a device's
        // retained history length then equals its committed session count,
        // which lets the client re-drive lost sessions to completion.
        let mut cfg = small_test_config(5, 2, 0x70C1);
        cfg.tamper_fraction = 0.0;
        cfg.sessions_per_device = 3;
        let (reference_records, reference_snapshot) = drive_service(&cfg);

        let vfs = pufatt_store::SimVfs::new();
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        let service = FleetService::with_journal(cfg.clone(), open_store(&cfg, &vfs)).expect("fresh journal");
        for &id in &ids {
            let _ = service.enroll(id);
        }
        for _ in 0..2 {
            for &id in &ids {
                if matches!(service.open_session(id), SessionGate::Granted { .. }) {
                    let _ = service.attest(id);
                }
            }
        }
        drop(service);
        // Power cut with a torn tail: group-committed records since the
        // last sync are gone. The restarted service rewinds to the last
        // committed cursor of each device; re-running the lost sessions
        // produces the same verdicts they had (determinism), so driving
        // every device back to a full schedule matches the reference.
        let disk = vfs.power_cut(pufatt_store::TornMode::Torn);
        let service = FleetService::with_journal(cfg.clone(), open_store(&cfg, &disk)).expect("restore after cut");
        for &id in &ids {
            loop {
                let done = service
                    .device_records()
                    .iter()
                    .find(|r| r.id == id)
                    .map(|r| r.outcomes.len())
                    .unwrap_or(0);
                if done >= cfg.sessions_per_device as usize {
                    break;
                }
                assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
                let _ = service.attest(id);
            }
        }
        assert_eq!(service.device_records(), reference_records, "power cut must not change verdicts");
        assert_eq!(service.snapshot(), reference_snapshot, "power cut must not change counters");
    }

    #[test]
    fn sick_shard_refuses_typed_and_reopen_resumes_bit_identically() {
        // Tamper-free so every session closes; the retained history length
        // of a device then equals its completed session count, letting the
        // client re-drive rewound sessions to a full schedule.
        let mut cfg = small_test_config(6, 2, 0x51C6);
        cfg.tamper_fraction = 0.0;
        cfg.sessions_per_device = 3;
        let (reference_records, _) = drive_service(&cfg);

        let vfs = pufatt_store::SimVfs::new();
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        let store = open_store(&cfg, &vfs);
        let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("fresh journal");
        for &id in &ids {
            let _ = service.enroll(id);
        }
        for &id in &ids {
            assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
            let _ = service.attest(id);
        }

        // Shard 1's disk goes sticky-sick. The next attest for a device
        // homed there runs (the guard saw Healthy), fails to journal, and
        // degrades the shard — the at-most-one in-memory-ahead session the
        // reopen path later rewinds and re-derives.
        vfs.inject(
            pufatt_store::ErrorInjection::on_prefix("shard-001/", pufatt_store::InjectedErrorKind::Eio).sticky(),
        );
        let sick: Vec<DeviceId> = ids.iter().copied().filter(|&id| store.shard_of_id(id) == 1).collect();
        let healthy: Vec<DeviceId> = ids.iter().copied().filter(|&id| store.shard_of_id(id) != 1).collect();
        assert!(!sick.is_empty() && !healthy.is_empty(), "test needs both populations");
        assert!(matches!(service.attest(sick[0]), ServiceVerdict::Closed { .. }));
        assert_eq!(store.shard_health(1), pufatt_store::ShardHealth::Degraded);

        // Every entry point refuses the sick shard with the typed error —
        // no journal write is attempted, no device RNG is consumed.
        for &id in &sick {
            assert_eq!(service.open_session(id), SessionGate::Unavailable);
            assert_eq!(service.attest(id), ServiceVerdict::Unavailable);
            assert!(matches!(service.enroll(id), Err(PufattError::StorageUnavailable { shard: 1 })));
            assert!(matches!(service.revoke(id), Err(PufattError::StorageUnavailable { shard: 1 })));
            assert!(matches!(service.re_enroll(id), Err(PufattError::StorageUnavailable { shard: 1 })));
        }
        assert!(service.snapshot().sessions_unavailable > 0, "typed refusals must be counted");
        let stats = service.store_stats().expect("journaled");
        assert_eq!((stats.shards_total, stats.shards_degraded), (4, 1));

        // Healthy shards are fully unaffected: their devices complete the
        // whole schedule while shard 1 is down.
        for _ in 1..cfg.sessions_per_device {
            for &id in &healthy {
                assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
                assert!(matches!(service.attest(id), ServiceVerdict::Closed { .. }));
            }
        }

        // Operator drill: replace the disk, reopen the shard, re-drive its
        // devices. The rewound session re-derives bit-identically.
        vfs.clear_injections("shard-001/");
        let restored = service.reopen_shard(1).expect("reopen succeeds on a healthy disk");
        assert_eq!(restored, sick.len(), "every device homed on the shard is rebuilt");
        assert_eq!(store.shard_health(1), pufatt_store::ShardHealth::Healthy);
        for &id in &sick {
            loop {
                let done = service
                    .device_records()
                    .iter()
                    .find(|r| r.id == id)
                    .map(|r| r.outcomes.len())
                    .unwrap_or(0);
                if done >= cfg.sessions_per_device as usize {
                    break;
                }
                assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
                assert!(matches!(service.attest(id), ServiceVerdict::Closed { .. }));
            }
        }
        assert_eq!(service.device_records(), reference_records, "degradation and reopen must not change verdicts");
    }

    const REVOKED: DeviceId = 3;

    /// A journaled fleet on `vfs`: every device enrolled and attested once,
    /// then device [`REVOKED`] revoked by the operator.
    fn journaled_fleet(cfg: &CampaignConfig, vfs: &pufatt_store::SimVfs) -> (FleetService, Arc<ShardedStore>) {
        let store = open_store(cfg, vfs);
        let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("fresh journal");
        for id in 0..cfg.devices as DeviceId {
            service.enroll(id).expect("device enrolls");
            assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
            assert!(matches!(service.attest(id), ServiceVerdict::Closed { .. }));
        }
        service.revoke(REVOKED).expect("journal accepts");
        (service, store)
    }

    /// Devices among `ids` whose session is provisioned.
    fn live_sessions(service: &FleetService, ids: &[DeviceId]) -> usize {
        ids.iter()
            .filter(|&&id| {
                let slots = lock_ranked(&service.slots[service.shard_of(id)], rank::SERVICE_SLOT);
                slots.get(&id).is_some_and(|slot| slot.session.is_some())
            })
            .count()
    }

    /// Checks devices `ids` of a service just rebuilt from `store`: none is
    /// provisioned, each resumes at its journaled session count, and the
    /// revoked device's refusal journals `reference`, the state a service
    /// that never restarted leaves.
    fn assert_rebuilt_pending(service: &FleetService, store: &ShardedStore, ids: &[DeviceId], reference: &DeviceState) {
        assert_eq!(live_sessions(service, ids), 0, "rebuilding provisions no device");
        for &id in ids {
            let journaled = store.device(id).expect("enrolled").events_seen;
            assert!(journaled > 0, "device {id} ran a session");
            assert_eq!(service.events_seen(id), journaled, "device {id} resumes at its journaled count");
        }
        assert_eq!(service.open_session(REVOKED), SessionGate::Refused);
        assert_eq!(store.device(REVOKED).as_ref(), Some(reference), "refusal matches the unrestarted one");
    }

    #[test]
    fn restore_and_reopen_leave_devices_pending_at_their_journaled_position() {
        let cfg = small_test_config(8, 1, 0x1A2F);
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        let (service, store) = journaled_fleet(&cfg, &pufatt_store::SimVfs::new());
        assert_eq!(live_sessions(&service, &ids), ids.len());
        assert_eq!(service.open_session(REVOKED), SessionGate::Refused);
        let reference = store.device(REVOKED).expect("enrolled");

        let vfs = pufatt_store::SimVfs::new();
        drop(journaled_fleet(&cfg, &vfs));
        let store = open_store(&cfg, &vfs);
        let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("restore");
        assert_rebuilt_pending(&service, &store, &ids, &reference);

        let (service, store) = journaled_fleet(&cfg, &pufatt_store::SimVfs::new());
        let shard = store.shard_of_id(REVOKED);
        let homed: Vec<DeviceId> = ids.iter().copied().filter(|&id| store.shard_of_id(id) == shard).collect();
        assert_eq!(service.reopen_shard(shard).expect("reopen"), homed.len());
        assert_rebuilt_pending(&service, &store, &homed, &reference);
    }

    #[test]
    fn unbuildable_program_fails_enroll_typed_and_abandons_the_device() {
        // A 32-word region cannot hold the checksum program, so every
        // device of this configuration fails alike.
        let mut cfg = small_test_config(2, 1, 0xC0DE);
        cfg.params.region_bits = 5;
        let vfs = pufatt_store::SimVfs::new();
        let store = open_store(&cfg, &vfs);
        let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("fresh journal");
        assert!(matches!(service.enroll(0), Err(PufattError::Codegen(_))));
        // The store applies an abandonment only to an enrolled device.
        let device = store.device(0).expect("enrollment journaled");
        assert!(device.abandoned && device.faults == 1, "{device:?}");
        assert_eq!(service.snapshot().device_faults, 1);
        assert_eq!(service.open_session(0), SessionGate::Faulty);
        assert!(matches!(service.enroll(0), Ok(EnrollOutcome { fresh: false, .. })));
        drop(service);
        let service = FleetService::with_journal(cfg.clone(), open_store(&cfg, &vfs)).expect("restore");
        assert_eq!(service.open_session(0), SessionGate::Faulty);
        assert_eq!(service.snapshot().device_faults, 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = small_test_config(2, 1, 1);
        cfg.puf.width = 12;
        assert!(FleetService::new(cfg).is_err());
        let mut cfg = small_test_config(2, 1, 1);
        cfg.sessions_per_device = 0;
        assert!(FleetService::new(cfg).is_err());
    }

    #[test]
    fn tickets_are_unique() {
        let cfg = small_test_config(4, 1, 9);
        let service = FleetService::new(cfg).expect("valid config");
        service.enroll(0).expect("provision");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..16 {
            match service.open_session(0) {
                SessionGate::Granted { ticket } => assert!(seen.insert(ticket), "duplicate ticket"),
                other => panic!("expected grant, got {other:?}"),
            }
            service.abort_session(0);
            // Aborts eventually revoke the device; re-enroll to keep going.
            if service.status(0) == Some(FleetStatus::Revoked) {
                assert!(service.re_enroll(0).expect("journal accepts"));
            }
        }
    }

    /// Device `id`'s live record, read under its slot lock.
    fn slot_state(service: &FleetService, id: DeviceId) -> Option<DeviceState> {
        lock_ranked(&service.slots[service.shard_of(id)], rank::SERVICE_SLOT)
            .get(&id)
            .map(|slot| slot.state.clone())
    }

    /// Every enrolled device's live record equals the journal's, whole:
    /// status, streaks, history, totals, session count and cursor.
    fn assert_slots_equal_the_journal(service: &FleetService, store: &ShardedStore) {
        let ids = service.enrolled_ids();
        assert!(!ids.is_empty());
        for id in ids {
            assert_eq!(
                slot_state(service, id),
                store.device(id),
                "device {id}: live record differs from the journal's"
            );
        }
    }

    #[test]
    fn live_device_state_equals_the_journal() {
        let mut cfg = small_test_config(8, 1, 0x0DE5);
        cfg.history_capacity = 4;
        assert!(cfg.tamper_fraction > 0.0, "tampered devices walk the lifecycle");
        let store = open_store(&cfg, &pufatt_store::SimVfs::new());
        let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("fresh journal");
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        let attest_all = |service: &FleetService| {
            for &id in &ids {
                if matches!(service.open_session(id), SessionGate::Granted { .. }) {
                    let _ = service.attest(id);
                }
            }
        };
        for &id in &ids {
            service.enroll(id).expect("device enrolls");
        }
        // More sessions than the history keeps, so histories roll over.
        for _ in 0..6 {
            attest_all(&service);
        }
        assert!(service.snapshot().sessions_refused > 0, "some tampered device was revoked and refused");
        // A grant whose client vanished, on a provisioned device and on an
        // online device whose first session it is.
        let online = cfg.devices as DeviceId;
        service.enroll(online).expect("online device enrolls");
        for id in [0, online] {
            assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
            service.abort_session(id);
        }
        service.revoke(REVOKED).expect("journal accepts");
        assert_eq!(service.open_session(REVOKED), SessionGate::Refused);
        assert!(service.re_enroll(REVOKED).expect("journal accepts"));
        attest_all(&service);
        assert_slots_equal_the_journal(&service, &store);

        // An abandoned device: its program cannot be built.
        let mut broken = small_test_config(2, 1, 0xC0DE);
        broken.params.region_bits = 5;
        let store = open_store(&broken, &pufatt_store::SimVfs::new());
        let service = FleetService::with_journal(broken, Arc::clone(&store)).expect("fresh journal");
        assert!(service.enroll(0).is_err());
        assert_eq!(service.open_session(0), SessionGate::Faulty);
        assert_eq!(service.attest(0), ServiceVerdict::Fault);
        assert!(slot_state(&service, 0).is_some_and(|state| state.abandoned));
        assert_slots_equal_the_journal(&service, &store);
    }

    #[test]
    fn a_refused_session_writes_one_record_and_provisions_nothing() {
        let cfg = small_test_config(8, 1, 0x2EF0);
        let vfs = pufatt_store::SimVfs::new();
        drop(journaled_fleet(&cfg, &vfs));
        let store = open_store(&cfg, &vfs);
        let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("restore");
        let before = store.device(REVOKED).expect("enrolled");
        let appended = store.stats().records_appended;
        assert_eq!(service.open_session(REVOKED), SessionGate::Refused);
        assert_eq!(store.stats().records_appended, appended + 1, "a refusal is one record");
        assert_eq!(service.attest(REVOKED), ServiceVerdict::Refused);
        assert_eq!(store.stats().records_appended, appended + 2, "a refusal is one record");
        let after = store.device(REVOKED).expect("enrolled");
        assert_eq!((after.refused, after.events_seen), (before.refused + 2, before.events_seen + 2));
        assert_eq!(after.cursor, before.cursor, "a refusal consumes no randomness");
        assert_eq!(live_sessions(&service, &[REVOKED]), 0, "the gate provisions nothing");
    }

    #[test]
    fn unjournaled_service_keeps_each_cursor_at_its_session() {
        // Every session record is applied, journal or not, so the record
        // counts each session and its cursor is where the live session
        // stands; a device refused from its first session is never
        // provisioned and has no cursor.
        let cfg = small_test_config(4, 1, 0x7A11);
        let service = FleetService::new(cfg.clone()).expect("valid config");
        for id in 0..4 {
            service.enroll(id).expect("device enrolls");
        }
        service.revoke(1).expect("no journal to refuse it");
        for _ in 0..50 {
            for id in 0..4 {
                if matches!(service.open_session(id), SessionGate::Granted { .. }) {
                    let _ = service.attest(id);
                }
            }
        }
        assert_eq!(service.snapshot().sessions_started + service.snapshot().sessions_refused, 200);
        for id in 0..4 {
            let mut slots = lock_ranked(&service.slots[service.shard_of(id)], rank::SERVICE_SLOT);
            let slot = slots.get_mut(&id).expect("enrolled");
            assert_eq!(slot.state.events_seen, 50);
            let live = slot.session.as_mut().map(|session| session.cursor());
            assert_eq!(slot.state.cursor, live, "device {id}: the record's cursor is the session's");
            assert_eq!(live.is_none(), id == 1, "only the revoked device stays unprovisioned");
        }
    }
}
