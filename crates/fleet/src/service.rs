//! The fleet engine as a service: per-request attestation, the one code
//! path that provisions, gates, runs, journals and restores a device
//! session.
//!
//! Requests arrive one at a time, from many connections, in whatever
//! order the network delivers them, so [`FleetService`] works per
//! request:
//!
//! * [`FleetService::enroll`] admits one device: its record, in the
//!   store. The device's `SimDevice` and verifier half are provisioned (the
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
//! # One device table
//!
//! A device's record — lifecycle, streaks, bounded history, session count
//! and cursor — and the fleet's counters live in one place: the service's
//! [`ShardedStore`], the table journal replay builds. The service reads
//! them from it and changes them only by appending records, which the
//! store applies once, with the transition replay runs
//! ([`DeviceState::apply`](pufatt_store::DeviceState::apply),
//! `Counters::count`). The lifecycle decision a closed session carries
//! comes from `LifecyclePolicy::next`. A service
//! built with [`FleetService::with_journal`] writes through the caller's
//! store; one built with [`FleetService::new`] opens
//! [`ShardedStore::in_memory`], a store over
//! [`NullVfs`](pufatt_store::NullVfs), which keeps the table in memory and
//! writes nothing. A
//! restore is therefore no copy at all: the store's table *is* the
//! service's state.
//!
//! # Ordering contract
//!
//! One device's sessions must be applied in order (each session advances
//! the device's seeded RNG). Each device's provisioned session sits in
//! one sharded map, and the service serialises per *slot shard*: every
//! call for device `id` locks shard [`FleetService::shard_of`]`(id)` for
//! the duration of the session (provisioning included, on a device's
//! first), and that is the only fleet lock a session takes; the store's
//! shard lock is only ever taken under it. A transport that runs each
//! connection's requests one at a time in arrival order (as
//! `pufatt-transport` does, with each client sending a device's requests
//! in protocol order), or a campaign that runs each device's schedule
//! inside one pool job, therefore preserves per-device order end to end
//! while distinct shards attest fully in parallel.
//!
//! Fleet-wide reads ([`FleetService::snapshot`],
//! [`FleetService::device_records`]) walk the store one shard lock at a
//! time, so each device is read in one consistent view. They take no
//! slot lock, so they never wait behind a session in flight: a store
//! shard lock is held only while a record is read or appended (a synced
//! append's fsync included).

use crate::campaign::{
    device_is_flaky, device_is_tampered, provision_device, session_outcome, CampaignConfig, DeviceRecord,
    DeviceSession, ProductLine,
};
use crate::durable::{config_fingerprint, from_outcome_rec, storage_err, to_outcome_rec};
use crate::metrics::FleetSnapshot;
use crate::registry::{DeviceId, FleetStatus, SessionOutcome, StatusCounts};
use crate::sync::{lock_ranked, rank};
use pufatt::PufattError;
use pufatt_store::record::{CursorInfo, OutcomeRec, Record};
use pufatt_store::sharded::MAX_SHARDS;
use pufatt_store::state::MetaInfo;
use pufatt_store::ShardedStore;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One slot shard: the provisioned sessions of the devices it serialises.
type Slots = HashMap<DeviceId, Box<DeviceSession>>;

/// A device's lifecycle status and its failure and success streaks, as its
/// record holds them: what the lifecycle policy decides a session from.
type Standing = (FleetStatus, u32, u32);

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
    /// Every device's record and the fleet's counters: the caller's
    /// journal, or an in-memory table over [`NullVfs`](pufatt_store::NullVfs).
    store: Arc<ShardedStore>,
    /// Whether `store` is a caller's journal ([`FleetService::with_journal`]):
    /// only then are there store statistics to report and shards to reopen.
    journaled: bool,
    /// Each device's `SimDevice` and verifier half, provisioned on first
    /// use and moved to the cursor its record holds. An abandoned device
    /// never gets one.
    slots: Vec<Mutex<Slots>>,
    /// Sessions refused because their device's home shard was sick. Not
    /// journaled — the sick shard could not record it anyway — and so not
    /// restored: after the shard reopens, a resumed campaign runs these
    /// sessions for real, and carrying the count forward would double-book
    /// them.
    sessions_unavailable: AtomicU64,
    next_ticket: AtomicU64,
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
    /// The device table is [`ShardedStore::in_memory`], which keeps it in
    /// memory and opens without a write: `shards` store shards (at most
    /// [`MAX_SHARDS`]) of range width 1, so device `id` lives on store
    /// shard `id % shards`, the split of the slot shards.
    ///
    /// # Errors
    ///
    /// Rejects unsupported PUF widths and zero sessions per device.
    pub fn new(cfg: CampaignConfig) -> Result<Self, PufattError> {
        validate(&cfg)?;
        let shards = u32::try_from(cfg.shards).unwrap_or(MAX_SHARDS);
        let store = ShardedStore::in_memory(cfg.history_capacity.max(1), shards);
        Ok(FleetService::over(cfg, Arc::new(store), false))
    }

    /// Builds a service whose state is journaled through (and restored
    /// from) a sharded durable store — the `pufatt serve --state-dir`
    /// entry point. An empty store starts fresh; a store holding this
    /// configuration's campaign is restored as it stands: every enrolled
    /// device keeps its record, and its session is provisioned and moved
    /// to its journaled cursor when it is first needed, so the restarted
    /// service hands out **bit-identical** verdicts from where the
    /// previous process stopped.
    ///
    /// # Errors
    ///
    /// As [`FleetService::new`]; [`PufattError::Storage`] if the store
    /// belongs to a different campaign configuration or keeps a different
    /// number of outcomes per device than `cfg.history_capacity`.
    pub fn with_journal(cfg: CampaignConfig, store: Arc<ShardedStore>) -> Result<Self, PufattError> {
        validate(&cfg)?;
        if store.history_capacity() != cfg.history_capacity.max(1) {
            return Err(PufattError::Storage(format!(
                "state directory keeps {} outcomes per device, the configuration {}; refusing to mix history bounds",
                store.history_capacity(),
                cfg.history_capacity
            )));
        }
        let meta = MetaInfo {
            config_hash: config_fingerprint(&cfg),
            devices: cfg.devices as u32,
            sessions_per_device: cfg.sessions_per_device,
            seed: cfg.seed,
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
        let mut service = FleetService::over(cfg, store, true);
        if service.cfg.commit_interval_s > 0.0 {
            let interval = std::time::Duration::from_secs_f64(service.cfg.commit_interval_s);
            service.committer = Some(service.store.committer(interval));
        }
        Ok(service)
    }

    /// A service of a validated `cfg` over `store`, no session provisioned.
    fn over(cfg: CampaignConfig, store: Arc<ShardedStore>, journaled: bool) -> Self {
        FleetService {
            line: ProductLine::new(&cfg),
            store,
            journaled,
            slots: (0..cfg.shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            sessions_unavailable: AtomicU64::new(0),
            next_ticket: AtomicU64::new(1),
            cfg,
            committer: None,
        }
    }

    /// Appends one of device `id`'s session records on the group-commit
    /// path; the store applies it to the device's record and the counters.
    fn journal_event(&self, record: &Record) {
        // A failed append has already degraded the record's home shard,
        // so every subsequent request for its devices is refused up
        // front by `storage_guard`. The one record lost here is
        // re-derived bit-identically on restore after a reopen — the
        // same determinism argument that covers a lost group-commit
        // tail — so it is deliberately not re-raised to the caller.
        let _ = self.store.append_nosync(record);
    }

    /// Refuses requests for devices whose home store shard is sick. An
    /// unjournaled service's shards never are.
    ///
    /// # Errors
    ///
    /// [`PufattError::StorageUnavailable`] naming the sick store shard.
    fn storage_guard(&self, id: DeviceId) -> Result<(), PufattError> {
        let shard = self.store.shard_of_id(id);
        if self.store.shard_health(shard) != pufatt_store::ShardHealth::Healthy {
            return Err(PufattError::StorageUnavailable { shard: shard as u32 });
        }
        Ok(())
    }

    /// Device `id`'s session, provisioned on first use and moved to the
    /// cursor its record holds (absolute generator positions: nothing
    /// before it is re-run). Only called for a device that is not
    /// abandoned; a provisioning failure (a golden-run trap) journals the
    /// device abandoned, for good, and returns `None`.
    fn live<'s>(&self, id: DeviceId, slots: &'s mut Slots) -> Option<&'s mut DeviceSession> {
        let vacant = match slots.entry(id) {
            Entry::Occupied(session) => return Some(session.into_mut()),
            Entry::Vacant(vacant) => vacant,
        };
        match provision_device(&self.line, &self.cfg, id) {
            Ok(mut provisioned) => {
                if let Some(Some(cursor)) = self.store.with_device(id, |device| device.cursor) {
                    provisioned.restore_cursor(&cursor);
                }
                Some(vacant.insert(Box::new(provisioned)))
            }
            Err(_) => {
                self.journal_event(&Record::DeviceAbandoned { id });
                None
            }
        }
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
        let _slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        self.storage_guard(id)?;
        if let Some(status) = self.store.with_device(id, |device| device.status) {
            return Ok(EnrollOutcome { fresh: false, status });
        }
        // Admit-or-absent: the store applies the enrollment only once its
        // append (and, synced, its fsync) succeeded, so no reader sees the
        // device before it is durable, nor after a failed append.
        let record = Record::DeviceEnrolled { id };
        match commit {
            // analyze: allow(conc: the slot shard serializes this device's sessions; fsync-before-visibility under it is the ordering point)
            EnrollCommit::Synced => self.store.append_synced(&record),
            // analyze: allow(dur: configured-fleet enrollment; a resume re-derives and re-journals what a crash loses)
            EnrollCommit::Grouped => self.store.append_nosync(&record),
        }
        .map_err(storage_err)?;
        match self.line.check_programs(&self.cfg, id) {
            Ok(()) => Ok(EnrollOutcome { fresh: true, status: FleetStatus::Active }),
            Err(e) => {
                self.journal_event(&Record::DeviceAbandoned { id });
                Err(e)
            }
        }
    }

    /// The checks every session entry point makes first, under the
    /// device's slot-shard lock. Returns the device's standing, or `Err`
    /// with the gate that ends the request, already accounted for.
    fn precheck(&self, id: DeviceId) -> Result<Standing, SessionGate> {
        let Some((standing, abandoned)) = self
            .store
            .with_device(id, |device| ((device.status, device.fails, device.succs), device.abandoned))
        else {
            return Err(SessionGate::Unknown);
        };
        // Refused before the revocation branch: a sick shard cannot even
        // journal a refusal, so no record is attempted and no device RNG
        // is consumed — re-driving the session after a reopen yields the
        // verdict it would always have had.
        if self.storage_guard(id).is_err() {
            self.sessions_unavailable.fetch_add(1, Ordering::Relaxed);
            return Err(SessionGate::Unavailable);
        }
        let (status, ..) = standing;
        if status == FleetStatus::Revoked {
            self.journal_event(&Record::SessionRefused { id });
            return Err(SessionGate::Refused);
        }
        if abandoned {
            return Err(SessionGate::Faulty);
        }
        Ok(standing)
    }

    /// Journals a closed session's outcome `rec` with the lifecycle
    /// transition the policy decides for it from the device's standing
    /// `from`, and the device's `cursor` after the session. Returns the
    /// post-transition status.
    fn close(&self, id: DeviceId, from: Standing, rec: OutcomeRec, cursor: CursorInfo) -> FleetStatus {
        let (status, fails, succs) = from;
        let (status, fails, succs) = self.cfg.policy.next(status, fails, succs, rec.accepted);
        self.journal_event(&Record::SessionClosed { id, outcome: rec, status, fails, succs, cursor });
        status
    }

    /// Gates one attestation session: the pre-session revocation check. A
    /// revoked device's session is counted as refused here (never
    /// started) with one `SessionRefused` record. Provisions nothing, so a
    /// socket server can gate on a connection's reader thread.
    pub fn open_session(&self, id: DeviceId) -> SessionGate {
        let _slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        match self.precheck(id) {
            Err(gate) => gate,
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
        let from = match self.precheck(id) {
            Ok(from) => from,
            Err(SessionGate::Unavailable) => return ServiceVerdict::Unavailable,
            Err(SessionGate::Refused) => return ServiceVerdict::Refused,
            Err(SessionGate::Faulty) => return ServiceVerdict::Fault,
            Err(_) => return ServiceVerdict::Unknown,
        };
        let Some(session) = self.live(id, &mut slots) else {
            return ServiceVerdict::Fault;
        };
        let (report, crp_hits, crp_misses) = session.run();
        let (retried, dropped) = (report.retried, report.messages_dropped());
        let cursor = session.cursor();
        match session_outcome(&report) {
            Some(outcome) => {
                let rec = to_outcome_rec(&outcome, retried, dropped, report.timed_out(), crp_hits, crp_misses);
                let status = self.close(id, from, rec, cursor);
                ServiceVerdict::Closed { outcome, status }
            }
            None => {
                self.journal_event(&Record::SessionFault { id, retried, dropped, crp_hits, crp_misses, cursor });
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
        let Ok(from) = self.precheck(id) else {
            return;
        };
        // An abort consumes no device randomness, so its record carries the
        // device's unchanged cursor — a restart resumes exactly here. The
        // cursor comes from the session, so a device not provisioned yet is
        // provisioned first; one that cannot be provisioned is abandoned
        // and, as in `attest`, runs no session to record.
        let Some(session) = self.live(id, &mut slots) else {
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
        self.close(id, from, to_outcome_rec(&outcome, 0, 0, true, 0, 0), cursor);
    }

    /// Revokes a device (operator action). Returns its post-call status,
    /// or `Ok(None)` for unknown ids. The revocation record is journaled
    /// with a forced sync *before* the lifecycle transition becomes
    /// visible, so an operator's revocation survives an immediate crash.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] if the synced append fails. The revocation
    /// was not committed, and the operator sees it refused rather than a
    /// trust decision that would evaporate on restart: the device keeps
    /// its status. Its home shard is then sick, and refuses the device
    /// until [`FleetService::reopen_shard`].
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
    /// [`PufattError::Storage`] if the synced append fails; as for
    /// [`FleetService::revoke`], the re-enrollment was not committed.
    pub fn re_enroll(&self, id: DeviceId) -> Result<bool, PufattError> {
        Ok(self.operator_transition(id, Record::DeviceReEnrolled { id })?.is_some())
    }

    /// An operator transition of known device `id`: `record` is appended
    /// with a forced sync, and the store makes the transition visible only
    /// once the sync returns (a status change to the status the device
    /// already has is skipped). An operator's decision must survive an
    /// immediate crash, and a crash after the sync merely re-applies the
    /// record on resume — never the reverse (a visible transition the
    /// journal has no memory of). Returns the post-call status, `None`
    /// for unknown ids.
    fn operator_transition(&self, id: DeviceId, record: Record) -> Result<Option<FleetStatus>, PufattError> {
        let _slots = lock_ranked(&self.slots[self.shard_of(id)], rank::SERVICE_SLOT);
        let Some(status) = self.status(id) else {
            return Ok(None);
        };
        self.storage_guard(id)?;
        if matches!(record, Record::StatusChanged { status: to, .. } if to == status) {
            return Ok(Some(status));
        }
        // analyze: allow(conc: the slot shard serializes this device's sessions; fsync-before-visibility under it is the ordering point)
        self.store.append_synced(&record).map_err(storage_err)?;
        Ok(self.status(id))
    }

    /// A device's current lifecycle state.
    pub fn status(&self, id: DeviceId) -> Option<FleetStatus> {
        self.store.with_device(id, |device| device.status)
    }

    /// Point-in-time counters and device states, from the store. Statuses
    /// are counted store shard by store shard (each shard is consistent;
    /// the total is a near-point-in-time view), and no session in flight
    /// holds the read up.
    pub fn snapshot(&self) -> FleetSnapshot {
        let (mut devices, mut online) = (StatusCounts::default(), 0);
        self.store.for_each_device(|id, device| {
            devices.add(device.status);
            online += u64::from(id as usize >= self.cfg.devices);
        });
        let unavailable = self.sessions_unavailable.load(Ordering::Relaxed);
        FleetSnapshot::from_counters(&self.store.counters(), devices, online, unavailable)
    }

    /// Per-device end states and retained histories, ascending by id —
    /// the determinism witness a [`CampaignReport`](crate::CampaignReport)
    /// carries, so two runs can be compared bit for bit. Each device's
    /// status and history are read together, under its store shard's lock.
    pub fn device_records(&self) -> Vec<DeviceRecord> {
        let mut records = Vec::new();
        self.store.for_each_device(|id, device| {
            records.push(DeviceRecord {
                id,
                tampered: device_is_tampered(self.cfg.seed, id, self.cfg.tamper_fraction),
                flaky: matches!(&self.cfg.chaos, Some(c) if device_is_flaky(self.cfg.seed, id, c.flaky_fraction)),
                status: device.status,
                outcomes: device.outcomes.iter().map(from_outcome_rec).collect(),
            });
        });
        records.sort_unstable_by_key(|record| record.id);
        records
    }

    /// Flushes any group-committed tail and writes a snapshot checkpoint,
    /// so a subsequent [`FleetService::with_journal`] restore replays a
    /// short WAL suffix instead of the whole history. An unjournaled
    /// service writes nothing.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] when the flush or checkpoint write fails;
    /// the journal itself stays consistent (the checkpoint is advisory).
    pub fn checkpoint(&self) -> Result<(), PufattError> {
        self.store.flush().map_err(storage_err)?;
        self.store.checkpoint().map_err(storage_err)
    }

    /// Point-in-time storage statistics (WAL bytes, replay counts, shard
    /// health tally) when the service is journaled, `None` otherwise.
    pub fn store_stats(&self) -> Option<pufatt_store::StoreStats> {
        self.journaled.then(|| self.store.stats())
    }

    /// Operator recovery: reopens a sick *store* shard (fresh handles,
    /// shard-local recovery against whatever is actually durable). The
    /// sessions of the devices homed on it are dropped first, so each
    /// device re-provisions at the reopened journal's cursor when its
    /// next session needs it. Progress past the durable prefix (the
    /// at-most-one session whose record the failing append lost) is
    /// rewound, in the records and the counters alike; re-driving it
    /// yields a bit-identical verdict, exactly like a post-power-cut
    /// resume. Returns the number of devices homed on the shard.
    ///
    /// Call this while the shard's traffic is still being refused (it is,
    /// until the reopen succeeds): a request racing a reopen of a healthy
    /// shard could otherwise attest against pre-rewind session state.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] for an unjournaled service or when the
    /// underlying reopen fails (the shard is then marked Failed and keeps
    /// refusing).
    pub fn reopen_shard(&self, store_shard: usize) -> Result<usize, PufattError> {
        if !self.journaled {
            return Err(PufattError::Storage("service has no journal; nothing to reopen".into()));
        }
        for shard in &self.slots {
            lock_ranked(shard, rank::SERVICE_SLOT).retain(|&id, _| self.store.shard_of_id(id) != store_shard);
        }
        self.store.reopen_shard(store_shard).map_err(storage_err)?;
        let mut homed = 0;
        self.store.for_each_device_in(store_shard, |_, _| homed += 1);
        Ok(homed)
    }

    /// Session records applied for `id` so far (0 for an unknown device):
    /// where a resumed campaign picks up the device's schedule.
    pub(crate) fn events_seen(&self, id: DeviceId) -> u32 {
        self.store.with_device(id, |device| device.events_seen).unwrap_or(0)
    }

    /// Counts `sessions` scheduled sessions refused because their
    /// device's home shard is sick.
    pub(crate) fn count_unavailable(&self, sessions: u64) {
        self.sessions_unavailable.fetch_add(sessions, Ordering::Relaxed);
    }

    /// Every enrolled id, ascending.
    pub(crate) fn enrolled_ids(&self) -> Vec<DeviceId> {
        let mut ids = Vec::new();
        self.store.for_each_device(|id, _| ids.push(id));
        ids.sort_unstable();
        ids
    }
}

/// Rejects configurations no service can run.
fn validate(cfg: &CampaignConfig) -> Result<(), PufattError> {
    let width = cfg.puf.width;
    if !(width.is_power_of_two() && (4..=32).contains(&width)) {
        return Err(PufattError::UnsupportedWidth { width });
    }
    if cfg.sessions_per_device == 0 {
        return Err(PufattError::Codegen("service needs sessions_per_device > 0".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, small_test_config, ChaosConfig};
    use pufatt_faults::FaultPlan;
    use pufatt_store::DeviceState;

    /// Drives a service exactly as a well-behaved wire client fleet would:
    /// enroll everything, then interleave sessions across devices.
    fn drive_service(cfg: &CampaignConfig) -> (Vec<DeviceRecord>, FleetSnapshot) {
        let service = FleetService::new(cfg.clone()).expect("valid config");
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        for &id in &ids {
            // Abandoned devices stay enrolled; the client just skips
            // their sessions (same as the in-process campaign).
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
        // Snapshots and device records walk the store while pool
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
        // degrades the shard — the at-most-one session whose record is
        // lost, which the reopen path later rewinds and re-derives.
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
            .filter(|&&id| lock_ranked(&service.slots[service.shard_of(id)], rank::SERVICE_SLOT).contains_key(&id))
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

    /// Runs `drive` on a service built with [`FleetService::new`], on a
    /// journaled one, and on one restored from that journal, and checks
    /// the three keep the same device table: every record, the device
    /// records and the snapshot.
    fn assert_services_agree(cfg: &CampaignConfig, drive: impl Fn(&FleetService)) {
        let in_memory = FleetService::new(cfg.clone()).expect("valid config");
        drive(&in_memory);
        let vfs = pufatt_store::SimVfs::new();
        let journaled = FleetService::with_journal(cfg.clone(), open_store(cfg, &vfs)).expect("fresh journal");
        drive(&journaled);
        let expected = (in_memory.device_records(), in_memory.snapshot());
        let ids = in_memory.enrolled_ids();
        assert!(!ids.is_empty());
        let agree = |service: &FleetService, kind: &str| {
            assert_eq!(service.enrolled_ids(), ids, "{kind}: the same devices");
            for &id in &ids {
                assert_eq!(service.store.device(id), in_memory.store.device(id), "{kind}: device {id}'s record");
            }
            assert_eq!((service.device_records(), service.snapshot()), expected, "{kind}");
        };
        agree(&journaled, "journaled");
        drop(journaled);
        let restored = FleetService::with_journal(cfg.clone(), open_store(cfg, &vfs)).expect("restore");
        agree(&restored, "restored");
    }

    #[test]
    fn in_memory_journaled_and_restored_services_agree() {
        let mut cfg = small_test_config(8, 1, 0x0DE5);
        cfg.history_capacity = 4;
        assert!(cfg.tamper_fraction > 0.0, "tampered devices walk the lifecycle");
        assert_services_agree(&cfg, |service| {
            let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
            let attest_all = || {
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
                attest_all();
            }
            assert!(service.snapshot().sessions_refused > 0, "some tampered device was revoked and refused");
            // A grant whose client vanished, on a provisioned device and on
            // an online device whose first session it is.
            let online = cfg.devices as DeviceId;
            service.enroll(online).expect("online device enrolls");
            for id in [0, online] {
                assert!(matches!(service.open_session(id), SessionGate::Granted { .. }));
                service.abort_session(id);
            }
            service.revoke(REVOKED).expect("journal accepts");
            assert_eq!(service.open_session(REVOKED), SessionGate::Refused);
            assert!(service.re_enroll(REVOKED).expect("journal accepts"));
            attest_all();
            assert_eq!(service.snapshot().devices_enrolled_online, 1);
        });

        // An abandoned device: its program cannot be built.
        let mut broken = small_test_config(2, 1, 0xC0DE);
        broken.params.region_bits = 5;
        assert_services_agree(&broken, |service| {
            assert!(service.enroll(0).is_err());
            assert_eq!(service.open_session(0), SessionGate::Faulty);
            assert_eq!(service.attest(0), ServiceVerdict::Fault);
            service.abort_session(0);
            assert!(service
                .store
                .device(0)
                .is_some_and(|device| device.abandoned && device.faults == 1));
        });
    }

    #[test]
    fn a_reopened_shard_counts_each_session_once() {
        // A one-shot write error loses one session's record from the
        // journal; the reopen rewinds the device and the counters alike,
        // so the re-run session is counted once, live as after a restore.
        let mut cfg = small_test_config(8, 1, 0x9E0);
        cfg.tamper_fraction = 0.0;
        let vfs = pufatt_store::SimVfs::new();
        let store = open_store(&cfg, &vfs);
        let service = FleetService::with_journal(cfg.clone(), Arc::clone(&store)).expect("fresh journal");
        let ids: Vec<DeviceId> = (0..cfg.devices as DeviceId).collect();
        let round = || {
            for &id in &ids {
                if matches!(service.open_session(id), SessionGate::Granted { .. }) {
                    assert!(matches!(service.attest(id), ServiceVerdict::Closed { .. }));
                }
            }
        };
        for &id in &ids {
            service.enroll(id).expect("device enrolls");
        }
        round();
        vfs.inject(pufatt_store::ErrorInjection::on_prefix("shard-001/", pufatt_store::InjectedErrorKind::Eio));
        round();
        assert_eq!(store.shard_health(1), pufatt_store::ShardHealth::Degraded, "the failed append degraded it");
        service.reopen_shard(1).expect("the disk is healthy again");
        round();

        let mut live = service.snapshot();
        assert_eq!(live.sessions_unavailable, 1, "one device was refused while its shard was sick");
        live.sessions_unavailable = 0;
        let records = service.device_records();
        drop(service);
        let restored = FleetService::with_journal(cfg.clone(), open_store(&cfg, &vfs)).expect("restore");
        assert_eq!(records, restored.device_records());
        assert_eq!(live, restored.snapshot(), "the live counters are the journal's");
        assert_eq!(live.sessions_started, 22, "3 sessions for 6 devices, 2 for the 2 on the sick shard");
    }

    #[test]
    fn enrollments_refused_by_a_sick_shard_read_the_same_in_either_order() {
        // Ids 2 and 3 share store shard 1 (4 shards × range width 2). The
        // first enrollment to reach the sick shard fails its append; the
        // second is refused at the gate. Neither may show in the live view.
        let cfg = small_test_config(8, 1, 0x51C7);
        let run = |order: [DeviceId; 2]| {
            let vfs = pufatt_store::SimVfs::new();
            let service = FleetService::with_journal(cfg.clone(), open_store(&cfg, &vfs)).expect("fresh journal");
            for id in [0, 1, 4, 5] {
                service.enroll(id).expect("a healthy shard enrolls");
            }
            vfs.inject(
                pufatt_store::ErrorInjection::on_prefix("shard-001/", pufatt_store::InjectedErrorKind::Eio).sticky(),
            );
            for id in order {
                assert!(service.enroll(id).is_err(), "device {id} is not admitted onto the sick shard");
            }
            (service.device_records(), service.snapshot())
        };
        let (records, snapshot) = run([2, 3]);
        assert_eq!((records.clone(), snapshot.clone()), run([3, 2]));
        let ids: Vec<DeviceId> = records.iter().map(|record| record.id).collect();
        assert_eq!(ids, [0, 1, 4, 5], "a failed enrollment lists no device");
        assert_eq!(snapshot.devices.total(), 4);
    }

    #[test]
    fn a_failed_revoke_leaves_the_status_it_found() {
        let cfg = small_test_config(4, 1, 0x2E70);
        let vfs = pufatt_store::SimVfs::new();
        let service = FleetService::with_journal(cfg.clone(), open_store(&cfg, &vfs)).expect("fresh journal");
        service.enroll(2).expect("device enrolls");
        vfs.inject(pufatt_store::ErrorInjection::on_prefix("shard-001/", pufatt_store::InjectedErrorKind::Eio));
        assert!(matches!(service.revoke(2), Err(PufattError::Storage(_))), "the synced append fails");
        assert_eq!(service.status(2), Some(FleetStatus::Active));
        assert_eq!(service.snapshot().devices.revoked, 0);
        service.reopen_shard(1).expect("the disk is healthy again");
        assert_eq!(service.status(2), Some(FleetStatus::Active));
        assert_eq!(service.revoke(2).expect("revokes now"), Some(FleetStatus::Revoked));
    }

    #[test]
    fn a_store_with_another_history_bound_is_refused() {
        let cfg = small_test_config(2, 1, 0x415);
        let opts = pufatt_store::ShardedOptions {
            history_capacity: cfg.history_capacity + 1,
            ..sharded_opts(&cfg)
        };
        let store = ShardedStore::open(Arc::new(pufatt_store::SimVfs::new()), opts).expect("fresh store");
        match FleetService::with_journal(cfg, Arc::new(store)) {
            Err(PufattError::Storage(message)) => assert!(message.contains("outcomes per device"), "{message}"),
            other => panic!("a store with another history bound must be refused, got {:?}", other.err()),
        }
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
        // Every session record is applied by the store, journal or not, so
        // the record counts each session and its cursor is where the live
        // session stands; a device refused from its first session is never
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
            let (events_seen, cursor) = service
                .store
                .with_device(id, |device| (device.events_seen, device.cursor))
                .expect("enrolled");
            assert_eq!(events_seen, 50);
            let live = slots.get_mut(&id).map(|session| session.cursor());
            assert_eq!(cursor, live, "device {id}: the record's cursor is the session's");
            assert_eq!(live.is_none(), id == 1, "only the revoked device stays unprovisioned");
        }
    }
}
