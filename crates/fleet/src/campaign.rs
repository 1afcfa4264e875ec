//! Campaign driver: attest a whole fleet through the worker pool.
//!
//! A campaign manufactures `devices` chips of one product line (the
//! design is instantiated once and shared) and attests each of them
//! `sessions_per_device` times. It is a driver over
//! [`FleetService`], which provisions each device,
//! gates and runs its sessions, applies the retry/quarantine/revocation
//! lifecycle and records metrics: the pool runs one job per device, and
//! that job steps the device's [`DeviceDriver`] (`enroll`, then
//! `open_session`/`attest` for every session its schedule still owes)
//! against the service. [`run_campaign`] drives an
//! in-memory service; [`RunningCampaign`] drives a journaled one and
//! resumes an interrupted run (see [`crate::durable`]).
//!
//! # Determinism
//!
//! Results are a function of the configuration only, never of scheduling:
//! every per-device random stream (silicon draw, PUF noise, challenge
//! sequence, tamper decision) is seeded from `seed` and the device id,
//! all of one device's sessions run inside one pool job (so they are
//! sequential), and time — session elapsed, timeout, backoff — is
//! *simulated* time derived from the cycle-accurate clock and channel
//! model, not wall-clock. A campaign with 8 workers therefore produces
//! exactly the same accept/reject totals as the same campaign with 1.

use crate::driver::{DeviceDriver, DeviceTally, Outcome, Step};
use crate::durable::open_state_dir;
use crate::metrics::FleetSnapshot;
use crate::pool::WorkerPool;
use crate::registry::{DeviceId, FleetStatus, LifecyclePolicy, SessionOutcome};
use crate::service::{EnrollCommit, FleetService, ServiceVerdict, SessionGate};
use pufatt::adversary::{malicious_prover_from_image, memory_copy_image};
use pufatt::enroll::enroll_with_design;
use pufatt::protocol::{
    provision_from_image, puf_limited_clock, Channel, ProgramImage, ProverDevice, RetryPolicy, Verifier,
};
use pufatt::PufattError;
use pufatt_alupuf::device::{AluPufConfig, AluPufDesign};
use pufatt_faults::{apply_device_faults, run_chaos_session, ChaosReport, FaultPlan, LossyChannel};
use pufatt_store::{CursorInfo, Record, ShardedStore};
use pufatt_swatt::checksum::SwattParams;
use pufatt_swatt::codegen::CodegenOptions;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Everything a campaign needs; [`CampaignConfig::default`] is a small
/// but representative fleet.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Devices to manufacture and attest.
    pub devices: usize,
    /// Worker threads running sessions.
    pub workers: usize,
    /// Lock shards of the service's device table (scheduling only).
    pub shards: usize,
    /// Attestation sessions per device.
    pub sessions_per_device: u32,
    /// Master seed; all per-device randomness derives from it.
    pub seed: u64,
    /// Fraction of devices manufactured compromised (malware in the
    /// attested region), deterministically chosen per device.
    pub tamper_fraction: f64,
    /// The product line's PUF configuration.
    pub puf: AluPufConfig,
    /// Checksum parameters of the attestation program.
    pub params: SwattParams,
    /// Retry/quarantine/revocation policy.
    pub policy: LifecyclePolicy,
    /// Session timeout in simulated seconds (elapsed time beyond this
    /// rejects the attempt even if the response verifies).
    pub timeout_s: f64,
    /// Retained outcomes per device in its lifecycle history.
    pub history_capacity: usize,
    /// Chaos mode: a fault plan and the fraction of the fleet it afflicts.
    /// `None` runs the campaign exactly as before (ideal channel, no
    /// injected faults).
    pub chaos: Option<ChaosConfig>,
    /// Group-commit latency bound for persistent campaigns, in seconds:
    /// a background committer fsyncs each shard's WAL at least this often,
    /// so a crash loses at most this much recent (re-derivable) history.
    /// `0` runs without a committer — appends become durable when the
    /// queue fills, a record is force-synced, or the campaign finishes.
    /// Scheduling-only: excluded from the config fingerprint, never
    /// verdict-affecting.
    pub commit_interval_s: f64,
    /// Storage-failure policy for persistent campaigns. `false` (the
    /// default) degrades gracefully: a sick shard refuses its devices
    /// with typed errors while healthy shards keep attesting. `true`
    /// fails fast: the first shard failure aborts the campaign with a
    /// typed storage error. Policy-only: excluded from the config
    /// fingerprint — it changes what happens *during* a failure, never
    /// any verdict.
    pub fail_fast: bool,
}

/// What a chaos campaign injects and into how much of the fleet.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The faults applied to flaky devices (PUF, transport, clock, memory
    /// layers — see `pufatt_faults::FaultPlan`).
    pub plan: FaultPlan,
    /// Fraction of devices that are flaky, chosen deterministically per
    /// device from the campaign seed (independent of the tamper set).
    pub flaky_fraction: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            devices: 64,
            workers: 4,
            shards: 16,
            sessions_per_device: 2,
            seed: 0xF1EE7,
            tamper_fraction: 0.125,
            puf: AluPufConfig::paper_32bit(),
            // Small regions and few rounds: a fleet campaign cares about
            // scheduling and lifecycle, not per-session checksum strength.
            params: SwattParams { region_bits: 8, rounds: 192, puf_interval: 32 },
            policy: LifecyclePolicy::default(),
            timeout_s: 1.0,
            history_capacity: 64,
            chaos: None,
            commit_interval_s: 0.0,
            fail_fast: false,
        }
    }
}

/// Result of a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Final counters and device states (exact: taken after drain).
    pub snapshot: FleetSnapshot,
    /// Per-device end state and full retained session history, ascending
    /// by id. This is the determinism witness: two runs of the same
    /// configuration must produce identical records whatever the worker
    /// count.
    pub device_records: Vec<DeviceRecord>,
    /// Real (wall-clock) time the campaign took.
    pub wall_time: Duration,
    /// Pool jobs that panicked (0 in a healthy campaign).
    pub panicked_jobs: u64,
}

/// One device's campaign outcome, read from its service slot after the
/// pool drains.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRecord {
    /// The device id.
    pub id: DeviceId,
    /// Whether the device was manufactured compromised.
    pub tampered: bool,
    /// Whether the chaos configuration marked the device flaky.
    pub flaky: bool,
    /// Lifecycle state when the campaign ended.
    pub status: FleetStatus,
    /// Retained session outcomes, oldest first.
    pub outcomes: Vec<SessionOutcome>,
}

impl CampaignReport {
    /// Completed sessions per wall-clock second — the scheduler-throughput
    /// figure the benchmarks sweep over worker counts.
    pub fn sessions_per_second(&self) -> f64 {
        let finished = self.snapshot.sessions_accepted + self.snapshot.sessions_rejected;
        finished as f64 / self.wall_time.as_secs_f64().max(1e-9)
    }
}

/// SplitMix64: decorrelates the per-device seeds derived from one master
/// seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn device_seed(campaign_seed: u64, id: DeviceId) -> u64 {
    splitmix64(campaign_seed ^ splitmix64(id as u64))
}

/// Whether device `id` is manufactured compromised — a pure function of
/// the campaign seed, so the tamper set is identical however the fleet is
/// scheduled.
pub fn device_is_tampered(campaign_seed: u64, id: DeviceId, tamper_fraction: f64) -> bool {
    let draw = splitmix64(device_seed(campaign_seed, id) ^ 0x7A3D) >> 11;
    (draw as f64) * (1.0 / (1u64 << 53) as f64) < tamper_fraction
}

/// Whether device `id` is flaky under a chaos campaign — like
/// [`device_is_tampered`] a pure function of the seed, and drawn with a
/// different salt so the flaky and tampered sets are independent.
pub fn device_is_flaky(campaign_seed: u64, id: DeviceId, flaky_fraction: f64) -> bool {
    let draw = splitmix64(device_seed(campaign_seed, id) ^ 0x1F1A) >> 11;
    (draw as f64) * (1.0 / (1u64 << 53) as f64) < flaky_fraction
}

/// One device's provisioned session state, held in the service's slot.
pub(crate) struct DeviceSession {
    prover: ProverDevice,
    verifier: Verifier,
    rng: ChaCha8Rng,
    /// The device's link: lossy for flaky devices under chaos, ideal
    /// otherwise.
    channel: LossyChannel,
    /// The faults this device lives with (clean unless chaos marked it
    /// flaky).
    plan: FaultPlan,
    /// The retry policy its sessions run under ([`retry_policy`]).
    policy: RetryPolicy,
    /// The word index chaos tamper targets in this device's memory.
    tamper_cell: usize,
    /// That word's pristine value at provision time. Mid-traversal tamper
    /// XORs the word and the mutation persists across sessions, so the
    /// current value differing from this baseline is exactly one bit of
    /// cross-session device state — the only such bit (seed/x0 cells are
    /// replanted every session; nothing else in the attested region is
    /// written). Captured so a resume cursor can record and re-apply it.
    tamper_baseline: Option<u32>,
}

impl DeviceSession {
    /// The `DeviceCursor` record of device `id` after `events_done`
    /// session events: the deterministic per-device state a resume must
    /// restore — RNG positions, PUF evaluation count, tamper parity.
    pub(crate) fn cursor_record(&mut self, id: DeviceId, events_done: u32) -> Record {
        let (noise_pos, noise_evals) = self.prover.puf().with(|d| d.noise_state());
        Record::DeviceCursor {
            id,
            events_done,
            session_pos: self.rng.word_pos(),
            noise_pos,
            noise_evals,
            tamper_parity: self.tamper_parity(),
        }
    }

    /// Fast-forwards a freshly provisioned session to `cursor` without
    /// replaying the sessions that produced it. Word positions are
    /// absolute, so whatever the provisioning path consumed is irrelevant.
    pub(crate) fn restore_cursor(&mut self, cursor: &CursorInfo) {
        self.rng.set_word_pos(cursor.session_pos);
        self.prover
            .puf()
            .with(|d| d.restore_noise_state(cursor.noise_pos, cursor.noise_evals));
        if self.tamper_parity() != cursor.tamper_parity {
            let cell = self.tamper_cell;
            let word = self.prover.memory()[cell] ^ pufatt_faults::MID_TRAVERSAL_XOR;
            // A parity can only differ when the cell exists (`tamper_baseline`
            // is `Some`), so this in-memory write cannot trap.
            let _ = self.prover.write_words(cell as u32, &[word]);
        }
    }

    /// The verifier's cumulative CRP-cache `(hits, misses)`.
    pub(crate) fn crp_stats(&self) -> (u64, u64) {
        self.verifier.crp_cache_stats()
    }

    fn tamper_parity(&self) -> bool {
        match self.tamper_baseline {
            Some(baseline) => self.prover.memory()[self.tamper_cell] != baseline,
            None => false,
        }
    }
}

/// What every device of a campaign is built from: the PUF design, and
/// the checksum programs, each generated and assembled on first use and
/// loaded by every later device. Compromised devices load the memory-copy
/// program in place of the honest one.
pub(crate) struct ProductLine {
    design: Arc<AluPufDesign>,
    params: SwattParams,
    honest: OnceLock<Result<ProgramImage, PufattError>>,
    memory_copy: OnceLock<Result<ProgramImage, PufattError>>,
}

impl ProductLine {
    pub(crate) fn new(cfg: &CampaignConfig) -> Self {
        ProductLine {
            design: Arc::new(AluPufDesign::new(cfg.puf.clone())),
            params: cfg.params,
            honest: OnceLock::new(),
            memory_copy: OnceLock::new(),
        }
    }

    /// The honest program. A build failure is kept, so every device fails
    /// to provision with the same error, as each would building its own.
    fn honest(&self) -> Result<&ProgramImage, PufattError> {
        let built = self
            .honest
            .get_or_init(|| ProgramImage::build(self.params, &CodegenOptions::default()));
        built.as_ref().map_err(Clone::clone)
    }

    /// The memory-copy program, redirecting the honest program's attested
    /// region.
    fn memory_copy(&self) -> Result<&ProgramImage, PufattError> {
        let region_words = self.honest()?.layout().region_end;
        let built = self.memory_copy.get_or_init(|| memory_copy_image(self.params, region_words));
        built.as_ref().map_err(Clone::clone)
    }

    /// Builds the programs device `id` loads, so a configuration whose
    /// programs cannot be generated is refused at enrollment, before any
    /// device is provisioned.
    pub(crate) fn check_programs(&self, cfg: &CampaignConfig, id: DeviceId) -> Result<(), PufattError> {
        self.honest()?;
        if device_is_tampered(cfg.seed, id, cfg.tamper_fraction) {
            self.memory_copy()?;
        }
        Ok(())
    }
}

pub(crate) fn provision_device(
    line: &ProductLine,
    cfg: &CampaignConfig,
    id: DeviceId,
) -> Result<DeviceSession, PufattError> {
    let seed = device_seed(cfg.seed, id);
    let enrolled = enroll_with_design(&line.design, seed)?;
    // The attestation clock comes from the device's own PUF timing limit
    // (the §4.2 overclock defence); few samples keep provisioning cheap.
    let clock = puf_limited_clock(&enrolled, 1.10, 16, splitmix64(seed ^ 1));
    let (prover, verifier, _) =
        provision_from_image(&enrolled, line.honest()?, clock, Channel::sensor_link(), splitmix64(seed ^ 2), 1.10)?;
    let prover = if device_is_tampered(cfg.seed, id, cfg.tamper_fraction) {
        // A compromised device mounts the memory-copy attack (§4): the
        // redirecting checksum forges the response from a pristine copy,
        // and the per-round redirection overhead breaks the time bound —
        // so the verifier rejects it every session, deterministically.
        let puf = enrolled.device_handle(splitmix64(seed ^ 4));
        malicious_prover_from_image(puf, line.memory_copy()?, &prover.expected_region(), clock, 1.0)?
    } else {
        prover
    };
    // Chaos: flaky devices carry their plan's device-side faults and talk
    // over the plan's lossy channel; everyone else keeps the clean line.
    let flaky = matches!(&cfg.chaos, Some(chaos) if device_is_flaky(cfg.seed, id, chaos.flaky_fraction));
    let plan = match (&cfg.chaos, flaky) {
        (Some(chaos), true) => FaultPlan { seed: splitmix64(seed ^ 5), ..chaos.plan.clone() },
        _ => FaultPlan::clean(splitmix64(seed ^ 5)),
    };
    let mut prover = prover;
    apply_device_faults(&mut prover, &plan);
    let channel = if flaky {
        LossyChannel::from_plan(verifier.channel(), &plan)
    } else {
        LossyChannel::ideal(verifier.channel())
    };
    let tamper_cell = pufatt_faults::mid_traversal_addr(&prover.layout()) as usize;
    let tamper_baseline = prover.memory().get(tamper_cell).copied();
    Ok(DeviceSession {
        policy: retry_policy(&verifier, cfg),
        prover,
        verifier,
        rng: ChaCha8Rng::seed_from_u64(splitmix64(seed ^ 3)),
        channel,
        plan,
        tamper_cell,
        tamper_baseline,
    })
}

/// The retry policy a campaign's sessions run under (DESIGN.md §9.2).
/// A plain campaign takes its backoff and timeout as they are. A chaos
/// campaign takes the lossy-link policy derived from the verifier's δ,
/// with the campaign's backoff base and its deadline capped at the
/// campaign timeout.
fn retry_policy(verifier: &Verifier, cfg: &CampaignConfig) -> RetryPolicy {
    let (max_attempts, backoff_base_s) = (cfg.policy.max_attempts, cfg.policy.backoff_base_s);
    if cfg.chaos.is_none() {
        return RetryPolicy::plain(max_attempts, backoff_base_s, cfg.timeout_s);
    }
    let policy = RetryPolicy::for_verifier(verifier, max_attempts);
    RetryPolicy {
        backoff_base_s,
        deadline_s: policy.deadline_s.min(cfg.timeout_s),
        ..policy
    }
}

/// Per-session CRP-cache delta: the verifier's cumulative counters minus
/// a `baseline` of [`DeviceSession::crp_stats`] taken before the session.
/// Sessions run sequentially per device, so the delta is exact and
/// scheduling-independent.
pub(crate) fn crp_delta(session: &DeviceSession, baseline: (u64, u64)) -> (u32, u32) {
    let (h1, m1) = session.crp_stats();
    (h1.saturating_sub(baseline.0) as u32, m1.saturating_sub(baseline.1) as u32)
}

/// Runs one session (with retries) against an already-provisioned device:
/// the session machine under the device's policy, over its channel (ideal
/// unless chaos made it flaky).
pub(crate) fn run_session(session: &mut DeviceSession) -> ChaosReport {
    let DeviceSession { prover, verifier, rng, channel, plan, policy, .. } = session;
    // A new session starts with a cold CRP cache; retry attempts within it
    // replay the same challenge stream and hit.
    verifier.begin_session();
    run_chaos_session(prover, verifier, channel, plan, policy, rng)
}

/// The lifecycle outcome of a session, `None` if the device faulted. A
/// session that died without a verdict (deadline, channel fully lost)
/// counts as failed-and-timed-out towards the lifecycle, never as a
/// crash.
pub(crate) fn session_outcome(report: &ChaosReport) -> Option<SessionOutcome> {
    let (accepted, response_ok, time_ok, timed_out) = match report.result {
        Ok(v) => (v.accepted, v.response_ok, v.time_ok, report.late),
        Err(_) if report.timed_out() => (false, false, false, true),
        Err(_) => return None,
    };
    Some(SessionOutcome {
        accepted,
        response_ok,
        time_ok,
        timed_out,
        attempts: report.attempts,
        elapsed_s: report.elapsed_s,
    })
}

/// Rejects configurations no campaign can run, before any thread spawns.
fn validate(cfg: &CampaignConfig) -> Result<(), PufattError> {
    if cfg.devices == 0 || cfg.workers == 0 || cfg.sessions_per_device == 0 {
        return Err(PufattError::Codegen("campaign needs devices, workers, and sessions > 0".into()));
    }
    Ok(())
}

/// One device's pool job: step its [`DeviceDriver`] against the service,
/// owing `sessions_per_device` minus the session events a journal already
/// holds for it.
///
/// A sick home shard stops the device, never the campaign: the rest of
/// its schedule is counted as unavailable, and a resume after the shard
/// reopens re-derives those sessions bit-identically.
fn run_device(service: &FleetService, id: DeviceId) {
    let owed = service.config().sessions_per_device.saturating_sub(service.events_seen(id));
    let mut driver = DeviceDriver::new(id, owed);
    let mut tally = DeviceTally::default();
    loop {
        let step = driver.next();
        let outcome = match step {
            Step::Enroll => match service.enroll_as(id, EnrollCommit::Grouped) {
                Ok(_) => Outcome::Enrolled,
                // A sick home shard refused the device: nothing was admitted.
                Err(PufattError::Storage(_) | PufattError::StorageUnavailable { .. }) => Outcome::Unavailable,
                // A program build fault, which the service has already counted.
                Err(_) => Outcome::Fault,
            },
            Step::Open => match service.open_session(id) {
                SessionGate::Granted { ticket } => Outcome::Granted { ticket },
                SessionGate::Refused => Outcome::Refused,
                SessionGate::Faulty => Outcome::Fault,
                SessionGate::Unknown => Outcome::Unknown,
                SessionGate::Unavailable => Outcome::Unavailable,
            },
            Step::Attest { .. } => match service.attest(id) {
                ServiceVerdict::Closed { outcome, .. } => Outcome::Verdict { accepted: outcome.accepted },
                ServiceVerdict::Refused => Outcome::Refused,
                ServiceVerdict::Fault => Outcome::Fault,
                ServiceVerdict::Unknown => Outcome::Unknown,
                ServiceVerdict::Unavailable => Outcome::Unavailable,
            },
            Step::Done => return,
        };
        driver.record(outcome, &mut tally);
        if outcome == Outcome::Unavailable {
            // The gate at `Open` or `Attest` counted the session it
            // refused; the rest of the schedule is counted here.
            service.count_unavailable(tally.sessions_unavailable - u64::from(step != Step::Enroll));
        }
    }
}

/// Device jobs the campaign pool queues before a submit blocks
/// (scheduling only: it never changes a verdict).
const POOL_QUEUE_DEPTH: usize = 64;

/// Starts the campaign pool with one job per configured device, plus one
/// per device a journal restored past the configured range (admitted
/// online by an earlier run).
fn start_pool(service: &Arc<FleetService>) -> WorkerPool {
    let cfg = service.config();
    let pool = WorkerPool::new(cfg.workers, POOL_QUEUE_DEPTH);
    let online = service.enrolled_ids().into_iter().filter(|&id| id as usize >= cfg.devices);
    for id in (0..cfg.devices as DeviceId).chain(online) {
        submit(&pool, service, id);
    }
    pool
}

fn submit(pool: &WorkerPool, service: &Arc<FleetService>, id: DeviceId) {
    let service = Arc::clone(service);
    pool.submit(move || run_device(&service, id));
}

/// The report of a drained campaign.
fn report(service: &FleetService, panicked_jobs: u64, start: Instant) -> CampaignReport {
    let mut snapshot = service.snapshot();
    snapshot.store = service.store_stats();
    CampaignReport {
        snapshot,
        device_records: service.device_records(),
        wall_time: start.elapsed(),
        panicked_jobs,
    }
}

/// Runs a full campaign and reports the final state.
///
/// # Errors
///
/// Rejects invalid configurations (zero devices/workers, an unsupported
/// PUF width) before any thread spawns; per-device faults during the run
/// are counted in the snapshot instead of aborting the fleet.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, PufattError> {
    validate(cfg)?;
    let start = Instant::now();
    let service = Arc::new(FleetService::new(cfg.clone())?);
    let panicked_jobs = start_pool(&service).shutdown();
    Ok(report(&service, panicked_jobs, start))
}

/// A persistent campaign mid-flight: the pool is attesting against a
/// journaled [`FleetService`], the committer (if configured) is syncing
/// shards in the background, and new devices can still be admitted.
/// Obtained from [`RunningCampaign::launch`]; consumed by
/// [`RunningCampaign::finish`].
pub struct RunningCampaign {
    service: Arc<FleetService>,
    store: Arc<ShardedStore>,
    pool: WorkerPool,
    start: Instant,
}

impl RunningCampaign {
    /// Validates the configuration, restores the store's committed state
    /// into a journaled [`FleetService`] (refusing a store that holds a
    /// different campaign), and submits every configured (and previously
    /// online-enrolled) device to the pool.
    ///
    /// Pass `resume = false` for a run that must start fresh: an existing
    /// campaign in the store is then refused instead of silently
    /// continued. With `resume = true`, persisted state is restored (an
    /// empty store is simply a fresh start).
    ///
    /// # Errors
    ///
    /// Invalid configurations (as [`run_campaign`]);
    /// [`PufattError::Storage`] if the store holds a different campaign or
    /// holds a campaign and `resume` is false.
    pub fn launch(
        cfg: &CampaignConfig,
        store: &Arc<ShardedStore>,
        resume: bool,
    ) -> Result<RunningCampaign, PufattError> {
        validate(cfg)?;
        if let (false, Some(existing)) = (resume, store.meta()) {
            return Err(PufattError::Storage(format!(
                "state directory already holds a campaign (seed {}); pass resume to continue it",
                existing.seed
            )));
        }
        let start = Instant::now();
        let service = Arc::new(FleetService::with_journal(cfg.clone(), Arc::clone(store))?);
        let pool = start_pool(&service);
        Ok(RunningCampaign { service, store: Arc::clone(store), pool, start })
    }

    /// Admits a new device while the campaign runs. The enrollment is
    /// journaled with a forced sync *before* the device becomes visible in
    /// the service or the pool, so a crash leaves it either fully
    /// admitted or entirely absent. Returns `false` (and does nothing) if
    /// the device is already enrolled; ids inside the configured fleet
    /// always are, since their own jobs enroll them.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] if the enrollment cannot be committed, or
    /// [`PufattError::StorageUnavailable`] if the device's home shard is
    /// sick; the device was not admitted.
    pub fn enroll(&self, id: DeviceId) -> Result<bool, PufattError> {
        if (id as usize) < self.service.config().devices {
            return Ok(false);
        }
        match self.service.enroll(id) {
            Ok(outcome) if !outcome.fresh => Ok(false),
            Err(e @ (PufattError::Storage(_) | PufattError::StorageUnavailable { .. })) => Err(e),
            // Admitted — also when provisioning failed: the device is
            // then abandoned, and its job finds nothing to run.
            _ => {
                submit(&self.pool, &self.service, id);
                Ok(true)
            }
        }
    }

    /// Drains the pool, flushes the group commit, folds the WAL into
    /// fresh snapshots, and reports — the report is bit-identical to an
    /// uninterrupted in-memory run of the same configuration.
    ///
    /// Under [`CampaignConfig::fail_fast`], a store that broke mid-run is
    /// a typed error. In degrade mode (the default) a campaign with sick
    /// shards still reports: healthy-shard devices completed their full
    /// schedule, sick-shard devices show their refused sessions as
    /// `sessions_unavailable`, and the snapshot's store stats carry the
    /// shard-health tally for the operator.
    ///
    /// # Errors
    ///
    /// [`PufattError::Storage`] if the store broke mid-run and
    /// `fail_fast` is set (reopen the state directory and resume), or if
    /// the final flush/checkpoint hits a failure `fail_fast` must not
    /// tolerate.
    pub fn finish(self) -> Result<CampaignReport, PufattError> {
        let RunningCampaign { service, store, pool, start } = self;
        let panicked_jobs = pool.shutdown();
        let fail_fast = service.config().fail_fast;
        if fail_fast && store.is_broken() {
            return Err(PufattError::Storage(
                "durable store failed mid-campaign; reopen the state directory and resume".into(),
            ));
        }
        // Sick shards are skipped inside the store; a *new* failure here
        // degrades its shard, which only fail-fast treats as fatal (the
        // health tally reports it either way).
        if let Err(e) = service.checkpoint() {
            if fail_fast {
                return Err(e);
            }
        }
        Ok(report(&service, panicked_jobs, start))
    }
}

/// Runs a campaign whose every transition is journaled through `store`,
/// resuming from whatever committed state the store holds:
/// [`RunningCampaign::launch`] immediately followed by
/// [`RunningCampaign::finish`].
///
/// # Errors
///
/// As [`RunningCampaign::launch`] and [`RunningCampaign::finish`].
pub fn run_persistent_campaign(
    cfg: &CampaignConfig,
    store: &Arc<ShardedStore>,
    resume: bool,
) -> Result<CampaignReport, PufattError> {
    RunningCampaign::launch(cfg, store, resume)?.finish()
}

/// [`run_persistent_campaign`] against an on-disk state directory — the
/// `pufatt fleet --state-dir <dir> [--resume]` entry point.
///
/// # Errors
///
/// As [`open_state_dir`] and [`run_persistent_campaign`].
pub fn run_campaign_with_dir(cfg: &CampaignConfig, dir: &Path, resume: bool) -> Result<CampaignReport, PufattError> {
    let store = open_state_dir(dir, cfg.history_capacity)?;
    run_persistent_campaign(cfg, &store, resume)
}

/// A cheap configuration for tests and benchmarks: a narrow PUF and a
/// short checksum keep per-session cost low while exercising every layer.
pub fn small_test_config(devices: usize, workers: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        devices,
        workers,
        shards: 8,
        sessions_per_device: 2,
        seed,
        tamper_fraction: 0.25,
        puf: AluPufConfig { width: 16, design_seed: 7, ..AluPufConfig::paper_32bit() },
        params: SwattParams { region_bits: 8, rounds: 128, puf_interval: 32 },
        policy: LifecyclePolicy { max_attempts: 2, ..LifecyclePolicy::default() },
        timeout_s: 1.0,
        history_capacity: 16,
        chaos: None,
        commit_interval_s: 0.0,
        fail_fast: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufatt_store::{ShardedOptions, SimVfs};

    #[test]
    fn campaign_attests_a_small_fleet() {
        let report = run_campaign(&small_test_config(12, 3, 0xC0FFEE)).unwrap();
        let snap = &report.snapshot;
        assert_eq!(report.panicked_jobs, 0);
        assert_eq!(snap.devices.total(), 12);
        assert!(snap.sessions_accepted > 0, "honest majority accepted: {snap}");
        assert!(snap.sessions_rejected > 0, "tampered devices rejected: {snap}");
        assert_eq!(
            snap.sessions_started,
            snap.sessions_accepted + snap.sessions_rejected,
            "every started session terminates"
        );
        assert!(!snap.latency_buckets_us.is_empty(), "latencies recorded");
    }

    #[test]
    fn tamper_set_is_a_pure_function_of_the_seed() {
        let a: Vec<bool> = (0..64).map(|id| device_is_tampered(9, id, 0.25)).collect();
        let b: Vec<bool> = (0..64).map(|id| device_is_tampered(9, id, 0.25)).collect();
        assert_eq!(a, b);
        let tampered = a.iter().filter(|&&t| t).count();
        assert!((4..=28).contains(&tampered), "≈25% of 64 devices, got {tampered}");
        assert!((0..64).all(|id| !device_is_tampered(9, id, 0.0)));
        assert!((0..64).all(|id| device_is_tampered(9, id, 1.0)));
    }

    #[test]
    fn zero_config_is_rejected() {
        let mut cfg = small_test_config(0, 1, 1);
        assert!(run_campaign(&cfg).is_err());
        cfg.devices = 1;
        cfg.workers = 0;
        assert!(run_campaign(&cfg).is_err());
    }

    #[test]
    fn impossible_timeout_rejects_everything() {
        let mut cfg = small_test_config(6, 2, 5);
        cfg.timeout_s = 0.0;
        let report = run_campaign(&cfg).unwrap();
        let snap = &report.snapshot;
        assert_eq!(snap.sessions_accepted, 0);
        assert!(snap.sessions_timed_out > 0);
        assert_eq!(snap.sessions_timed_out, snap.sessions_rejected);
    }

    #[test]
    fn chaos_campaign_quarantines_flaky_devices() {
        // Flaky devices lose most messages: their sessions die on the
        // channel, the lifecycle walks them out of Active, while clean
        // devices keep attesting normally.
        let mut cfg = small_test_config(12, 3, 0xD1CE);
        cfg.tamper_fraction = 0.0;
        cfg.sessions_per_device = 6;
        cfg.policy = LifecyclePolicy {
            max_attempts: 2,
            quarantine_after: 2,
            revoke_after: 4,
            reactivate_after: 2,
            ..LifecyclePolicy::default()
        };
        cfg.chaos = Some(ChaosConfig {
            plan: FaultPlan::clean(0).with_drops(0.9).with_jitter_ms(1.0),
            flaky_fraction: 0.4,
        });
        let report = run_campaign(&cfg).unwrap();
        let snap = &report.snapshot;
        assert_eq!(report.panicked_jobs, 0);
        assert!(snap.messages_dropped > 0, "drops must be counted: {snap}");
        assert!(snap.sessions_lost > 0, "90% drop rate loses sessions: {snap}");
        let flaky: Vec<_> = report.device_records.iter().filter(|r| r.flaky).collect();
        assert!(!flaky.is_empty(), "0.4 of 12 devices should be flaky");
        assert!(
            flaky.iter().any(|r| r.status != FleetStatus::Active),
            "persistent loss must demote flaky devices: {:?}",
            flaky.iter().map(|r| (r.id, r.status)).collect::<Vec<_>>()
        );
        for r in report.device_records.iter().filter(|r| !r.flaky) {
            assert_eq!(r.status, FleetStatus::Active, "clean device {} must stay active", r.id);
        }
    }

    #[test]
    fn chaos_campaign_is_deterministic_across_worker_counts() {
        let make = |workers| {
            let mut cfg = small_test_config(10, workers, 0xFA17);
            cfg.sessions_per_device = 4;
            cfg.chaos = Some(ChaosConfig {
                plan: FaultPlan::clean(0).with_drops(0.3).with_bit_flips(0.01),
                flaky_fraction: 0.5,
            });
            run_campaign(&cfg).unwrap()
        };
        let one = make(1);
        let four = make(4);
        assert_eq!(one.device_records, four.device_records, "verdicts must not depend on scheduling");
        assert_eq!(one.snapshot, four.snapshot);
    }

    #[test]
    fn tampered_devices_progress_towards_quarantine_or_revocation() {
        let mut cfg = small_test_config(8, 2, 0xBAD);
        cfg.tamper_fraction = 1.0;
        cfg.sessions_per_device = 6;
        let report = run_campaign(&cfg).unwrap();
        let snap = &report.snapshot;
        assert_eq!(snap.sessions_accepted, 0, "all devices tampered: {snap}");
        assert_eq!(snap.devices.active, 0, "none should stay active: {snap}");
        assert!(snap.devices.revoked > 0, "repeat offenders get revoked: {snap}");
        assert!(snap.sessions_refused > 0, "revoked devices are refused: {snap}");
        assert!(snap.attempts_retried > 0, "failures are retried first: {snap}");
    }

    fn open_sim(vfs: &SimVfs, history_capacity: usize) -> Arc<ShardedStore> {
        // Narrow ranges so even small test fleets span several shards.
        let opts = ShardedOptions {
            history_capacity,
            shards: 4,
            range_width: 2,
            ..ShardedOptions::default()
        };
        Arc::new(ShardedStore::open(Arc::new(vfs.clone()), opts).expect("recovery"))
    }

    /// Strips the store statistics (wall-clock-ish, run-shape dependent)
    /// so snapshots from persistent and in-memory runs compare.
    fn core_snapshot(report: &CampaignReport) -> crate::metrics::FleetSnapshot {
        let mut snap = report.snapshot.clone();
        snap.store = None;
        snap
    }

    #[test]
    fn persistent_campaign_matches_in_memory_run() {
        let cfg = small_test_config(8, 2, 0x5EED);
        let plain = run_campaign(&cfg).unwrap();
        let vfs = SimVfs::new();
        let durable = run_persistent_campaign(&cfg, &open_sim(&vfs, cfg.history_capacity), false).unwrap();
        assert_eq!(durable.device_records, plain.device_records);
        assert_eq!(core_snapshot(&durable), plain.snapshot);
        let stats = durable.snapshot.store.expect("persistent run reports store stats");
        assert!(stats.records_appended > 0);
    }

    #[test]
    fn finished_campaign_resumes_to_the_same_report() {
        let cfg = small_test_config(6, 2, 0xAB);
        let vfs = SimVfs::new();
        let first = run_persistent_campaign(&cfg, &open_sim(&vfs, cfg.history_capacity), false).unwrap();
        let resumed = run_persistent_campaign(&cfg, &open_sim(&vfs, cfg.history_capacity), true).unwrap();
        assert_eq!(resumed.device_records, first.device_records);
        assert_eq!(core_snapshot(&resumed), core_snapshot(&first));
        let stats = resumed.snapshot.store.unwrap();
        assert_eq!(stats.records_appended, 0, "a finished campaign appends nothing on resume");
    }

    #[test]
    fn campaign_with_a_sick_shard_completes_healthy_devices_and_resumes_bit_identically() {
        let mut cfg = small_test_config(8, 2, 0xD16E);
        cfg.tamper_fraction = 0.0;
        let reference = run_campaign(&cfg).unwrap();

        let vfs = SimVfs::new();
        let store = open_sim(&vfs, cfg.history_capacity);
        vfs.inject(
            pufatt_store::ErrorInjection::on_prefix("shard-001/", pufatt_store::InjectedErrorKind::Eio).sticky(),
        );
        let degraded = run_persistent_campaign(&cfg, &store, false).unwrap();

        let sick: Vec<DeviceId> = (0..cfg.devices as DeviceId).filter(|&id| store.shard_of_id(id) == 1).collect();
        assert!(!sick.is_empty(), "test geometry must home devices on the sick shard");
        // Healthy-shard devices complete their full schedule with verdicts
        // bit-identical to a failure-free run; sick-shard devices never
        // start a session (no accepted-but-undurable state to reconcile).
        for rec in &degraded.device_records {
            let reference_rec = reference.device_records.iter().find(|r| r.id == rec.id).expect("same fleet");
            if sick.contains(&rec.id) {
                assert!(rec.outcomes.is_empty(), "sick-shard device {} must not attest", rec.id);
            } else {
                assert_eq!(rec, reference_rec, "healthy-shard device must be unaffected");
            }
        }
        assert_eq!(
            degraded.snapshot.sessions_unavailable,
            sick.len() as u64 * cfg.sessions_per_device as u64,
            "every skipped session is accounted as unavailable"
        );
        let stats = degraded.snapshot.store.expect("persistent run reports store stats");
        assert!(stats.shards_degraded + stats.shards_failed > 0, "sick shard must show in stats: {stats}");

        // Operator drill: replace the disk and resume. Nothing undurable
        // was admitted while the shard was sick, so the resumed campaign
        // re-derives the missing sessions and converges on the
        // failure-free report exactly.
        vfs.clear_injections("shard-001/");
        let resumed = run_persistent_campaign(&cfg, &open_sim(&vfs, cfg.history_capacity), true).unwrap();
        assert_eq!(resumed.device_records, reference.device_records, "reopen must not change verdicts");
        assert_eq!(core_snapshot(&resumed), reference.snapshot, "reopen must not change counters");
    }

    #[test]
    fn fail_fast_campaign_stops_typed_on_a_sick_shard() {
        let cfg = {
            let mut c = small_test_config(8, 2, 0xFA57);
            c.fail_fast = true;
            c
        };
        let vfs = SimVfs::new();
        let store = open_sim(&vfs, cfg.history_capacity);
        vfs.inject(
            pufatt_store::ErrorInjection::on_prefix("shard-001/", pufatt_store::InjectedErrorKind::NoSpace).sticky(),
        );
        match run_persistent_campaign(&cfg, &store, false) {
            Err(PufattError::Storage(_) | PufattError::StorageUnavailable { .. }) => {}
            other => panic!("fail-fast must surface the storage failure, got {other:?}"),
        }
    }

    #[test]
    fn fresh_run_refuses_an_occupied_state_dir_and_wrong_config_refuses_resume() {
        let cfg = small_test_config(4, 1, 0xCD);
        let vfs = SimVfs::new();
        run_persistent_campaign(&cfg, &open_sim(&vfs, cfg.history_capacity), false).unwrap();
        let store = open_sim(&vfs, cfg.history_capacity);
        assert!(matches!(run_persistent_campaign(&cfg, &store, false), Err(PufattError::Storage(_))));
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert!(matches!(run_persistent_campaign(&other, &store, true), Err(PufattError::Storage(_))));
    }

    #[test]
    fn chaos_campaign_survives_persistence_round_trip() {
        let mut cfg = small_test_config(8, 2, 0xFA17);
        cfg.sessions_per_device = 4;
        cfg.chaos = Some(ChaosConfig {
            plan: FaultPlan::clean(0).with_drops(0.3).with_bit_flips(0.01),
            flaky_fraction: 0.5,
        });
        let plain = run_campaign(&cfg).unwrap();
        let vfs = SimVfs::new();
        let durable = run_persistent_campaign(&cfg, &open_sim(&vfs, cfg.history_capacity), false).unwrap();
        assert_eq!(durable.device_records, plain.device_records);
        assert_eq!(core_snapshot(&durable), plain.snapshot);
    }

    #[test]
    fn group_commit_campaign_matches_the_synchronous_one() {
        let mut cfg = small_test_config(8, 3, 0x6C0);
        cfg.sessions_per_device = 3;
        let vfs_sync = SimVfs::new();
        let sync_run = run_persistent_campaign(&cfg, &open_sim(&vfs_sync, cfg.history_capacity), false).unwrap();
        cfg.commit_interval_s = 0.001;
        let vfs_group = SimVfs::new();
        let group_run = run_persistent_campaign(&cfg, &open_sim(&vfs_group, cfg.history_capacity), false).unwrap();
        assert_eq!(group_run.device_records, sync_run.device_records);
        assert_eq!(core_snapshot(&group_run), core_snapshot(&sync_run));
    }

    #[test]
    fn online_enrollment_extends_the_fleet_and_survives_resume() {
        let cfg = small_test_config(4, 2, 0x0E0);
        let vfs = SimVfs::new();
        let campaign = RunningCampaign::launch(&cfg, &open_sim(&vfs, cfg.history_capacity), false).unwrap();
        assert!(campaign.enroll(100).unwrap(), "new id admitted");
        assert!(!campaign.enroll(100).unwrap(), "second admit is a no-op");
        assert!(!campaign.enroll(0).unwrap(), "configured ids are already enrolled");
        let report = campaign.finish().unwrap();
        assert_eq!(report.snapshot.devices.total(), 5);
        assert_eq!(report.snapshot.devices_enrolled_online, 1);
        assert!(report.device_records.iter().any(|r| r.id == 100));
        let online = report.device_records.iter().find(|r| r.id == 100).unwrap();
        assert_eq!(online.outcomes.len(), cfg.sessions_per_device as usize, "online device ran a full schedule");

        // Resume sees the online device again without re-enrolling it.
        let resumed = run_persistent_campaign(&cfg, &open_sim(&vfs, cfg.history_capacity), true).unwrap();
        assert_eq!(resumed.device_records, report.device_records);
        assert_eq!(resumed.snapshot.devices_enrolled_online, 1);
        assert_eq!(core_snapshot(&resumed), core_snapshot(&report));
    }
}
