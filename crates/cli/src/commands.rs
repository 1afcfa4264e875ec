//! Subcommand implementations.

use crate::args::Args;
use pufatt::adversary::build_malicious_prover;
use pufatt::enroll::EnrolledDevice;
use pufatt::protocol::{provision, puf_limited_clock, run_session, AttestationRequest, Channel};
use pufatt::VerifierPuf;
use pufatt_alupuf::device::{AdderKind, AluPufConfig, AluPufDesign, PufInstance};
use pufatt_alupuf::emulate::DelayTable;
use pufatt_faults::{run_chaos_session, run_noise_sweep, FaultPlan, LossyChannel, RetryPolicy, SimDevice, SweepConfig};
use pufatt_fleet::{run_campaign, CampaignConfig, ChaosConfig, LifecyclePolicy, RunningCampaign};
use pufatt_silicon::env::Environment;
use pufatt_silicon::variation::ChipSampler;
use pufatt_swatt::checksum::SwattParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn profile_config(name: &str) -> Result<AluPufConfig, String> {
    match name {
        "paper32" => Ok(AluPufConfig::paper_32bit()),
        "fpga16" => Ok(AluPufConfig::fpga_16bit()),
        other => Err(format!("unknown profile `{other}` (expected paper32 or fpga16)")),
    }
}

fn enroll_from(args: &Args) -> Result<EnrolledDevice, String> {
    let config = profile_config(args.get_or("profile", "paper32"))?;
    let fab_seed = args.num_or("fab-seed", 42u64)?;
    pufatt::enroll::enroll(config, fab_seed, 0).map_err(|e| e.to_string())
}

/// `pufatt enroll`: manufacture + export the delay table.
pub fn enroll(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["profile", "fab-seed", "out"], &[])?;
    let enrolled = enroll_from(&args)?;
    let out = args.get_or("out", "device.puft");
    let table = DelayTable::extract(enrolled.design(), enrolled.chip(), Environment::nominal());
    let bytes = table.to_bytes();
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "enrolled {} profile, fab-seed {}: {} gates, {} delay entries -> {out} ({} bytes)",
        args.get_or("profile", "paper32"),
        args.get_or("fab-seed", "42"),
        enrolled.design().netlist().gate_count(),
        table.len(),
        bytes.len()
    );
    println!("keep this file secret: whoever holds it can emulate the PUF.");
    Ok(())
}

/// `pufatt attest`: one full Fig.-2 session, optionally driven through a
/// fault plan and a lossy channel (`--fault-plan`, `--channel`).
pub fn attest(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "table",
            "profile",
            "fab-seed",
            "rounds",
            "overclock",
            "fault-plan",
            "channel",
            "retries",
            "seed",
        ],
        &["malware"],
    )?;
    let enrolled = enroll_from(&args)?;
    let table_path = args.require("table")?;
    let bytes = std::fs::read(table_path).map_err(|e| format!("reading {table_path}: {e}"))?;
    let table = DelayTable::from_bytes(&bytes)?;
    let verifier_puf = VerifierPuf::new(enrolled.design().clone(), table).map_err(|e| e.to_string())?;

    let rounds: u32 = args.num_or("rounds", 2048)?;
    let params = SwattParams { region_bits: 10, rounds, puf_interval: 32 };
    let clock = puf_limited_clock(&enrolled, 1.10, 128, 1);
    let channel = Channel::sensor_link();
    let (mut prover, mut verifier, honest_cycles) =
        provision(&enrolled, params, clock, channel, 2, 1.10).map_err(|e| e.to_string())?;
    // The verifier uses the *imported* table, not the in-process enrollment
    // (exercising the export/import path end to end).
    verifier = pufatt::Verifier::new(
        prover.expected_region(),
        verifier_puf,
        params,
        prover.layout(),
        channel,
        clock,
        verifier.delta_s,
    );
    println!(
        "provisioned: F_base {:.0} MHz, honest {} cycles, delta {:.3} ms",
        clock.frequency_mhz,
        honest_cycles,
        verifier.delta_s * 1e3
    );

    let seed: u64 = args.num_or("seed", 0xC11)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let overclock: f64 = args.num_or("overclock", 0.0)?;
    let plan_spec = args.get_or("fault-plan", "");
    let channel_spec = args.get_or("channel", "");
    let verdict = if overclock > 0.0 {
        let region = prover.expected_region();
        let mut attacker = build_malicious_prover(enrolled.device_handle(3), params, &region, clock, overclock)
            .map_err(|e| e.to_string())?;
        println!("running the memory-copy attack at {overclock}x overclock...");
        let request = AttestationRequest::random(&mut rng);
        run_session(&mut attacker, &verifier, request).map_err(|e| e.to_string())?.0
    } else {
        if args.has("malware") {
            let at = prover.layout().x0_cell - 8;
            prover.write_words(at, &[0xEB1B_EB1B]).map_err(|e| e.to_string())?;
            println!("infected attested region at word {at}");
        }
        if plan_spec.is_empty() && channel_spec.is_empty() {
            let request = AttestationRequest::random(&mut rng);
            run_session(&mut prover, &verifier, request).map_err(|e| e.to_string())?.0
        } else {
            let plan = FaultPlan::parse(plan_spec, seed)?;
            let mut device = SimDevice::new(prover, &plan);
            let lossy = if channel_spec.is_empty() {
                LossyChannel::from_plan(verifier.channel(), &plan)
            } else {
                LossyChannel::parse(channel_spec, &plan)?
            };
            let policy = RetryPolicy::for_verifier(&verifier, args.num_or("retries", 3)?);
            let report = run_chaos_session(&mut device, &verifier, &lossy, &policy, &mut rng);
            println!(
                "chaos: plan [{plan}], {} attempt(s), {:.3} ms elapsed, {} message(s) dropped \
                 ({} request / {} report), {} duplicated, {} reordered",
                report.attempts,
                report.elapsed_s * 1e3,
                report.messages_dropped(),
                report.requests_dropped,
                report.reports_dropped,
                report.duplicates,
                report.reordered
            );
            report.result.map_err(|e| e.to_string())?
        }
    };
    println!("verdict: {verdict}");
    Ok(())
}

/// `pufatt noise-sweep`: the §4.1 false-negative-rate experiment — error
/// weight vs. extractor recovery and session FNR, with the boundary at
/// `t = 7`.
pub fn noise_sweep(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["seed", "trials", "sessions", "max-weight"], &[])?;
    let defaults = SweepConfig::default();
    let config = SweepConfig {
        seed: args.num_or("seed", defaults.seed)?,
        extractor_trials: args.num_or("trials", defaults.extractor_trials)?,
        sessions_per_weight: args.num_or("sessions", defaults.sessions_per_weight)?,
        max_weight: args.num_or("max-weight", defaults.max_weight)?,
    };
    let sweep = run_noise_sweep(&config).map_err(|e| e.to_string())?;
    print!("{sweep}");
    println!(
        "boundary {}: full recovery for weight <= {}, rejection beyond",
        if sweep.boundary_holds() { "holds" } else { "VIOLATED" },
        sweep.t
    );
    Ok(())
}

/// Default worker count for batched evaluation: the machine's parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `pufatt characterize`: quality metrics over a chip batch, evaluated via
/// the parallel batch engine (`--threads`, default: all cores). Results are
/// deterministic in `--seed` and identical for any thread count.
pub fn characterize(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["profile", "chips", "challenges", "threads", "seed"], &[])?;
    let config = profile_config(args.get_or("profile", "paper32"))?;
    let chips_n: usize = args.num_or("chips", 4)?;
    let challenges_n: usize = args.num_or("challenges", 300)?;
    let threads: usize = args.num_or("threads", default_threads())?;
    let seed: u64 = args.num_or("seed", 0xC4A2)?;
    if chips_n < 2 {
        return Err("need at least 2 chips for inter-chip statistics".into());
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let design = AluPufDesign::new(config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let chips = design.fabricate_many(&ChipSampler::new(), chips_n, &mut rng);
    let instances: Vec<PufInstance<'_>> = chips
        .iter()
        .map(|c| PufInstance::new(&design, c, Environment::nominal()))
        .collect();

    println!("batch evaluation: {threads} threads (default: available parallelism)");
    let report = pufatt_alupuf::quality::measure_quality_batched(&design, &chips, challenges_n, seed, threads);
    println!("{report}");
    println!(
        "  T_ALU: {:.0} ps, min reliable cycle: {:.0} ps",
        instances[0].alu_critical_path_ps(),
        instances[0].min_reliable_cycle_ps()
    );
    Ok(())
}

/// `pufatt dot`: Graphviz export of the racing-adder netlist.
pub fn dot(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["width", "out", "chip-seed"], &[])?;
    let width: usize = args.num_or("width", 8)?;
    let out = args.get_or("out", "alupuf.dot");
    let mut config = AluPufConfig::paper_32bit();
    config.width = width;
    let design = AluPufDesign::new(config);
    let text = match args.num_or("chip-seed", 0u64)? {
        0 => pufatt_silicon::dot::to_dot(design.netlist()),
        seed => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let chip = design.fabricate(&ChipSampler::new(), &mut rng);
            let delays = design.effective_delays_ps(chip.silicon(), &Environment::nominal());
            pufatt_silicon::dot::to_dot_with_delays(design.netlist(), &delays)
        }
    };
    std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} gates to {out} (render with: dot -Tsvg {out} -o alupuf.svg)",
        design.netlist().gate_count()
    );
    Ok(())
}

/// `pufatt profile`: cycle attribution of a built-in PE32 program.
pub fn profile(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["program"], &[])?;
    let source = match args.get_or("program", "fibonacci") {
        "fibonacci" => pufatt_pe32::programs::fibonacci(),
        "memcpy" => pufatt_pe32::programs::memcpy(),
        "checksum" => pufatt_pe32::programs::block_checksum(),
        "sort" => pufatt_pe32::programs::bubble_sort(),
        other => return Err(format!("unknown program `{other}`")),
    };
    let program = pufatt_pe32::asm::assemble(source).map_err(|e| e.to_string())?;
    let mut cpu = pufatt_pe32::cpu::Cpu::new(1024);
    cpu.load_program(&program.image);
    let profile = pufatt_pe32::trace::run_profiled(&mut cpu, 10_000_000).map_err(|e| e.to_string())?;
    print!("{profile}");
    println!("hottest program counters:");
    for (pc, count) in profile.hottest(5) {
        println!("  pc {pc:>4}: {count} executions");
    }
    Ok(())
}

/// Campaign flags shared by `fleet` and `serve` (the server fronts the
/// same engine, so it takes the same knobs). `fleet` adds its worker
/// pool's `--workers`/`--threads`; `serve` runs each connection on its
/// own thread and has no pool to size.
pub(crate) const CAMPAIGN_VALUE_KEYS: &[&str] = &[
    "devices",
    "shards",
    "sessions",
    "seed",
    "tamper",
    "profile",
    "rounds",
    "region-bits",
    "retries",
    "timeout-ms",
    "history",
    "fault-plan",
    "flaky",
    "commit-interval",
];

/// Builds a [`CampaignConfig`] from parsed campaign flags (see
/// [`CAMPAIGN_VALUE_KEYS`]).
pub(crate) fn campaign_config(args: &Args) -> Result<CampaignConfig, String> {
    let defaults = CampaignConfig::default();
    let seed: u64 = args.num_or("seed", defaults.seed)?;
    let plan_spec = args.get_or("fault-plan", "");
    let chaos = if plan_spec.is_empty() {
        None
    } else {
        let flaky_fraction: f64 = args.num_or("flaky", 0.25)?;
        if !(0.0..=1.0).contains(&flaky_fraction) {
            return Err(format!("--flaky: fraction {flaky_fraction} outside [0, 1]"));
        }
        Some(ChaosConfig { plan: FaultPlan::parse(plan_spec, seed)?, flaky_fraction })
    };
    Ok(CampaignConfig {
        devices: args.num_or("devices", defaults.devices)?,
        // `--threads` is an alias for `--workers` (the batch-evaluation
        // flag name used by `characterize`); `--threads` wins if both are
        // given. Unspecified, both default to the machine's parallelism.
        workers: args.num_or("threads", args.num_or("workers", default_threads())?)?,
        shards: args.num_or("shards", defaults.shards)?,
        sessions_per_device: args.num_or("sessions", defaults.sessions_per_device)?,
        seed,
        tamper_fraction: args.num_or("tamper", defaults.tamper_fraction)?,
        puf: profile_config(args.get_or("profile", "paper32"))?,
        params: SwattParams {
            region_bits: args.num_or("region-bits", defaults.params.region_bits)?,
            rounds: args.num_or("rounds", defaults.params.rounds)?,
            puf_interval: defaults.params.puf_interval,
        },
        policy: LifecyclePolicy {
            max_attempts: args.num_or("retries", defaults.policy.max_attempts)?,
            ..defaults.policy
        },
        timeout_s: timeout_s(args, defaults.timeout_s)?,
        history_capacity: args.num_or("history", defaults.history_capacity)?,
        commit_interval_s: commit_interval_s(args)?,
        fail_fast: args.has("fail-fast"),
        chaos,
    })
}

/// Parses `--timeout-ms` (simulated milliseconds) into seconds. A NaN
/// would make every deadline comparison false, so sessions would never
/// time out: only finite values ≥ 0 are accepted.
fn timeout_s(args: &Args, default_s: f64) -> Result<f64, String> {
    let ms: f64 = args.num_or("timeout-ms", default_s * 1e3)?;
    if !(ms >= 0.0 && ms.is_finite()) {
        return Err(format!("--timeout-ms: {ms} ms is not a valid session timeout (finite, ≥ 0)"));
    }
    Ok(ms * 1e-3)
}

/// Parses `--commit-interval` (milliseconds) into seconds. Unspecified, a
/// journaled run (`--state-dir`) group-commits every 5 ms and an in-memory
/// run has nothing to commit. A journaled run refuses `0`: it would start
/// no committer, so records would commit only at the store's queue bound,
/// a forced-sync record or a graceful stop.
fn commit_interval_s(args: &Args) -> Result<f64, String> {
    let journaled = !args.get_or("state-dir", "").is_empty();
    let ms: f64 = args.num_or("commit-interval", if journaled { 5.0 } else { 0.0 })?;
    if !(ms >= 0.0 && ms.is_finite()) {
        return Err(format!("--commit-interval: {ms} ms is not a valid latency bound"));
    }
    if journaled && ms == 0.0 {
        return Err("--commit-interval: 0 ms starts no committer, so --state-dir records would commit only at a \
             graceful stop or a full queue; use 1 ms for near-synchronous commits"
            .into());
    }
    Ok(ms * 1e-3)
}

/// Prints the standard campaign header shared by `fleet` and `serve`;
/// `workers` is the campaign pool's size, `None` where there is no pool.
pub(crate) fn print_campaign_banner(cfg: &CampaignConfig, workers: Option<usize>) {
    let workers = workers.map_or(String::new(), |n| format!("{n} workers, "));
    println!(
        "campaign: {} devices x {} sessions, {workers}{} shards, seed {:#x}, tamper {:.1}%",
        cfg.devices,
        cfg.sessions_per_device,
        cfg.shards,
        cfg.seed,
        cfg.tamper_fraction * 100.0
    );
    if let Some(chaos) = &cfg.chaos {
        println!("chaos: plan [{}], {:.1}% of the fleet flaky", chaos.plan, chaos.flaky_fraction * 100.0);
    }
    if cfg.fail_fast {
        println!("storage policy: fail-fast (the first storage failure stops the campaign)");
    }
}

/// `pufatt fleet`: a concurrent fleet-scale attestation campaign.
pub fn fleet(argv: &[String]) -> Result<(), String> {
    let mut value_keys = CAMPAIGN_VALUE_KEYS.to_vec();
    value_keys.extend_from_slice(&["workers", "threads", "state-dir", "online-enroll"]);
    // `--fail-fast` flips the storage-failure policy: instead of degrading
    // a sick shard to read-only refusals and finishing the healthy rest of
    // the fleet, the campaign stops at the first storage failure with a
    // typed error. Only a campaign's `finish` reads it, so `serve` has no
    // such flag.
    let args = Args::parse(argv, &value_keys, &["fail-fast", "resume"])?;
    let cfg = campaign_config(&args)?;
    print_campaign_banner(&cfg, Some(cfg.workers));
    let state_dir = args.get_or("state-dir", "");
    let resume = args.has("resume");
    if resume && state_dir.is_empty() {
        return Err("--resume requires --state-dir".into());
    }
    let online: u32 = args.num_or("online-enroll", 0u32)?;
    if online > 0 && state_dir.is_empty() {
        return Err("--online-enroll requires --state-dir (admissions must be journaled)".into());
    }
    let report = if state_dir.is_empty() {
        run_campaign(&cfg)
    } else {
        let dir = std::path::Path::new(state_dir);
        println!(
            "state: journaling to {} ({}), group commit every {:.1} ms",
            dir.display(),
            if resume { "resume" } else { "fresh" },
            cfg.commit_interval_s * 1e3
        );
        pufatt_fleet::open_state_dir(dir, cfg.history_capacity).and_then(|store| {
            let campaign = RunningCampaign::launch(&cfg, &store, resume)?;
            // Admit extra devices while the configured fleet attests —
            // the same ids on a resume are an idempotent no-op.
            let first = cfg.devices as u32;
            for id in first..first.saturating_add(online) {
                campaign.enroll(id)?;
            }
            if online > 0 {
                println!("admitted {online} device(s) online (ids {first}..{})", first + online);
            }
            campaign.finish()
        })
    }
    .map_err(|e| e.to_string())?;
    print!("{}", report.snapshot);
    println!(
        "wall time {:.2} s, {:.0} sessions/s, {} panicked jobs",
        report.wall_time.as_secs_f64(),
        report.sessions_per_second(),
        report.panicked_jobs
    );
    Ok(())
}

/// `pufatt analyze`: run the five static-analysis passes over the shipped
/// designs, generated SWATT programs and protocol/ECC/concurrency sources.
///
/// `--deny` exits nonzero on any finding; `--deny conc,dur` restricts the
/// gate to lint-code prefixes (case-insensitive). `--json` emits the
/// machine-readable report CI uploads as an artifact.
pub fn analyze(argv: &[String]) -> Result<(), String> {
    use pufatt_analyze::program::{verify_program, ProgramSpec};
    use pufatt_analyze::{circuit, conc, dur, taint, LintId, Report};
    use pufatt_swatt::codegen::{generate, CodegenOptions};

    // `--deny` optionally takes a comma-separated category list, so it is
    // neither a pure flag nor a pure value key: peel it off by hand.
    let mut filtered: Vec<String> = Vec::new();
    let mut deny: Option<Vec<String>> = None;
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--deny" {
            let mut cats = Vec::new();
            if let Some(v) = it.peek() {
                if !v.starts_with("--") {
                    cats = v
                        .split(',')
                        .map(|c| c.trim().to_lowercase())
                        .filter(|c| !c.is_empty())
                        .collect();
                    it.next();
                }
            }
            deny = Some(cats);
        } else {
            filtered.push(a.clone());
        }
    }
    let args = Args::parse(&filtered, &["src-root"], &["json", "lints"])?;
    if args.has("lints") {
        for lint in LintId::ALL {
            println!("{} [{}] {}", lint.code(), lint.severity(), lint.description());
        }
        return Ok(());
    }

    let json = args.has("json");
    // With `--json` the report itself owns stdout (CI redirects it into
    // an artifact), so per-pass progress moves to stderr.
    macro_rules! progress {
        ($($t:tt)*) => {
            if json { eprintln!($($t)*) } else { println!($($t)*) }
        };
    }

    let mut report = Report::new();

    // Pass 1: every shipped design point (both profiles, every adder
    // microarchitecture the ablation bench exercises).
    let mut designs = vec![
        ("paper32", AluPufConfig::paper_32bit()),
        ("fpga16", AluPufConfig::fpga_16bit()),
    ];
    for (name, adder) in [
        ("paper32/lookahead", AdderKind::CarryLookahead),
        ("paper32/select", AdderKind::CarrySelect),
    ] {
        let mut config = AluPufConfig::paper_32bit();
        config.adder = adder;
        designs.push((name, config));
    }
    for (name, config) in &designs {
        let design = AluPufDesign::new(config.clone());
        let findings = circuit::verify_alu_puf(*name, &design);
        progress!("netlist {name}: {} gate(s), {} finding(s)", design.netlist().gate_count(), findings.len());
        report.extend(findings);
    }

    // Pass 3: honest checksum programs at shipped parameter points.
    for params in [
        SwattParams { region_bits: 9, rounds: 512, puf_interval: 0 },
        SwattParams { region_bits: 10, rounds: 2048, puf_interval: 32 },
        SwattParams { region_bits: 8, rounds: 192, puf_interval: 32 },
    ] {
        let name = format!("swatt/r{}b{}p{}", params.rounds, params.region_bits, params.puf_interval);
        let generated = generate(&params, &CodegenOptions::default());
        let program = pufatt_pe32::asm::assemble(&generated.source).map_err(|e| format!("{name}: {e}"))?;
        let spec = ProgramSpec::from_generated(&*name, &generated, &params, &program);
        let findings = verify_program(&spec);
        progress!("program {name}: {} word(s), {} finding(s)", spec.code_words, findings.len());
        report.extend(findings);
    }

    // Pass 2: secret-taint lint over the protocol, ECC, durable-store, and
    // network-transport sources (neither store records, error payloads, nor
    // wire messages may ever carry raw responses or helper data).
    let src_root = args.get_or("src-root", ".");
    let mut roots = Vec::new();
    for rel in [
        "crates/core/src",
        "crates/ecc/src",
        "crates/store/src",
        "crates/transport/src",
    ] {
        let path = std::path::Path::new(src_root).join(rel);
        if path.is_dir() {
            roots.push(path);
        } else {
            progress!("taint: skipping missing {} (set --src-root to the repo root)", path.display());
        }
    }
    if !roots.is_empty() {
        let findings = taint::scan_paths(&roots).map_err(|e| format!("taint scan: {e}"))?;
        progress!("taint: {} file root(s), {} finding(s)", roots.len(), findings.len());
        report.extend(findings);
    }

    // Pass 4: concurrency verifier (lock-order graph, blocking ops under
    // locks, raw locks, condvar loops, detached threads) over the four
    // crates that share the fleet's lock classes.
    let mut conc_roots = Vec::new();
    for rel in [
        "crates/core/src",
        "crates/store/src",
        "crates/transport/src",
        "crates/fleet/src",
    ] {
        let path = std::path::Path::new(src_root).join(rel);
        if path.is_dir() {
            conc_roots.push(path);
        } else {
            progress!("conc: skipping missing {} (set --src-root to the repo root)", path.display());
        }
    }
    if !conc_roots.is_empty() {
        let findings = conc::scan_paths(&conc_roots).map_err(|e| format!("conc scan: {e}"))?;
        progress!("conc: {} file root(s), {} finding(s)", conc_roots.len(), findings.len());
        report.extend(findings);
    }

    // Pass 5: durability-ordering verifier over the store and the fleet's
    // durable campaign layer.
    let mut dur_roots = Vec::new();
    for rel in ["crates/store/src", "crates/fleet/src"] {
        let path = std::path::Path::new(src_root).join(rel);
        if path.is_dir() {
            dur_roots.push(path);
        } else {
            progress!("dur: skipping missing {} (set --src-root to the repo root)", path.display());
        }
    }
    if !dur_roots.is_empty() {
        let findings = dur::scan_paths(&dur_roots).map_err(|e| format!("dur scan: {e}"))?;
        progress!("dur: {} file root(s), {} finding(s)", dur_roots.len(), findings.len());
        report.extend(findings);
    }

    if json {
        println!("{}", report.to_json());
    }
    match deny {
        Some(cats) if !cats.is_empty() => {
            let mut gated = Report::new();
            gated.extend(
                report
                    .diagnostics
                    .iter()
                    .filter(|d| cats.iter().any(|c| d.lint.code().to_lowercase().starts_with(c.as_str())))
                    .cloned()
                    .collect(),
            );
            gated.deny()?;
            println!("analyze: clean (deny mode, categories: {})", cats.join(","));
        }
        Some(_) => {
            report.deny()?;
            println!("analyze: clean (deny mode)");
        }
        None => {
            if !args.has("json") {
                println!("{report}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn profile_config_names() {
        assert_eq!(profile_config("paper32").unwrap().width, 32);
        assert_eq!(profile_config("fpga16").unwrap().width, 16);
        assert!(profile_config("nope").is_err());
    }

    #[test]
    fn enroll_and_attest_round_trip() {
        let dir = std::env::temp_dir().join(format!("pufatt-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = dir.join("dev.puft");
        let table_s = table.to_str().unwrap().to_string();
        enroll(&argv(&format!("--fab-seed 5 --out {table_s}"))).expect("enroll");
        attest(&argv(&format!("--table {table_s} --fab-seed 5 --rounds 1024"))).expect("attest");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn characterize_runs() {
        characterize(&argv("--chips 2 --challenges 30")).expect("characterize");
        characterize(&argv("--chips 2 --challenges 30 --threads 2 --seed 7")).expect("characterize threaded");
        assert!(characterize(&argv("--chips 1")).is_err(), "needs 2 chips");
        assert!(characterize(&argv("--threads 0")).is_err(), "zero threads refused");
    }

    #[test]
    fn dot_writes_file() {
        let dir = std::env::temp_dir().join(format!("pufatt-cli-dot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("g.dot");
        dot(&argv(&format!("--width 4 --out {}", out.to_str().unwrap()))).expect("dot");
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("digraph"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_runs_each_program() {
        for p in ["fibonacci", "memcpy", "checksum", "sort"] {
            profile(&argv(&format!("--program {p}"))).expect(p);
        }
        assert!(profile(&argv("--program nope")).is_err());
    }

    #[test]
    fn fleet_runs_a_small_campaign() {
        fleet(&argv("--devices 8 --workers 2 --sessions 1 --profile fpga16 --rounds 128 --tamper 0.25"))
            .expect("fleet");
        fleet(&argv("--devices 4 --threads 2 --sessions 1 --profile fpga16 --rounds 128")).expect("fleet threads");
        // `--fail-fast` only changes what happens on a storage failure; a
        // healthy campaign under the flag is byte-for-byte the same run.
        fleet(&argv("--devices 4 --workers 2 --sessions 1 --profile fpga16 --rounds 128 --fail-fast"))
            .expect("fleet fail-fast");
        assert!(fleet(&argv("--devices 0")).is_err(), "empty fleets are refused");
        assert!(fleet(&argv("--bogus 1")).is_err(), "unknown flags are refused");
    }

    #[test]
    fn fleet_persists_and_resumes_a_state_dir() {
        let dir = std::env::temp_dir().join(format!("pufatt-cli-state-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = format!(
            "--devices 4 --workers 2 --sessions 1 --profile fpga16 --rounds 128 --state-dir {}",
            dir.to_str().unwrap()
        );
        fleet(&argv(&base)).expect("fresh persistent campaign");
        assert!(dir.join("manifest.bin").is_file(), "shard manifest written");
        assert!(dir.join("shard-000").join("snapshot.bin").is_file(), "per-shard snapshot written");
        assert!(fleet(&argv(&base)).is_err(), "occupied state dir refused without --resume");
        fleet(&argv(&format!("{base} --resume"))).expect("resume of a finished campaign");
        assert!(
            fleet(&argv(&format!("{base} --seed 99 --resume"))).is_err(),
            "resume under a different configuration refused"
        );
        assert!(fleet(&argv("--devices 4 --resume")).is_err(), "--resume requires --state-dir");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_enrolls_devices_online() {
        let dir = std::env::temp_dir().join(format!("pufatt-cli-online-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = format!(
            "--devices 3 --workers 2 --sessions 1 --profile fpga16 --rounds 128 --state-dir {}",
            dir.to_str().unwrap()
        );
        fleet(&argv(&format!("{base} --online-enroll 2 --commit-interval 2"))).expect("online admissions");
        // Re-admitting the same ids on resume is an idempotent no-op.
        fleet(&argv(&format!("{base} --online-enroll 2 --resume"))).expect("resume with same admissions");
        assert!(fleet(&argv("--devices 3 --online-enroll 2")).is_err(), "--online-enroll requires --state-dir");
        assert!(
            fleet(&argv(&format!("{base} --commit-interval -1 --resume"))).is_err(),
            "negative commit intervals are refused"
        );
        let zero = fleet(&argv(&format!("{base} --commit-interval 0 --resume"))).unwrap_err();
        assert!(zero.contains("--commit-interval") && zero.contains("1 ms"), "a journaled run refuses 0: {zero}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attest_accepts_chaos_flags() {
        let dir = std::env::temp_dir().join(format!("pufatt-cli-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = dir.join("dev.puft");
        let table_s = table.to_str().unwrap().to_string();
        enroll(&argv(&format!("--fab-seed 5 --out {table_s}"))).expect("enroll");
        attest(&argv(&format!(
            "--table {table_s} --fab-seed 5 --rounds 512 --fault-plan drop=0.25 --channel lan --retries 6"
        )))
        .expect("chaos attest survives moderate drops");
        assert!(
            attest(&argv(&format!("--table {table_s} --fab-seed 5 --fault-plan bogus=1"))).is_err(),
            "bad fault plans are refused"
        );
        assert!(
            attest(&argv(&format!("--table {table_s} --fab-seed 5 --channel carrier-pigeon"))).is_err(),
            "unknown channel presets are refused"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_runs_a_chaos_campaign() {
        fleet(&argv(
            "--devices 6 --workers 2 --sessions 2 --profile fpga16 --rounds 128 \
             --fault-plan drop=0.8 --flaky 0.5 --retries 2",
        ))
        .expect("chaos fleet");
        assert!(fleet(&argv("--devices 4 --fault-plan bogus=1")).is_err(), "bad plans are refused");
        assert!(fleet(&argv("--devices 4 --fault-plan drop=0.5 --flaky 2.0")).is_err(), "fractions are bounded");
    }

    #[test]
    fn fleet_rejects_a_non_finite_or_negative_timeout() {
        for bad in ["nan", "inf", "-5"] {
            let err = fleet(&argv(&format!("--devices 2 --timeout-ms {bad}"))).expect_err("invalid timeout");
            assert!(err.contains("--timeout-ms"), "{bad}: {err}");
        }
    }

    #[test]
    fn noise_sweep_prints_the_boundary_table() {
        noise_sweep(&argv("--trials 10 --sessions 2 --max-weight 8")).expect("noise sweep");
        assert!(noise_sweep(&argv("--bogus 1")).is_err(), "unknown flags are refused");
    }
}
