//! PUF evaluation throughput: baseline vs. reused engine vs. parallel batch.
//!
//! Not a paper figure — the performance benchmark for the zero-allocation
//! simulation engine. These configurations evaluate the same challenge set
//! on the same `paper_32bit` chip:
//!
//! 1. **baseline** — the pre-engine per-challenge-reconstruction path,
//!    reimplemented here exactly as the original code ran it: every
//!    evaluation recomputes the effective delays, rebuilds the nested
//!    `Vec<Vec<GateId>>` fanout lists, re-runs the allocating functional
//!    pre-sim and fills a fresh event heap;
//! 2. **reused** — one `PufInstance`, its engine scratch reused serially;
//! 3. **batch** — `evaluate_batch` at 1/2/4/8 threads (bit-identical
//!    output at every thread count);
//! 4. **emulator_incremental** — the verifier's noise-free
//!    `PufEmulator::emulate_batch` on one thread;
//! 5. **device_respond** — the prover's unit of work per `PUF()` query:
//!    `DevicePuf::respond` on groups of 8 challenges, 5 majority votes
//!    each, through helper-data generation and obfuscation. Its
//!    challenges/s counts challenges, not votes. **device_query** is the
//!    same on the groups the prover sends (one `a` per group, the
//!    full-carry canary last, served from the device's memo after its
//!    first race). The events/s column of both rows scales the random
//!    challenges' event count, so only their challenges/s compare.
//! 6. **prover_attest** — one whole `ProverDevice::attest` on the toy
//!    (`fpga_16bit`, 128 SWATT rounds, no PUF query) and the paper
//!    (`paper_32bit`, 2048 rounds, 8 PUF queries) devices: ns per attest
//!    and ns per simulated cycle. On toy this is pure pe32 interpretation.
//!    These rows go to a separate `prover_rows` array.
//! 7. **calibrate_scalar / calibrate_sliced** — the attestation-clock
//!    calibration of one `paper_32bit` chip at 16 and 128 samples: the
//!    challenge-by-challenge `evaluate_detailed` loop, frozen here as it
//!    ran before calibration moved to the bit-sliced engine, against the
//!    shipped `PufInstance::calibrate_cycle_ps` (same clock bits, same
//!    noise-stream position).
//! 8. **enroll / first_attest / steady_attest** — on a fresh in-memory
//!    service, per device, for the toy fleet (`small_test_config`) and a
//!    paper-scale fleet: `FleetService::enroll`, then each device's first
//!    session (`open_session` + `attest`), which provisions the device
//!    (enrollment, clock calibration, loading the shared program image,
//!    the golden run), then its second session, which does not. These and
//!    the calibration rows go to a separate `provision_rows` array.
//!
//! Results are printed and written to `BENCH_puf_eval.json` at the
//! workspace root for CI artifact upload. `--test` (as passed by
//! `cargo test` to harness=false benches) or `PUFATT_SMOKE=1` selects a
//! smoke run with a reduced challenge count.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use pufatt::protocol::{provision, puf_limited_clock, AttestationRequest, Channel};
use pufatt::DevicePuf;
use pufatt_alupuf::challenge::Challenge;
use pufatt_alupuf::device::{AluPufConfig, AluPufDesign, PufChip, PufInstance};
use pufatt_bench::{cores, cpu_model, full_scale, header, host_json};
use pufatt_fleet::campaign::{small_test_config, CampaignConfig};
use pufatt_fleet::{FleetService, ServiceVerdict, SessionGate};
use pufatt_silicon::env::Environment;
use pufatt_silicon::netlist::{GateKind, NetId};
use pufatt_silicon::sim::EventSimulator;
use pufatt_silicon::variation::ChipSampler;
use pufatt_swatt::checksum::SwattParams;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const NOISE_SEED: u64 = 0xB1A5;

struct Row {
    name: String,
    threads: usize,
    challenges: usize,
    seconds: f64,
    challenges_per_sec: f64,
    events_per_sec: f64,
    speedup_vs_baseline: f64,
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--test") || std::env::var("PUFATT_SMOKE").map(|v| v == "1").unwrap_or(false);
    // Smoke keeps 256 challenges = four 64-lane blocks, so the 4-thread
    // batch arm has one block per worker and the parallel-regression gate
    // below measures real work distribution, not an empty queue.
    let n = if smoke {
        256
    } else if full_scale() {
        8192
    } else {
        2048
    };

    header("PERF", "PUF evaluation throughput (paper_32bit, bit-sliced engine)");
    println!("  {n} challenges per configuration{}", if smoke { " (smoke mode)" } else { "" });
    println!("  host: {}, {} core(s)", cpu_model(), cores());

    let design = Arc::new(AluPufDesign::new(AluPufConfig::paper_32bit()));
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let chip = design.fabricate(&ChipSampler::new(), &mut rng);
    let challenges: Vec<Challenge> = (0..n).map(|_| Challenge::random(&mut rng, 32)).collect();

    // Events per challenge is identical across configurations (same chip,
    // same stimuli); measure it once on the raw engine.
    let delays = design.effective_delays_ps(chip.silicon(), &Environment::nominal());
    let mut sim = EventSimulator::new(design.netlist(), &delays);
    let (mut from, mut to) = (Vec::new(), Vec::new());
    let mut total_events = 0u64;
    for &ch in &challenges {
        design.stimulus_into(ch, &mut from, &mut to);
        sim.run_transition_in_place(&from, &to);
        total_events += sim.events();
    }
    let events_per_challenge = total_events as f64 / n as f64;
    println!("  {events_per_challenge:.0} simulation events per challenge");

    let mut rows: Vec<Row> = Vec::new();
    let push = |rows: &mut Vec<Row>, name: &str, threads: usize, secs: f64, baseline: f64| {
        let cps = n as f64 / secs;
        rows.push(Row {
            name: name.to_string(),
            threads,
            challenges: n,
            seconds: secs,
            challenges_per_sec: cps,
            events_per_sec: cps * events_per_challenge,
            speedup_vs_baseline: if baseline > 0.0 { baseline / secs } else { 1.0 },
        });
    };

    // 1 + 2. Baseline (per-challenge reconstruction, the pre-engine code
    // path) and the reused engine, measured in interleaved rounds with the
    // fastest round kept per arm. Timing noise on shared hosts is additive
    // (scheduler steals, frequency dips), so the minimum over enough rounds
    // is the standard estimator of each arm's true cost; interleaving keeps
    // the rounds of both arms close together in time so a slow phase of the
    // host cannot bias only one of them.
    let rounds = if smoke { 1 } else { 9 };
    let inst = PufInstance::new(&design, &chip, Environment::nominal());
    let mut baseline_secs = f64::INFINITY;
    let mut reused_secs = f64::INFINITY;
    let mut baseline_bits = 0u64;
    let mut reused_bits = 0u64;
    for _ in 0..rounds {
        let mut noise = ChaCha8Rng::seed_from_u64(NOISE_SEED);
        let start = Instant::now();
        baseline_bits = 0;
        for &ch in &challenges {
            baseline_bits ^= baseline_evaluate(&design, &chip, ch, &mut noise);
        }
        baseline_secs = baseline_secs.min(start.elapsed().as_secs_f64());

        let mut noise = ChaCha8Rng::seed_from_u64(NOISE_SEED);
        let start = Instant::now();
        reused_bits = 0;
        for &ch in &challenges {
            reused_bits ^= inst.evaluate(ch, &mut noise).bits();
        }
        reused_secs = reused_secs.min(start.elapsed().as_secs_f64());
    }
    push(&mut rows, "baseline_reconstruct", 1, baseline_secs, 0.0);
    push(&mut rows, "reused_engine", 1, reused_secs, baseline_secs);
    assert_eq!(reused_bits, baseline_bits, "reused engine changed responses");

    // 3. Parallel bit-sliced batch at 1/2/4/8 threads, best of a few
    // rounds per arm (same minimum-estimator rationale as above; the first
    // round also pays one-time engine-pool construction, which reuse then
    // amortises away — exactly the behaviour the pool exists to provide).
    let batch_rounds = 3;
    let mut batch_ref: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut secs = f64::INFINITY;
        for _ in 0..batch_rounds {
            let start = Instant::now();
            let out = inst.evaluate_batch(&challenges, NOISE_SEED, threads);
            secs = secs.min(start.elapsed().as_secs_f64());
            let bits: Vec<u64> = out.iter().map(|r| r.bits()).collect();
            match &batch_ref {
                None => batch_ref = Some(bits),
                Some(expected) => {
                    assert_eq!(&bits, expected, "batch output changed at {threads} threads")
                }
            }
        }
        push(&mut rows, "batch", threads, secs, baseline_secs);
    }

    // 4. The verifier's noise-free emulation path: enrolled delay table,
    // single-thread incremental bit-sliced engine (consecutive blocks reuse
    // the previous waveform via dirty-cone re-simulation).
    let emulator = pufatt_alupuf::emulate::PufEmulator::enroll(&design, &chip, Environment::nominal());
    let mut emu_secs = f64::INFINITY;
    for _ in 0..batch_rounds {
        let start = Instant::now();
        let out = emulator.emulate_batch(&challenges, 1);
        emu_secs = emu_secs.min(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    push(&mut rows, "emulator_incremental", 1, emu_secs, baseline_secs);

    // 5. The prover's per-query unit: one voted, pipelined 8-challenge
    // group per `respond`. Every round restarts the device's noise stream,
    // so every round must produce the same outputs.
    let mut device = DevicePuf::new(Arc::clone(&design), Arc::new(chip.clone()), Environment::nominal(), NOISE_SEED)
        .expect("32-bit width supported");
    let groups: Vec<[Challenge; 8]> = challenges.chunks_exact(8).map(|g| std::array::from_fn(|j| g[j])).collect();
    let mut respond_secs = f64::INFINITY;
    let mut respond_ref: Option<u64> = None;
    for _ in 0..batch_rounds {
        device.restore_noise_state(0, 0);
        let start = Instant::now();
        let digest = groups.iter().fold(0u64, |acc, g| acc.rotate_left(7) ^ device.respond(g).z);
        respond_secs = respond_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(*respond_ref.get_or_insert(digest), digest, "device respond changed between rounds");
    }
    push(&mut rows, "device_respond", 1, respond_secs, baseline_secs);

    // 5b. The same unit on the groups the prover actually sends: like
    // `checksum::compute`'s, one `a` for every lane and the full-carry
    // canary last. The device keeps the canary's settling times after its
    // first race, so every round after the first serves it from the memo,
    // as a provisioned prover does; every round must produce the same
    // outputs.
    let queries: Vec<[Challenge; 8]> = (0..n / 8)
        .map(|_| {
            let a: u64 = rng.gen();
            std::array::from_fn(|j| if j == 7 { Challenge::canary(32) } else { Challenge::new(a, rng.gen(), 32) })
        })
        .collect();
    let mut query_secs = f64::INFINITY;
    let mut query_ref: Option<u64> = None;
    for _ in 0..batch_rounds {
        device.restore_noise_state(0, 0);
        let start = Instant::now();
        let digest = queries.iter().fold(0u64, |acc, g| acc.rotate_left(7) ^ device.respond(g).z);
        query_secs = query_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(*query_ref.get_or_insert(digest), digest, "device query changed between rounds");
    }
    push(&mut rows, "device_query", 1, query_secs, baseline_secs);

    // 6. Whole prover attestations, best of a few rounds; every round
    // restarts the PUF's noise stream, so every round must produce the
    // same reports.
    let prover_rows: Vec<ProverRow> = [
        (
            "prover_attest_toy",
            AluPufConfig::fpga_16bit(),
            SwattParams { region_bits: 8, rounds: 128, puf_interval: 32 },
        ),
        (
            "prover_attest_paper",
            AluPufConfig::paper_32bit(),
            SwattParams { region_bits: 10, rounds: 2048, puf_interval: 32 },
        ),
    ]
    .into_iter()
    .map(|(name, config, params)| {
        let attests = match (smoke, config.width) {
            (true, 32) => 2,
            (true, _) => 200,
            (false, 32) => 64,
            (false, _) => 20_000,
        };
        prover_attest_row(name, config, params, attests, batch_rounds)
    })
    .collect();

    // 7 + 8. Provisioning: clock calibration, then a service's enroll and
    // first and steady sessions.
    let calibrate_rounds = if smoke { 1 } else { 9 };
    let mut provision_rows: Vec<ProvisionRow> = [16, 128]
        .into_iter()
        .flat_map(|samples| calibrate_rows(&design, &chip, samples, calibrate_rounds))
        .collect();
    let paper_fleet = CampaignConfig {
        puf: AluPufConfig::paper_32bit(),
        params: SwattParams { region_bits: 10, rounds: 2048, puf_interval: 32 },
        ..small_test_config(0, 1, 0xF1EE7)
    };
    provision_rows.extend(service_rows("toy", small_test_config(0, 1, 0xF1EE7), if smoke { 32 } else { 512 }));
    provision_rows.extend(service_rows("paper", paper_fleet, if smoke { 4 } else { 64 }));

    for r in &rows {
        println!(
            "    {:<22} {:>2} thread(s): {:>9.0} challenges/s  {:>12.3e} events/s  ({:>5.2}x vs baseline)",
            r.name, r.threads, r.challenges_per_sec, r.events_per_sec, r.speedup_vs_baseline
        );
    }

    for r in &prover_rows {
        println!(
            "    {:<22} {:>9.0} ns/attest  {:>6.2} ns/cycle  ({} cycles per attest)",
            r.name, r.ns_per_attest, r.ns_per_cycle, r.cycles_per_attest
        );
    }

    for r in &provision_rows {
        println!("    {:<22} {:>4} item(s): {:>9.1} us each", r.name, r.items, r.us_per_item);
    }

    let reused = rows.iter().find(|r| r.name == "reused_engine").expect("reused row");
    println!(
        "  single-thread engine reuse speedup: {:.2}x, best-of-{rounds} interleaved rounds \
         (target >= 5x); batch output thread-invariant",
        reused.speedup_vs_baseline
    );
    if !smoke {
        assert!(
            reused.speedup_vs_baseline >= 5.0,
            "engine reuse speedup {:.2}x below the 5x target",
            reused.speedup_vs_baseline
        );
    }

    // Parallel-regression gate (runs in CI smoke mode too): adding worker
    // threads must never *cost* throughput. Absolute multicore speedup
    // depends on the host — CI runners can expose a single core, where the
    // honest expectation is parity — so the gate checks 4 threads against
    // 1 thread with a small tolerance for scheduler noise, which still
    // catches the anti-scaling class of bug (per-call engine construction,
    // lock convoys on the output slots) that once made 4 threads slower
    // than 1.
    let batch_cps = |threads: usize| {
        rows.iter()
            .find(|r| r.name == "batch" && r.threads == threads)
            .map(|r| r.challenges_per_sec)
            .unwrap_or(0.0)
    };
    let (one, four) = (batch_cps(1), batch_cps(4));
    println!("  parallel gate: 4-thread batch at {:.2}x of 1-thread (must not drop below 0.85x)", four / one);
    assert!(
        four >= 0.85 * one,
        "parallel regression: 4-thread batch ({four:.0}/s) fell below 1-thread ({one:.0}/s)"
    );

    // Machine-readable results for CI artifact upload.
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"threads\": {}, \"challenges\": {}, ",
                    "\"seconds\": {:.6}, \"challenges_per_sec\": {:.1}, ",
                    "\"events_per_sec\": {:.1}, \"speedup_vs_baseline\": {:.3}}}"
                ),
                r.name,
                r.threads,
                r.challenges,
                r.seconds,
                r.challenges_per_sec,
                r.events_per_sec,
                r.speedup_vs_baseline
            )
        })
        .collect();
    let json_prover_rows: Vec<String> = prover_rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"attests\": {}, \"cycles_per_attest\": {}, ",
                    "\"ns_per_attest\": {:.1}, \"ns_per_cycle\": {:.3}}}"
                ),
                r.name, r.attests, r.cycles_per_attest, r.ns_per_attest, r.ns_per_cycle
            )
        })
        .collect();
    let json_provision_rows: Vec<String> = provision_rows
        .iter()
        .map(|r| {
            format!("    {{\"name\": \"{}\", \"items\": {}, \"us_per_item\": {:.2}}}", r.name, r.items, r.us_per_item)
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"puf_eval\",\n  \"design\": \"paper_32bit\",\n  \"smoke\": {},\n{}",
            "  \"events_per_challenge\": {:.1},\n  \"rows\": [\n{}\n  ],\n",
            "  \"prover_rows\": [\n{}\n  ],\n",
            "  \"provision_rows\": [\n{}\n  ]\n}}\n"
        ),
        smoke,
        host_json(),
        events_per_challenge,
        json_rows.join(",\n"),
        json_prover_rows.join(",\n"),
        json_provision_rows.join(",\n")
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_puf_eval.json");
    std::fs::write(out_path, json).expect("write BENCH_puf_eval.json");
    println!("  wrote {out_path}");
}

struct ProverRow {
    name: &'static str,
    attests: usize,
    cycles_per_attest: u64,
    ns_per_attest: f64,
    ns_per_cycle: f64,
}

/// Provisions one device the way the fleet does (PUF-limited clock, PUF
/// coupled to it) and times `attests` attestations, best of `rounds`.
fn prover_attest_row(
    name: &'static str,
    config: AluPufConfig,
    params: SwattParams,
    attests: usize,
    rounds: usize,
) -> ProverRow {
    let enrolled = pufatt::enroll(config, 0xA77E57, 0).expect("supported width");
    let clock = puf_limited_clock(&enrolled, 1.10, 16, 1);
    let (mut prover, _, _) =
        provision(&enrolled, params, clock, Channel::sensor_link(), 2, 1.10).expect("device provisions");
    let mut request_rng = ChaCha8Rng::seed_from_u64(3);
    let requests: Vec<AttestationRequest> =
        (0..attests).map(|_| AttestationRequest::random(&mut request_rng)).collect();
    let mut secs = f64::INFINITY;
    let mut reference: Option<(u64, u64)> = None;
    for _ in 0..rounds {
        prover.puf().with(|d| d.restore_noise_state(0, 0));
        let start = Instant::now();
        let (mut digest, mut cycles) = (0u64, 0u64);
        for &request in &requests {
            let report = prover.attest(request).expect("honest attestation runs");
            digest = digest.rotate_left(7) ^ u64::from(report.response[0]);
            cycles += report.cycles;
        }
        secs = secs.min(start.elapsed().as_secs_f64());
        let first = *reference.get_or_insert((digest, cycles));
        assert_eq!(first, (digest, cycles), "{name}: reports changed between rounds");
    }
    let total_cycles = reference.map_or(0, |(_, cycles)| cycles);
    ProverRow {
        name,
        attests,
        cycles_per_attest: total_cycles / attests as u64,
        ns_per_attest: secs * 1e9 / attests as f64,
        ns_per_cycle: secs * 1e9 / total_cycles as f64,
    }
}

/// A provisioning row: microseconds per calibration or per device.
struct ProvisionRow {
    name: String,
    items: usize,
    us_per_item: f64,
}

/// The scalar and the sliced calibration of `chip` at `samples` samples,
/// best of `rounds` interleaved rounds of 64 calibrations each. Both must
/// give the same clock bits and leave the noise stream at the same word.
fn calibrate_rows(design: &AluPufDesign, chip: &PufChip, samples: usize, rounds: usize) -> [ProvisionRow; 2] {
    const CALIBRATIONS: u64 = 64;
    let inst = PufInstance::new(design, chip, Environment::nominal());
    let (mut scalar_secs, mut sliced_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let start = Instant::now();
        let scalar: Vec<(u64, u64)> = (0..CALIBRATIONS)
            .map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (scalar_calibrate_cycle_ps(&inst, samples, 1.10, &mut rng).to_bits(), rng.word_pos())
            })
            .collect();
        scalar_secs = scalar_secs.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let sliced: Vec<(u64, u64)> = (0..CALIBRATIONS)
            .map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (inst.calibrate_cycle_ps(samples, 1.10, &mut rng).to_bits(), rng.word_pos())
            })
            .collect();
        sliced_secs = sliced_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(scalar, sliced, "sliced calibration must reproduce the scalar one at {samples} samples");
    }
    let row = |name: &str, secs: f64| ProvisionRow {
        name: format!("{name}_{samples}"),
        items: CALIBRATIONS as usize,
        us_per_item: secs * 1e6 / CALIBRATIONS as f64,
    };
    [
        row("calibrate_scalar", scalar_secs),
        row("calibrate_sliced", sliced_secs),
    ]
}

/// The calibration loop as it ran before the bit-sliced pass, kept as the
/// baseline: one detailed scalar evaluation per challenge, every arbiter
/// race of it resolved.
fn scalar_calibrate_cycle_ps<R: Rng + ?Sized>(inst: &PufInstance<'_>, samples: usize, guard: f64, rng: &mut R) -> f64 {
    let w = inst.design().width();
    let canary = Challenge::new((1u64 << w) - 1, 1, w);
    let mut worst = 0.0f64;
    for i in 0..samples {
        let ch = if i == 0 { canary } else { Challenge::random(rng, w) };
        let e = inst.evaluate_detailed(ch, rng);
        for t in e.settle0_ps.iter().chain(&e.settle1_ps) {
            worst = worst.max(*t);
        }
    }
    worst * guard + inst.design().config().arbiter.setup_time_ps
}

/// Per device of `devices` on a fresh service: `FleetService::enroll`,
/// the first session (which provisions the device) and the second, best
/// of three services (one in smoke mode).
fn service_rows(fleet: &str, cfg: CampaignConfig, devices: u32) -> [ProvisionRow; 3] {
    let rounds = if devices < 64 { 1 } else { 3 };
    let mut best = [f64::INFINITY; 3];
    for _ in 0..rounds {
        let service = FleetService::new(cfg.clone()).expect("supported configuration");
        let timed = |step: &dyn Fn(u32)| {
            let start = Instant::now();
            (0..devices).for_each(step);
            start.elapsed().as_secs_f64()
        };
        // Compromised devices attest too, to a rejection; only a fault is
        // an error.
        let attest = |id| {
            assert!(matches!(service.open_session(id), SessionGate::Granted { .. }), "device {id} is granted");
            assert!(matches!(service.attest(id), ServiceVerdict::Closed { .. }), "device {id} reaches a verdict");
        };
        let secs = [
            timed(&|id| {
                service.enroll(id).expect("device enrolls");
            }),
            timed(&attest),
            timed(&attest),
        ];
        for (best, secs) in best.iter_mut().zip(secs) {
            *best = best.min(secs);
        }
    }
    let row = |step: &str, secs: f64| ProvisionRow {
        name: format!("{step}_{fleet}"),
        items: devices as usize,
        us_per_item: secs * 1e6 / f64::from(devices),
    };
    [
        row("enroll", best[0]),
        row("first_attest", best[1]),
        row("steady_attest", best[2]),
    ]
}

/// One pending output change, ordered exactly as the pre-engine simulator
/// ordered it (earliest time first, sequence number breaking ties).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time_ps: f64,
    seq: u64,
    net: NetId,
    value: bool,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_ps
            .partial_cmp(&self.time_ps)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pre-engine evaluation path, preserved verbatim as the benchmark
/// baseline: every call recomputes the effective delays, rebuilds the
/// nested fanout lists, reallocates the functional pre-sim state and the
/// event heap, then resolves the arbiters with the same noise draws as
/// [`PufInstance::evaluate`] (so the response bits must match it exactly).
fn baseline_evaluate<R: Rng + ?Sized>(design: &AluPufDesign, chip: &PufChip, challenge: Challenge, rng: &mut R) -> u64 {
    let netlist = design.netlist();
    // The seed's delay path: `Chip::gate_delays` re-derives the fanout
    // adjacency internally on every call (no shared CSR), then the design's
    // per-gate factors are applied on top — exactly what the pre-engine
    // `effective_delays_ps` did per evaluation.
    let mut delays_ps = chip.silicon().gate_delays(netlist, &Environment::nominal());
    for (delay, &factor) in delays_ps.iter_mut().zip(design.gate_delay_factor()) {
        *delay *= factor;
    }
    let (from, to) = design.stimulus_vectors(challenge);
    let fanouts = netlist.fanouts();

    let mut values = netlist.evaluate(&from);
    let mut settle: Vec<Option<f64>> = vec![None; netlist.net_count()];
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, &net) in netlist.primary_inputs().iter().enumerate() {
        if from[i] != to[i] {
            heap.push(Event { time_ps: 0.0, seq, net, value: to[i] });
            seq += 1;
        }
    }
    while let Some(ev) = heap.pop() {
        if values[ev.net.index()] == ev.value {
            continue;
        }
        values[ev.net.index()] = ev.value;
        settle[ev.net.index()] = Some(ev.time_ps);
        for &gid in &fanouts[ev.net.index()] {
            let gate = netlist.gate_at(gid);
            let out = baseline_gate_eval(gate.kind, values[gate.inputs[0].index()], values[gate.inputs[1].index()]);
            heap.push(Event {
                time_ps: ev.time_ps + delays_ps[gid.index()],
                seq,
                net: gate.output,
                value: out,
            });
            seq += 1;
        }
    }

    let (sum0, sum1) = design.sum_buses();
    let cfg = &design.config().arbiter;
    let mut bits = 0u64;
    for i in 0..design.width() {
        let t0 = settle[sum0[i].index()].unwrap_or(0.0);
        let t1 = settle[sum1[i].index()].unwrap_or(0.0);
        let delta = t0 - t1 + design.design_skew_ps()[i] + chip.arbiter_offset_ps()[i];
        let noisy = delta + gaussian(rng) * cfg.jitter_sigma_ps;
        let p_one = 1.0 / (1.0 + (noisy / cfg.metastability_tau_ps).exp());
        if rng.gen::<f64>() < p_one {
            bits |= 1 << i;
        }
    }
    bits
}

/// The pre-engine `GateKind::eval` (a per-kind `match`), frozen here so the
/// baseline keeps paying the original data-dependent branch per fanout edge
/// even now that the shared implementation is a branchless table lookup.
fn baseline_gate_eval(kind: GateKind, a: bool, b: bool) -> bool {
    match kind {
        GateKind::Buf => a,
        GateKind::Not => !a,
        GateKind::And2 => a & b,
        GateKind::Or2 => a | b,
        GateKind::Xor2 => a ^ b,
        GateKind::Nand2 => !(a & b),
        GateKind::Nor2 => !(a | b),
        GateKind::Xnor2 => !(a ^ b),
    }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}
