//! `pufatt` — command-line toolkit for the PUFatt reproduction.
//!
//! ```text
//! pufatt enroll       --profile paper32 --fab-seed 42 --out device.puft
//! pufatt attest       --table device.puft --fab-seed 42 [--malware] [--overclock 4.0]
//! pufatt attest       --table device.puft --fault-plan drop=0.2,flip=0.01 --channel sensor
//! pufatt characterize --chips 4 --challenges 400 --threads 8
//! pufatt dot          --width 8 --out alupuf.dot [--chip-seed 1]
//! pufatt profile      --program fibonacci
//! pufatt fleet        --devices 256 --workers 8 [--fault-plan drop=0.5 --flaky 0.25]
//! pufatt serve        --listen uds:/tmp/pufatt.sock --devices 256
//! pufatt loadgen      --connect uds:/tmp/pufatt.sock --connections 8 --shutdown
//! pufatt noise-sweep  --trials 200 --sessions 10 --max-weight 10
//! ```
//!
//! Everything is simulation: `enroll` manufactures a chip (deterministic in
//! `--fab-seed`) and exports its delay table; `attest` re-creates the same
//! chip as the prover and uses the exported table as the verifier — the
//! two halves of Fig. 2 in one process.

mod args;
mod commands;
mod net;

use std::process::ExitCode;

const USAGE: &str = "pufatt <command> [flags]

commands:
  enroll        manufacture a device and export its delay table
                  --profile paper32|fpga16   (default paper32)
                  --fab-seed <u64>           (default 42)
                  --out <path>               (default device.puft)
  attest        run one attestation session against an exported table
                  --table <path>             (required)
                  --profile paper32|fpga16   (default paper32)
                  --fab-seed <u64>           (default 42; prover chip)
                  --rounds <u32>             (default 2048)
                  --malware                  (infect the attested region)
                  --overclock <f64>          (memory-copy attack at factor)
                  --fault-plan <spec>        (chaos mode: flip=0.01,burst=9@4,
                                              drop=0.1,dup=0.02,reorder=0.05,
                                              jitter-ms=2,skew=1.05,
                                              overclock=2,tamper=1)
                  --channel <spec>           (sensor|lan|satellite, with
                                              drop=/dup=/reorder=/jitter-ms=
                                              overrides)
                  --retries <n>              (default 3; chaos-mode attempts)
                  --seed <u64>               (default 0xC11; session RNG)
  characterize  PUF quality metrics for a chip batch (parallel batch engine)
                  --profile paper32|fpga16   --chips <n>  --challenges <n>
                  --threads <n>              (default: all cores; results
                                              identical for any thread count)
                  --seed <u64>               (default 0xC4A2)
  dot           export the ALU PUF netlist as Graphviz
                  --width <n>  --out <path>  [--chip-seed <u64>]
  profile       run a built-in PE32 program with cycle attribution
                  --program fibonacci|memcpy|checksum|sort
  fleet         run a concurrent fleet-scale attestation campaign
                  --devices <n>              (default 64)
                  --workers <n>              (default 4)
                  --threads <n>              (alias for --workers)
                  --shards <n>               (default 16)
                  --sessions <n>             (default 2; per device)
                  --seed <u64>               (default 0xF1EE7)
                  --tamper <f64>             (default 0.125; compromised fraction)
                  --profile paper32|fpga16   (default paper32)
                  --rounds <u32>             (default 192)
                  --region-bits <u32>        (default 8)
                  --retries <n>              (default 3; attempts per session)
                  --timeout-ms <f64>         (default 1000; simulated)
                  --history <n>              (default 64; per-device records)
                  --fault-plan <spec>        (chaos mode; same syntax as attest)
                  --flaky <f64>              (default 0.25; flaky fraction,
                                              only with --fault-plan)
                  --state-dir <path>         (persist the campaign: WAL +
                                              snapshots; crash-safe)
                  --resume                   (continue an interrupted campaign
                                              from --state-dir; verdicts match
                                              an uninterrupted run)
                  --commit-interval <ms>     (default 5 with --state-dir, else
                                              0; group-commit latency bound;
                                              must be > 0 with --state-dir,
                                              where 1 is near-synchronous)
                  --fail-fast                (stop at the first storage failure
                                              instead of degrading the shard)
                  --online-enroll <n>        (default 0; admit n more devices
                                              while the fleet attests; needs
                                              --state-dir)
  serve         expose the fleet engine on a socket (attestation as a service)
                  --listen <endpoint>        (required; uds:/path or tcp:host:port)
                  --max-conns <n>            (default 256; excess sheds Busy;
                                              one session per connection
                                              runs at a time)
                  --read-timeout-ms <n>      (default 5000; idle cutoff)
                  --write-timeout-ms <n>     (default 5000)
                  --rate-limit <f64>         (default 0 = off; requests/s)
                  --rate-burst <n>           (default 64; token-bucket depth)
                  --drain-grace-ms <n>       (default 5000; shutdown grace)
                  --state-dir <path>         (journal the campaign, as fleet)
                  campaign flags, as for fleet less its worker pool:
                  --devices --shards --sessions --seed --tamper --profile
                  --rounds --region-bits --retries --timeout-ms --history
                  --fault-plan --flaky --commit-interval;
                  runs until a wire Shutdown arrives, then drains and
                  prints the campaign snapshot
  loadgen       drive a running server with concurrent simulated devices
                  --connect <endpoint>       (required; the server's endpoint)
                  --devices <n>              (default 64)
                  --sessions <n>             (default 2; per device)
                  --connections <n>          (default 4; client sockets)
                  --window <n>               (default 16; in-flight devices
                                              per connection)
                  --read-timeout-ms <n>      (default 30000)
                  --write-timeout-ms <n>     (default 30000)
                  --json <path>              (write a BENCH-style report row)
                  --label <name>             (row label; default loadgen)
                  --shutdown                 (send wire Shutdown when done)
  noise-sweep   false-negative rate vs. injected PUF error weight (paper 4.1)
                  --seed <u64>               (default 42)
                  --trials <n>               (default 200; extractor trials)
                  --sessions <n>             (default 10; sessions per weight)
                  --max-weight <n>           (default 10; sweep 0..=N bits)
  analyze       static analysis: netlist verifier, SWATT program verifier,
                secret-taint lint (lint codes NET*/SWP*/TNT*)
                  --deny                     (exit nonzero on any finding; CI)
                  --lints                    (list the lint catalogue)
                  --json                     (machine-readable report)
                  --src-root <path>          (repo root for the taint scan;
                                              default .)
";

/// The [`USAGE`] entry of one subcommand: its header line and the
/// indented flag lines under it, or `None` for an unknown command.
fn command_usage(command: &str) -> Option<String> {
    let mut lines = USAGE.lines();
    let head = lines.find(|line| {
        let rest = line.strip_prefix("  ").and_then(|l| l.strip_prefix(command));
        rest.is_some_and(|rest| rest.starts_with(' '))
    })?;
    let mut text = format!("usage: pufatt {command} [flags]\n\n{head}\n");
    for line in lines.take_while(|line| line.starts_with("    ")) {
        text.push_str(line);
        text.push('\n');
    }
    Some(text)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        if let Some(text) = command_usage(command) {
            print!("{text}");
            return ExitCode::SUCCESS;
        }
    }
    let result = match command.as_str() {
        "enroll" => commands::enroll(rest),
        "attest" => commands::attest(rest),
        "characterize" => commands::characterize(rest),
        "dot" => commands::dot(rest),
        "profile" => commands::profile(rest),
        "fleet" => commands::fleet(rest),
        "serve" => net::serve(rest),
        "loadgen" => net::loadgen(rest),
        "noise-sweep" => commands::noise_sweep(rest),
        "analyze" => commands::analyze(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
