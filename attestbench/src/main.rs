//! `attestbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, notes, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use attestbench::layers::trace_layers;
use attestbench::metrics::{END_TO_END, PER_LAYER};
use attestbench::run::measure;
use attestbench::serve::out_dir;
use attestbench::sys;
use attestbench::workload::{Inputs, Scale, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ToyClosed,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn provenance(inputs: &Inputs, args: &Args) -> String {
    let state_dir = if inputs.workload.journaled() {
        "in-memory SimVfs (tmpfs-like, no device I/O)"
    } else {
        "none"
    };
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu\": \"{}\", \"nproc\": {}, \
         \"kernel\": \"{}\", \"state_dir_fs\": \"{state_dir}\", \"profile\": \"{profile}\", \"devices\": {}, \
         \"connections\": {}, \"in_flight_per_connection\": {}, \"loop\": \"closed\"}}",
        inputs.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::cpu_model(),
        sys::nproc(),
        sys::kernel(),
        inputs.devices(),
        inputs.connections,
        inputs.in_flight,
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("attestbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed, Scale::Full);
    println!("{}", provenance(&inputs, &args));
    let (outcome, catalogue) = if args.trace {
        (trace_layers(&inputs), PER_LAYER)
    } else {
        (measure(&inputs, args.seconds), END_TO_END)
    };
    let _ = std::fs::remove_dir(out_dir());
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("attestbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    match outcome
        .metrics
        .result_line(catalogue, outcome.correct, outcome.attempted.max(1), outcome.failed)
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("attestbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
