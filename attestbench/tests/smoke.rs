//! Smoke-sized runs of every workload: each passes its correctness check
//! and reports every metric of its catalogue.

use attestbench::layers::trace_layers;
use attestbench::metrics::{END_TO_END, PER_LAYER};
use attestbench::run::measure;
use attestbench::workload::{Inputs, Scale, Workload};

fn smoke(workload: Workload) {
    let inputs = Inputs::generate(workload, 3, Scale::Smoke);
    let timed = measure(&inputs, 1).expect("timed run");
    assert!(timed.correct, "{}: {:?}", workload.name(), timed.notes);
    assert_eq!(timed.failed, 0);
    let line = timed
        .metrics
        .result_line(END_TO_END, timed.correct, timed.attempted, timed.failed)
        .expect("every metric");
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    for name in ["sessions_per_s", "session_p50_ms", "setup_s"] {
        assert!(timed.metrics.get(name).is_some_and(|v| v > 0.0), "{}: {name} is never 0", workload.name());
    }

    let traced = trace_layers(&inputs).expect("traced run");
    assert!(traced.correct, "{}: {:?}", workload.name(), traced.notes);
    traced
        .metrics
        .result_line(PER_LAYER, traced.correct, traced.attempted, traced.failed)
        .expect("every metric");
    let m = |name| traced.metrics.get(name).expect(name);
    assert_eq!(m("transport.busy_replies"), 0.0);
    match workload {
        Workload::ToyClosed => {
            assert_eq!(m("alupuf.crp_misses_per_session"), 0.0, "128 rounds run no PUF query");
            assert_eq!(m("store.records_per_session"), 0.0, "no journal");
        }
        Workload::PaperClosed => assert!(m("alupuf.crp_misses_per_session") > 0.0),
        Workload::ToyJournaled => assert!(m("store.records_per_session") > 0.0),
    }
}

#[test]
fn toy_closed_smoke_run_is_correct() {
    smoke(Workload::ToyClosed);
}

#[test]
fn paper_closed_smoke_run_is_correct() {
    smoke(Workload::PaperClosed);
}

#[test]
fn toy_journaled_smoke_run_is_correct() {
    smoke(Workload::ToyJournaled);
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let inputs = Inputs::generate(Workload::ToyJournaled, 5, Scale::Smoke);
    let a = trace_layers(&inputs).expect("first traced run");
    let b = trace_layers(&inputs).expect("second traced run");
    for name in [
        "transport.round_trips_per_session",
        "alupuf.crp_misses_per_session",
        "pe32.cycles_per_session",
        "fleet.accepted_frac",
        "store.records_per_session",
    ] {
        assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
    }
}
