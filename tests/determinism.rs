//! The simulator must be fully deterministic: identical configurations
//! produce identical cycle counts, traffic and checksums, run after run.
//! (This is what makes the reproduction's numbers meaningful at all.)

use tmk::apps::{sor, tsp, water};
use tmk::machines::{run_workload, run_workload_with, Platform, RunOpts};
use tmk::parmacs::Workload;

fn fingerprint<W: Workload>(p: &Platform, w: &W) -> (u64, Vec<u64>, u64, u64) {
    let out = run_workload(p, w);
    (
        out.report.cycles,
        out.report.proc_cycles.clone(),
        out.report.traffic.total_msgs(),
        out.report.traffic.total_bytes(),
    )
}

#[test]
fn treadmarks_runs_are_identical() {
    let w = sor::Sor::tiny();
    let p = Platform::treadmarks(4);
    assert_eq!(fingerprint(&p, &w), fingerprint(&p, &w));
}

#[test]
fn sgi_runs_are_identical() {
    let w = water::Water::tiny(water::WaterMode::Original);
    let p = Platform::Sgi { procs: 4 };
    assert_eq!(fingerprint(&p, &w), fingerprint(&p, &w));
}

#[test]
fn hybrid_runs_are_identical() {
    let w = sor::Sor::tiny();
    let p = Platform::hs_sim(2, 4);
    assert_eq!(fingerprint(&p, &w), fingerprint(&p, &w));
}

#[test]
fn directory_runs_are_identical() {
    let w = tsp::Tsp::new(8);
    let p = Platform::ah(8);
    assert_eq!(fingerprint(&p, &w), fingerprint(&p, &w));
}

#[test]
fn different_inputs_give_different_timings() {
    let p = Platform::treadmarks(4);
    let a = fingerprint(&p, &sor::Sor::tiny());
    let b = {
        let mut w = sor::Sor::tiny();
        w.iters += 1;
        fingerprint(&p, &w)
    };
    assert_ne!(a.0, b.0, "an extra iteration must take longer");
    assert!(b.0 > a.0);
}

#[test]
fn more_processors_change_the_clock_vector_not_the_answer() {
    let w = sor::Sor::tiny();
    let out2 = run_workload(&Platform::treadmarks(2), &w);
    let out4 = run_workload(&Platform::treadmarks(4), &w);
    assert_eq!(out2.report.proc_cycles.len(), 2);
    assert_eq!(out4.report.proc_cycles.len(), 4);
    let sum2: f64 = out2.results.iter().sum();
    let sum4: f64 = out4.results.iter().sum();
    assert!((sum2 - sum4).abs() < 1e-9 * sum2.abs());
}

#[test]
fn traced_runs_record_byte_identical_traces() {
    let w = sor::Sor::tiny();
    let p = Platform::treadmarks(4);
    let opts = RunOpts {
        trace: Some(1 << 16),
        ..Default::default()
    };
    let (out_a, buf_a) = run_workload_with(&p, &w, &opts);
    let (out_b, buf_b) = run_workload_with(&p, &w, &opts);
    let (trace_a, trace_b) = (
        buf_a.expect("tracing armed").chrome_trace(),
        buf_b.expect("tracing armed").chrome_trace(),
    );
    assert_eq!(
        tmk::trace::first_divergence(&trace_a, &trace_b),
        None,
        "identical runs recorded diverging traces"
    );
    assert_eq!(trace_a, trace_b, "traces must match byte for byte");
    assert_eq!(out_a.report.proc_cycles, out_b.report.proc_cycles);
}

#[test]
fn tracing_never_alters_the_simulation() {
    // A traced run must report exactly what the untraced run reports —
    // the tracer observes the clock, it never moves it.
    let w = tsp::Tsp::new(8);
    for p in [
        Platform::treadmarks(4),
        Platform::hs_sim(2, 2),
        Platform::Sgi { procs: 4 },
    ] {
        let plain = run_workload(&p, &w);
        let (traced, buf) = run_workload_with(
            &p,
            &w,
            &RunOpts {
                trace: Some(1 << 16),
                ..Default::default()
            },
        );
        // Normalize the host-side wall time: it is the one field allowed
        // to differ between two runs of the same simulation.
        let sim_json = |r: &tmk::machines::RunReport| {
            let mut r = r.clone();
            r.host_ms = 0.0;
            r.to_json().render()
        };
        assert_eq!(
            sim_json(&plain.report),
            sim_json(&traced.report),
            "{}: traced report deviates from untraced",
            p.name()
        );
        assert_eq!(plain.results, traced.results, "{}", p.name());
        // And the trace it recorded accounts for every cycle.
        buf.expect("tracing armed")
            .check(&traced.report.proc_cycles)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
    }
}
