//! Integration tests for the unified experiment driver: memoization,
//! results independent of worker count, failed-job isolation, and the JSON
//! records it emits.

use tmk_bench::driver::{
    run_jobs, run_suite, sim_record, JobRequest, Options, SuiteResult, Tier, WorkloadSpec,
};
use tmk_machines::{Json, Platform, RunOpts};

fn quick_opts(jobs: usize) -> Options {
    Options {
        tier: Tier::Quick,
        jobs,
        ..Default::default()
    }
}

/// The per-run records of a suite keyed by memo key, with the host-dependent
/// `host_ms` field normalized away so runs can be compared across worker
/// counts.
fn simulated_records(suite: &SuiteResult) -> Vec<(String, String)> {
    suite
        .runs
        .iter()
        .map(|r| {
            assert!(r.data.is_ok(), "quick tier has no failing runs: {:?}", r.data);
            (r.key.clone(), sim_record(r))
        })
        .collect()
}

#[test]
fn baseline_runs_are_memoized() {
    let a = JobRequest::new(Platform::Dec, WorkloadSpec::SorTiny);
    let b = JobRequest::new(Platform::treadmarks(2), WorkloadSpec::SorTiny);
    // Three identical DEC baselines plus one distinct run: 4 requests must
    // execute only 2 simulations.
    let memo = run_jobs(&[a.clone(), a.clone(), b.clone(), a.clone()], 2, &RunOpts::default());
    assert_eq!(memo.hits, 2);
    assert_eq!(memo.unique_runs(), 2);
    assert!(memo.get(&a).unwrap().data.is_ok());
    assert!(memo.get(&b).unwrap().data.is_ok());
}

#[test]
fn panicking_job_fails_alone() {
    let probe = JobRequest::new(Platform::Dec, WorkloadSpec::PanicProbe);
    let good = JobRequest::new(Platform::Dec, WorkloadSpec::SorTiny);
    let memo = run_jobs(&[probe.clone(), good.clone()], 2, &RunOpts::default());
    let failed = memo.get(&probe).unwrap();
    let err = failed.data.as_ref().unwrap_err();
    assert!(err.contains("deliberate panic probe"), "got: {err}");
    assert!(memo.get(&good).unwrap().data.is_ok(), "bystander job died");
}

#[test]
fn suite_results_do_not_depend_on_worker_count() {
    let serial = run_suite(&quick_opts(1)).unwrap();
    let parallel = run_suite(&quick_opts(8)).unwrap();
    for s in [&serial, &parallel] {
        assert!(s.ok(), "failed: {:?}", s.failed_sections());
    }
    assert!(serial.memo_hits > 0, "quick tier shares baselines");
    // Identical rendered text...
    let texts = |s: &SuiteResult| {
        s.experiments
            .iter()
            .map(|e| (e.id, e.text.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(texts(&serial), texts(&parallel));
    // ...and byte-identical simulated records for every run.
    let (s_recs, p_recs) = (simulated_records(&serial), simulated_records(&parallel));
    assert_eq!(s_recs.len(), p_recs.len(), "run lists differ");
    for ((s_key, a), (p_key, b)) in s_recs.iter().zip(&p_recs) {
        assert_eq!(s_key, p_key, "run lists differ");
        assert_eq!(a, b, "run '{s_key}' differs between 1 and 8 workers");
    }
}

#[test]
fn bench_json_is_parseable_and_complete() {
    let suite = run_suite(&Options {
        tier: Tier::Quick,
        jobs: 2,
        experiments: vec!["table1".into()],
        ..Default::default()
    })
    .unwrap();
    assert!(suite.ok());

    let j = Json::parse(&suite.bench_json().render_pretty(2)).unwrap();
    assert_eq!(j.get("schema").and_then(Json::as_str), Some("tmk-bench/1"));
    assert_eq!(j.get("tier").and_then(Json::as_str), Some("quick"));
    let runs = j.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), suite.runs.len());
    for run in runs {
        assert_eq!(run.get("status").and_then(Json::as_str), Some("ok"));
        // Host wall time and the simulated report ride along on each record.
        assert!(run.get("host_ms").and_then(Json::as_f64).is_some());
        let report = run.get("report").unwrap();
        assert!(report.get("sim_seconds").and_then(Json::as_f64).unwrap() > 0.0);
    }

    let exp = suite.experiment_json("table1").unwrap();
    let exp = Json::parse(&exp.render()).unwrap();
    assert_eq!(
        exp.get("experiment").and_then(Json::as_str),
        Some("table1")
    );
    assert!(suite.experiment_json("no-such-experiment").is_none());
}

#[test]
fn section_filters_select_single_figures() {
    let suite = run_suite(&Options {
        tier: Tier::Quick,
        jobs: 2,
        experiments: vec!["fig01_08".into()],
        filters: vec!["fig01_08/fig3".into()],
        ..Default::default()
    })
    .unwrap();
    assert_eq!(suite.experiments.len(), 1);
    let exp = &suite.experiments[0];
    assert_eq!(exp.sections.len(), 1);
    assert_eq!(exp.sections[0].name, "fig01_08/fig3");
    assert!(exp.text.contains("Figure 3"));
}

#[test]
fn unknown_experiment_is_rejected() {
    let err = run_suite(&Options {
        experiments: vec!["fig99".into()],
        ..Default::default()
    })
    .unwrap_err();
    assert!(err.contains("fig99"), "got: {err}");
    assert!(err.contains("table1"), "should list known ids: {err}");
}

#[test]
fn service_experiment_recovers_and_sheds_loudly() {
    let suite = run_suite(&Options {
        tier: Tier::Quick,
        jobs: 2,
        experiments: vec!["service".into()],
        ..Default::default()
    })
    .unwrap();
    assert!(suite.ok(), "failed: {:?}", suite.failed_sections());
    let text = &suite.experiments[0].text;
    // A scheduled crash really rolled the live cluster back...
    assert!(text.contains("rollbacks=1"), "no rollback reported:\n{text}");
    // ...baseline offered load was never shed...
    assert!(text.contains("shed=0"), "baseline shed is missing:\n{text}");
    // ...and overload shedding is loud, not silent.
    assert!(text.contains("total shed="), "overload shed not reported:\n{text}");

    // Service runs carry their per-tenant block in the JSON records.
    let j = Json::parse(&suite.bench_json().render_pretty(2)).unwrap();
    let runs = j.get("runs").and_then(Json::as_arr).unwrap();
    let with_service = runs
        .iter()
        .filter(|r| r.get("report").and_then(|rep| rep.get("service")).is_some())
        .count();
    assert_eq!(with_service, runs.len(), "every service run reports tenants");
}
