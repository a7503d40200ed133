//! Integration tests for the unified experiment driver: memoization,
//! results independent of worker count, failed-job isolation, and the JSON
//! records it emits.

use std::collections::BTreeMap;

use tmk_bench::driver::{
    run_jobs, run_suite, sim_record, JobRequest, Options, SuiteResult, Tier, WorkloadSpec,
};
use tmk_machines::{DsmProtocol, DsmTuning, Json, Platform, RunOpts};

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
            assert!(
                r.data.is_ok(),
                "quick tier has no failing runs: {:?}",
                r.data
            );
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
    let memo = run_jobs(
        &[a.clone(), a.clone(), b.clone(), a.clone()],
        2,
        &RunOpts::default(),
        None,
    );
    assert_eq!(memo.hits, 2);
    assert_eq!(memo.unique_runs(), 2);
    assert!(memo.get(&a).unwrap().data.is_ok());
    assert!(memo.get(&b).unwrap().data.is_ok());
}

#[test]
fn panicking_job_fails_alone() {
    // HS runs only LRC between its nodes: building an HS machine for IVY
    // panics inside the job.
    let ivy_hs = Platform::Hs {
        nodes: 2,
        per_node: 2,
        so: None,
        tuning: DsmTuning {
            protocol: DsmProtocol::Ivy,
            ..Default::default()
        },
    };
    let probe = JobRequest::new(ivy_hs, WorkloadSpec::SorTiny);
    let good = JobRequest::new(Platform::Dec, WorkloadSpec::SorTiny);
    let memo = run_jobs(&[probe.clone(), good.clone()], 2, &RunOpts::default(), None);
    let failed = memo.get(&probe).unwrap();
    let err = failed.data.as_ref().unwrap_err();
    assert!(err.contains("HS runs only LRC"), "got: {err}");
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
    assert_one_record_shape(&serial.bench_json());
}

/// The key list of every object in `j`, by path (`run.report.dsm.gc`);
/// arrays are not entered.
fn object_shapes<'a>(path: String, j: &'a Json, out: &mut Vec<(String, Vec<&'a str>)>) {
    if let Json::Obj(pairs) = j {
        out.push((
            path.clone(),
            pairs.iter().map(|(k, _)| k.as_str()).collect(),
        ));
        for (k, v) in pairs {
            object_shapes(format!("{path}.{k}"), v, out);
        }
    }
}

/// Every run record has one shape, whatever the run was: the same keys, and
/// each block the same keys wherever it is an object (`bus`, `directory`,
/// `service` and `breakdown` may be `null`).
fn assert_one_record_shape(bench: &Json) {
    let mut seen: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for run in bench.get("runs").and_then(Json::as_arr).unwrap() {
        let key = run.get("key").and_then(Json::as_str).unwrap();
        let mut shapes = Vec::new();
        object_shapes("run".into(), run, &mut shapes);
        for (path, keys) in shapes {
            let first = seen.entry(path.clone()).or_insert_with(|| keys.clone());
            assert_eq!(*first, keys, "{key}: `{path}` has other keys");
        }
        let rows = run.get("breakdown").and_then(|b| b.get("per_proc"));
        for row in rows.and_then(Json::as_arr).unwrap_or_default() {
            assert_eq!(
                row.as_arr().map(<[Json]>::len),
                Some(7),
                "{key}: breakdown row"
            );
        }
    }
    // The quick tier fills in every nullable block somewhere.
    for path in [
        "run.breakdown",
        "run.report.bus",
        "run.report.directory",
        "run.report.service",
    ] {
        assert!(seen.contains_key(path), "no run has a `{path}` object");
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
    assert_eq!(j.get("schema").and_then(Json::as_str), Some("tmk-bench/2"));
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
    assert_eq!(exp.get("experiment").and_then(Json::as_str), Some("table1"));
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
    assert!(
        text.contains("rollbacks=1"),
        "no rollback reported:\n{text}"
    );
    // ...baseline offered load was never shed...
    assert!(text.contains("shed=0"), "baseline shed is missing:\n{text}");
    // ...and overload shedding is loud, not silent.
    assert!(
        text.contains("total shed="),
        "overload shed not reported:\n{text}"
    );

    // Service runs carry their per-tenant block in the JSON records.
    let j = Json::parse(&suite.bench_json().render_pretty(2)).unwrap();
    let runs = j.get("runs").and_then(Json::as_arr).unwrap();
    let with_service = runs
        .iter()
        .filter(|r| matches!(r.get("report").unwrap().get("service"), Some(Json::Obj(_))))
        .count();
    assert_eq!(
        with_service,
        runs.len(),
        "every service run reports tenants"
    );
}

#[test]
fn traced_service_runs_record_no_breakdown() {
    // `suite --trace` gives every service run its recovery events, but a
    // service run has no simulated cycles: its breakdown block is null.
    let suite = run_suite(&Options {
        tier: Tier::Quick,
        jobs: 2,
        experiments: vec!["service".into()],
        trace_dir: Some("unwritten".into()),
        ..Default::default()
    })
    .unwrap();
    assert!(suite.ok(), "failed: {:?}", suite.failed_sections());
    let j = Json::parse(&suite.bench_json().render_pretty(2)).unwrap();
    let runs = j.get("runs").and_then(Json::as_arr).unwrap();
    assert!(!runs.is_empty());
    for run in runs {
        assert_eq!(run.get("breakdown"), Some(&Json::Null), "{run:?}");
    }
    for r in &suite.runs {
        let chrome = r
            .data
            .as_ref()
            .ok()
            .and_then(|d| d.trace.as_ref()?.chrome.as_ref());
        assert!(chrome.is_some(), "{}: no recovery events recorded", r.key);
    }
}

#[test]
fn bench_diff_fails_on_any_simulated_difference() {
    // Two one-run records; `twins` is the only simulated value, `host_ms`
    // the host times. Host time alone may move; nothing else may.
    let record = |twins: u64, host_ms: f64| {
        format!(
            "{{\"runs\": [{{\"key\": \"as/p2|sor-tiny\", \"workload\": \"sor\", \
             \"status\": \"ok\", \"host_ms\": {host_ms}, \"checksum\": 1.5, \
             \"report\": {{\"host_ms\": {host_ms}, \"cycles\": 9, \
             \"dsm\": {{\"twins_created\": {twins}}}}}, \"breakdown\": null}}]}}"
        )
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let old = write("bench-diff-old.json", record(3, 1.0));
    let slower = write("bench-diff-slower.json", record(3, 2.0));
    let twins = write("bench-diff-twins.json", record(4, 1.0));
    let status = |new: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_suite"))
            .arg("bench-diff")
            .args([&old, new])
            .output()
            .unwrap()
            .status
            .code()
    };
    assert_eq!(status(&slower), Some(0), "host time alone may move");
    assert_eq!(status(&twins), Some(1), "a changed twin count must fail");
}

/// `--progress` adds one stderr line per unique run and changes nothing
/// on stdout.
#[test]
fn progress_reports_each_unique_run_once() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("progress");
    let suite = |extra: &[&str]| {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_suite"))
            .current_dir(&root)
            .args(["--quick", "--jobs", "2"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        (run.stdout, String::from_utf8(run.stderr).unwrap())
    };
    let (plain, plain_err) = suite(&[]);
    let out_dir = out.to_str().unwrap();
    let (shown, shown_err) = suite(&["--progress", "--json", "--out", out_dir]);
    assert_eq!(plain, shown, "--progress changed stdout");
    let record =
        Json::parse(&std::fs::read_to_string(out.join("BENCH_results.json")).unwrap()).unwrap();
    let runs = record.get("runs").and_then(Json::as_arr).unwrap();
    let lines: Vec<&str> = shown_err
        .lines()
        .filter(|l| l.starts_with("progress: "))
        .collect();
    assert_eq!(lines.len(), runs.len(), "one line per unique run");
    assert_eq!(
        shown_err.lines().count() - lines.len(),
        plain_err.lines().count()
    );
    for run in runs {
        let key = run.get("key").and_then(Json::as_str).unwrap();
        let prefix = format!("progress: {key} ");
        assert!(
            lines.iter().any(|l| l.starts_with(&prefix)),
            "no line for {key}"
        );
    }
}
