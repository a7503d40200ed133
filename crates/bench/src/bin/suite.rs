//! The unified experiment CLI: runs any subset of the case study's
//! experiments from the declarative registry, fanning independent simulations
//! across host cores, and optionally emits JSON records alongside the text.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use tmk_bench::driver::{registry, run_suite, Options, Progress, Tier};
use tmk_machines::Json;

const USAGE: &str = "\
usage: suite [OPTIONS]
       suite trace-diff A.json B.json
       suite bench-diff OLD.json NEW.json

  --experiment ID   run only this experiment (repeatable; default: all
                    default-tier experiments — everything but `calibrate`)
  --filter SUBSTR   keep only sections whose `experiment/section` name
                    contains SUBSTR (repeatable)
  --jobs N          worker threads (default: one per host core)
  --quick           CI smoke tier: tiny inputs, 1-4 processors
  --json            also write results/<experiment>.{txt,json} and
                    BENCH_results.json
  --out DIR         output directory for --json text/records (default: results)
  --bench-json PATH path of the suite summary (default: DIR/BENCH_results.json
                    under --out)
  --trace DIR       record Chrome trace-event JSON for traced runs (the
                    `breakdown` experiment) and the `service` runs' recovery
                    events into DIR; load the files in Perfetto or
                    chrome://tracing
  --op-trace DIR    record the engine op trace — one `pid clock` line per
                    sync operation — into DIR/<run>.ops.txt
  --progress        print one stderr line per finished run: its key, host
                    seconds, runs left and an ETA from the host times in
                    ./BENCH_results.json (a run it lacks counts at its median),
                    scaled by the pace of the runs already finished
  --list            list experiments and sections, then exit
  -h, --help        this help

  trace-diff A B    compare two recorded traces; prints `no divergence`
                    or the first event where the executions differ
  bench-diff OLD NEW
                    compare the host time of two `--json` records (two
                    BENCH_results.json, or one experiment's record from two
                    builds) per application family, with the ten largest
                    movers; exits 1 if a run present in both differs in
                    anything but host time: status, checksum, breakdown or
                    any report field but `host_ms`
";

/// Memo keys carry '/' and '|'; flatten them for filenames.
fn file_stem(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// `suite trace-diff a.json b.json`: structural comparison of two recorded
/// traces, for checking that two runs executed identically.
fn trace_diff(paths: &[String]) -> ! {
    let [a, b] = paths else {
        eprintln!("trace-diff wants exactly two trace files\n{USAGE}");
        std::process::exit(2);
    };
    let (ta, tb) = (read_or_exit(a), read_or_exit(b));
    match tmk_trace::first_divergence(&ta, &tb) {
        None => {
            println!("no divergence: {a} and {b} record identical executions");
            std::process::exit(0);
        }
        Some((line, ea, eb)) => {
            println!("traces diverge at event line {line}:");
            println!("  {a}: {ea}");
            println!("  {b}: {eb}");
            std::process::exit(1);
        }
    }
}

/// `suite bench-diff old.json new.json`: where host time moved between two
/// records of the same runs, and whether they still are the same runs.
fn bench_diff(paths: &[String]) -> ! {
    let [old, new] = paths else {
        eprintln!("bench-diff wants exactly two record files\n{USAGE}");
        std::process::exit(2);
    };
    let runs = |path: &String| -> Vec<Json> {
        let doc = Json::parse(&read_or_exit(path)).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        let fields = if let Json::Obj(fields) = doc {
            fields
        } else {
            Vec::new()
        };
        match fields.into_iter().find(|(k, _)| k == "runs") {
            Some((_, Json::Arr(runs))) => runs,
            _ => {
                eprintln!("{path}: no `runs` array (not a suite --json record)");
                std::process::exit(2);
            }
        }
    };
    let (old_runs, new_runs) = (runs(old), runs(new));
    let text = |r: &Json, field: &str| {
        r.get(field)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let host_ms = |r: &Json| r.get("host_ms").and_then(Json::as_f64).unwrap_or(0.0);
    /// A run's report without its one host-dependent field.
    fn simulated(run: &Json) -> Vec<&(String, Json)> {
        match run.get("report") {
            Some(Json::Obj(fields)) => fields.iter().filter(|(k, _)| k != "host_ms").collect(),
            _ => Vec::new(),
        }
    }
    let by_key: BTreeMap<String, &Json> = new_runs.iter().map(|r| (text(r, "key"), r)).collect();

    // Per family: runs, old ms, new ms. Per run: |delta|, key, old ms, new ms.
    let mut families: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    let mut movers: Vec<(f64, String, f64, f64)> = Vec::new();
    let mut differing: Vec<String> = Vec::new();
    for o in &old_runs {
        let key = text(o, "key");
        let Some(n) = by_key.get(&key) else { continue };
        let (was, is) = (host_ms(o), host_ms(n));
        let family = families.entry(text(o, "workload")).or_default();
        *family = (family.0 + 1, family.1 + was, family.2 + is);
        movers.push(((is - was).abs(), key.clone(), was, is));
        let same = ["status", "checksum", "breakdown"]
            .iter()
            .all(|f| o.get(f) == n.get(f))
            && simulated(o) == simulated(n);
        if !same {
            differing.push(key);
        }
    }
    let row = |name: &str, runs: usize, was: f64, is: f64| {
        println!(
            "{name:<44} {runs:>5} {was:>12.1} {is:>12.1} {:>7.3}",
            is / was
        );
    };
    println!(
        "{:<44} {:>5} {:>12} {:>12} {:>7}",
        "host_ms", "runs", "old", "new", "new/old"
    );
    let mut total = (0, 0.0, 0.0);
    for (name, &(runs, was, is)) in &families {
        row(name, runs, was, is);
        total = (total.0 + runs, total.1 + was, total.2 + is);
    }
    row("total (runs in both)", total.0, total.1, total.2);
    println!(
        "only in old: {}, only in new: {}",
        old_runs.len() - total.0,
        new_runs.len() - total.0
    );
    movers.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    println!("\nlargest movers:");
    for (_, key, was, is) in movers.iter().take(10) {
        row(key, 1, *was, *is);
    }
    for key in &differing {
        println!("DIFFERS in more than host time: {key}");
    }
    std::process::exit(if differing.is_empty() { 0 } else { 1 });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("trace-diff") => trace_diff(&argv[1..]),
        Some("bench-diff") => bench_diff(&argv[1..]),
        _ => {}
    }

    let mut opts = Options::default();
    let mut emit_json = false;
    let mut list = false;
    let mut out_dir = "results".to_string();
    let mut bench_json: Option<String> = None;

    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--experiment" => opts.experiments.push(value("--experiment")),
            "--filter" => opts.filters.push(value("--filter")),
            "--jobs" => {
                let v = value("--jobs");
                opts.jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs wants a number, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--quick" => opts.tier = Tier::Quick,
            "--json" => emit_json = true,
            "--out" => out_dir = value("--out"),
            "--bench-json" => bench_json = Some(value("--bench-json")),
            "--trace" => opts.trace_dir = Some(value("--trace")),
            "--op-trace" => opts.op_trace_dir = Some(value("--op-trace")),
            "--progress" => {
                let record = std::fs::read_to_string("BENCH_results.json")
                    .map_err(|e| e.to_string())
                    .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()));
                let record = record.unwrap_or_else(|e| {
                    eprintln!("--progress: no host times from BENCH_results.json ({e}); no ETA");
                    Json::Null
                });
                opts.progress = Some(Progress::from_record(&record));
            }
            "--list" => list = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if list {
        for exp in registry(opts.tier) {
            let tag = if exp.default { "" } else { "  (opt-in)" };
            println!("{:<10} {}{tag}", exp.id, exp.title);
            for sec in &exp.sections {
                println!("           - {}", exp.section_name(sec));
            }
        }
        return;
    }

    let suite = match run_suite(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    for e in &suite.experiments {
        print!("{}", e.text);
    }

    if let Some(dir) = &opts.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2);
        }
        let mut written = 0usize;
        for r in &suite.runs {
            let Ok(data) = &r.data else { continue };
            let Some(chrome) = data.trace.as_ref().and_then(|t| t.chrome.as_ref()) else {
                continue;
            };
            let stem = file_stem(&r.key);
            // A malformed document would load as nothing in Perfetto;
            // fail loudly here instead.
            if let Err(e) = tmk_machines::Json::parse(chrome) {
                eprintln!("internal error: trace for {} is not valid JSON: {e}", r.key);
                std::process::exit(2);
            }
            let path = Path::new(dir).join(format!("{stem}.trace.json"));
            if let Err(e) = std::fs::write(&path, chrome) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            written += 1;
        }
        eprintln!("suite: wrote {written} trace files to {dir}/");
    }

    if let Some(dir) = &opts.op_trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2);
        }
        let mut written = 0usize;
        for r in &suite.runs {
            let Ok(data) = &r.data else { continue };
            let Some(ops) = &data.op_trace else { continue };
            let mut text = String::with_capacity(ops.len() * 12);
            for (pid, clock) in ops.iter() {
                let _ = writeln!(text, "{pid} {clock}");
            }
            let path = Path::new(dir).join(format!("{}.ops.txt", file_stem(&r.key)));
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            written += 1;
        }
        eprintln!("suite: wrote {written} op traces to {dir}/");
    }

    if emit_json {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("cannot create {out_dir}: {e}");
            std::process::exit(2);
        }
        for e in &suite.experiments {
            let txt = Path::new(&out_dir).join(format!("{}.txt", e.id));
            let json = Path::new(&out_dir).join(format!("{}.json", e.id));
            let record = suite.experiment_json(e.id).expect("known experiment");
            let r = std::fs::write(&txt, &e.text)
                .and_then(|()| std::fs::write(&json, record.render_pretty(2)));
            if let Err(err) = r {
                eprintln!("cannot write {}: {err}", txt.display());
                std::process::exit(2);
            }
        }
        // Without an explicit path the summary lands next to the per-
        // experiment records, so smoke runs with `--out target/...` can
        // never clobber the committed top-level BENCH_results.json.
        let bench_json = bench_json.unwrap_or_else(|| {
            Path::new(&out_dir)
                .join("BENCH_results.json")
                .display()
                .to_string()
        });
        if let Err(e) = std::fs::write(&bench_json, suite.bench_json().render_pretty(2)) {
            eprintln!("cannot write {bench_json}: {e}");
            std::process::exit(2);
        }
    }

    let mut err = std::io::stderr();
    let _ = writeln!(
        err,
        "\nsuite: {} experiments, {} requests -> {} runs ({} memoized), \
         {} workers, {:.1}s wall",
        suite.experiments.len(),
        suite.requests,
        suite.runs.len(),
        suite.memo_hits,
        suite.jobs,
        suite.wall_ms / 1e3,
    );
    if !suite.ok() {
        for k in suite.failed_runs() {
            let _ = writeln!(err, "failed run: {k}");
        }
        for s in suite.failed_sections() {
            let _ = writeln!(err, "failed section: {s}");
        }
        std::process::exit(1);
    }
}
