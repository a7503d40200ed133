//! The unified experiment CLI: runs any subset of the case study's
//! experiments from the declarative registry, fanning independent simulations
//! across host cores, and optionally emits JSON records alongside the text.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use tmk_bench::driver::{registry, run_suite, Options, Tier};
use tmk_sim::EngineKind;

const USAGE: &str = "\
usage: suite [OPTIONS]
       suite trace-diff A.json B.json

  --experiment ID   run only this experiment (repeatable; default: all
                    default-tier experiments — everything but `calibrate`)
  --filter SUBSTR   keep only sections whose `experiment/section` name
                    contains SUBSTR (repeatable)
  --jobs N          worker threads (default: one per host core)
  --quick           CI smoke tier: tiny inputs, 1-4 processors
  --engine KIND     execution backend: `coop` (single-threaded event loop,
                    the default) or `threaded` (one OS thread per simulated
                    processor, the oracle); simulated results are
                    byte-identical, so the same run on both is a parity check
  --json            also write results/<experiment>.{txt,json} and
                    BENCH_results.json
  --out DIR         output directory for --json text/records (default: results)
  --bench-json PATH path of the suite summary (default: DIR/BENCH_results.json
                    under --out)
  --trace DIR       record Chrome trace-event JSON for traced runs (the
                    `breakdown` experiment) into DIR; load the files in
                    Perfetto or chrome://tracing
  --op-trace DIR    record the engine op trace — one `pid clock` line per
                    sync operation — into DIR/<run>.ops.txt
  --list            list experiments and sections, then exit
  -h, --help        this help

  trace-diff A B    compare two recorded traces; prints `no divergence`
                    or the first event where the executions differ
";

/// Memo keys carry '/' and '|'; flatten them for filenames.
fn file_stem(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect()
}

/// `suite trace-diff a.json b.json`: structural comparison of two recorded
/// traces, for checking that two runs executed identically.
fn trace_diff(paths: &[String]) -> ! {
    let [a, b] = paths else {
        eprintln!("trace-diff wants exactly two trace files\n{USAGE}");
        std::process::exit(2);
    };
    let read = |p: &String| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let (ta, tb) = (read(a), read(b));
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace-diff") {
        trace_diff(&argv[1..]);
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
            "--engine" => {
                let v = value("--engine");
                opts.engine = EngineKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("--engine wants `threaded` or `coop`, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--json" => emit_json = true,
            "--out" => out_dir = value("--out"),
            "--bench-json" => bench_json = Some(value("--bench-json")),
            "--trace" => opts.trace_dir = Some(value("--trace")),
            "--op-trace" => opts.op_trace_dir = Some(value("--op-trace")),
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
        let bench_json = bench_json
            .unwrap_or_else(|| Path::new(&out_dir).join("BENCH_results.json").display().to_string());
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
