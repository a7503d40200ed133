//! The committed reference outputs: `benchmark/expected.json` (schema
//! `tmk-perfbench-expected/1`), and the repo's own `results/*.json`
//! records it is cross-checked against. The paper's numerals were stripped
//! from the source text (EXPERIMENTS.md), so these — not the paper — are
//! the reference: the model is unvalidated and no error figure is given.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use tmk_machines::Json;

use crate::child::tool_output;
use crate::harness::{Fingerprint, Runner};
use crate::workloads::{run_list, Tier, DEFAULT_SEED, WORKLOADS};

/// The repo's committed experiment records.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");

pub const SCHEMA: &str = "tmk-perfbench-expected/1";

/// `expected.json` as built into this binary; `--write-expected` rewrites
/// the file and the next build picks it up.
const COMMITTED: &str = include_str!("../expected.json");

/// Fingerprints by run key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    runs: Vec<(String, Fingerprint)>,
}

impl Expected {
    /// The committed expectations.
    pub fn committed() -> Expected {
        Expected::parse(COMMITTED).expect("benchmark/expected.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("no `runs` array")?;
        let mut out = Expected::default();
        for r in runs {
            let field = |name: &str| {
                r.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("run without an integer `{name}`"))
            };
            let key = r
                .get("key")
                .and_then(Json::as_str)
                .ok_or("run without a `key`")?;
            out.insert(
                key,
                Fingerprint {
                    cycles: field("cycles")?,
                    checksum: field("checksum_fnv")?,
                    msgs: field("total_msgs")?,
                    bytes: field("total_bytes")?,
                },
            );
        }
        Ok(out)
    }

    pub fn get(&self, key: &str) -> Option<Fingerprint> {
        self.runs.iter().find(|(k, _)| k == key).map(|(_, f)| *f)
    }

    /// Records `key`; a key seen before keeps its first fingerprint (equal
    /// keys are the same run).
    pub fn insert(&mut self, key: &str, fp: Fingerprint) {
        if self.get(key).is_none() {
            self.runs.push((key.to_string(), fp));
        }
    }

    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// The document, one run per line so diffs of it read run by run.
    pub fn render(&self, commit: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\n \"schema\": \"{SCHEMA}\",\n \"commit\": {},\n \"seed\": {seed},\n \"runs\": [\n",
            Json::from(commit).render()
        );
        for (i, (key, fp)) in self.runs.iter().enumerate() {
            let run = Json::obj()
                .set("key", key.as_str())
                .set("cycles", fp.cycles)
                .set("checksum_fnv", fp.checksum)
                .set("total_msgs", fp.msgs)
                .set("total_bytes", fp.bytes);
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            out.push_str(&format!("  {}{comma}\n", run.render()));
        }
        out.push_str(" ]\n}\n");
        out
    }
}

/// `(key, cycles)` of every run record in the `results/*.json` files of
/// `dir`, in file-name order.
pub fn committed_cycles(dir: &Path) -> Result<Vec<(String, u64)>, String> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        for run in doc.get("runs").and_then(Json::as_arr).unwrap_or_default() {
            let key = run.get("key").and_then(Json::as_str);
            let cycles = run
                .get("report")
                .and_then(|r| r.get("cycles"))
                .and_then(Json::as_u64);
            if let (Some(key), Some(cycles)) = (key, cycles) {
                out.push((key.to_string(), cycles));
            }
        }
    }
    Ok(out)
}

/// How many of `runs` also have a committed `results/*.json` record, or
/// the first run whose simulated cycles disagree with one.
pub fn crosscheck<'a>(
    runs: impl Iterator<Item = (&'a str, Fingerprint)>,
    committed: &[(String, u64)],
) -> Result<usize, String> {
    let mut matched = 0;
    for (key, fp) in runs {
        let mut records = committed.iter().filter(|(k, _)| k == key).peekable();
        if records.peek().is_none() {
            continue;
        }
        if let Some((_, cycles)) = records.find(|(_, c)| *c != fp.cycles) {
            return Err(format!(
                "{key}: {} cycles here, {cycles} in the committed results/ record",
                fp.cycles
            ));
        }
        matched += 1;
    }
    Ok(matched)
}

/// Runs every list of both tiers once at the default seed, checks every
/// run against its sequential oracle and against the committed
/// `results/*.json` records, and only then rewrites `expected.json`.
pub fn regenerate() -> Result<ExitCode, String> {
    let committed = committed_cycles(Path::new(RESULTS_DIR))?;
    let mut expected = Expected::default();
    let mut crosschecked = 0;
    for tier in [Tier::Full, Tier::Tiny] {
        for (workload, _) in WORKLOADS {
            let list = run_list(workload, tier, DEFAULT_SEED).expect("a catalogued workload");
            let mut runner = Runner::new(&list, |_| None);
            runner.pass("expected", false, None);
            runner.check_oracle(true);
            if runner.failed() > 0 {
                return Err(format!(
                    "{workload} ({tier:?}): {} runs failed",
                    runner.failed()
                ));
            }
            crosschecked += crosscheck(runner.fingerprints(), &committed)?;
            for (key, fp) in runner.fingerprints() {
                expected.insert(key, fp);
            }
            println!("{workload} ({tier:?}): {} runs", list.len());
        }
    }
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    fs::write(
        file,
        expected.render(&tool_output("git", &["rev-parse", "HEAD"]), DEFAULT_SEED),
    )
    .map_err(|e| format!("{file}: {e}"))?;
    println!(
        "wrote {file}: {} runs, {crosschecked} cross-checked against results/*.json; rebuild to use it",
        expected.len()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(cycles: u64) -> Fingerprint {
        Fingerprint {
            cycles,
            checksum: u64::MAX - 5,
            msgs: 3,
            bytes: 4,
        }
    }

    #[test]
    fn render_parse_round_trip_keeps_all_64_bits() {
        let mut e = Expected::default();
        e.insert("sor-small|dec", fp(718_826_224));
        e.insert("water|as/p8", fp(1));
        e.insert("sor-small|dec", fp(999));
        assert_eq!(e.len(), 2, "a repeated key keeps its first entry");
        let text = e.render("abc123", 1994);
        assert_eq!(Expected::parse(&text).unwrap(), e);
        assert_eq!(e.get("sor-small|dec"), Some(fp(718_826_224)));
        assert_eq!(e.get("nope"), None);
    }

    #[test]
    fn parse_rejects_other_documents() {
        assert!(Expected::parse("{\"schema\":\"tmk-bench/1\",\"runs\":[]}").is_err());
        let missing = format!("{{\"schema\":\"{SCHEMA}\",\"runs\":[{{\"key\":\"a\"}}]}}");
        assert!(Expected::parse(&missing).is_err());
    }

    #[test]
    fn the_committed_file_parses() {
        let _ = Expected::committed();
    }

    #[test]
    fn crosscheck_counts_matches_and_names_disagreements() {
        let committed = vec![
            ("a|dec".to_string(), 10),
            ("a|dec".to_string(), 10),
            ("b|dec".to_string(), 20),
        ];
        let runs = [("a|dec", fp(10)), ("c|dec", fp(5)), ("b|dec", fp(20))];
        assert_eq!(crosscheck(runs.iter().copied(), &committed), Ok(2));
        let bad = [("a|dec", fp(10)), ("b|dec", fp(21))];
        let err = crosscheck(bad.iter().copied(), &committed).unwrap_err();
        assert!(err.contains("b|dec") && err.contains("21"), "{err}");
    }
}
