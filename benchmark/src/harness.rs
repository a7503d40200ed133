//! Running a run list: one run, one pass, output checking.
//!
//! A *pass* executes every run of the list back to back on the calling
//! thread, always on `EngineKind::Coop` chosen explicitly. Each run is
//! timed from before machine construction to after the outcome is dropped
//! — what a `suite --jobs 1` user waits for — and reduced on the spot to
//! a [`Fingerprint`] so nothing large survives between runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tmk_apps::{ilink, sor, water};
use tmk_machines::{run_workload_traced_with, RunReport};
use tmk_sim::EngineKind;
use tmk_trace::{TraceBuf, NCAT};

use crate::metrics::COUNTS;
use crate::spans::{Recorder, SpanId};
use crate::workloads::{App, RunSpec};

/// The simulated outputs a host-only change must leave bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated execution time.
    pub cycles: u64,
    /// FNV-1a over the bits of every processor's checksum, in pid order.
    pub checksum: u64,
    /// `traffic.total_msgs`.
    pub msgs: u64,
    /// `traffic.total_bytes`.
    pub bytes: u64,
}

/// FNV-1a (64-bit) over the IEEE-754 bits of `values`.
pub fn checksum_bits(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The per-processor checksums in the form the sequential oracle needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checksums {
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

/// Layer counts of one run or, summed, of one pass: `counts` in
/// [`COUNTS`] order, `ledger` in `Category::ALL` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub counts: [u64; COUNTS.len()],
    pub ledger: [u64; NCAT],
}

impl Counts {
    fn of(r: &RunReport, buf: &TraceBuf) -> Counts {
        let dir = r.directory.as_ref().map_or(0, |d| {
            d.local_misses + d.remote_clean_misses + d.remote_dirty_misses + d.upgrades
        });
        let counts = [
            r.cycles,
            r.traffic.total_msgs(),
            r.traffic.total_bytes(),
            r.dsm.diffs_created,
            r.dsm.diffs_applied,
            r.dsm.diff_bytes_created,
            r.dsm.twins_created,
            r.dsm.intervals_closed,
            r.dsm.notices_received,
            r.dsm.remote_lock_acquires,
            r.dsm.barriers,
            r.reliability.retransmissions,
            r.recovery.rollbacks,
            r.dsm.gc_collections,
            r.cache.hits + r.cache.misses,
            r.bus.as_ref().map_or(0, |b| b.transactions),
            dir,
        ];
        let mut ledger = [0; NCAT];
        for row in buf.breakdown() {
            for (total, cycles) in ledger.iter_mut().zip(row) {
                *total += cycles;
            }
        }
        Counts { counts, ledger }
    }

    fn add(&mut self, o: &Counts) {
        for (a, b) in self.counts.iter_mut().zip(o.counts) {
            *a += b;
        }
        for (a, b) in self.ledger.iter_mut().zip(o.ledger) {
            *a += b;
        }
    }

    /// The count named `name` in [`COUNTS`].
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTS
            .iter()
            .position(|&n| n == name)
            .expect("a name from the COUNTS catalogue");
        self.counts[i]
    }
}

/// What a completed run reduced to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOk {
    pub fp: Fingerprint,
    pub checksums: Checksums,
    /// Host seconds inside `engine.run` (`RunReport::host_ms`).
    pub engine_s: f64,
    /// Present on a traced run.
    pub counts: Option<Counts>,
}

impl App {
    fn run(&self, spec: &RunSpec, traced: bool) -> RunOk {
        // `Some(0)` arms the cycle ledger without an event ring.
        let trace = traced.then_some(0);
        let engine = EngineKind::Coop;
        let p = &spec.platform;
        let (out, buf) = match self {
            App::Sor(w) => run_workload_traced_with(engine, p, w, trace),
            App::Water(w) => run_workload_traced_with(engine, p, w, trace),
            App::Ilink(w) => run_workload_traced_with(engine, p, w, trace),
            App::Tsp(w) => run_workload_traced_with(engine, p, w, trace),
        };
        let r = &out.report;
        RunOk {
            fp: Fingerprint {
                cycles: r.cycles,
                checksum: checksum_bits(&out.results),
                msgs: r.traffic.total_msgs(),
                bytes: r.traffic.total_bytes(),
            },
            checksums: Checksums {
                sum: out.results.iter().sum(),
                min: out.results.iter().copied().fold(f64::INFINITY, f64::min),
                max: out
                    .results
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max),
            },
            engine_s: r.host_ms / 1e3,
            counts: buf.as_deref().map(|b| Counts::of(r, b)),
        }
    }

    /// Checks a run's checksums against the application's sequential
    /// reference on the same input — the check for inputs `expected.json`
    /// cannot know because `--seed` generated them. Sums agree up to
    /// summation order across band partitionings (the tolerances are those
    /// of `tests/cross_platform.rs`); TSP finds the exact optimum on every
    /// processor.
    pub fn oracle(&self, got: &Checksums) -> Result<(), String> {
        let close = |reference: f64, tol: f64| {
            let slack = tol * reference.abs().max(1.0);
            if (got.sum - reference).abs() <= slack {
                Ok(())
            } else {
                Err(format!(
                    "checksum sum {} differs from the sequential reference {reference}",
                    got.sum
                ))
            }
        };
        match self {
            App::Sor(w) => close(sor::reference(w), 1e-9),
            App::Ilink(w) => close(ilink::reference(w), 1e-9),
            App::Water(w) => close(water::reference(w), 1e-6),
            App::Tsp(w) => {
                let optimal = f64::from(w.optimal());
                if got.min == optimal && got.max == optimal {
                    Ok(())
                } else {
                    Err(format!(
                        "tour lengths {}..{} differ from the optimum {optimal}",
                        got.min, got.max
                    ))
                }
            }
        }
    }
}

/// Runs `spec` once; a panic inside the program becomes `Err(message)`.
/// Returns the call's wall seconds alongside.
fn execute(spec: &RunSpec, traced: bool) -> (f64, Result<RunOk, String>) {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| spec.app.run(spec, traced)));
    let wall_s = started.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    });
    (wall_s, outcome)
}

/// Host seconds of one run: the whole call (`host_s`), the part of it
/// inside `engine.run`, and the rest — construction, init, report, audit,
/// drop. A run that panicked has no engine time; its timings are never
/// published, because a workload with a failure reports none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTime {
    pub host_s: f64,
    pub engine_s: f64,
    pub setup_s: f64,
}

/// Timings and counts of one pass over the list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pass {
    /// Wall seconds from before the first run to after the last.
    pub wall_s: f64,
    /// Per run, in list order.
    pub runs: Vec<RunTime>,
    /// Summed layer counts (traced passes only).
    pub counts: Option<Counts>,
    /// The `pass:<name>` span (recorded passes only).
    pub span: Option<SpanId>,
}

/// The quiet-host estimate of one pass from several noisy ones: each run's
/// least time over the passes, summed over the list.
///
/// The host's noise comes in bursts (README, "Noise"): a 5 s pass rarely
/// escapes one, but each of its runs usually does in some pass. Runs
/// execute back to back (`run.span_gap_frac` ~ 1e-6), so the sum of their
/// times is the pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Quietest {
    /// Per run, in list order: the least of each of the three times, each
    /// taken on its own (so `host_s` may exceed `engine_s + setup_s`).
    pub runs: Vec<RunTime>,
}

impl Quietest {
    /// # Panics
    ///
    /// Panics on an empty set of passes.
    pub fn of(passes: &[Pass]) -> Quietest {
        let n = passes.first().expect("at least one pass").runs.len();
        let least = |i: usize, f: fn(&RunTime) -> f64| -> f64 {
            passes
                .iter()
                .map(|p| f(&p.runs[i]))
                .fold(f64::INFINITY, f64::min)
        };
        Quietest {
            runs: (0..n)
                .map(|i| RunTime {
                    host_s: least(i, |r| r.host_s),
                    engine_s: least(i, |r| r.engine_s),
                    setup_s: least(i, |r| r.setup_s),
                })
                .collect(),
        }
    }

    /// Σ over runs of the least call time.
    pub fn host_s(&self) -> f64 {
        self.runs.iter().map(|r| r.host_s).sum()
    }

    /// Σ over runs of the least time inside `engine.run`.
    pub fn engine_s(&self) -> f64 {
        self.runs.iter().map(|r| r.engine_s).sum()
    }

    /// Σ over runs of the least time outside `engine.run`.
    pub fn setup_s(&self) -> f64 {
        self.runs.iter().map(|r| r.setup_s).sum()
    }
}

/// Executes passes over one run list and checks every run's outputs.
pub struct Runner<'a> {
    list: &'a [RunSpec],
    /// Per run: the fingerprint every pass must reproduce — the
    /// `expected.json` entry, or else what the first pass produced.
    reference: Vec<Option<Fingerprint>>,
    /// Per run: whether `reference` came from `expected.json`.
    pinned: Vec<bool>,
    /// Per run: the first pass's checksums, for the oracle.
    first: Vec<Option<Checksums>>,
    /// Per run: passes in which it panicked or mismatched.
    bad: Vec<usize>,
    passes: usize,
}

impl<'a> Runner<'a> {
    /// `expected(key)` is the committed fingerprint of a run, if any.
    pub fn new(list: &'a [RunSpec], expected: impl Fn(&str) -> Option<Fingerprint>) -> Self {
        let reference: Vec<Option<Fingerprint>> = list.iter().map(|r| expected(&r.key)).collect();
        Runner {
            list,
            pinned: reference.iter().map(Option::is_some).collect(),
            reference,
            first: vec![None; list.len()],
            bad: vec![0; list.len()],
            passes: 0,
        }
    }

    /// One pass. With a recorder, a `pass:<name>` span encloses one
    /// `run:<key>` span per run.
    pub fn pass(&mut self, name: &str, traced: bool, mut rec: Option<&mut Recorder>) -> Pass {
        // Sized before the first run starts: nothing grows during the pass.
        let mut p = Pass {
            runs: Vec::with_capacity(self.list.len()),
            counts: traced.then(Counts::default),
            ..Default::default()
        };
        p.span = rec.as_mut().map(|r| r.enter(format!("pass:{name}")));
        let started = Instant::now();
        for (i, spec) in self.list.iter().enumerate() {
            let span = rec.as_mut().map(|r| r.enter(format!("run:{}", spec.key)));
            let (wall_s, outcome) = execute(spec, traced);
            if let (Some(r), Some(s)) = (rec.as_mut(), span) {
                r.exit(s);
            }
            let engine_s = outcome.as_ref().map_or(0.0, |ok| ok.engine_s);
            p.runs.push(RunTime {
                host_s: wall_s,
                engine_s,
                setup_s: wall_s - engine_s,
            });
            match outcome {
                Ok(ok) => {
                    if let (Some(total), Some(c)) = (p.counts.as_mut(), ok.counts.as_ref()) {
                        total.add(c);
                    }
                    self.first[i].get_or_insert(ok.checksums);
                    let want = *self.reference[i].get_or_insert(ok.fp);
                    if ok.fp != want {
                        eprintln!(
                            "MISMATCH {} (pass {name}): got {:?}, want {want:?}",
                            spec.key, ok.fp
                        );
                        self.bad[i] += 1;
                    }
                }
                Err(msg) => {
                    eprintln!("PANIC {} (pass {name}): {msg}", spec.key);
                    self.bad[i] += 1;
                }
            }
        }
        p.wall_s = started.elapsed().as_secs_f64();
        if let (Some(r), Some(s)) = (rec, p.span) {
            r.exit(s);
        }
        self.passes += 1;
        p
    }

    /// Runs the sequential oracle on every run `expected.json` did not pin
    /// (or on all of them). A run that fails it was wrong in every pass.
    pub fn check_oracle(&mut self, all: bool) {
        for (i, spec) in self.list.iter().enumerate() {
            let Some(got) = self.first[i] else { continue };
            if self.pinned[i] && !all {
                continue;
            }
            if let Err(why) = spec.app.oracle(&got) {
                eprintln!("ORACLE {}: {why}", spec.key);
                self.bad[i] = self.passes;
            }
        }
    }

    /// Runs attempted so far: list length × passes.
    pub fn attempted(&self) -> usize {
        self.list.len() * self.passes
    }

    /// Runs that panicked or produced wrong outputs.
    pub fn failed(&self) -> usize {
        self.bad.iter().sum()
    }

    /// `(key, fingerprint)` of every run that completed at least once.
    pub fn fingerprints(&self) -> impl Iterator<Item = (&str, Fingerprint)> + '_ {
        self.list
            .iter()
            .zip(&self.reference)
            .filter_map(|(spec, fp)| fp.map(|fp| (spec.key.as_str(), fp)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{run_list, Tier, DEFAULT_SEED};

    fn tiny(workload: &str) -> Vec<RunSpec> {
        run_list(workload, Tier::Tiny, DEFAULT_SEED).unwrap()
    }

    #[test]
    fn checksum_bits_sees_order_and_sign() {
        assert_ne!(checksum_bits(&[1.0, 2.0]), checksum_bits(&[2.0, 1.0]));
        assert_ne!(checksum_bits(&[0.0]), checksum_bits(&[-0.0]));
        assert_eq!(checksum_bits(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn quietest_takes_each_runs_least_time_on_its_own() {
        let pass = |times: &[(f64, f64)]| Pass {
            runs: times
                .iter()
                .map(|&(host_s, engine_s)| RunTime {
                    host_s,
                    engine_s,
                    setup_s: host_s - engine_s,
                })
                .collect(),
            ..Default::default()
        };
        // Run 0 was quiet in the second pass, run 1 in the first.
        let passes = [
            pass(&[(3.0, 2.5), (1.0, 0.5)]),
            pass(&[(2.0, 1.9), (4.0, 3.0)]),
        ];
        let q = Quietest::of(&passes);
        assert_eq!(q.host_s(), 2.0 + 1.0);
        assert_eq!(q.engine_s(), 1.9 + 0.5);
        // Least set-up per run: min(0.5, 0.1) + 0.5 — not host − engine.
        assert!((q.setup_s() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn passes_are_bit_identical_and_the_oracle_agrees() {
        let list = tiny("dsm_sync");
        let mut r = Runner::new(&list, |_| None);
        let a = r.pass("a", false, None);
        let b = r.pass("b", true, None);
        r.check_oracle(true);
        assert_eq!((r.attempted(), r.failed()), (2 * list.len(), 0));
        assert!(a.counts.is_none());
        let c = b.counts.expect("traced pass carries counts");
        assert!(c.get("net.msgs") > 0 && c.get("sim.cycles") > 0);
        assert!(c.ledger.iter().sum::<u64>() > 0, "ledger armed");
        let q = Quietest::of(&[a.clone(), b.clone()]);
        assert!(q.setup_s() > 0.0 && q.engine_s() > 0.0);
        assert!(q.host_s() <= a.wall_s.min(b.wall_s));
        assert!(q.host_s() >= q.engine_s() + q.setup_s() - 1e-12);
        assert_eq!(r.fingerprints().count(), list.len());
    }

    #[test]
    fn a_wrong_expectation_is_counted_as_a_failed_run() {
        let list = tiny("hw_models");
        let truth: Vec<(String, Fingerprint)> = {
            let mut r = Runner::new(&list, |_| None);
            r.pass("truth", false, None);
            r.fingerprints().map(|(k, f)| (k.to_string(), f)).collect()
        };
        let victim = list[0].key.clone();
        let mut r = Runner::new(&list, |key| {
            let mut fp = truth.iter().find(|(k, _)| k == key)?.1;
            if key == victim {
                fp.cycles += 1;
            }
            Some(fp)
        });
        r.pass("one", false, None);
        r.pass("two", false, None);
        // Tiny-tier lists repeat keys (sor-small and sor-large both shrink
        // to sor-tiny), so count the victim's occurrences.
        let hits = list.iter().filter(|s| s.key == victim).count();
        assert_eq!(r.failed(), 2 * hits);
        assert_eq!(r.attempted(), 2 * list.len());
    }

    #[test]
    fn hw_models_touch_no_dsm_layer() {
        let list = tiny("hw_models");
        let mut r = Runner::new(&list, |_| None);
        let c = r.pass("t", true, None).counts.unwrap();
        for name in [
            "net.msgs",
            "core.diffs_created",
            "core.notices_received",
            "core.barriers",
        ] {
            assert_eq!(c.get(name), 0, "{name}");
        }
        assert!(c.get("mem.cache_accesses") > 0);
        assert!(c.get("mem.bus_transactions") > 0 && c.get("mem.directory_requests") > 0);
    }

    #[test]
    fn only_dsm_faults_retransmits_rolls_back_and_collects() {
        for (workload, _) in crate::workloads::WORKLOADS {
            let list = tiny(workload);
            let mut r = Runner::new(&list, |_| None);
            let c = r.pass("t", true, None).counts.unwrap();
            assert_eq!(r.failed(), 0, "{workload}");
            let faulty = workload == "dsm_faults";
            for name in [
                "core.retransmissions",
                "core.rollbacks",
                "core.gc_collections",
            ] {
                assert_eq!(c.get(name) > 0, faulty, "{workload} {name}");
            }
        }
    }

    #[test]
    fn oracle_rejects_a_wrong_checksum() {
        let list = tiny("dsm_sync");
        let spec = list
            .iter()
            .find(|s| matches!(s.app, App::Tsp(_)))
            .expect("dsm_sync has a TSP run");
        let ok = spec.app.run(spec, false);
        assert_eq!(spec.app.oracle(&ok.checksums), Ok(()));
        let mut wrong = ok.checksums;
        wrong.max += 1.0;
        assert!(spec.app.oracle(&wrong).is_err());
    }
}
