#!/bin/sh
# CI gate: tier-1 verification (every crate's tests) plus the quick smoke
# tier of the experiment suite (tiny inputs, 1-4 processors; covers every default experiment's
# sections, the scheduler, and the JSON emitters).
set -eu
cd "$(dirname "$0")/.."

echo "== fmt: the workspace and its path dependencies are rustfmt-clean =="
cargo fmt --all --check

echo "== deps: every manifest dependency is named by its crate's sources =="
# For each `[dependencies]` and `[dev-dependencies]` entry of the root,
# `crates/*` and `vendor/*` manifests, the crate's `.rs` files must mention
# the dependency's identifier (`-` read as `_`); an edge nothing uses is
# named and fails the stage. `benchmark/` is its own workspace.
unused=""
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    if [ "$dir" = . ]; then src="src tests examples"; else src="$dir"; fi
    for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
                      on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        grep -rqw --include='*.rs' "$(echo "$dep" | tr - _)" $src \
            || unused="$unused $manifest:$dep"
    done
done
for edge in $unused; do echo "unused dependency: ${edge%%:*} -> ${edge#*:}"; done
[ -z "$unused" ] || exit 1

echo "== clippy: the workspace's lints, warnings are errors =="
# rustc's -D warnings below does not run clippy's lints, so without this
# stage they accumulate unseen. Every target: tests, examples, vendor/.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: build + tests (whole workspace, warnings are errors) =="
export RUSTFLAGS="-D warnings"
cargo build --release --workspace
cargo test -q --workspace
# Rustdoc too: a stale intra-doc link (an item renamed or deleted) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== explore: every message schedule of the large scripted worlds =="
# crates/core/tests/explore.rs drives Cluster's step surface through every
# schedule of small programs; tier-1 runs its small worlds in debug. The
# #[ignore]d ones run here in release, bounded by a host timeout: all 512
# write masks of 3 nodes x 3 barriers, the barrier and lazy lock-counter
# worlds with any queued copy delivered next (not only a link's oldest),
# and the three-node eager counter (about 5 minutes on 2 vCPUs).
timeout 1800 cargo test -q --offline --release -p tmk-core --test explore -- --ignored

echo "== models: the memory models against their references, high case count =="
# crates/mem/tests/model_equiv.rs holds the caches, the bus, the directory
# and the ranged charges to the per-line reference models at 96 cases in
# tier-1. The #[ignore]d variants run here in release: 2 048 cases each, up
# to 64 processors and up to 256 sets (a few seconds on 2 vCPUs).
timeout 600 cargo test -q --offline --release -p tmk-mem --test model_equiv -- --ignored

echo "== benchmark: the benchmark package's own checks =="
# Nothing else tests `benchmark/` (its own workspace, invisible to the root
# build), so it could rot against the crate APIs it calls.
(cd benchmark && cargo test -q --offline)
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke \
    > target/benchmark-smoke.txt

echo "== smoke: quick-tier suite (bounded by a host timeout) =="
# Every default experiment's renderer runs here and exits nonzero on any
# violated check: chaos (outputs invariant under loss), recovery (crashed
# runs reproduce the crash-free checksums, permanent crashes roll back,
# transient outages are masked by retransmission alone), service (every
# tenant byte-identical to its fault-free solo baseline, overload sheds
# loudly) and scaling (GC-on stays result-identical and below the GC-free
# high-water marks). The watchdog aborts a hung simulation from inside, but
# a regression in the watchdog itself would hang CI; the host-side timeout
# is the backstop.
mkdir -p target/smoke
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --quick --jobs "${JOBS:-$(nproc 2>/dev/null || echo 1)}" \
    --json --out target/smoke --bench-json target/smoke/BENCH_results.json \
    > target/smoke/suite.txt
# The greps pin that the quick tier actually exercised a rollback in the
# simulator and a *real* one on the runtime, and that baseline offered load
# was never shed.
grep -q "rollbacks=1" target/smoke/recovery.txt \
    || { echo "recovery smoke saw no rollback"; exit 1; }
grep -q "rollbacks=1" target/smoke/service.txt \
    || { echo "service smoke saw no live-cluster rollback"; exit 1; }
grep -q "shed=0" target/smoke/service.txt \
    || { echo "service smoke lost the zero-shed baseline"; exit 1; }

echo "== runtime-loop: the real-thread runtime's tests, 50 times on a busy host =="
# The runtime's ticker, locks and crash detection run on host time, so a
# race can pass one run and fail the next. Its and the service's tests, and
# the paper's five applications on threads (`apps_on_threads`, built
# --release), run 50 times while quick-tier suites keep the host busy; the
# first failing pass fails the stage.
cargo test -q --offline --release --test apps_on_threads --no-run
rm -f target/runtime-loop.stop
( while [ ! -e target/runtime-loop.stop ]; do
    ./target/release/suite --quick --jobs 4 > /dev/null 2>&1
  done ) &
load=$!
pass=0
while [ "$pass" -lt 50 ] \
    && cargo test -q --offline -p tmk-core --lib -- runtime:: service:: \
        > target/runtime-loop.txt 2>&1 \
    && cargo test -q --offline --release --test apps_on_threads \
        >> target/runtime-loop.txt 2>&1; do
    pass=$((pass + 1))
done
touch target/runtime-loop.stop
wait "$load" || { echo "the background quick tier failed"; exit 1; }
[ "$pass" -eq 50 ] \
    || { cat target/runtime-loop.txt; echo "runtime tests failed on pass $((pass + 1)) of 50"; exit 1; }

echo "== debug: the quick tier with the engine's turn tree checked against the scan =="
# A debug build's event loop asserts at every pick that the turn tree chose
# the processor the linear scan over processor states would have; the quick
# tier must pass those checks and print exactly what the release build did.
cargo build -p tmk-bench --bin suite
rm -rf target/smoke/debug
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/debug/suite --quick --jobs "${JOBS:-$(nproc 2>/dev/null || echo 1)}" \
    --json --out target/smoke/debug \
    --bench-json target/smoke/debug/BENCH_results.json \
    > target/smoke/debug.txt
diff target/smoke/suite.txt target/smoke/debug.txt \
    || { echo "debug quick tier diverges from the release build"; exit 1; }

echo "== trace: breakdown decomposition + trace determinism =="
# Two traced quick-tier runs must record byte-identical Chrome traces; the
# suite validates each document against its JSON parser before writing.
rm -rf target/smoke/trace-a target/smoke/trace-b
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment breakdown --quick \
    --trace target/smoke/trace-a \
    --json --out target/smoke --bench-json target/smoke/breakdown-bench.json \
    > target/smoke/breakdown.txt
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment breakdown --quick \
    --trace target/smoke/trace-b > /dev/null
for f in target/smoke/trace-a/*.trace.json; do
    [ -s "$f" ] || { echo "empty trace: $f"; exit 1; }
    ./target/release/suite trace-diff "$f" \
        "target/smoke/trace-b/$(basename "$f")" | grep -q "no divergence"
done
# The real-thread runtime writes the same recovery event kinds on a host
# microsecond clock: the traced quick service sweep, which crashes a node,
# must record a rollback and a checkpoint. Host-timed, so never diffed.
rm -rf target/smoke/trace-service
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment service --quick \
    --trace target/smoke/trace-service > /dev/null
for kind in rollback checkpoint_take; do
    grep -q "\"$kind\"" target/smoke/trace-service/*.trace.json \
        || { echo "no $kind event in the service traces"; exit 1; }
done

echo "== prof: the LD_PRELOAD sampler and its symbolizer =="
# `scripts/prof/` is the line-level profiler (DESIGN §2 "Method"). The
# sampler must build warning-free, record samples of one experiment, and the
# symbolizer must turn them into a profile: a compiler warning, a Python
# error or an empty profile fails. Full-size `table1` is about 3 s of CPU;
# its quick tier is a few milliseconds, below the sampling period.
rm -rf target/prof
mkdir -p target/prof
cc -O2 -Wall -Werror -shared -fPIC -o target/prof/sampler.so scripts/prof/sampler.c
(cd target/prof && LD_PRELOAD="$PWD/sampler.so" ../release/suite --experiment table1 --jobs 1 > table1.txt)
python3 scripts/prof/symbolize.py target/prof/prof.*.txt --top 10 --callers > target/prof/profile.txt
samples="$(sed -n '1s/ samples$//p' target/prof/profile.txt)"
[ "${samples:-0}" -gt 0 ] || { echo "the sampler recorded no samples"; exit 1; }

echo "== coro-threads: every suspension point on a second context switch =="
# `vendor/coro` has two context-switch implementations: x86-64 assembly (the
# default) and, under `--cfg tmk_coro_threads`, one parked OS thread per
# coroutine with a mutex/condvar handoff. Built on the second, the engine's
# every suspension point (turn waits, blocked waits, forced unwinds) runs on
# an independent implementation: the workspace tests must pass, and the quick
# tier must match the default build in text, simulated JSON and traces.
threads_flags="-D warnings --cfg tmk_coro_threads"
RUSTFLAGS="$threads_flags" CARGO_TARGET_DIR=target/coro-threads cargo test -q --workspace
RUSTFLAGS="$threads_flags" CARGO_TARGET_DIR=target/coro-threads \
    cargo build --release -p tmk-bench --bin suite
threads=target/coro-threads/release/suite
rm -rf target/smoke/threads target/smoke/trace-threads
timeout "${CHAOS_TIMEOUT:-600}" \
    "$threads" --quick --jobs "${JOBS:-$(nproc 2>/dev/null || echo 1)}" \
    --json --out target/smoke/threads \
    --bench-json target/smoke/threads/BENCH_results.json \
    > target/smoke/threads.txt
diff target/smoke/suite.txt target/smoke/threads.txt
# Strip the deliberately host-dependent fields before comparing records.
strip='"host_ms"\|"wall_ms"\|"total_host_ms"'
for f in target/smoke/threads/*.json; do
    base="$(basename "$f")"
    grep -v "$strip" "target/smoke/$base" > target/smoke/asm.stripped
    grep -v "$strip" "$f" > target/smoke/threads.stripped
    diff target/smoke/asm.stripped target/smoke/threads.stripped \
        || { echo "coro-threads build diverges in $base"; exit 1; }
done
timeout "${CHAOS_TIMEOUT:-600}" \
    "$threads" --experiment breakdown --quick \
    --trace target/smoke/trace-threads > /dev/null
for f in target/smoke/trace-a/*.trace.json; do
    ./target/release/suite trace-diff "$f" \
        "target/smoke/trace-threads/$(basename "$f")" | grep -q "no divergence"
done

echo "== records: the whole full tier must reproduce every committed results/ record =="
# Every check above compares two builds of today's code with each other. This
# one compares today's code with the records in the tree: all thirteen
# default experiments at full size on one worker (about a minute of host
# time), so a changed cache, bus, directory, protocol, fault or recovery
# count in any full-size run fails here. `service` is the one record the
# real-thread runtime and its host-time retransmission driver produce. A hang
# is bounded by the host timeout, like the smoke stages.
rm -rf target/records
timeout "${RECORDS_TIMEOUT:-900}" \
    ./target/release/suite --jobs 1 --json --out target/records \
    --bench-json target/records/BENCH_results.json > /dev/null
for committed in results/*.txt; do
    t="$(basename "$committed" .txt)"
    diff "target/records/$t.txt" "results/$t.txt" \
        || { echo "$t.txt differs from results/"; exit 1; }
    grep -v "$strip" "target/records/$t.json" > target/records/new.stripped
    grep -v "$strip" "results/$t.json" > target/records/committed.stripped
    diff target/records/new.stripped target/records/committed.stripped \
        || { echo "$t.json differs from results/"; exit 1; }
done
# The committed suite summary must list exactly today's runs, each with the
# status, checksum, breakdown and report it has now (host times may move).
./target/release/suite bench-diff BENCH_results.json target/records/BENCH_results.json \
    > target/records/bench-diff.txt \
    || { cat target/records/bench-diff.txt; echo "BENCH_results.json differs from the tree"; exit 1; }
grep -qx "only in old: 0, only in new: 0" target/records/bench-diff.txt \
    || { cat target/records/bench-diff.txt; echo "BENCH_results.json lists other runs"; exit 1; }

echo "== ab: the before/after harness, run A/A on HEAD =="
# `scripts/ab.sh` is how a perf change is measured (ROADMAP direction 4).
# One pair of tiny runs per workload, HEAD against itself: the export, the
# offline build, the quiet-host wait, the summary and the traced pair whose
# counts must be identical all run, so the harness cannot rot. One pair
# gets no bound verdict: a single run's host time is mostly host noise.
# Exit 3 is the script refusing a host that stayed busy for 300 s: the
# stage still fails, but says the machine, not the harness, stopped it.
ab=0
bash scripts/ab.sh --pairs 1 --tiny HEAD > target/ab.txt 2>&1 || ab=$?
case "$ab" in
    0) ;;
    3) cat target/ab.txt; echo "ab.sh refused a busy host; rerun on a quiet one"; exit 3 ;;
    *) cat target/ab.txt; echo "A/A run of scripts/ab.sh failed"; exit 1 ;;
esac

echo "== same: the records-unchanged check, run A/A on HEAD =="
# `scripts/same.sh REV` is how a change that should move nothing is
# checked: REV and HEAD exported and built, then every quick op trace,
# text, JSON record and breakdown trace diffed. Run here on HEAD against
# itself (quick tier only), so the export, build, runs, every comparison
# and the benchmark smoke check keep working, and its closing size table
# must read +0 on every row.
bash scripts/same.sh HEAD > target/same.txt 2>&1 \
    || { cat target/same.txt; echo "A/A run of scripts/same.sh failed"; exit 1; }
awk '/non-test Rust lines/ { t = 1; next }
     t && NF == 4 && $4 != "+0" { bad = 1 }
     t && $1 == "total" { total = 1 }
     END { exit !(total && !bad) }' target/same.txt \
    || { cat target/same.txt; echo "scripts/same.sh's A/A size table is not all +0"; exit 1; }

echo "== size: non-test Rust lines per crate, release suite binary =="
sh scripts/loc.sh

echo "ci: all checks passed"
