#!/usr/bin/env bash
# Before/after of the host benchmark in one command: REV (side A) against
# HEAD (side B), on the committed files of each.
#
# usage: scripts/ab.sh [--pairs N] [--seconds N] [--seed N] [--tiny] [--prof] REV [WORKLOAD...]
#
#   REV        the "before" commit; HEAD is the "after" (REV = HEAD is an A/A run)
#   WORKLOAD   any of BENCHMARK.json's workloads (default: all of them)
#   --pairs N  alternating A/B pairs per workload (default 10)
#   --seconds  passed to tmk-perfbench (default 8)
#   --seed N   passed to tmk-perfbench (default 1994)
#   --tiny     passed to tmk-perfbench: seconds-long inputs
#   --prof     add a differential profile per workload (see below)
#
# Each side is exported with `git archive` into a scratch directory under
# ${TMPDIR:-/tmp} and its `benchmark/` package is built offline into its own
# target directory, so the caller's checkout (benchmark/Cargo.lock included)
# is never touched; both are deleted on exit. Before every run the script
# waits up to 300 seconds for the 1-minute load average to fall to the
# benchmark's BUSY_LOADAVG (benchmark/src/aa.rs), and refuses the host if it
# does not. Pairs alternate A B, B A, ... For each end-to-end
# metric it prints every run, the median [q1-q3] of each side, the pairs won
# in each direction and, from 10 pairs on, a verdict against the metric's
# bound in BENCHMARK.json: FAIL (B's median worse by more than the bound),
# gain (B better in at least 9 of 10 pairs and the medians further apart
# than A's IQR), unresolved (A's IQR wider than the bound) or ok. Fewer
# pairs cannot separate a change from the host's noise, so they get none.
# Then one `--trace 1` pair per workload: every count and every `ledger.*`
# metric must be identical on both sides.
#
# With --prof each side is built a second time with frame pointers, into
# its own target directory, and one more `--trace 0` run per side and
# workload runs under scripts/prof/sampler.c (LD_PRELOAD). The two
# symbolize.py self-time tables are joined by function and printed as A %,
# B % and the change, largest first. The profile never counts towards the
# verdict or the exit status.
#
# Exit status: 0 when every run is correct, no verdict is FAIL and every
# traced count agrees; 1 otherwise; 2 on bad usage; 3 on a busy host.
set -euo pipefail

usage() { sed -n '2,/^set /s/^# \{0,1\}//p' "$0" >&2; exit 2; }

pairs=10 seconds=8 seed=1994 tiny=() prof=0
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?}"; shift 2 ;;
        --seconds) seconds="${2:?}"; shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        --tiny) tiny=(--tiny); shift ;;
        --prof) prof=1; shift ;;
        -h|--help) usage ;;
        -*) echo "ab.sh: unknown option $1" >&2; usage ;;
        *) break ;;
    esac
done
[ $# -ge 1 ] || usage
cd "$(git rev-parse --show-toplevel)"
rev_a="$(git rev-parse --verify --quiet "$1^{commit}")" \
    || { echo "ab.sh: $1 is not a commit" >&2; exit 2; }
rev_b="$(git rev-parse --verify HEAD)"
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c \
        'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
busy="$(sed -n 's/^const BUSY_LOADAVG: f64 = \([0-9.]*\);$/\1/p' benchmark/src/aa.rs)"
[ -n "$busy" ] || { echo "ab.sh: no BUSY_LOADAVG in benchmark/src/aa.rs" >&2; exit 2; }
spec="$PWD/BENCHMARK.json" prof_dir="$PWD/scripts/prof"

work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# Exports `rev` into $work/<side> and builds its tmk-perfbench there (and,
# with --prof, a frame-pointer build of it in $work/<side>-prof-target).
build() {
    local side="$1" rev="$2"
    mkdir -p "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "ab.sh: building $side = ${rev:0:12}" >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
    if ((prof)); then
        RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$work/$side-prof-target" \
            cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
    fi
}
build a "$rev_a"
if [ "$rev_a" = "$rev_b" ]; then
    ln -s a "$work/b" && ln -s a-target "$work/b-target" && ln -s a-prof-target "$work/b-prof-target"
else
    build b "$rev_b"
fi
if ((prof)); then
    cc -O2 -shared -fPIC -o "$work/sampler.so" "$prof_dir/sampler.c"
fi

# Waits for a quiet host, then runs one measurement of side $1 and appends
# its result line to $work/<workload>.<trace>.<side>. The two release builds
# keep the 1-minute load average above BUSY_LOADAVG for about a minute, so
# the wait allows several times that before it gives up.
wait_max=300
measure() {
    local side="$1" workload="$2" trace="$3" waited=0
    while awk -v b="$busy" '{ exit !($1 > b) }' /proc/loadavg; do
        if [ "$waited" -ge "$wait_max" ]; then
            echo "ab.sh: load average $(cut -d' ' -f1 /proc/loadavg) is above $busy" \
                "after ${waited}s: host busy, refusing to measure" >&2
            exit 3
        fi
        sleep 5
        waited=$((waited + 5))
    done
    if ! (cd "$work/$side" && "$work/$side-target/release/tmk-perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        "${tiny[@]}") > "$work/out" 2> "$work/err"; then
        tail -n 5 "$work/err" >&2
        echo '{"correct":false,"attempted":0,"failed":1,"metrics":{}}' > "$work/out"
    fi
    tail -n 1 "$work/out" >> "$work/$workload.$trace.$side"
}

# One `--trace 0` run of side $1's frame-pointer build under the sampler;
# its whole self-time table goes to $work/<workload>.prof.<side>.
profile() {
    local side="$1" workload="$2" raw
    rm -f "$work/$side"/prof.*.txt
    if ! (cd "$work/$side" && LD_PRELOAD="$work/sampler.so" \
        "$work/$side-prof-target/release/tmk-perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 "${tiny[@]}") > /dev/null 2> "$work/err"; then
        tail -n 5 "$work/err" >&2
    fi
    raw="$(ls -S "$work/$side"/prof.*.txt 2> /dev/null | head -n 1)"
    if [ -n "$raw" ]; then
        python3 "$prof_dir/symbolize.py" "$raw" --top 1000000 > "$work/$workload.prof.$side"
        rm -f "$work/$side"/prof.*.txt
    fi
}

status=0
for workload in "${workloads[@]}"; do
    echo "== $workload: A ${rev_a:0:12} vs B ${rev_b:0:12}, $pairs pairs," \
        "--seconds $seconds --seed $seed ${tiny[*]:-} =="
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order="a b"; else order="b a"; fi
        for side in $order; do measure "$side" "$workload" 0; done
    done
    for side in a b; do measure "$side" "$workload" 1; done
    python3 - "$spec" "$work/$workload" <<'EOF' || status=1
import json, statistics, sys

spec, base = json.load(open(sys.argv[1])), sys.argv[2]

def results(trace, side):
    return [json.loads(line) for line in open(f"{base}.{trace}.{side}")]

def value(result, name):
    return result["metrics"].get(name, {}).get("value")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

ok = True
runs = {side: results(0, side) for side in "ab"}
for side, rs in runs.items():
    bad = [r for r in rs if not r["correct"] or r["failed"]]
    if bad:
        ok = False
        print(f"  side {side.upper()}: {len(bad)} of {len(rs)} runs incorrect or failed")
if ok:
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a = [value(r, name) for r in runs["a"]]
        b = [value(r, name) for r in runs["b"]]
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        b_wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        a_wins = sum((x < y) if lower else (x > y) for x, y in zip(a, b))
        gap = (mb - ma) / ma if ma else 0.0
        worse = gap if lower else -gap
        b_all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
        if len(a) < 10:
            verdict = "no verdict below 10 pairs"
        elif worse > m["bound"]:
            verdict, ok = "FAIL", False
        elif b_wins >= 0.9 * len(a) and abs(mb - ma) > qa3 - qa1:
            verdict = "gain"
        elif ma and (qa3 - qa1) / abs(ma) > m["bound"] and not b_all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"  {name} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%})")
        print("    A " + " ".join(f"{x:.5g}" for x in a))
        print("    B " + " ".join(f"{x:.5g}" for x in b))
        print(f"    A {ma:.5g} [{qa1:.5g}-{qa3:.5g}]  B {mb:.5g} [{qb1:.5g}-{qb3:.5g}]"
              f"  gap {gap:+.2%}  B better {b_wins}/{len(a)}, A better {a_wins}/{len(a)}"
              f"  {verdict}")

exact = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
(ta,), (tb,) = results(1, "a"), results(1, "b")
if not (ta["correct"] and tb["correct"]):
    ok = False
    print("  trace pair: a run was incorrect")
else:
    names = sorted(n for n in set(ta["metrics"]) | set(tb["metrics"])
                   if n in exact or n.startswith("ledger."))
    moved = [n for n in names if value(ta, n) != value(tb, n)]
    for n in moved:
        print(f"  trace pair: {n} A {value(ta, n)} B {value(tb, n)}")
    ok &= not moved
    print(f"  trace pair: {len(names) - len(moved)} of {len(names)} counts"
          " and ledger shares identical")
sys.exit(0 if ok else 1)
EOF
    if ((prof)); then
        for side in a b; do profile "$side" "$workload" || true; done
        python3 - "$work/$workload" <<'EOF' || echo "  profile: no differential profile"
import re, sys

def table(side):
    """(samples, {function: self %}) of one side's symbolize.py output."""
    lines = open(f"{sys.argv[1]}.prof.{side}").read().splitlines()
    rows = (re.fullmatch(r"\s*([\d.]+)%\s+[\d.]+%  (.*)", line) for line in lines[2:])
    return int(lines[0].split()[0]), {m[2]: float(m[1]) for m in rows if m}

(na, a), (nb, b) = table("a"), table("b")
print(f"  profile: self time, % of samples (A {na}, B {nb}), largest change first")
print(f"  {'A %':>6} {'B %':>6} {'change':>7}  function")
for name in sorted(a.keys() | b.keys(), key=lambda f: -abs(b.get(f, 0) - a.get(f, 0)))[:20]:
    x, y = a.get(name, 0.0), b.get(name, 0.0)
    print(f"  {x:6.1f} {y:6.1f} {y - x:+7.1f}  {name}")
EOF
    fi
done
exit "$status"
