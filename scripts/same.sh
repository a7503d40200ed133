#!/usr/bin/env bash
# "This change moves nothing" in one command: every simulated output of REV
# (side A) against HEAD (side B), on the committed files of each.
#
# usage: scripts/same.sh [--full] REV
#
#   REV     the "before" commit; HEAD is the "after" (REV = HEAD is an A/A run)
#   --full  also run the full tier at --jobs 1 on both sides
#
# Each side is exported with `git archive` into a scratch directory under
# ${TMPDIR:-/tmp} and its `suite` is built offline into its own target
# directory, so the caller's checkout is never touched; both are deleted on
# exit. On each side it runs the quick tier with `--op-trace --json` and the
# quick `breakdown` experiment with `--trace`, then compares:
#   - every engine op trace (`<run>.ops.txt`), byte for byte;
#   - the printed text and every `.txt` record, byte for byte;
#   - every `.json` record without its `host_ms`/`wall_ms`/`total_host_ms`
#     lines (host time is the one thing allowed to move);
#   - every Chrome trace, with `suite trace-diff`.
# `--full` compares the full tier's text and records the same way.
# Then it builds side B's `benchmark/` (its own workspace, so nothing else
# builds it against B's crates) into a target directory of its own and
# runs `tmk-perfbench --smoke` from B's checkout: every workload's output
# must still match the fingerprints in B's `benchmark/expected.json`.
# At the end it prints each side's `scripts/loc.sh` table (non-test Rust
# lines per crate) with the difference b - a per crate and in total.
#
# Exit status: 0 when both sides match everywhere and B's benchmark smoke
# passes; 1 on any difference or failed run; 2 on bad usage.
set -euo pipefail

usage() { sed -n '2,/^set /s/^# \{0,1\}//p' "$0" >&2; exit 2; }

full=0
while [ $# -gt 0 ]; do
    case "$1" in
        --full) full=1; shift ;;
        -h|--help) usage ;;
        -*) echo "same.sh: unknown option $1" >&2; usage ;;
        *) break ;;
    esac
done
[ $# -eq 1 ] || usage
cd "$(git rev-parse --show-toplevel)"
rev_a="$(git rev-parse --verify --quiet "$1^{commit}")" \
    || { echo "same.sh: $1 is not a commit" >&2; exit 2; }
rev_b="$(git rev-parse --verify HEAD)"

work="$(mktemp -d "${TMPDIR:-/tmp}/same.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# Exports `rev` into $work/<side> and builds its `suite` there.
build() {
    local side="$1" rev="$2"
    mkdir -p "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "same.sh: building $side = ${rev:0:12}" >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/Cargo.toml" -p tmk-bench --bin suite
}
build a "$rev_a"
if [ "$rev_a" = "$rev_b" ]; then
    ln -s a "$work/b" && ln -s a-target "$work/b-target"
else
    build b "$rev_b"
fi

# Runs every tier of side $1 into $work/out-<side>, from its own checkout.
run() {
    local side="$1" out="$work/out-$1"
    local suite="$work/$side-target/release/suite"
    mkdir -p "$out"
    (cd "$work/$side" && "$suite" --quick --op-trace "$out/ops" --json \
        --out "$out/quick" --bench-json "$out/quick/BENCH_results.json" > "$out/quick.txt")
    (cd "$work/$side" && "$suite" --experiment breakdown --quick \
        --trace "$out/trace" > /dev/null)
    if ((full)); then
        (cd "$work/$side" && "$suite" --jobs 1 --json --out "$out/full" \
            --bench-json "$out/full/BENCH_results.json" > "$out/full.txt")
    fi
}
echo "same.sh: running a" >&2
run a
echo "same.sh: running b" >&2
run b

a="$work/out-a" b="$work/out-b" differ=0
fail() { echo "same.sh: $*"; differ=1; }
strip='"host_ms"\|"wall_ms"\|"total_host_ms"'

diff -rq "$a/ops" "$b/ops" || fail "op traces differ"
for tier in quick $( ((full)) && echo full ); do
    cmp -s "$a/$tier.txt" "$b/$tier.txt" || fail "$tier tier: printed text differs"
    for f in "$a/$tier"/*; do
        base="$(basename "$f")"
        [ -e "$b/$tier/$base" ] || { fail "$tier tier: $base only in a"; continue; }
        case "$base" in
            *.json) diff -q <(grep -v "$strip" "$f") <(grep -v "$strip" "$b/$tier/$base") \
                > /dev/null || fail "$tier tier: $base differs beyond host time" ;;
            *) cmp -s "$f" "$b/$tier/$base" || fail "$tier tier: $base differs" ;;
        esac
    done
    for f in "$b/$tier"/*; do
        [ -e "$a/$tier/$(basename "$f")" ] || fail "$tier tier: $(basename "$f") only in b"
    done
done
traces=0
for f in "$a/trace"/*.trace.json; do
    base="$(basename "$f")"
    traces=$((traces + 1))
    "$work/b-target/release/suite" trace-diff "$f" "$b/trace/$base" | grep -q "no divergence" \
        || fail "trace $base diverges"
done
[ "$(ls "$b/trace" | wc -l)" -eq "$traces" ] || fail "the sides recorded different traces"

echo "same.sh: building b's benchmark and running its smoke check" >&2
if ! { CARGO_TARGET_DIR="$work/b-bench-target" cargo build --release --offline --quiet         --manifest-path "$work/b/benchmark/Cargo.toml"     && (cd "$work/b" && "$work/b-bench-target/release/tmk-perfbench" --smoke); }     > "$work/smoke.txt" 2>&1; then
    cat "$work/smoke.txt"
    fail "b's benchmark does not build or its --smoke check fails"
fi

ops="$(ls "$a/ops" | wc -l)"
echo "same.sh: non-test Rust lines (scripts/loc.sh): a, b, b - a"
awk '$1 == "suite" { next }
     !($1 in seen) { seen[$1]; if ($1 != "total") order[++n] = $1 }
     NR == FNR { a[$1] = $2; next }
     { b[$1] = $2 }
     END {
         order[++n] = "total"
         for (i = 1; i <= n; i++) {
             k = order[i]
             printf "%-22s %6d %6d %+6d\n", k, a[k], b[k], b[k] - a[k]
         }
     }' <(sh "$work/a/scripts/loc.sh") <(sh "$work/b/scripts/loc.sh")
if ((differ)); then
    echo "same.sh: ${rev_a:0:12} and ${rev_b:0:12} differ"
    exit 1
fi
echo "same.sh: ${rev_a:0:12} and ${rev_b:0:12} match: $ops op traces, $traces traces," \
    "quick$( ((full)) && echo ' and full' ) tier text and records; b's benchmark smoke passes"
