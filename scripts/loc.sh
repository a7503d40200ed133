#!/bin/sh
# Size as a tracked number (ROADMAP aim 2): non-test Rust lines per crate,
# and the release `suite` binary. A file stops counting at its first
# top-level `#[cfg(test)]`; `tests/` and `benches/` directories are skipped.
set -eu
cd "$(dirname "$0")/.."

count() { # DIR...: non-test lines of every .rs file under the directories
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 \
        | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}

total=0
for dir in crates/* vendor/* benchmark src; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    total=$((total + n))
    printf '%-22s %6d\n' "$dir" "$n"
done
printf '%-22s %6d\n' total "$total"

if [ -f target/release/suite ]; then
    printf '%-22s %6d KB (release, with debuginfo)\n' suite \
        "$(($(wc -c < target/release/suite) / 1024))"
fi
