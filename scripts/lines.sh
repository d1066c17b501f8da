#!/usr/bin/env sh
# Non-test source lines per crate: every `.rs` file under `crates/*/src`
# and `examples/`, counted up to (not including) its first `#[cfg(test)]`
# line. `crates/obs/src/testutil.rs` is test support and is left out.
# Then the raw line count, tests included, of the observability and bench
# scaffolding (`crates/{trace,obs,bench}/src`), the number ROADMAP item 6
# tracks, and of the tests (`tests/`, and each crate's `crates/*/tests`), the
# number ROADMAP item 7 tracks. Report only: prints the counts, gates nothing.
# Usage: scripts/lines.sh
set -eu
cd "$(dirname "$0")/.."

# Lines before the first `#[cfg(test)]` of each file named on stdin, summed.
count() {
    sort | while read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}

# Raw lines of every `.rs` file under the directories named, summed.
raw() {
    find "$@" -name '*.rs' -exec cat {} + | wc -l
}

total=0
for dir in crates/*/src; do
    n=$(find "$dir" -name '*.rs' ! -path crates/obs/src/testutil.rs | count)
    printf '%-22s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' "crates/*/src total" "$total"
printf '%-22s %6d\n' "examples" "$(find examples -name '*.rs' | count)"

raw=0
for dir in crates/trace/src crates/obs/src crates/bench/src; do
    n=$(raw "$dir")
    printf '%-22s %6d raw\n' "$dir" "$n"
    raw=$((raw + n))
done
printf '%-22s %6d raw\n' "trace + obs + bench" "$raw"

printf '%-22s %6d raw\n' "tests" "$(raw tests)"
printf '%-22s %6d raw\n' "crates/*/tests" "$(raw crates/*/tests)"
