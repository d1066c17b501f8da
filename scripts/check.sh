#!/usr/bin/env sh
# Offline CI gate: formatting, lints, the full test suite, and the smokes.
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== one engine at run time: no runtime crate links the serial oracle =="
for crate in starqo-serve starqo-vexec; do
    if cargo tree -p "$crate" -e normal --offline --prefix none | grep -q '^starqo-exec '; then
        echo "$crate links starqo-exec: the serial oracle is a test/bench dependency only." >&2
        exit 1
    fi
done

# A re-recorded golden may move work counters, never a winner, its EXPLAIN
# text, its cost or an origin trace.
if ! git diff --quiet HEAD -- tests/tests/cold_path_golden.txt tests/tests/cold_path_fleet.txt; then
    echo "== cold-path goldens re-recorded: only counters may differ from HEAD =="
    scripts/golden_diff.sh HEAD
fi

echo "== experiments + starqo-obs (scripts/bench.sh smoke) =="
scripts/bench.sh smoke

echo "== perf ledger smoke (its tests, then all five workloads at 1/50 length) =="
# Read-only use of perf/ (its own workspace and lock file): a PR that breaks
# one of the public signatures listed in perf/README.md fails here rather
# than when the ledger is next run. `bench --smoke` exits non-zero on a
# missing or non-finite metric or any failed request. Building perf/ (here
# and in the profiler smoke) rewrites its lock file when the workspace's
# crate versions have moved; a lock that was clean is restored on exit.
if git diff --quiet HEAD -- perf/Cargo.lock 2>/dev/null; then
    trap 'git checkout -- perf/Cargo.lock' EXIT
fi
cargo test -q --offline --manifest-path perf/Cargo.toml
cargo run -q --release --offline --manifest-path perf/Cargo.toml -- bench --smoke \
    > target/bench/perf_smoke.txt
echo "perf ledger smoke passed."

echo "== profiler smoke (one sampled 1-s cold_adhoc repetition) =="
if command -v cc > /dev/null && command -v addr2line > /dev/null && command -v python3 > /dev/null; then
    scripts/profile.sh cold_adhoc 1 > target/bench/profile_smoke.txt
    grep -q "starqo_core::engine" target/bench/profile_smoke.txt
    echo "profiler smoke passed."
else
    echo "profiler smoke skipped: scripts/profile.sh needs cc, addr2line and python3."
fi

echo "All checks passed."
