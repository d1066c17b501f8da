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

echo "== non-test lines per crate (report only: scripts/lines.sh) =="
scripts/lines.sh

echo "== one engine at run time: no runtime crate links the serial oracle =="
for crate in starqo-serve starqo-vexec; do
    if cargo tree -p "$crate" -e normal --offline --prefix none | grep -q '^starqo-exec '; then
        echo "$crate links starqo-exec: the serial oracle is a test/bench dependency only." >&2
        exit 1
    fi
done

echo "== one record of a request: the event-sink path stays deleted =="
if grep -rnE 'TraceSink|JsonLinesSink|MemorySink|Tracer::' crates/ src/ examples/ tests/; then
    echo "a request is recorded by its SpanContext alone (docs/OBSERVABILITY.md)." >&2
    exit 1
fi

echo "== heal keeps no state of its own: the private schedule stays deleted =="
if grep -rnE 'struct Healer|regression_margin|within_margin|try_lead' crates/serve/src; then
    echo "heal state lives in the feedback plane's slots (docs/SERVING.md, \"Heal state\")." >&2
    exit 1
fi

echo "== one per-fingerprint table: the separate top-K tracker stays deleted =="
if grep -rnE 'TopKTracker|TOPK_SHARDS|record_request|record_feedback' crates/*/src; then
    echo "hot-query totals live in the feedback plane's slots; a served request makes one Telemetry::record call (docs/TELEMETRY.md)." >&2
    exit 1
fi

echo "== one differential checker: the per-file equivalence loops stay deleted =="
if grep -rnE 'fn (rand_config|same_outcome|check_all|assert_equivalent)\b' tests/tests; then
    echo "plan equivalence is stated once, in tests/src/diff.rs (diff::check, diff::check_plan)." >&2
    exit 1
fi

echo "== one equivalence harness: E23's serial-vs-vexec bench stays deleted =="
if grep -rnE 'e23_vexec|CaseSpec' crates/bench/src || [ -e baselines/BENCH_exec.json ]; then
    echo "serial = vexec at 1/2/8 workers is checked by diff::check_plan over generated cases that cross batches and morsels (tests/src/diff.rs, EXPERIMENTS.md E37)." >&2
    exit 1
fi

echo "== one striped plane: the per-tier stripe copies stay deleted =="
if grep -rnE 'AtomicHistogram|PhasePlane|CounterPlane|HistStripe|PhaseStripe' crates/*/src; then
    echo "counters, phases and latency histograms share one per-thread stripe (crates/trace/src/telemetry/counters.rs, docs/TELEMETRY.md)." >&2
    exit 1
fi

echo "== one per-thread cache of run memory, and no allocator knob =="
if grep -rn 'SPAN_POOL' crates/*/src \
    || grep -rl 'thread_local!' crates/*/src | grep -vE '^crates/trace/src/(runmem|telemetry/counters)\.rs$' \
    || grep -rnE 'mallopt|GLIBC_TUNABLES|#\[global_allocator\]' crates/*/src; then
    echo "run memory is parked in starqo-trace's runmem alone (docs/EXECUTOR.md); counters.rs's THREAD_STRIPE is an index." >&2
    exit 1
fi

echo "== canonicalize renders once: no format! or to_string in fingerprint.rs =="
if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /format!|\.to_string\(\)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/query/src/fingerprint.rs; then
    echo "canonicalize renders each key and its text once, into one buffer (crates/query/src/fingerprint.rs)." >&2
    exit 1
fi

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
