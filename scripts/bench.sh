#!/usr/bin/env sh
# The experiment harness end to end, in one of two modes:
#   smoke  every experiment at its small size, then each starqo-obs command
#          on the kind of artifact it reads (every trace fold on span-tree
#          JSONL);
#   gate   every experiment with a committed baseline at full size, gated
#          against baselines/BENCH_<name>.json (work counters enforced,
#          wall clock report-only), plus the full chaos sweep and one heal
#          sweep under each re-optimization fault.
# Every check is an exit status: the experiments assert their own
# invariants. Artifacts land in $STARQO_BENCH_DIR (default target/bench).
# Usage: scripts/bench.sh smoke|gate
set -eu
cd "$(dirname "$0")/.."
mode=${1:-}
export STARQO_BENCH_DIR="${STARQO_BENCH_DIR:-target/bench}"
dir=$STARQO_BENCH_DIR
mkdir -p "$dir"
cargo build -q --release --offline -p starqo-bench -p starqo-obs
bench=target/release/starqo-bench
obs=target/release/starqo-obs

case $mode in
smoke)
    echo "== starqo-bench all --smoke (reports: $dir/smoke.txt) =="
    $bench all --smoke > "$dir/smoke.txt"
    echo "== starqo-obs on the exported artifacts =="
    cargo run -q --release --offline --example trace_plan > /dev/null
    # Every fold reads span-tree JSONL: the detailed trace_plan tree and
    # the workload runner's one tree per query.
    for trees in target/trace_plan.jsonl "$dir/workload_trace.jsonl"; do
        $obs profile "$trees" > /dev/null
        $obs flame "$trees" > /dev/null
        $obs flame "$trees" --folded > /dev/null
        $obs accuracy "$trees" > /dev/null
    done
    $obs diff target/trace_plan.jsonl "$dir/workload_trace.jsonl" > /dev/null
    $obs spans target/trace_plan.jsonl --chrome "$dir/trace_plan_chrome.json" > /dev/null
    $obs timeline target/trace_plan.jsonl > /dev/null
    $obs calibrate "$dir/workload_trace.jsonl" --out "$dir/smoke_profile.json" > /dev/null
    STARQO_COST_PROFILE="$dir/smoke_profile.json" \
        $bench workload_run --smoke --out "$dir/smoke_recal.jsonl" > /dev/null
    $obs live "$dir/telemetry_snapshot.json" --prom > /dev/null
    $obs doctor "$dir/drift_snapshot.json" > /dev/null
    $obs watch "$dir/drift_snapshot.json" --once > /dev/null
    $obs spans "$dir/spans.jsonl" > /dev/null
    $obs timeline "$dir/spans.jsonl" > /dev/null
    echo "bench smoke passed."
    ;;
gate)
    echo "== chaos: the full fault-injection sweep =="
    $bench chaos
    for spec in reopt:overlay:panic reopt:optimize:error reopt:verify:panic \
                reopt:verify:error reopt:swap:panic reopt:optimize:stall20000; do
        echo "== heal under STARQO_FAULTS=$spec =="
        STARQO_FAULTS=$spec $bench heal
    done
    # Last, so each BENCH_<name>.json left in $dir is the gated full run.
    for baseline in baselines/BENCH_*.json; do
        name=$(basename "$baseline" .json)
        name=${name#BENCH_}
        echo "== $name: run, then gate against $baseline =="
        $bench "$name"
        $obs gate "$baseline" "$dir/BENCH_$name.json"
    done
    echo "bench gate passed."
    ;;
*)
    echo "usage: scripts/bench.sh smoke|gate" >&2
    exit 2
    ;;
esac
