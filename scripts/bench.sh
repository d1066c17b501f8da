#!/usr/bin/env sh
# The experiment harness end to end, in one of two modes:
#   smoke  every experiment at its small size, then each starqo-obs command
#          on the kind of artifact it reads;
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
    $obs profile target/trace_plan.jsonl > /dev/null
    $obs accuracy "$dir/workload_trace.jsonl" > /dev/null
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
                reopt:probation:error reopt:swap:panic reopt:optimize:stall20000; do
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
