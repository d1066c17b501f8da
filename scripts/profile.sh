#!/usr/bin/env sh
# Where does a workload's CPU time go? Samples one `perf rep` repetition.
# Usage: scripts/profile.sh <workload> [seconds] [seed]
#
# Builds the `perf` ledger with line tables into target/prof/ (the ledger's
# own build is untouched), preloads scripts/prof/sampler.c into one
# repetition (SIGPROF every millisecond of CPU time — the kernel's tick, 4 ms
# on many hosts, is the real resolution — plus the stack of every futex wait)
# and prints the repetition's minor page faults per request, then
# scripts/prof/report.py's tables. Needs cc, python3 and
# addr2line (llvm-addr2line when present, for exact inline frames).
set -eu
cd "$(dirname "$0")/.."
workload=${1:?usage: scripts/profile.sh <workload> [seconds] [seed]}
seconds=${2:-6}
seed=${3:-1}
dir=target/prof
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/sampler.so" scripts/prof/sampler.c -ldl
CARGO_TARGET_DIR=$dir CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build -q --release --offline --manifest-path perf/Cargo.toml
STARQO_PROF_OUT="$dir/$workload.samples" LD_PRELOAD="$PWD/$dir/sampler.so" \
    "$dir/release/perf" rep --workload "$workload" --seed "$seed" --seconds "$seconds" \
    > "$dir/$workload.rep"
python3 scripts/prof/report.py "$dir/release/perf" "$dir/$workload.samples" \
    --rep "$dir/$workload.rep"
