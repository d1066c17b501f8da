#!/usr/bin/env sh
# Did a re-recorded cold-path golden move only work counters?
# Usage: scripts/golden_diff.sh <git ref> [allowed-prefix regex]
#
# Diffs tests/tests/cold_path_golden.txt at <ref> against the work tree with
# the lines that count work (not winners, EXPLAIN text, costs or origin
# traces) filtered out of both sides, prints what is left and exits non-zero
# if anything is: a changed winner or origin, not a work reduction.
set -eu
cd "$(dirname "$0")/.."
golden=tests/tests/cold_path_golden.txt
ref=${1:?usage: scripts/golden_diff.sh <git ref> [allowed-prefix regex]}
allowed=${2:-'^(root_alternatives|OptStats|TableStats|table_plans)'}

old=$(mktemp) new=$(mktemp)
trap 'rm -f "$old" "$new"' EXIT
git show "$ref:$golden" | grep -Ev "$allowed" > "$old"
grep -Ev "$allowed" "$golden" > "$new"
if diff "$old" "$new"; then
    echo "golden_diff: only lines matching $allowed differ from $ref."
else
    echo "golden_diff: $golden differs from $ref outside $allowed." >&2
    exit 1
fi
