#!/usr/bin/env sh
# Did re-recorded cold-path goldens move only work counters?
# Usage: scripts/golden_diff.sh <git ref> [allowed-prefix regex] [allowed fleet fields]
#
# Diffs tests/tests/cold_path_golden.txt at <ref> against the work tree with
# the lines that count work (not winners, EXPLAIN text, costs or origin
# traces) filtered out of both sides, and tests/tests/cold_path_fleet.txt
# line by line with the fields that count work cut out; `arcs` and `dag` (how
# the handed-out plans share nodes) are cut only from a line whose retained
# root alternatives (`roots`, `kept`) changed too. Prints what is left and
# exits non-zero if anything is: a changed winner, origin or sharing, not a
# work reduction.
set -eu
cd "$(dirname "$0")/.."
golden=tests/tests/cold_path_golden.txt
fleet=tests/tests/cold_path_fleet.txt
ref=${1:?usage: scripts/golden_diff.sh <git ref> [allowed-prefix regex] [allowed fleet fields]}
allowed=${2:-'^(root_alternatives|OptStats|TableStats|table_plans)'}
fields=${3:-'roots|stats|table|kept'}

old=$(mktemp) new=$(mktemp)
trap 'rm -f "$old" "$new"' EXIT
status=0
git show "$ref:$golden" | grep -Ev "$allowed" > "$old"
grep -Ev "$allowed" "$golden" > "$new"
if diff "$old" "$new"; then
    echo "golden_diff: only lines matching $allowed differ from $ref."
else
    echo "golden_diff: $golden differs from $ref outside $allowed." >&2
    status=1
fi
if git cat-file -e "$ref:$fleet" 2>/dev/null; then
    git show "$ref:$fleet" > "$old"
    if awk -v fields="$fields" '
        function cut(line, re) { gsub(" (" re ")=[^ ]*", "", line); return line }
        function field(line, name) {
            return match(line, " " name "=[^ ]*") ? substr(line, RSTART, RLENGTH) : ""
        }
        FILENAME == ARGV[1] { old[FNR] = $0; n = FNR; next }
        {
            o = old[FNR]; re = fields
            if (field(o, "roots") != field($0, "roots") || field(o, "kept") != field($0, "kept"))
                re = re "|arcs|dag"
            if (cut(o, re) != cut($0, re)) { print "< " o; print "> " $0; bad = 1 }
        }
        END { if (FNR != n) { print "line counts differ"; bad = 1 }; exit bad }
    ' "$old" "$fleet"; then
        echo "golden_diff: only fields $fields (and arcs, dag where roots moved) differ in $fleet."
    else
        echo "golden_diff: $fleet differs from $ref outside fields $fields." >&2
        status=1
    fi
fi
exit $status
