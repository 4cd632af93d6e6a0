#!/usr/bin/env bash
# Regenerates golden.tsv: the `anr scenario --method a` result for every
# (scenario, robots, separation) the march workloads can draw. Build
# `anr` first (run.sh does), then, from anywhere:
#
#   bash crates/bench/src/bin/anr_benchmark/golden.sh > crates/bench/src/bin/anr_benchmark/golden.tsv
#
# The separations are `SEPARATIONS` in src/seeded.rs; the swarm sizes
# are those of `MarchSpec::paper` and `MarchSpec::large` in src/march.rs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
anr="${CARGO_TARGET_DIR:-$root/target}/release/anr"

row() {
    local line
    line="$("$anr" scenario --id "$1" --robots "$2" --method a --separation "$3" |
        sed -n 's|.* L = \([0-9.]*\) *D = *\([0-9]*\) m *C = 1 *preserved \([0-9]*\)/\([0-9]*\) links, \([0-9]*\) new$|\1\t\2\t\3\t\4\t\5|p')"
    if [ -z "$line" ]; then
        echo "golden.sh: scenario $1, $2 robots, separation $3: no C = 1 result" >&2
        exit 1
    fi
    printf '%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$line"
}

echo "# scenario	robots	separation	L	D	preserved	initial	new"
for s in 28 30 32; do
    for id in 1 2 3 4 5 6 7; do
        row "$id" 1296 "$s"
    done
    row 1 3025 "$s"
done
