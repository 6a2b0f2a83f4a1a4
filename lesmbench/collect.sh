#!/usr/bin/env bash
# Runs the benchmark in two checkouts, parent and change, once per
# workload x seed each, and appends one JSON line per run to PARENT_OUT and
# CHANGE_OUT, in the form "lesmbench compare" reads:
#
#   bash lesmbench/collect.sh PARENT_DIR CHANGE_DIR PARENT_OUT CHANGE_OUT TRACE SECONDS WORKLOADS SEEDS
#   bash lesmbench/collect.sh ../parent . parent.jsonl change.jsonl 0 25 "fit infer lookup-reload" "1 2 3 4 5 6 7 8 9 10"
#
# For each seed and workload the two sides run back to back, the parent
# first on odd seeds and the change first on even ones, so drift of the
# machine over minutes falls on both sides alike instead of on the change.
# To measure the same code twice, give the same directory for both sides.
set -euo pipefail

if [ $# -ne 8 ]; then
	sed -n '2,7p' "$0" >&2
	exit 2
fi
parent_dir=$(cd "$1" && pwd) change_dir=$(cd "$2" && pwd)
touch "$3" "$4"
parent_out=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
change_out=$(cd "$(dirname "$4")" && pwd)/$(basename "$4")
trace=$5 seconds=$6 workloads=$7 seeds=$8

# run DIR OUT WORKLOAD SEED runs one benchmark in DIR and appends its line.
run() {
	local line
	line=$(cd "$1" && bash lesmbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace "$trace" | tail -n 1) || true
	printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$3" "$4" "$trace" "${line:-null}" >>"$2"
}

for seed in $seeds; do
	for w in $workloads; do
		if [ $((seed % 2)) -eq 1 ]; then
			run "$parent_dir" "$parent_out" "$w" "$seed"
			run "$change_dir" "$change_out" "$w" "$seed"
		else
			run "$change_dir" "$change_out" "$w" "$seed"
			run "$parent_dir" "$parent_out" "$w" "$seed"
		fi
	done
done
