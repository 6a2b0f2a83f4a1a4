#!/usr/bin/env bash
# Builds lesmbench from this checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash lesmbench/run.sh --workload fit --seed 1 --seconds 25 --trace 0
#   bash lesmbench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the runs write stays in .bench_build/ at the
# checkout root: the Go build cache, the binary, scratch snapshots and
# traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export LESMBENCH_DIR="$out"

# The benchmark is its own module; it builds against the checkout's lesm
# module through the replace directive in lesmbench/go.mod, so a directory
# without the program fails here, before anything is measured.
(cd "$root/lesmbench" && go build -o "$out/lesmbench" .) >&2
exec "$out/lesmbench" "$@"
