#!/usr/bin/env bash
# The benchmark's entry point for BENCHMARK.json: builds ./bench once into
# bench/out/ with a Go build cache that also lives there (so nothing is
# written outside the checkout, and bench/.gitignore already covers it),
# then runs it with the arguments given. `go run ./bench` does the same
# for a person at a terminal.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p bench/out
export GOCACHE="$PWD/bench/out/go-cache"
go build -buildvcs=false -o bench/out/bench ./bench
exec bench/out/bench "$@"
