#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash campaignbench/run.sh --workload btree-tx --seed 1 --seconds 40 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, and per-run
# scratch directories.
set -euo pipefail

out="$(pwd)/.bench_build/campaignbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd campaignbench && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
