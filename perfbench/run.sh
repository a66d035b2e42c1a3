#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it from
# the checkout root. Every build artefact, cache and toolchain config file
# stays under .bench_build, so the run reads and writes nothing outside the
# checkout. Usage (from the repository root):
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 12 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
