#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash ftbench/run.sh --workload conn-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build and module
# caches, the go command's own config files and the benchmark's scratch
# files all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/config" "$out/tmp"
(
	cd "$here"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off go build -o "$out/ftbench" .
)
exec "$out/ftbench" -dir "$out" "$@"
