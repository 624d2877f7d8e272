#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash _servebench/run.sh --workload warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# everything else the go command writes stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/_servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
