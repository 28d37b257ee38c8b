#!/usr/bin/env bash
# Builds the perfbench command and the dacd daemon from the source tree
# it is run in, then runs perfbench with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload dacd-mixed --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and Go's own configuration (and
# telemetry) directory live in .bench_build, so nothing is written
# outside the tree.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/dacd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dacd and perfbench/go.mod must be here)" >&2
	exit 2
fi
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
export GOPATH="$root/.bench_build/gopath" XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p .bench_build/bin
go build -o .bench_build/bin/dacd ./cmd/dacd
(cd perfbench && go build -o "$root/.bench_build/bin/perfbench" .)
exec .bench_build/bin/perfbench "$@"
