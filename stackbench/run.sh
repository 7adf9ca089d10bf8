#!/usr/bin/env bash
# Builds qservd from this checkout and the stackbench load generator, then runs one
# measurement. Call it from the repository root; arguments pass through:
#
#   bash stackbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and Go's own state stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/qservd ]]; then
	echo "stackbench: run from the repository root (no go.mod or cmd/qservd here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/qservd" ./cmd/qservd
(cd stackbench && go build -o "$out/stackbench" .)
exec "$out/stackbench" --qservd "$out/qservd" "$@"
