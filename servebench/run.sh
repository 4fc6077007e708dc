#!/usr/bin/env bash
# Builds dispersald and servebench from this checkout, then runs servebench
# with the arguments given, e.g.
#
#   bash servebench/run.sh --workload trajectory-drift --seed 1 --seconds 40 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and the span files go under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/config"

# Keep the toolchain's caches, settings and telemetry inside the checkout,
# and never let it reach for a network module proxy or another toolchain.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/dispersald" ./cmd/dispersald >&2
(cd servebench && go build -o "$out/bin/servebench" .) >&2
exec "$out/bin/servebench" -server "$out/bin/dispersald" \
	-config servebench/config.json -out "$out" "$@"
