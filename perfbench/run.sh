#!/usr/bin/env bash
# Builds cmd/tgserve and the benchmark driver from the checkout in the
# current directory, then runs the driver with this script's arguments:
#
#   bash perfbench/run.sh --workload share-churn --seed 1 --seconds 40 --trace 0
#
# Binaries, the Go build cache, generated worlds, journals and traces all
# stay under .bench_build in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/tgserve" ./cmd/tgserve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/tgserve" -dir "$out" "$@"
