#!/usr/bin/env bash
# Builds agingd, agingmon and the perfbench harness from the tree, then
# runs the harness with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-binary --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh repeat -n 10 -workloads fleet-binary -out a.json
#   bash perfbench/run.sh compare a.json b.json
#
# Every build product, Go cache and generated input lives under
# .bench_build/ in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/agingd || ! -d cmd/agingmon || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an agingmf checkout (cmd/agingd, cmd/agingmon and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/agingd" ./cmd/agingd
go build -o "$out/bin/agingmon" ./cmd/agingmon
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -cache "$out/inputs" -work "$out/work" "$@"
