#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of the
# repository:
#
#   bash perfbench/run.sh --workload net-update --seed 1 --seconds 10 --trace 0
#
# Every file it writes stays under .perfbench/ at the root: the Go build
# cache, the binary, and the traced run's span file and per-layer table.
set -euo pipefail
root=$(pwd)
state="$root/.perfbench"
mkdir -p "$state/tmp" "$state/config"
export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOTMPDIR="$state/tmp" TMPDIR="$state/tmp"
export XDG_CONFIG_HOME="$state/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$state/perfbench" .)
exec "$state/perfbench" --out "$state/out" "$@"
