#!/usr/bin/env bash
# Builds the loopback job benchmark from the checkout it sits in and runs
# it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload api-k100-shared --seed 1 --seconds 20 --trace 0
#
# The build cache and the binary live under .bench_build/ in the
# repository root, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
