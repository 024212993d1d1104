#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# executes it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload small-churn --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and temporary file stays under .bench_build
# in the current directory.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
