#!/usr/bin/env bash
# Builds the benchmark against the library in this checkout and runs it.
# Run from anywhere; everything it writes goes under .bench_build/ at the
# repository root (build cache, binary, trace files):
#
#   bash perfbench/run.sh -rate 50 --workload lib-repeat --seed 1 --seconds 25 --trace 0
#
# Flags are those of the Go program (go doc ./perfbench). The offered
# rate of daemon-json is fixed by BENCHMARK.json's command.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Keep every file the go command writes (build cache, telemetry counters,
# temporary files) inside the checkout; no network, no other toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

# Provenance: the commit when this is a git checkout, otherwise a digest
# of the Go sources the binary is built from.
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
else
	rev="src-sha256:$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -git-sha "$rev" "$@"
