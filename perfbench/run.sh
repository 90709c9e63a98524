#!/usr/bin/env bash
# Builds the benchmark and proofd from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload zoo-cold --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh steady -runs 10
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries and proofd's history
# stores. The build is offline and uses the installed Go toolchain.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/proofd" ./cmd/proofd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" "$@" --proofd "$out/bin/proofd" --tmp "$out/tmp"
