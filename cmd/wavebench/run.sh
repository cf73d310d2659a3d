#!/bin/sh
# run.sh builds wavebench from source and runs it against the repository
# it is called from. Run it from the repository root:
#
#	bash cmd/wavebench/run.sh -workload tune-hot -seed 1 -seconds 10 -trace 0
#
# The build products, the Go build cache and every scratch file stay
# under .bench_build in the root, so a run writes nothing outside the
# checkout. Arguments are passed through to wavebench.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/cmd/wavebench" build -o "$out/wavebench" .
exec "$out/wavebench" -root "$root" "$@"
