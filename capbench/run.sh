#!/usr/bin/env bash
# Builds capbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash capbench/run.sh --workload sweep-predict --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (binary, Go build cache, go command
# scratch and config) stays under $CARGO_TARGET_DIR, default
# .bench_build, so a run touches nothing outside the checkout. The
# build fails, and so does this script, when the capred module is not
# beside capbench/.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/capbench" build -o "$out/capbench" .
exec "$out/capbench" "$@"
