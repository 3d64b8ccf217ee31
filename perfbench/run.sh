#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given arguments. Every build artifact (binary, Go build cache, temporary
# build files, telemetry) stays under .bench_build/ in the directory the
# script is run from, which must be the root of the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
