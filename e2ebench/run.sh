#!/usr/bin/env bash
# Builds the end-to-end benchmark and spidersim from the checkout this file
# sits in, then runs one workload and prints its JSON result as the last
# line of standard output:
#
#   bash e2ebench/run.sh --workload churn200 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout;
# HOME points there too, so the toolchain's own caches and config follow.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
(cd "$root" && go build -o "$out/spidersim" ./cmd/spidersim) >&2

rev=none
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/e2ebench" -spidersim "$out/spidersim" -rev "$rev" "$@"
