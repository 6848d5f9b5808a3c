#!/usr/bin/env bash
# Builds relbench from this checkout and runs it with the given flags.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
#
# Go's build cache, the binaries, the daemon under test and span files
# all go to .bench_build/ at the root, so a run reads and writes nothing
# outside the checkout.
set -euo pipefail

root=$PWD
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/bin/relbench" ./cmd/relbench)
exec "$out/bin/relbench" -workdir "$out/relbench" "$@"
