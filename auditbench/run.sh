#!/usr/bin/env bash
# Builds the auditbench program from the checkout's sources and runs it.
# Run from the repository root: bash auditbench/run.sh --workload NAME ...
#
# Every file the build or the run writes stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, temporary files and
# the data directories of the in-process servers.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/auditbench/go.mod" ]]; then
	echo "auditbench: run from the repository root (no go.mod or auditbench/go.mod here)" >&2
	exit 2
fi
build="$root/.bench_build"

# Stamp results with the commit when the checkout is a git work tree of its
# own; elsewhere the stamp reads "unknown".
if [[ -z "${AUDITBENCH_COMMIT:-}" && "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
	AUDITBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export AUDITBENCH_COMMIT
fi

mkdir -p "$build/gocache" "$build/gomod" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOENV=off
export AUDITBENCH_ROOT="$root"

(cd "$root/auditbench" && go build -o "$build/auditbench" .) >&2
exec "$build/auditbench" "$@"
