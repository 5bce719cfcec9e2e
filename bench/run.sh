#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload tmpl_bus16 --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache) stays inside the
# checkout, under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${here}/../.bench_build"
mkdir -p "${build}"
build="$(cd "${build}" && pwd)"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config" # go env file and telemetry counters
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

# Fails here, before any result is printed, where the repository the
# benchmark measures is missing (bench/go.mod replaces parbem with ../).
go build -C "${here}" -o "${build}/parbem-bench" . >&2

exec "${build}/parbem-bench" "$@"
