#!/usr/bin/env bash
# One benchmark run, from the root of a checkout:
#
#   bash servebench/run.sh --workload burst_replay --seed 1 --seconds 20 --trace 0
#
# Builds firehose_serve and the harness from this checkout's sources
# (Release, into $CARGO_TARGET_DIR, default .bench_build; build output
# goes to stderr), then runs the harness. The last line of standard
# output is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target servebench --parallel 4 >&2

mkdir -p "$build/servebench-work"
exec "$build/servebench" --work_dir "$build/servebench-work" "$@"
