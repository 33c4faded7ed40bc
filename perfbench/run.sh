#!/usr/bin/env bash
# Build the benchmark and the daemons it drives from source, then run it.
#
#   bash perfbench/run.sh --workload batch|wire|stream|all --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr so the
# benchmark's last stdout line stays its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/octbench.exe ./bin/octant_served.exe ./bin/octant_shard.exe >&2
exec ./_build/default/perfbench/octbench.exe "$@"
