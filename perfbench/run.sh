#!/usr/bin/env bash
# Build the benchmark and the zkbench binary from source, then run one
# workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build product inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bin/zkperf.exe ./bin/zkbench.exe 1>&2
exec ./_build/default/perfbench/bin/zkperf.exe \
  --zkbench ./_build/default/bin/zkbench.exe "$@"
