#!/usr/bin/env bash
# Build pgasm and the harness, generate the inputs, run every workload
# (untraced child runs, then the traced replay), check the outputs,
# print every metric with its unit and write benchmark/out/results.json
# and benchmark/out/trace_<workload>.json. Exits nonzero if any run or
# output check fails.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
