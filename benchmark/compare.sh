#!/usr/bin/env bash
# Hold results B against baseline A: one row per workload x end-to-end
# metric, judged better / within-bound / worse / unresolved (spread
# wider than the bound). Exits nonzero if any row is worse.
#
#   benchmark/compare.sh A.json B.json
set -euo pipefail
a="$(realpath "$1")"
b="$(realpath "$2")"
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- compare "$a" "$b"
