#!/usr/bin/env bash
# Local CI gate: build, test, lint, format — all must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace
# The message substrate is std's Mutex and Condvar; the two stand-ins it
# used to pull in must not come back through the lock file.
! grep -qE '^name = "(crossbeam|bytes)"' Cargo.lock || { echo "Cargo.lock names crossbeam or bytes again"; exit 1; }

echo "==> benchmark harness build (the root-crate API it pins must still compile)"
# benchmark/ is its own package outside the workspace, so nothing else
# compiles it, yet it links the root crate's public API. Build it before
# any test can stop the script; its smoke run is the last step.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Every test step runs under `timeout` (generous multiples of what the
# step takes on a 2-core host): a test that hangs without a watchdog of
# its own fails the gate instead of wedging it.
echo "==> cargo test"
timeout 3600 cargo test -q --workspace

echo "==> fault-tolerance tests on one core (the schedule that broke the old spin count)"
# Detection is a function of protocol state, so the suite must pass
# with every rank's thread time-sliced onto a single core too.
if command -v taskset >/dev/null; then
  timeout 1800 taskset -c 0 cargo test -q --test fault_tolerance
else
  echo "skipped: taskset not found"
fi

echo "==> fault-tolerance matrix (release: the full lease sweep is heavy in dev), five times over"
# A kill names a lease, so every run of the matrix must pass, not most:
# repeating it (seconds each in release) makes one ci.sh a repeat test.
for round in 1 2 3 4 5; do
  timeout 1800 cargo test -q --release --test fault_tolerance -- --include-ignored
done

echo "==> force-scalar feature matrix (SIMD fallback must stay bit-identical)"
timeout 900 cargo test -q -p pgasm-align --features force-scalar

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> fault-recovery smoke bench"
rm -f BENCH_ablation_fault_recovery.json
PGASM_SCALE="${PGASM_SCALE:-0.3}" cargo run --release -q -p pgasm-bench --bin ablation_fault_recovery
test -s BENCH_ablation_fault_recovery.json || { echo "missing BENCH_ablation_fault_recovery.json"; exit 1; }

echo "==> critical-path analyzer smoke bench"
rm -f BENCH_run_analyze.json
PGASM_SCALE="${PGASM_SCALE:-0.3}" cargo run --release -q -p pgasm-bench --bin run_analyze
test -s BENCH_run_analyze.json || { echo "missing BENCH_run_analyze.json"; exit 1; }

echo "==> bench regression gate (vs baselines/)"
# Protocol round counts are scheduler-dependent in the ranks-as-threads
# simulator, so message and modelled-comm counters wobble ±15% or so
# run-to-run — gate them at +50%. Wall clocks are machine-sensitive, so
# they only trip the gate past +150%. The committed baselines were
# recorded at scale 0.3 — at any other scale the counters legitimately
# differ, so the diff is skipped.
if [ "${PGASM_SCALE:-0.3}" = "0.3" ]; then
  cargo run --release -q -p pgasm-bench --bin bench_diff -- --wall-tol 1.5 --comm-tol 0.5
else
  echo "skipped: PGASM_SCALE=${PGASM_SCALE} != 0.3 (baseline scale)"
fi

echo "==> traced smoke run + trace validation"
rm -f ci_reads.fastq ci_contigs.fasta ci.trace.json ci.metrics.json
cargo run --release -q --bin pgasm -- generate --kind maize --out ci_reads.fastq --scale 0.2 --seed 7
cargo run --release -q --bin pgasm -- assemble --reads ci_reads.fastq --out ci_contigs.fasta --ranks 4 \
  --trace-json ci.trace.json --metrics-json ci.metrics.json
# One track per rank, carrying both distributed stages, + the pipeline's
# own; the assemble category is mandatory since `--ranks` runs the
# assembly phase through the task engine. --max-dropped 0: a lossy trace
# would silently skew the critical-path analysis below.
cargo run --release -q -p pgasm-bench --bin trace_check -- ci.trace.json \
  --min-categories 5 --min-tracks 5 --require assemble --max-dropped 0

echo "==> critical-path analysis of the traced smoke run"
# Attribution categories must cover each rank's wall time within 5%, the
# critical path must be non-empty, and every message of both stages must
# pair (a track id is a comm rank) — the analyzer's consistency gate.
cargo run --release -q --bin pgasm -- analyze --trace-json ci.trace.json \
  --metrics-json ci.metrics.json --out ci.analysis.json --coverage-tol 0.05
test -s ci.analysis.json || { echo "missing ci.analysis.json"; exit 1; }
grep -q '"edges_unpaired": 0' ci.analysis.json || { echo "analyzer left message edges unpaired"; exit 1; }
rm -f ci_contigs.fasta ci.trace.json ci.metrics.json ci.analysis.json

echo "==> pgasm cluster: serial and --ranks 3 write the same partition"
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.serial.txt
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.ranks3.txt --ranks 3
cmp ci_clusters.serial.txt ci_clusters.ranks3.txt || { echo "partition differs between serial and --ranks 3"; exit 1; }

echo "==> pgasm cluster --no-preprocess: a rejection-heavy run, serial and --ranks 3"
# Every other input here is preprocessed. Unmasked, untrimmed reads put
# repeats and vector in the GST, so almost every aligned pair fails the
# criteria: the workload on which a kernel that decides anything itself
# would have to be measured.
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.serial.txt --no-preprocess
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.ranks3.txt --ranks 3 \
  --no-preprocess
cmp ci_clusters.serial.txt ci_clusters.ranks3.txt || { echo "--no-preprocess partition differs between serial and --ranks 3"; exit 1; }
rm -f ci_reads.fastq ci_clusters.serial.txt ci_clusters.ranks3.txt

echo "==> artifact-cache smoke (cold run populates, warm run hits)"
# Serial (no --ranks) so the preprocess, GST, and contigs caches all
# engage. The same command runs twice against a shared --cache-dir; the
# second run must load all three artifacts (cache_hit = 3,
# cache_miss = 0) and skip the GST build (no gst_build span).
rm -rf ci_cache ci_cache_reads.fastq ci_cache_contigs.fasta ci.cache-cold.json ci.cache-warm.json
cargo run --release -q --bin pgasm -- generate --kind sargasso --out ci_cache_reads.fastq --scale 0.1 --seed 11
cargo run --release -q --bin pgasm -- assemble --reads ci_cache_reads.fastq --out ci_cache_contigs.fasta \
  --cache-dir ci_cache --metrics-json ci.cache-cold.json
# Only buckets that can emit a pair reach the tree, so on this sparse
# sample the stored GST is smaller than the reads it indexes (it was
# dozens of times larger when every suffix was indexed): a filter that
# stopped filtering fails here.
gst_bytes=$(stat -c %s ci_cache/gst-*.pgac)
fastq_bytes=$(stat -c %s ci_cache_reads.fastq)
[ "$gst_bytes" -lt "$fastq_bytes" ] || { echo "gst entry ($gst_bytes B) not smaller than its FASTQ ($fastq_bytes B)"; exit 1; }
cargo run --release -q --bin pgasm -- assemble --reads ci_cache_reads.fastq --out ci_cache_contigs.fasta \
  --cache-dir ci_cache --metrics-json ci.cache-warm.json
grep -q '"cache_miss": 3' ci.cache-cold.json || { echo "cold run should miss three times"; exit 1; }
grep -q '"gst_build"' ci.cache-cold.json || { echo "cold run should record a gst_build span"; exit 1; }
grep -q '"cache_hit": 3' ci.cache-warm.json || { echo "warm run should hit three times"; exit 1; }
grep -q '"cache_miss": 3' ci.cache-warm.json && { echo "warm run must not miss"; exit 1; }
grep -q '"gst_build"' ci.cache-warm.json && { echo "warm run must not rebuild the GST"; exit 1; }
rm -rf ci_cache ci_cache_reads.fastq ci_cache_contigs.fasta ci.cache-cold.json ci.cache-warm.json

echo "==> fault-injection smoke (kill 1 of 7 workers; contigs must not change)"
# A deterministic kill removes the worker that is granted the first
# lease of the clustering phase (always issued: the input clusters);
# the lease journal re-queues its work and the contigs must come out
# byte-identical, with the metrics reporting exactly one dead rank and a
# nonzero recovered-task count.
rm -rf ci_ft_reads.fastq ci_ft_base.fasta ci_ft_killed.fasta ci.ft.json
cargo run --release -q --bin pgasm -- generate --kind maize --out ci_ft_reads.fastq --scale 0.2 --seed 13
cargo run --release -q --bin pgasm -- assemble --reads ci_ft_reads.fastq --out ci_ft_base.fasta --ranks 8
cargo run --release -q --bin pgasm -- assemble --reads ci_ft_reads.fastq --out ci_ft_killed.fasta --ranks 8 \
  --fault-plan "kill:lease=1" --metrics-json ci.ft.json
cmp ci_ft_base.fasta ci_ft_killed.fasta || { echo "contigs changed after a worker kill"; exit 1; }
grep -q '"dead_ranks": 1' ci.ft.json || { echo "kill not detected"; exit 1; }
grep -q '"recovered_tasks": 0' ci.ft.json && { echo "no leases recovered"; exit 1; }
rm -rf ci_ft_reads.fastq ci_ft_base.fasta ci_ft_killed.fasta ci.ft.json

echo "==> benchmark harness smoke (every output check on)"
# The harness (built above) replays the pipeline through the root
# crate's public API. Run every workload at quarter size: a changed pair
# stream / contig set fails here, not in the next benchmark run.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick

echo "==> non-test lines (report only; ROADMAP item 6)"
# Lines before the first `#[cfg(test)]` of every *.rs under a directory.
# The first five crates are the series the ROADMAP has tracked so far;
# the rest is everything else a change can grow: the other crates under
# crates/ (the `compat` stand-ins excepted: their line follows the
# total), the root crate and the benchmark harness.
non_test_lines() {
  find "$1" -name '*.rs' -print0 | xargs -0 awk 'FNR == 1 { counting = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }'
}
total=0
report() {
  for dir in "$@"; do
    n=$(non_test_lines "$dir")
    printf '  %-22s %6d\n' "$dir" "$n"
    total=$((total + n))
  done
}
report crates/align/src crates/core/src crates/mpisim/src crates/telemetry/src crates/gst/src
printf '  %-22s %6d\n' 'five-crate subtotal' "$total"
report crates/assemble/src crates/bench crates/preprocess/src crates/seq/src crates/simgen/src src benchmark/src
printf '  %-22s %6d\n' total "$total"
# Outside the total: the dependency stand-ins, so their growth shows.
printf '  %-22s %6d\n' crates/compat "$(non_test_lines crates/compat)"

echo "CI OK"
