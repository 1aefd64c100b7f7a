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

echo "==> benchmark harness unit tests"
# They hold BENCHMARK.json to the harness's workload and metric tables
# and check the child watchdog; no workspace test step reaches them.
timeout 600 cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Every test step runs under `timeout` (generous multiples of what the
# step takes on a 2-core host): a test that hangs without a watchdog of
# its own fails the gate instead of wedging it.
echo "==> cargo test"
timeout 3600 cargo test -q --workspace

echo "==> alignment kernel properties, optimised build"
# The step above runs them in a debug build, where the lane loops are
# not vectorised; the code the program ships is the release build's.
timeout 600 cargo test -q --release --test align_kernel_props

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

echo "==> fault-tolerance tests, two copies at once, 25 rounds each"
# Contention reorders every rank's schedule; a fault names a lease, so
# no schedule may change a verdict: every round of both copies passes.
ft=$(cargo test --release --test fault_tolerance --no-run 2>&1 | sed -n 's/^ *Executable .*(\(.*\))$/\1/p')
[ -x "$ft" ] || { echo "no fault_tolerance test binary"; exit 1; }
contend() {
  for round in $(seq 25); do
    out=$(timeout 600 "$ft" -q 2>&1) || { echo "$out"; echo "copy $1, round $round failed"; return 1; }
  done
}
contend 1 & first=$!
contend 2 & second=$!
wait "$first" && wait "$second" || exit 1

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc -D warnings"
# A broken or private intra-doc link in a public item's docs fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> traced smoke run"
rm -f ci_reads.fastq ci_contigs.fasta ci.trace.json ci.metrics.json
cargo run --release -q --bin pgasm -- generate --kind maize --out ci_reads.fastq --scale 0.2 --seed 7
cargo run --release -q --bin pgasm -- assemble --reads ci_reads.fastq --out ci_contigs.fasta --ranks 4 \
  --trace-json ci.trace.json --metrics-json ci.metrics.json
# A lossy trace would silently skew the critical-path analysis below.
grep -q '"trace_events_dropped": 0' ci.metrics.json || { echo "trace ring overflowed"; exit 1; }

echo "==> critical-path analysis of the traced smoke run"
# The analyzer reads the trace alone, and its reader fails on a
# mis-paired or out-of-order event; tests/tracing.rs holds the track and
# category floors. Attribution categories must cover each rank's wall
# time within 5%, the critical path must be non-empty, and every message
# of both stages must pair (a track id is a comm rank) — the analyzer's
# consistency gate.
cargo run --release -q --bin pgasm -- analyze --trace-json ci.trace.json \
  --out ci.analysis.json --coverage-tol 0.05
test -s ci.analysis.json || { echo "missing ci.analysis.json"; exit 1; }
grep -q '"edges_unpaired": 0' ci.analysis.json || { echo "analyzer left message edges unpaired"; exit 1; }
# A tag names its message kind for the whole run: no label or blame may
# fall back to a bare tag number.
! grep -qE '"(label|blame)": "(tag ?)?[0-9]+"' ci.analysis.json || { echo "analysis names a bare tag number"; exit 1; }
# The stage windows are the pipeline track's top-level spans: a span
# nested in a stage (cache traffic, the distributed phases) is no row.
stages=$(grep -o '"stage": "[a-z_]*"' ci.analysis.json | cut -d'"' -f4 | paste -sd' ')
[ "$stages" = "preprocess cluster assemble" ] || { echo "stage rows are '$stages'"; exit 1; }
rm -f ci.trace.json ci.metrics.json ci.analysis.json

echo "==> analysis of a traced serial run: its stages are the pipeline track's"
# A serial run has no rank track, so its stage windows are attributed to
# the pipeline's own thread: the cluster stage's compute cannot be 0.
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.traced.txt \
  --trace-json ci.serial.trace.json
cargo run --release -q --bin pgasm -- analyze --trace-json ci.serial.trace.json --out ci.serial.analysis.json
compute=$(grep -A3 '"stage": "cluster"' ci.serial.analysis.json | grep -o '"compute_ns": [0-9]*' | grep -o '[0-9]*$' || true)
[ -n "$compute" ] && [ "$compute" -gt 0 ] || { echo "serial cluster stage compute_ns is '$compute'"; exit 1; }
rm -f ci_clusters.traced.txt ci.serial.trace.json ci.serial.analysis.json

echo "==> pgasm assemble: --ranks 4, --assembly-threads 1 and --assembly-threads 3 write the same contigs"
# The traced run above assembled on 4 ranks; threads and ranks only
# schedule the per-cluster assemblies, so every contig file is one file.
cargo run --release -q --bin pgasm -- assemble --reads ci_reads.fastq --out ci_contigs.threads1.fasta \
  --assembly-threads 1
cargo run --release -q --bin pgasm -- assemble --reads ci_reads.fastq --out ci_contigs.threads3.fasta \
  --assembly-threads 3
cmp ci_contigs.threads1.fasta ci_contigs.threads3.fasta || { echo "contigs differ between 1 and 3 assembly threads"; exit 1; }
cmp ci_contigs.threads1.fasta ci_contigs.fasta || { echo "contigs differ between 1 assembly thread and --ranks 4"; exit 1; }
rm -f ci_contigs.fasta ci_contigs.threads1.fasta ci_contigs.threads3.fasta

echo "==> pgasm cluster: serial and --ranks 3 write the same partition from the same GST"
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.serial.txt \
  --metrics-json ci.cluster-serial.json
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.ranks3.txt --ranks 3 \
  --metrics-json ci.cluster-ranks3.json
cmp ci_clusters.serial.txt ci_clusters.ranks3.txt || { echo "partition differs between serial and --ranks 3"; exit 1; }
# The ranks' merged admission table is the serial table: over all ranks
# they count, index and build exactly what the serial build does. A
# serial report holds each counter once; a --ranks 3 report holds the
# run's value first, then one per rank channel, which sum to it.
values() { grep -o "\"$1\": [0-9]*" "$2" | grep -o '[0-9]*$' || true; }
same_gst_counters() {
  for counter in gst_suffixes_enumerated gst_suffixes_indexed gst_nodes; do
    serial=$(values "$counter" ci.cluster-serial.json)
    ranks3=($(values "$counter" ci.cluster-ranks3.json))
    sum=0
    for v in "${ranks3[@]:1}"; do sum=$((sum + v)); done
    [ -n "$serial" ] && [ "${#ranks3[@]}" -eq 4 ] && [ "$serial" = "${ranks3[0]}" ] && [ "$sum" = "$serial" ] \
      || { echo "$1: $counter: serial '$serial', --ranks 3 run then ranks '${ranks3[*]}'"; exit 1; }
  done
  rm -f ci.cluster-serial.json ci.cluster-ranks3.json
}
same_gst_counters "preprocessed"

echo "==> pgasm cluster --ranks 4 with a worker killed: a survivor rebuilds its scope, the partition holds"
# The victim of the first lease is still generating, so a survivor must
# adopt its buckets and rebuild them from the store (the adoption path
# filters and sorts like the builders do); the partition is serial's.
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.kill.txt --ranks 4 \
  --fault-plan kill:lease=1 --metrics-json ci.cluster-kill.json
cmp ci_clusters.serial.txt ci_clusters.kill.txt || { echo "partition differs between serial and a --ranks 4 kill"; exit 1; }
grep -q '"scopes_adopted": 1' ci.cluster-kill.json || { echo "the kill made no survivor adopt a scope"; exit 1; }
rm -f ci_clusters.kill.txt ci.cluster-kill.json

echo "==> pgasm cluster --ranks 4 with the first grant, then its report, lost: the partition holds"
# A lost message is detected from protocol state: the run comes to
# rest, the master declares the worker holding lease 1 dead and a
# survivor redoes its batch; the partition is serial's.
for dir in grant report; do
  cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.drop.txt --ranks 4 \
    --fault-plan "drop:lease=1,dir=$dir" --metrics-json ci.cluster-drop.json
  cmp ci_clusters.serial.txt ci_clusters.drop.txt || { echo "partition differs after dropping $dir 1"; exit 1; }
  grep -q '"fault_msgs_dropped": 1' ci.cluster-drop.json || { echo "dir=$dir: not exactly one message dropped"; exit 1; }
  grep -q '"dead_ranks": 1' ci.cluster-drop.json || { echo "dir=$dir: the stuck worker was not declared dead"; exit 1; }
done
rm -f ci_clusters.drop.txt ci.cluster-drop.json

echo "==> pgasm assemble --ranks 4 with one grant delayed: the faults: line names the delay"
# A late message is a fault though no rank dies and no task is
# recovered: the summary line lists every nonzero fault counter.
out=$(cargo run --release -q --bin pgasm -- assemble --reads ci_reads.fastq --out ci_contigs.delay.fasta \
  --ranks 4 --fault-plan delay:lease=2,dir=grant)
grep -q '^faults: .*fault_msgs_delayed=1' <<< "$out" || { echo "$out"; echo "no faults: line for a delayed grant"; exit 1; }
rm -f ci_contigs.delay.fasta

echo "==> pgasm cluster --no-preprocess: a rejection-heavy run, serial and --ranks 3"
# Every other input here is preprocessed. Unmasked, untrimmed reads put
# repeats and vector in the GST, so almost every aligned pair fails the
# criteria: the workload on which a kernel that decides anything itself
# would have to be measured. They are also the densest pairing set any
# step builds, so the serial admission's counters must match the ranks'.
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.serial.txt --no-preprocess \
  --metrics-json ci.cluster-serial.json
cargo run --release -q --bin pgasm -- cluster --reads ci_reads.fastq --out ci_clusters.ranks3.txt --ranks 3 \
  --no-preprocess --metrics-json ci.cluster-ranks3.json
cmp ci_clusters.serial.txt ci_clusters.ranks3.txt || { echo "--no-preprocess partition differs between serial and --ranks 3"; exit 1; }
same_gst_counters "--no-preprocess"
rm -f ci_reads.fastq ci_clusters.serial.txt ci_clusters.ranks3.txt

echo "==> artifact-cache smoke (cold run populates, warm runs hit, serial and --ranks 3)"
# The same command runs twice against a shared --cache-dir; the second
# run must load all three artifacts — preprocess output, partition,
# contigs (cache_hit = 3, cache_miss = 0) — and skip the GST build (no
# gst_build span). The partition does not depend on the rank count, so
# a third, --ranks 3 run over the same cache hits three times too. All
# three write the same contigs, and the warm runs leave the cache
# directory as the cold run left it (names, sizes, mtimes). A --psi 22
# run then hits the preprocess summary only, decodes the stored
# fragments, and must write the contigs of an uncached --psi 22 run.
rm -rf ci_cache ci_cache_reads.fastq ci_cache_contigs*.fasta ci.cache-cold.json ci.cache-warm*.json
cargo run --release -q --bin pgasm -- generate --kind sargasso --out ci_cache_reads.fastq --scale 0.1 --seed 11
cargo run --release -q --bin pgasm -- assemble --reads ci_cache_reads.fastq --out ci_cache_contigs.fasta \
  --cache-dir ci_cache --metrics-json ci.cache-cold.json
# Only buckets that can emit a pair reach the tree, so on this sparse
# sample at most one suffix in a hundred is indexed: a filter that
# stopped filtering fails here.
enumerated=$(grep -o '"gst_suffixes_enumerated": [0-9]*' ci.cache-cold.json | grep -o '[0-9]*$' || true)
indexed=$(grep -o '"gst_suffixes_indexed": [0-9]*' ci.cache-cold.json | grep -o '[0-9]*$' || true)
[ -n "$enumerated" ] && [ -n "$indexed" ] && [ $((indexed * 100)) -le "$enumerated" ] \
  || { echo "gst indexed '$indexed' of '$enumerated' enumerated suffixes: more than 1 in 100"; exit 1; }
ls ci_cache/partition-*.pgac > /dev/null || { echo "cold run stored no partition entry"; exit 1; }
ls ci_cache/gst-*.pgac > /dev/null 2>&1 && { echo "the pipeline must not store a gst entry"; exit 1; }
cold_listing=$(ls -lA --time-style=full-iso ci_cache)
[ "$(ls -A ci_cache | wc -l)" -eq 3 ] || { echo "cold run left $(ls -A ci_cache | wc -l) cache files, expected 3"; exit 1; }
cargo run --release -q --bin pgasm -- assemble --reads ci_cache_reads.fastq --out ci_cache_contigs.warm.fasta \
  --cache-dir ci_cache --metrics-json ci.cache-warm.json
cargo run --release -q --bin pgasm -- assemble --reads ci_cache_reads.fastq --out ci_cache_contigs.ranks3.fasta \
  --cache-dir ci_cache --ranks 3 --metrics-json ci.cache-warm-ranks3.json
grep -q '"cache_miss": 3' ci.cache-cold.json || { echo "cold run should miss three times"; exit 1; }
grep -q '"gst_build"' ci.cache-cold.json || { echo "cold run should record a gst_build span"; exit 1; }
for warm in ci.cache-warm.json ci.cache-warm-ranks3.json; do
  grep -q '"cache_hit": 3' $warm || { echo "$warm: warm run should hit three times"; exit 1; }
  grep -q '"cache_miss"' $warm && { echo "$warm: warm run must not miss"; exit 1; }
  grep -q '"gst_build"' $warm && { echo "$warm: warm run must not rebuild the GST"; exit 1; }
done
cmp ci_cache_contigs.fasta ci_cache_contigs.warm.fasta || { echo "warm contigs differ from the cold run's"; exit 1; }
cmp ci_cache_contigs.fasta ci_cache_contigs.ranks3.fasta || { echo "warm --ranks 3 contigs differ from the cold run's"; exit 1; }
[ "$(ls -lA --time-style=full-iso ci_cache)" = "$cold_listing" ] || { echo "a warm run changed the cache directory"; exit 1; }
cargo run --release -q --bin pgasm -- assemble --reads ci_cache_reads.fastq --out ci_cache_contigs.psi22.fasta \
  --cache-dir ci_cache --psi 22 --metrics-json ci.cache-warm-psi22.json
cargo run --release -q --bin pgasm -- assemble --reads ci_cache_reads.fastq --out ci_cache_contigs.psi22-plain.fasta \
  --psi 22
grep -q '"cache_hit": [1-3]' ci.cache-warm-psi22.json || { echo "--psi 22 run should hit the preprocess entry"; exit 1; }
grep -q '"gst_build"' ci.cache-warm-psi22.json || { echo "--psi 22 run should cluster afresh"; exit 1; }
cmp ci_cache_contigs.psi22.fasta ci_cache_contigs.psi22-plain.fasta \
  || { echo "--psi 22 contigs over the warm cache differ from an uncached run's"; exit 1; }
rm -rf ci_cache ci_cache_reads.fastq ci_cache_contigs*.fasta ci.cache-cold.json ci.cache-warm*.json

echo "==> fault-injection smoke (kill 1 of 7 workers; contigs must not change)"
# A deterministic kill removes the worker that is granted the first
# lease of the clustering phase (always issued: the input clusters);
# the lease journal re-queues its work and the contigs must come out
# byte-identical, with the metrics counting exactly one kill and one dead
# rank and a nonzero recovered-task count.
rm -rf ci_ft_reads.fastq ci_ft_base.fasta ci_ft_killed.fasta ci.ft.json
cargo run --release -q --bin pgasm -- generate --kind maize --out ci_ft_reads.fastq --scale 0.2 --seed 13
cargo run --release -q --bin pgasm -- assemble --reads ci_ft_reads.fastq --out ci_ft_base.fasta --ranks 8
cargo run --release -q --bin pgasm -- assemble --reads ci_ft_reads.fastq --out ci_ft_killed.fasta --ranks 8 \
  --fault-plan "kill:lease=1" --metrics-json ci.ft.json
cmp ci_ft_base.fasta ci_ft_killed.fasta || { echo "contigs changed after a worker kill"; exit 1; }
grep -q '"fault_kills": 1' ci.ft.json || { echo "not exactly one worker killed"; exit 1; }
grep -q '"dead_ranks": 1' ci.ft.json || { echo "kill not detected"; exit 1; }
grep -q '"recovered_tasks": 0' ci.ft.json && { echo "no leases recovered"; exit 1; }
rm -rf ci_ft_reads.fastq ci_ft_base.fasta ci_ft_killed.fasta ci.ft.json

echo "==> every experiment at a twentieth of its size"
# No other step runs the experiment binaries; Fig. 5 reads the rank
# channels of cluster-stage runs, so a change to what a rank reports
# fails here rather than in the next regeneration of EXPERIMENTS.md.
PGASM_SCALE=0.05 timeout 600 cargo run --release -q -p pgasm-bench --bin all_experiments > /dev/null

echo "==> benchmark harness smoke (every output check on)"
# The harness (built above) replays the pipeline through the root
# crate's public API. Run every workload at quarter size: a changed pair
# stream / contig set fails here, not in the next benchmark run.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --quick

echo "==> non-test lines (report only; ROADMAP item 11)"
# Lines before the first `#[cfg(test)]` of every *.rs under a directory:
# every crate under crates/ (the `compat` stand-ins excepted: their line
# follows the total), the root crate and the benchmark harness.
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
report crates/align/src crates/core/src crates/mpisim/src crates/telemetry/src crates/gst/src \
  crates/assemble/src crates/bench crates/preprocess/src crates/seq/src crates/simgen/src src benchmark/src
printf '  %-22s %6d\n' total "$total"
# Outside the total: the dependency stand-ins, so their growth shows.
printf '  %-22s %6d\n' crates/compat "$(non_test_lines crates/compat)"

echo "CI OK"
