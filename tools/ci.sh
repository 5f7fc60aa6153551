#!/usr/bin/env bash
# Tier-1 CI: configure, build, and run the full test suite in the plain
# configuration, again under AddressSanitizer + UBSan
# (-DPANTHERA_SANITIZE=address,undefined; any UBSan report is fatal), and
# again under ThreadSanitizer (-DPANTHERA_SANITIZE=thread) for the fault
# injector's concurrency tests, the only code that starts threads (the
# runtime and the collector run serially). Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1"
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== test ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_config build

# Observability smoke: the JSON exports must be valid JSON
# (docs/observability.md).
echo "=== observability smoke ==="
obs="$(mktemp -d)"
trap 'rm -rf "${obs}"' EXIT
./build/tools/panthera_sim --workload=PR --scale=0.1 \
  --metrics-json="${obs}/m1.json" --trace-json="${obs}/t1.json" >/dev/null
for f in m1 t1; do
  python3 -m json.tool "${obs}/${f}.json" >/dev/null
done
echo "ci: observability exports valid"

# Memsim access-path floor (docs/memsim.md): the micro benchmark enforces
# the batched path's >= 10x hot-path throughput over the per-line
# reference (BENCH_hotpath.json). Whole-workload bit-identity of the two
# paths is a ctest (Observability.AccessPath*).
echo "=== memsim access-path floor ==="
(cd "${obs}" && "${OLDPWD}/build/bench/micro_memsim")
echo "ci: batched-path throughput floor met"

# 10x-scale smoke: the fast path is what makes double-digit scale factors
# tractable; one fig4 cell at scale 10 must finish inside a CI-friendly
# wall-time budget (the pre-batching engine took several times longer).
# The heap grows with the dataset, as in the paper's evaluation: at the
# default 64 GB heap a 10x PR dataset is capacity-bound (evict/recompute
# thrash), which would measure the heap wall, not the access path.
echo "=== 10x-scale fig4 smoke ==="
timeout 600 ./build/tools/panthera_sim --workload=PR --scale=10 \
  --heap=120 >"${obs}/x10.txt"
grep -o 'result checksum: [0-9.]*' "${obs}/x10.txt"
echo "ci: scale-10 PR cell inside the wall-time budget"

# Cluster smoke (docs/cluster.md): a 4-executor run must export valid JSON
# with remote fetches, and --executors=1 must be byte-identical to the seed
# single-heap engine (the m1.json written above is exactly that run).
echo "=== cluster smoke ==="
./build/tools/panthera_sim --workload=PR --scale=0.1 \
  --executors=4 --metrics-json="${obs}/c1.json" \
  --trace-json="${obs}/ct1.json" >/dev/null
for f in c1 ct1; do
  python3 -m json.tool "${obs}/${f}.json" >/dev/null
done
grep -q '"cluster.fetch.remote_blocks"' "${obs}/c1.json"
./build/tools/panthera_sim --workload=PR --scale=0.1 \
  --executors=1 --metrics-json="${obs}/e1.json" >/dev/null
cmp "${obs}/m1.json" "${obs}/e1.json"
echo "ci: cluster exports valid, --executors=1 matches the seed"

# Straggler smoke (docs/robustness.md "degraded executors"): a degraded
# executor with speculation on must reproduce the fault-free metrics'
# checksum exactly, and the degraded-cluster machinery must actually
# engage (flagged stragglers visible in the metrics export).
echo "=== straggler smoke ==="
./build/tools/panthera_sim --workload=PR --scale=0.1 \
  --executors=4 --fault=slow-executor:p=0.3 --fault-seed=7 \
  --metrics-json="${obs}/s1.json" >"${obs}/s1.txt"
grep -o 'result checksum: [0-9.]*' "${obs}/s1.txt" >"${obs}/s1.sum"
./build/tools/panthera_sim --workload=PR --scale=0.1 \
  --executors=4 >"${obs}/s0.txt"
grep -o 'result checksum: [0-9.]*' "${obs}/s0.txt" >"${obs}/s0.sum"
cmp "${obs}/s0.sum" "${obs}/s1.sum"
grep -q '"cluster.speculation.flagged": [1-9]' "${obs}/s1.json"
# Transient fetch faults with retry/backoff recover the same checksum too.
./build/tools/panthera_sim --workload=PR --scale=0.1 \
  --executors=4 --fault=fetch:p=0.1 --fault-seed=7 \
  --metrics-json="${obs}/s2.json" >"${obs}/s2.txt"
grep -o 'result checksum: [0-9.]*' "${obs}/s2.txt" >"${obs}/s2.sum"
cmp "${obs}/s0.sum" "${obs}/s2.sum"
grep -q '"cluster.fetch_retry.attempts": [1-9]' "${obs}/s2.json"
echo "ci: degraded executors recover the fault-free checksum"

# Dynamic-policy smoke (docs/memsim.md "online hotness profiling"): on
# the shifting-working-set workload the profiler must engage (migration
# counters nonzero), and --policy=dynamic --hotness-sample=0 must be
# byte-identical to static Panthera in metrics and trace. The crossover
# harness re-checks the checksum floor and that some threshold beats
# static placement in simulated time (BENCH_hotness.json).
echo "=== dynamic-policy smoke ==="
./build/tools/panthera_sim --workload=SW --scale=0.25 \
  --policy=panthera --metrics-json="${obs}/sw-static.json" \
  --trace-json="${obs}/sw-static.trace" >/dev/null
./build/tools/panthera_sim --workload=SW --scale=0.25 \
  --policy=dynamic --hotness-sample=0 \
  --metrics-json="${obs}/sw-off.json" \
  --trace-json="${obs}/sw-off.trace" >/dev/null
cmp "${obs}/sw-static.json" "${obs}/sw-off.json"
cmp "${obs}/sw-static.trace" "${obs}/sw-off.trace"
./build/tools/panthera_sim --workload=SW --scale=0.25 \
  --policy=dynamic --metrics-json="${obs}/sw-dyn.json" >/dev/null
python3 -m json.tool "${obs}/sw-dyn.json" >/dev/null
grep -q '"memsim.migration.pages_to_dram": [1-9]' "${obs}/sw-dyn.json"
(cd "${obs}" && "${OLDPWD}/build/bench/micro_hotness" --scale=0.25)
echo "ci: dynamic policy migrates and sample=0 matches static byte-for-byte"

# Incremental-marking smoke (docs/gc_pause.md): --max-pause-us=0 must be
# byte-identical to the stop-the-world collector (the m1/t1 exports above
# are exactly that run), a budgeted run must actually start cycles and
# reproduce the stop-the-world checksum, and the pause sweep enforces the
# old-gen p99 floor (>= 10x drop at <= 2% time cost), whose committed
# snapshot is BENCH_pause.json.
echo "=== incremental marking smoke ==="
./build/tools/panthera_sim --workload=PR --scale=0.1 \
  --max-pause-us=0 --metrics-json="${obs}/i0.json" \
  --trace-json="${obs}/i0.trace" >/dev/null
cmp "${obs}/m1.json" "${obs}/i0.json"
cmp "${obs}/t1.json" "${obs}/i0.trace"
./build/tools/panthera_sim --workload=PR --scale=0.1 --heap=2 \
  >"${obs}/istw.txt"
grep -o 'result checksum: [0-9.]*' "${obs}/istw.txt" >"${obs}/istw.sum"
./build/tools/panthera_sim --workload=PR --scale=0.1 --heap=2 \
  --max-pause-us=25 --inc-step-allocs=1 \
  --metrics-json="${obs}/i1.json" >"${obs}/i1.txt"
grep -o 'result checksum: [0-9.]*' "${obs}/i1.txt" >"${obs}/i1.sum"
cmp "${obs}/istw.sum" "${obs}/i1.sum"
grep -q '"gc.incremental.cycles": [1-9]' "${obs}/i1.json"
(cd "${obs}" && "${OLDPWD}/build/bench/gc_pause" --json="${obs}/pause.json")
grep -q '"pass": true' BENCH_pause.json
echo "ci: budget-0 byte-identical, budgeted run keeps the checksum, p99 floor met"

# Off-heap tier floors (docs/offheap.md): the three-way serialized-cache
# ablation enforces off-heap old-gen trace strictly below deserialized at
# every swept ratio and total time below on-heap _SER at >= 1 ratio, into
# BENCH_sercache.json. That a run without OFF_HEAP persists builds no
# tier and exports no offheap.* keys is a ctest (OffHeapTest.TierOffIsInert).
echo "=== off-heap tier floors ==="
(cd "${obs}" && "${OLDPWD}/build/bench/ablation_ser_cache")
grep -q '"pass": true' "${obs}/BENCH_sercache.json"
echo "ci: sercache ablation floors met"

run_config build-san -DPANTHERA_SANITIZE=address,undefined

# The off-heap tier under ASan/UBSan: the region allocator's carve/
# recycle arithmetic, the stub payload plumbing, and the eviction/spill
# paths all run sanitized (no shipped workload drives the tier, so the
# unit suite is the coverage).
echo "=== off-heap tests (asan/ubsan) ==="
./build-san/tests/test_offheap
echo "ci: off-heap tests clean under sanitizers"

# The hotness tracker, migration engine, and dynamic-policy determinism
# tests under ASan/UBSan (the split/merge vector surgery and the 1:1 swap
# remaps are exactly the kind of code sanitizers catch).
echo "=== hotness tests (asan/ubsan) ==="
./build-san/tests/test_hotness
echo "ci: hotness tests clean under sanitizers"

# In-place compaction under ASan/UBSan (DESIGN.md §4 item 6): this cell
# migrates RDD arrays across the DRAM/NVM boundary and pushes same-space
# objects above their old address, so both side-buffer copy routes run,
# with heap verification after every collection.
echo "=== in-place compaction cell (asan/ubsan) ==="
./build-san/tools/panthera_sim --workload=CC --heap=4 --scale=0.25 \
  --policy=panthera --verify >"${obs}/compact.txt"
grep -o 'result checksum: [0-9.]*' "${obs}/compact.txt"
echo "ci: compaction copy routes clean under sanitizers"

# The straggler sweep under UBSan: the speculation/makespan arithmetic
# runs sanitized end to end, and the sweep FATALs by itself if the
# 16x-straggler contract breaks. Scale 0.5 is the floor where the
# straggler dominates fixed costs enough for the speculation-off ratio to
# clear 10x.
echo "=== micro_cluster straggler sweep (asan/ubsan) ==="
(cd "${obs}" && "${OLDPWD}/build-san/bench/micro_cluster" --scale=0.5)
echo "ci: straggler sweep clean under sanitizers"

# Bounded differential GC fuzzing (docs/fuzzing.md) on the sanitizer
# build: the frozen regression corpus plus a fresh batch of seeds derived
# from the commit being tested, so every CI run explores a little new
# schedule space while staying reproducible from its log line.
echo "=== gc fuzz (asan/ubsan) ==="
fuzz=./build-san/tools/gc_fuzz
"${fuzz}" --seed=1 --ops=27 --config=split
"${fuzz}" --seed=1 --ops=93 --config=dram
"${fuzz}" --seed=1 --ops=397 --config=pressure
"${fuzz}" --seed=3 --ops=465 --config=pressure
"${fuzz}" --seed=1 --ops=93 --config=split --executors=2
# The incremental config interleaves explicit mark steps with mutation so
# the SATB write barrier and the finishing major run against the shadow
# oracle; the digest must not depend on executor count.
"${fuzz}" --seed=1 --ops=200 --config=incremental
"${fuzz}" --seed=1 --ops=200 --config=incremental --executors=2
# The offheap config churns GC-leaf stubs and their regions through
# collections; the frozen tuple pins the stub-payload evacuation
# contract and the region carve/recycle/release history.
"${fuzz}" --seed=1 --ops=800 --config=offheap
"${fuzz}" --seed=21 --ops=400 --config=offheap
"${fuzz}" --seed=21 --ops=400 --config=offheap --executors=2
sha_seed="$((16#$(git rev-parse HEAD | cut -c1-8)))"
echo "ci: fuzzing 32 fresh seeds from ${sha_seed} per config"
for config in dram split pressure incremental offheap; do
  "${fuzz}" --seed="${sha_seed}" --iterations=32 --ops=256 \
    --config="${config}"
done
echo "ci: gc fuzz clean"

# TSan config: the fault injector's concurrency tests are the suite's
# only threads.
run_config build-tsan -DPANTHERA_SANITIZE=thread

echo "ci: all configurations passed"
