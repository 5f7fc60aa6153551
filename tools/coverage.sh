#!/usr/bin/env bash
# Coverage audit of src/: which functions the shipped runs reach.
#
#   tools/coverage.sh BUILD_DIR [OUT.md]
#
# Builds the repository with -O0 --coverage into BUILD_DIR, then runs
# three passes and snapshots the gcov counts after each:
#   shipped  every bench binary at its default scale, the examples (with
#            the flags README.md shows), the ledger harness at scale 0.1 on all four workloads, and the
#            panthera_sim cells of tools/ci.sh;
#   fuzz     the frozen gc_fuzz lines of tools/ci.sh plus 32 fixed seeds
#            per config;
#   tests    ctest.
# Each src/ function (and line) is sorted by the first pass that reaches
# it: shipped, fuzz, tests or never. OUT.md (default BUILD_DIR/coverage.md)
# gets per-directory line coverage and every non-shipped function; a
# "why it stays" cell already in OUT.md is kept when the file is rewritten.
# COVERAGE_JOBS (default 3) bounds the runs in flight; at 3 on a 4-core
# machine the whole audit takes about 25 minutes.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
build="$(cd "$1" && pwd)"
out="${2:-${build}/coverage.md}"
jobs="${COVERAGE_JOBS:-3}"
run="${build}/coverage-run"

cmake -S "${root}" -B "${build}" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O0 --coverage" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "${build}" -j "${jobs}" >/dev/null
find "${build}" -name '*.gcda' -delete
rm -rf "${run}" && mkdir -p "${run}"

# Runs each line of stdin as one command in ${run}; a failing command (a
# host-time floor may not hold at -O0) is reported, not fatal.
run_all() {
  (cd "${run}" && xargs -P "${jobs}" -I{} sh -c '{} >/dev/null 2>&1 ||
    echo "coverage: exit $? from: {}" >&2')
}

# Dumps the line and function counts of every object file, one JSON
# document per line.
snapshot() {
  (cd "${build}" && find . -name '*.gcno' -print0 |
    xargs -0 -n 16 gcov --json-format --stdout 2>/dev/null) >"${run}/$1.json"
}

{
  for b in "${build}"/bench/*; do
    [ -f "${b}" ] && [ -x "${b}" ] && echo "${b}"
  done
  for e in quickstart pagerank_hybrid graph_analytics hashjoin terasort \
    "analyze_driver --demo --stages --instrument" \
    "analyze_driver --demo --unpersist-aware" fault_tolerance \
    "run_driver --demo" wordcount_mapreduce kmeans_nd; do
    echo "${build}/examples/${e}"
  done
  for w in fig4 gc-tight cluster dynamic; do
    echo "${build}/bench/ledger/e2e_ledger --workload=${w} --scale=0.1" \
      "--seconds=0 --trace=1"
  done
  sim="${build}/tools/panthera_sim --workload"
  echo "${sim}=PR --scale=0.1 --metrics-json=m.json --trace-json=t.json"
  echo "${sim}=PR --scale=10 --heap=120"
  echo "${sim}=PR --scale=0.1 --executors=4 --metrics-json=c.json"
  echo "${sim}=PR --scale=0.1 --executors=4 --fault=slow-executor:p=0.3 --fault-seed=7"
  echo "${sim}=PR --scale=0.1 --executors=4 --fault=fetch:p=0.1 --fault-seed=7"
  echo "${sim}=SW --scale=0.25 --policy=dynamic --hotness-sample=0"
  echo "${sim}=SW --scale=0.25 --policy=dynamic"
  echo "${sim}=PR --scale=0.1 --heap=2 --max-pause-us=25 --inc-step-allocs=1"
  echo "${sim}=CC --heap=4 --scale=0.25 --policy=panthera --verify"
} | run_all
snapshot shipped

{
  grep -E '^"\$\{fuzz\}" ' "${root}/tools/ci.sh" |
    sed "s|^\"\${fuzz}\"|${build}/tools/gc_fuzz|"
  for c in dram split pressure incremental offheap; do
    echo "${build}/tools/gc_fuzz --seed=12345 --iterations=32 --ops=256 --config=${c}"
  done
} | run_all
snapshot fuzz

ctest --test-dir "${build}" -j "${jobs}" >"${run}/ctest.log" 2>&1 ||
  echo "coverage: ctest failures (the ledger's wall-time gates fail at -O0)" >&2
snapshot tests

python3 - "${root}" "${run}" "${out}" <<'EOF'
import collections, json, os, re, sys
root, run, out = sys.argv[1:]
passes = ["shipped", "fuzz", "tests"]

def short_name(name):
    """`A::f(int)::{lambda(int)#1}::operator()(int) const` -> `A::f::{lambda#1}`."""
    for noise in ("(anonymous namespace)::", "::operator()", " const", "[abi:cxx11]"):
        name = name.replace(noise, "")
    while re.search(r"\([^()]*\)", name):
        name = re.sub(r"\([^()]*\)", "", name)
    return name

def load(snapshot):
    """Counts per src/ (file, line) and per (file, function start line),
    summed over every translation unit; gcov prints one JSON per line."""
    lines, funcs, names = collections.Counter(), collections.Counter(), {}
    for text in open(os.path.join(run, snapshot + ".json")):
        doc = json.loads(text)
        for f in doc["files"]:
            rel = os.path.relpath(os.path.join(doc["current_working_directory"], f["file"]), root)
            if not rel.startswith("src/"):
                continue
            for l in f["lines"]:
                lines[rel, l["line_number"]] += l["count"]
            for fn in f["functions"]:
                key = rel, fn["start_line"]
                funcs[key] += fn["execution_count"]
                name = short_name(fn["demangled_name"])
                if len(name) < len(names.get(key, name + " ")):
                    names[key] = name
    return lines, funcs, names

snaps = [load(p) for p in passes]
def classify(i):
    return {k: next((p for p, s in zip(passes, snaps) if s[i][k]), "never") for k in snaps[-1][i]}
line_class, func_class, names = classify(0), classify(1), snaps[-1][2]

kept = {}  # (file, name) -> "why it stays", from the previous OUT
if os.path.exists(out):
    for row in open(out):
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`src/"):
            kept[cells[0].split(":")[0] + "`", cells[1]] = cells[3]

by_dir = collections.defaultdict(collections.Counter)
for (path, _), cls in line_class.items():
    for d in ("/".join(path.split("/")[:2]), "total"):
        by_dir[d][cls] += 1
        by_dir[d]["all"] += 1
fc = collections.Counter(func_class.values())
with open(out, "w") as w:
    w.write("# Coverage of `src/`\n\nGenerated by `tools/coverage.sh`; its header lists the runs of each\n"
            "pass. A line or function belongs to the first pass that reaches it.\n\n"
            "Function entries: %d shipped, %d fuzz-only, %d tests-only, %d never, of %d.\n\n"
            "| directory | lines | shipped | + fuzz | + tests |\n|---|---|---|---|---|\n"
            % (fc["shipped"], fc["fuzz"], fc["tests"], fc["never"], len(func_class)))
    for d in sorted(by_dir, key=lambda d: (d == "total", d)):
        c = by_dir[d]
        pct = ["%.1f%%" % (100.0 * sum(c[p] for p in passes[:n]) / c["all"]) for n in (1, 2, 3)]
        w.write("| %s | %d | %s |\n" % (d, c["all"], " | ".join(pct)))
    w.write("\n## Functions the shipped runs do not reach\n\n"
            "| function | name | reached by | why it stays |\n|---|---|---|---|\n")
    for key in sorted(k for k, c in func_class.items() if c != "shipped"):
        loc, name = "`%s:%d`" % key, "`%s`" % names[key]
        why = kept.get(("`%s`" % key[0], name), "")
        w.write("| %s | %s | %s | %s |\n" % (loc, name, func_class[key], why))
EOF
echo "coverage: wrote ${out}"
