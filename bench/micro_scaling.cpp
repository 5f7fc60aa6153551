//===- bench/micro_scaling.cpp - Work-stealing pool scaling ---------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Host wall-clock scaling of the work-stealing pool's client, the
/// collector (docs/parallelism.md): minor-GC pause wall time of the
/// parallel scavenge over a live young graph built directly on the heap,
/// collector driven standalone, at 1/2/4/8 workers. Engine stages run
/// serially, so the pool's worker count only moves collection time.
///
/// Simulated time and GC effects are bit-identical at every point (that is
/// the pool's contract, and bytes promoted are cross-checked here); the
/// ONLY thing that moves is host wall-clock, which is what this harness
/// records into BENCH_scaling.json.
///
/// Expectation on a host with >= 8 hardware threads: >= 2x faster minor-GC
/// pause at 8 workers vs 1. On smaller hosts the oversubscribed points are
/// reported as measured and flagged in the JSON (`hardware_concurrency`).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gc/Collector.h"
#include "support/ThreadPool.h"
#include "support/Units.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

using namespace panthera;
using namespace panthera::bench;

namespace {

constexpr unsigned Threadings[] = {1, 2, 4, 8};

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===
// Minor-GC pause: standalone heap + collector, live young graph.
//===----------------------------------------------------------------------===

struct GcPoint {
  unsigned Threads = 0;
  double PauseUsMin = 0.0;
  double PauseUsMean = 0.0;
  uint64_t BytesPromoted = 0;
};

GcPoint runGcPause(unsigned Threads, double Scale) {
  using namespace panthera::heap;
  heap::HeapConfig HC =
      gc::makeHeapConfig(gc::PolicyKind::Panthera, 64, 1.0 / 3.0);
  HC.NativeBytes = PaperGB;
  auto Mem = std::make_unique<memsim::HybridMemory>(
      HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
      memsim::MemoryTechnology{}, memsim::CacheConfig{});
  auto H = std::make_unique<Heap>(HC, *Mem);
  gc::AccessMonitor Monitor;
  support::WorkStealingPool Pool(Threads);
  gc::Collector C(*H, gc::PolicyKind::Panthera, &Monitor, Pool);

  const auto Live = static_cast<uint32_t>(8192 * Scale);
  constexpr int Rounds = 8;
  GcPoint P;
  P.Threads = Threads;
  P.PauseUsMin = 1e18;
  for (int Round = 0; Round != Rounds; ++Round) {
    // A fresh live graph each round: one rooted spine of 256-byte
    // survivors, plus an equal volume of garbage for the sweep to skip.
    GcRoot Spine(*H, H->allocRefArray(Live));
    for (uint32_t I = 0; I != Live; ++I) {
      H->storeRef(Spine.get(), I, H->allocPlain(0, 224));
      H->allocPlain(0, 224); // garbage
    }
    double Start = nowMs();
    C.collectMinor("bench");
    double Us = (nowMs() - Start) * 1e3;
    if (Round == 0)
      continue; // warm-up: first round pays pool thread start-up
    P.PauseUsMin = std::min(P.PauseUsMin, Us);
    P.PauseUsMean += Us / (Rounds - 1);
  }
  P.BytesPromoted = C.stats().BytesPromoted;
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv);
  unsigned Hw = std::thread::hardware_concurrency();
  banner("micro_scaling",
         "Host wall-clock scaling of the shared work-stealing pool: "
         "minor-GC pause at 1/2/4/8 workers",
         Scale);
  std::printf("host hardware threads: %u (speedup floor assumes >= 8)\n\n",
              Hw);

  GcPoint Gc[4];
  for (int I = 0; I != 4; ++I)
    Gc[I] = runGcPause(Threadings[I], Scale);

  // The contract first: GC effects must not depend on the worker count.
  for (int I = 1; I != 4; ++I) {
    if (Gc[I].BytesPromoted != Gc[0].BytesPromoted) {
      std::fprintf(stderr, "FATAL: GC effects diverged at %u threads\n",
                   Gc[I].Threads);
      return 1;
    }
  }

  std::printf("%8s %14s %8s\n", "threads", "gc pause(us)", "speedup");
  for (int I = 0; I != 4; ++I)
    std::printf("%8u %14.1f %7.2fx\n", Gc[I].Threads, Gc[I].PauseUsMin,
                Gc[0].PauseUsMin / Gc[I].PauseUsMin);

  double GcSpeedup = Gc[0].PauseUsMin / Gc[3].PauseUsMin;
  std::printf("\nat 8 workers: minor-GC pause %.2fx (floor 2x)%s\n",
              GcSpeedup,
              Hw >= 8 ? "" : " -- floor not applicable, host has too few "
                             "hardware threads");

  std::FILE *Out = std::fopen("BENCH_scaling.json", "w");
  if (!Out) {
    std::perror("BENCH_scaling.json");
    return 1;
  }
  std::fprintf(Out, "{\n  \"hardware_concurrency\": %u,\n", Hw);
  std::fprintf(Out, "  \"scale\": %.3f,\n", Scale);
  std::fprintf(Out, "  \"minor_gc\": [\n");
  for (int I = 0; I != 4; ++I)
    std::fprintf(Out,
                 "    {\"threads\": %u, \"pause_us_min\": %.2f, "
                 "\"pause_us_mean\": %.2f, \"speedup\": %.3f}%s\n",
                 Gc[I].Threads, Gc[I].PauseUsMin, Gc[I].PauseUsMean,
                 Gc[0].PauseUsMin / Gc[I].PauseUsMin, I == 3 ? "" : ",");
  std::fprintf(Out,
               "  ],\n  \"gc_pause_speedup_at_8\": %.3f,\n"
               "  \"floors\": {\"minor_gc\": 2.0, "
               "\"apply_when_hw_ge\": 8}\n}\n",
               GcSpeedup);
  std::fclose(Out);
  std::printf("wrote BENCH_scaling.json\n");
  return 0;
}
