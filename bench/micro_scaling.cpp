//===- bench/micro_scaling.cpp - Work-stealing pool scaling ---------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Host wall-clock scaling of the two pool clients (docs/parallelism.md):
///
///   * stage execution -- a compute-heavy map over 16 partitions, measured
///     as records per wall-second through a full map+reduceByKey action;
///   * the parallel scavenge -- minor-GC pause wall time over a live young
///     graph built directly on the heap, collector driven standalone.
///
/// Both are run at 1/2/4/8 workers. Simulated time, energy, and results
/// are bit-identical at every point (that is the pool's contract and the
/// checksums are cross-checked here); the ONLY thing that moves is host
/// wall-clock, which is what this harness records into BENCH_scaling.json.
///
/// Expectation on a host with >= 8 hardware threads: >= 3x stage
/// throughput and >= 2x faster minor-GC pause at 8 workers vs 1. On
/// smaller hosts the oversubscribed points are reported as measured and
/// flagged in the JSON (`hardware_concurrency`).
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
using heap::ObjRef;

namespace {

constexpr unsigned Threadings[] = {1, 2, 4, 8};

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===
// Stage throughput: compute-heavy map, 16 partitions.
//===----------------------------------------------------------------------===

struct StagePoint {
  unsigned Threads = 0;
  double WallMs = 0.0;
  double RecordsPerSec = 0.0;
  double Checksum = 0.0;
};

/// ~1500 fused ops per record so the (parallel) capture phase dominates
/// the (serial) replay of its heap effects.
double heavyKernel(double V) {
  for (int I = 0; I != 1500; ++I)
    V = V * 1.0000001 + 1.0 / (1.0 + V * V);
  return V;
}

StagePoint runStage(unsigned Threads, double Scale) {
  const auto N = static_cast<int64_t>(120000 * Scale);
  rdd::SourceData Data(16);
  for (int64_t I = 0; I != N; ++I)
    Data[static_cast<size_t>(I) % Data.size()].push_back(
        {I, static_cast<double>(I % 997) * 0.5});

  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.HeapPaperGB = 64;
  Config.Engine.NumPartitions = 16;
  Config.NumThreads = Threads;
  core::Runtime RT(Config);

  StagePoint P;
  P.Threads = Threads;
  double Start = nowMs();
  rdd::Rdd Sums =
      RT.ctx()
          .source(&Data)
          .map([](rdd::RddContext &C, ObjRef T) {
            return C.makeTuple(C.key(T) % 64, heavyKernel(C.value(T)));
          })
          .reduceByKey([](double A, double B) { return A + B; });
  for (const rdd::SourceRecord &R : Sums.collect())
    P.Checksum += static_cast<double>(R.Key) + R.Val;
  P.WallMs = nowMs() - Start;
  P.RecordsPerSec = static_cast<double>(N) / (P.WallMs / 1e3);
  return P;
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
         "Host wall-clock scaling of the shared work-stealing pool: stage "
         "throughput and minor-GC pause at 1/2/4/8 workers",
         Scale);
  std::printf("host hardware threads: %u (speedup floors assume >= 8)\n\n",
              Hw);

  StagePoint Stage[4];
  GcPoint Gc[4];
  for (int I = 0; I != 4; ++I) {
    Stage[I] = runStage(Threadings[I], Scale);
    Gc[I] = runGcPause(Threadings[I], Scale);
  }

  // The contract first: results must not depend on the worker count.
  for (int I = 1; I != 4; ++I) {
    if (Stage[I].Checksum != Stage[0].Checksum) {
      std::fprintf(stderr, "FATAL: checksum diverged at %u threads\n",
                   Stage[I].Threads);
      return 1;
    }
    if (Gc[I].BytesPromoted != Gc[0].BytesPromoted) {
      std::fprintf(stderr, "FATAL: GC effects diverged at %u threads\n",
                   Gc[I].Threads);
      return 1;
    }
  }

  std::printf("%8s %12s %14s %8s %14s %8s\n", "threads", "stage(ms)",
              "records/s", "speedup", "gc pause(us)", "speedup");
  for (int I = 0; I != 4; ++I)
    std::printf("%8u %12.1f %14.0f %7.2fx %14.1f %7.2fx\n",
                Stage[I].Threads, Stage[I].WallMs, Stage[I].RecordsPerSec,
                Stage[0].WallMs / Stage[I].WallMs, Gc[I].PauseUsMin,
                Gc[0].PauseUsMin / Gc[I].PauseUsMin);

  double StageSpeedup = Stage[0].WallMs / Stage[3].WallMs;
  double GcSpeedup = Gc[0].PauseUsMin / Gc[3].PauseUsMin;
  std::printf("\nat 8 workers: stage %.2fx (floor 3x), minor-GC pause "
              "%.2fx (floor 2x)%s\n",
              StageSpeedup, GcSpeedup,
              Hw >= 8 ? "" : " -- floors not applicable, host has too few "
                             "hardware threads");

  std::FILE *Out = std::fopen("BENCH_scaling.json", "w");
  if (!Out) {
    std::perror("BENCH_scaling.json");
    return 1;
  }
  std::fprintf(Out, "{\n  \"hardware_concurrency\": %u,\n", Hw);
  std::fprintf(Out, "  \"scale\": %.3f,\n", Scale);
  std::fprintf(Out, "  \"stage\": [\n");
  for (int I = 0; I != 4; ++I)
    std::fprintf(Out,
                 "    {\"threads\": %u, \"wall_ms\": %.3f, "
                 "\"records_per_sec\": %.1f, \"speedup\": %.3f}%s\n",
                 Stage[I].Threads, Stage[I].WallMs, Stage[I].RecordsPerSec,
                 Stage[0].WallMs / Stage[I].WallMs, I == 3 ? "" : ",");
  std::fprintf(Out, "  ],\n  \"minor_gc\": [\n");
  for (int I = 0; I != 4; ++I)
    std::fprintf(Out,
                 "    {\"threads\": %u, \"pause_us_min\": %.2f, "
                 "\"pause_us_mean\": %.2f, \"speedup\": %.3f}%s\n",
                 Gc[I].Threads, Gc[I].PauseUsMin, Gc[I].PauseUsMean,
                 Gc[0].PauseUsMin / Gc[I].PauseUsMin, I == 3 ? "" : ",");
  std::fprintf(Out,
               "  ],\n  \"stage_speedup_at_8\": %.3f,\n"
               "  \"gc_pause_speedup_at_8\": %.3f,\n"
               "  \"floors\": {\"stage\": 3.0, \"minor_gc\": 2.0, "
               "\"apply_when_hw_ge\": 8}\n}\n",
               StageSpeedup, GcSpeedup);
  std::fclose(Out);
  std::printf("wrote BENCH_scaling.json\n");
  return 0;
}
