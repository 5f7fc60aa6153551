//===- bench/micro_memsim.cpp - Memsim access-path hot loop ---------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Host-throughput microbenchmark for the simulator's access fast path
/// (docs/memsim.md): the same deterministic access sequence is driven
/// through HybridMemory twice, once on the batched range path and once on
/// the per-line reference loop, and the accesses per second of thread CPU
/// time of each is recorded into BENCH_hotpath.json. Both sides are timed
/// with CLOCK_THREAD_CPUTIME_ID, so time the host's scheduler gives to
/// other work (steal time on a shared VM) counts against neither.
///
/// Two cases bracket the design space:
///
///   * hot_scan  -- element-wise (8 B) read+write sweeps over a 16 KB
///     resident buffer: all-hit steady state, 8 touches per line. This is
///     the shape of every record-copy loop in the engine and where the
///     batched path's coalesced repeat-hits pay off most. Floor: >= 10x
///     the per-line path, plus an absolute accesses/sec floor.
///   * stream    -- 64 B-stride sweeps over a 48 MB window straddling the
///     DRAM/NVM boundary: miss-dominated, one touch per line, exercising
///     the per-page device resolution and the prefetcher.
///
/// Both runs must agree bit-for-bit on simulated clocks, traffic, cache
/// statistics, and prefetched-miss counts -- that equivalence is asserted
/// here (and more exhaustively in tests/test_memsim.cpp); a divergence is
/// a FATAL error, not a slow run.
///
/// Flags: --no-floor (report only; for sanitizer or loaded hosts),
///        --scale=F (scales iteration counts, default 1.0).
///
//===----------------------------------------------------------------------===//

#include "memsim/HybridMemory.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <time.h>

using namespace panthera;
using namespace panthera::memsim;

namespace {

/// CPU time this thread has run, in ms.
double threadCpuMs() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) * 1e3 +
         static_cast<double>(Ts.tv_nsec) / 1e6;
}

/// Everything one (case, path) run produces: the host-side throughput and
/// the complete simulated-state fingerprint used for the equivalence check.
struct PathResult {
  double CpuMs = 0.0;
  uint64_t Accesses = 0;
  double AccessesPerSec = 0.0;
  // Simulated state -- must match bit-for-bit across paths.
  double MutatorNs = 0.0;
  double GcNs = 0.0;
  uint64_t DramReads = 0, DramWrites = 0, NvmReads = 0, NvmWrites = 0;
  uint64_t Hits = 0, Misses = 0, PrefetchedMisses = 0;
  double TraceSum = 0.0; ///< Folded Fig 8 bandwidth trace.

  bool identicalTo(const PathResult &O) const {
    return MutatorNs == O.MutatorNs && GcNs == O.GcNs &&
           DramReads == O.DramReads && DramWrites == O.DramWrites &&
           NvmReads == O.NvmReads && NvmWrites == O.NvmWrites &&
           Hits == O.Hits && Misses == O.Misses &&
           PrefetchedMisses == O.PrefetchedMisses && TraceSum == O.TraceSum;
  }
};

constexpr uint64_t TotalBytes = 64ull << 20; // 64 MB simulated space
constexpr uint64_t HotAddr = 4096;
constexpr uint64_t HotBytes = 16384; // 256 lines: resident in the 20 KB LLC
constexpr uint64_t StreamAddr = 8ull << 20;
constexpr uint64_t StreamBytes = 48ull << 20; // straddles the DRAM/NVM split

/// One simulator per run so cache/prefetcher state never leaks between
/// paths; the second half of the space is NVM so page-run device
/// resolution actually has boundaries to cross.
PathResult drive(AccessPathMode Path, bool Hot, uint64_t Iters) {
  HybridMemory Mem(TotalBytes, MemoryTechnology{}, CacheConfig{});
  Mem.map().setRange(TotalBytes / 2, TotalBytes, Device::NVM);
  Mem.setAccessPath(Path);

  PathResult R;
  double Start = threadCpuMs();
  if (Hot) {
    // Read sweep + write sweep per iteration, 8 B elements: after the
    // first sweep installs the 256 lines, every access is an LLC hit.
    for (uint64_t I = 0; I != Iters; ++I) {
      Mem.onAccessRange(HotAddr, HotBytes, false, 8);
      Mem.onAccessRange(HotAddr, HotBytes, true, 8);
      R.Accesses += 2 * (HotBytes / 8);
    }
  } else {
    // Line-stride sweeps across 48 MB: far larger than the LLC, so every
    // line misses; a 4 KB call granularity matches the heap's bulk ops.
    for (uint64_t I = 0; I != Iters; ++I) {
      bool Write = (I & 1) != 0;
      for (uint64_t Off = 0; Off != StreamBytes; Off += 4096) {
        Mem.onAccessRange(StreamAddr + Off, 4096, Write, 64);
        R.Accesses += 4096 / 64;
      }
    }
  }
  R.CpuMs = threadCpuMs() - Start;
  R.AccessesPerSec = static_cast<double>(R.Accesses) / (R.CpuMs / 1e3);

  R.MutatorNs = Mem.mutatorTimeNs();
  R.GcNs = Mem.gcTimeNs();
  const TrafficCounters &D = Mem.traffic(Device::DRAM);
  const TrafficCounters &N = Mem.traffic(Device::NVM);
  R.DramReads = D.LineReads;
  R.DramWrites = D.LineWrites;
  R.NvmReads = N.LineReads;
  R.NvmWrites = N.LineWrites;
  R.Hits = Mem.cacheHits();
  R.Misses = Mem.cacheMisses();
  R.PrefetchedMisses = Mem.prefetchedMisses();
  for (const EpochSample &E : Mem.bandwidthTrace())
    R.TraceSum += E.DramReadBytes + 2.0 * E.DramWriteBytes +
                  3.0 * E.NvmReadBytes + 5.0 * E.NvmWriteBytes;
  return R;
}

void printRow(const char *Name, const char *PathName, const PathResult &R) {
  std::printf("%10s %9s %12.1f ms %14.0f acc/s  simNs=%.0f hits=%llu "
              "misses=%llu\n",
              Name, PathName, R.CpuMs, R.AccessesPerSec, R.MutatorNs,
              static_cast<unsigned long long>(R.Hits),
              static_cast<unsigned long long>(R.Misses));
}

void emitJson(std::FILE *Out, const char *Name, const PathResult &B,
              const PathResult &P, bool Last) {
  std::fprintf(
      Out,
      "    {\"name\": \"%s\",\n"
      "     \"batched\":  {\"cpu_ms\": %.3f, \"accesses\": %llu, "
      "\"accesses_per_sec\": %.1f},\n"
      "     \"per_line\": {\"cpu_ms\": %.3f, \"accesses\": %llu, "
      "\"accesses_per_sec\": %.1f},\n"
      "     \"speedup\": %.3f, \"identical_sim_state\": %s}%s\n",
      Name, B.CpuMs, static_cast<unsigned long long>(B.Accesses),
      B.AccessesPerSec, P.CpuMs,
      static_cast<unsigned long long>(P.Accesses), P.AccessesPerSec,
      B.AccessesPerSec / P.AccessesPerSec, B.identicalTo(P) ? "true" : "false",
      Last ? "" : ",");
}

} // namespace

int main(int Argc, char **Argv) {
  bool EnforceFloors = true;
  double Scale = 1.0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--no-floor") == 0)
      EnforceFloors = false;
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::stod(Argv[I] + 8);
    else {
      std::fprintf(stderr, "usage: %s [--no-floor] [--scale=F]\n", Argv[0]);
      return 2;
    }
  }

  const auto HotIters = static_cast<uint64_t>(2000 * Scale);
  const auto StreamIters = static_cast<uint64_t>(4 * Scale);

  std::printf("== micro_memsim: batched vs per-line access path ==\n");
  std::printf("hot buffer %llu KB, stream window %llu MB, scale %.2f\n\n",
              static_cast<unsigned long long>(HotBytes >> 10),
              static_cast<unsigned long long>(StreamBytes >> 20), Scale);

  // Best-of-5 per point: the simulated state is deterministic (identical
  // every repetition); only host time is noisy (cache and frequency
  // effects remain even on the thread's CPU clock), and the minimum is
  // the least-disturbed measurement. The batched and per-line repetitions
  // alternate, so a burst of load on a shared host hits both paths rather
  // than all repetitions of one.
  auto BestPair = [](bool Hot, uint64_t Iters, PathResult &B,
                     PathResult &P) {
    for (int Rep = 0; Rep != 5; ++Rep) {
      PathResult RB = drive(AccessPathMode::Batched, Hot, Iters);
      PathResult RP = drive(AccessPathMode::PerLine, Hot, Iters);
      if (Rep == 0 || RB.CpuMs < B.CpuMs)
        B = RB;
      if (Rep == 0 || RP.CpuMs < P.CpuMs)
        P = RP;
    }
  };
  PathResult HotB, HotP, StreamB, StreamP;
  BestPair(true, HotIters, HotB, HotP);
  BestPair(false, StreamIters, StreamB, StreamP);

  printRow("hot_scan", "batched", HotB);
  printRow("hot_scan", "per-line", HotP);
  printRow("stream", "batched", StreamB);
  printRow("stream", "per-line", StreamP);

  // The contract first: both paths must describe the same simulated run.
  if (!HotB.identicalTo(HotP) || !StreamB.identicalTo(StreamP)) {
    std::fprintf(stderr,
                 "FATAL: batched and per-line paths diverged on simulated "
                 "state (clock/traffic/cache/trace)\n");
    return 1;
  }

  double HotSpeedup = HotB.AccessesPerSec / HotP.AccessesPerSec;
  double StreamSpeedup = StreamB.AccessesPerSec / StreamP.AccessesPerSec;
  std::printf("\nspeedup: hot_scan %.2fx (floor 10x), stream %.2fx "
              "(reported only)\n",
              HotSpeedup, StreamSpeedup);

  // Absolute floor on the production path, calibrated with >= 3x headroom
  // against a Release build on a shared 4-core VM (observed ~1.1e9 acc/s
  // hot).
  constexpr double HotAbsFloor = 1.0e8;

  std::FILE *Out = std::fopen("BENCH_hotpath.json", "w");
  if (!Out) {
    std::perror("BENCH_hotpath.json");
    return 1;
  }
  std::fprintf(Out, "{\n  \"scale\": %.3f,\n  \"cases\": [\n", Scale);
  emitJson(Out, "hot_scan", HotB, HotP, false);
  emitJson(Out, "stream", StreamB, StreamP, true);
  std::fprintf(Out,
               "  ],\n  \"floors\": {\"hot_speedup\": 10.0, "
               "\"hot_accesses_per_sec\": %.1e, \"enforced\": %s}\n}\n",
               HotAbsFloor, EnforceFloors ? "true" : "false");
  std::fclose(Out);
  std::printf("wrote BENCH_hotpath.json\n");

  if (EnforceFloors) {
    if (HotSpeedup < 10.0) {
      std::fprintf(stderr,
                   "FAIL: hot_scan speedup %.2fx below the 10x floor\n",
                   HotSpeedup);
      return 1;
    }
    if (HotB.AccessesPerSec < HotAbsFloor) {
      std::fprintf(stderr,
                   "FAIL: batched hot_scan %.0f acc/s below the %.1e floor\n",
                   HotB.AccessesPerSec, HotAbsFloor);
      return 1;
    }
  }
  return 0;
}
