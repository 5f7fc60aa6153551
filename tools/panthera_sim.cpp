//===- tools/panthera_sim.cpp - The all-in-one simulation driver ----------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Command-line driver over the whole system: pick a workload, a memory
/// policy, and a configuration; get the complete report -- timing split,
/// GC log, energy breakdown, device traffic, and heap residency.
///
/// Usage:
///   panthera_sim [--workload=PR|KM|LR|TC|CC|SSSP|BC|SW]
///                [--policy=panthera|dynamic|unmanaged|dram|kn|kw]
///                [--hotness-sample=N] [--migrate-threshold=F]
///                [--migrate-max-pages=N]
///                [--max-pause-us=N] [--pretenure-calls=N]
///                [--inc-step-allocs=N] [--offheap-mb=N]
///                [--heap=64] [--ratio=0.333] [--scale=1.0]
///                [--nursery=0.1667] [--no-eager] [--no-padding]
///                [--gclog] [--verify] [--list] [--help]
///                [--metrics-json=FILE] [--trace-json=FILE]
///                [--fault=SITE:p=0.01] [--fault=SITE:nth=5]
///                [--fault-seed=N] [--task-retries=4] [--verify-recovery]
///                [--executors=N] [--net-bw=GBps] [--net-lat-us=US]
///                [--no-speculation] [--speculation-mult=F]
///                [--slow-factor=F] [--fetch-retries=N]
///                [--decommission=E@K] [--join-at=K]
///
/// SITE is one of task, cache, alloc, shuffle, executor, slow-executor,
/// fetch. Fault runs exit 2 if the workload still fails after the staged
/// fallback and retries.
///
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"
#include "support/CliParse.h"
#include "support/Errors.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

using namespace panthera;

static gc::PolicyKind parsePolicy(const std::string &Name) {
  if (Name == "dynamic")
    return gc::PolicyKind::PantheraDynamic;
  if (Name == "unmanaged")
    return gc::PolicyKind::Unmanaged;
  if (Name == "dram" || Name == "dram-only")
    return gc::PolicyKind::DramOnly;
  if (Name == "kn")
    return gc::PolicyKind::KingsguardNursery;
  if (Name == "kw")
    return gc::PolicyKind::KingsguardWrites;
  return gc::PolicyKind::Panthera;
}

/// Parses "SITE:p=0.01" or "SITE:nth=5" into \p Plan through the library
/// parser, so out-of-range probabilities get the typed FaultConfigError
/// diagnostic. Returns false (and prints it) on malformed input.
static bool parseFaultFlag(const char *Spec, FaultPlan &Plan) {
  try {
    parseFaultSpec(Spec, Plan);
    return true;
  } catch (const FaultConfigError &E) {
    std::fprintf(stderr, "bad --fault: %s\n", E.what());
    return false;
  }
}

/// Parses "EXEC@STAGE" for --decommission (an executor index and the
/// 1-based cluster stage at whose start it leaves).
static bool parseDecommission(const char *Spec, cluster::ElasticEvent &Ev) {
  const char *At = std::strchr(Spec, '@');
  if (!At)
    return false;
  uint64_t Exec = 0, Stage = 0;
  if (!support::parseUnsigned(std::string(Spec, At - Spec).c_str(), 0, 255,
                              Exec) ||
      !support::parseUnsigned(At + 1, 1, 1u << 20, Stage))
    return false;
  Ev.Join = false;
  Ev.Exec = static_cast<unsigned>(Exec);
  Ev.AtStage = Stage;
  return true;
}

int main(int Argc, char **Argv) {
  std::string Workload = "PR";
  std::string Policy = "panthera";
  core::RuntimeConfig Config;
  double Scale = 1.0;
  bool GcLog = false;
  std::string MetricsPath;
  std::string TracePath;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(A, Prefix, N) == 0 ? A + N : nullptr;
    };
    // Strict numeric parsing: silent atoi/atof zeros ("--heap=x" becoming
    // a 0-GB heap) are rejected with a diagnostic naming the range.
    auto BadFlag = [&](const char *Flag, const char *Want) {
      std::fprintf(stderr, "bad value in '%s' (want %s)\n", Flag, Want);
      return 1;
    };
    uint64_t U = 0;
    double F = 0.0;
    if (const char *V = Val("--workload="))
      Workload = V;
    else if (const char *V = Val("--policy="))
      Policy = V;
    else if (const char *V = Val("--heap=")) {
      if (!support::parseUnsigned(V, 1, 1u << 20, U))
        return BadFlag(A, "an integer GB count >= 1");
      Config.HeapPaperGB = static_cast<unsigned>(U);
    } else if (const char *V = Val("--ratio=")) {
      if (!support::parseF64(V, 0.0, 1.0, F))
        return BadFlag(A, "a number in [0, 1]");
      Config.DramRatio = F;
    } else if (const char *V = Val("--nursery=")) {
      if (!support::parseF64(V, 1e-6, 0.9, F))
        return BadFlag(A, "a fraction in (0, 0.9]");
      Config.NurseryFraction = F;
    } else if (const char *V = Val("--scale=")) {
      if (!support::parseF64(V, 1e-9, 1e9, F) || F <= 0.0)
        return BadFlag(A, "a positive number");
      Scale = F;
    } else if (std::strcmp(A, "--no-eager") == 0)
      Config.EagerPromotion = false;
    else if (std::strcmp(A, "--no-padding") == 0)
      Config.CardPadding = false;
    else if (std::strcmp(A, "--gclog") == 0)
      GcLog = true;
    else if (std::strcmp(A, "--verify") == 0)
      Config.VerifyHeap = true;
    else if (const char *V = Val("--metrics-json="))
      MetricsPath = V;
    else if (const char *V = Val("--trace-json="))
      TracePath = V;
    else if (const char *V = Val("--fault-seed=")) {
      if (!support::parseUnsigned(V, 0, ~0ull, U))
        return BadFlag(A, "an unsigned integer");
      Config.Faults.Seed = U;
    } else if (const char *V = Val("--fault=")) {
      if (!parseFaultFlag(V, Config.Faults))
        return 1;
    } else if (const char *V = Val("--task-retries=")) {
      if (!support::parseUnsigned(V, 1, 1u << 20, U))
        return BadFlag(A, "an integer attempt budget >= 1");
      Config.Engine.MaxTaskAttempts = static_cast<uint32_t>(U);
    } else if (std::strcmp(A, "--verify-recovery") == 0)
      Config.VerifyHeapAfterRecovery = true;
    else if (const char *V = Val("--executors=")) {
      if (!support::parseUnsigned(V, 1, 256, U))
        return BadFlag(A, "an executor count in [1, 256]");
      Config.Cluster.NumExecutors = static_cast<unsigned>(U);
    } else if (const char *V = Val("--net-bw=")) {
      if (!support::parseF64(V, 1e-6, 1e6, F))
        return BadFlag(A, "a bandwidth in GB/s > 0");
      Config.Cluster.NetBandwidthGBps = F;
    } else if (const char *V = Val("--net-lat-us=")) {
      if (!support::parseF64(V, 0.0, 1e9, F))
        return BadFlag(A, "a latency in microseconds >= 0");
      Config.Cluster.NetLatencyUs = F;
    } else if (std::strcmp(A, "--no-speculation") == 0)
      Config.Cluster.SpeculationEnabled = false;
    else if (const char *V = Val("--speculation-mult=")) {
      if (!support::parseF64(V, 1.0, 1e6, F))
        return BadFlag(A, "a straggler threshold multiplier >= 1");
      Config.Cluster.SpeculationMultiplier = F;
    } else if (const char *V = Val("--slow-factor=")) {
      if (!support::parseF64(V, 1.0, 1e6, F))
        return BadFlag(A, "a slowdown factor >= 1");
      Config.Cluster.SlowExecutorFactor = F;
    } else if (const char *V = Val("--fetch-retries=")) {
      if (!support::parseUnsigned(V, 1, 1u << 20, U))
        return BadFlag(A, "a fetch attempt budget >= 1");
      Config.Cluster.FetchRetryLimit = static_cast<uint32_t>(U);
    } else if (const char *V = Val("--decommission=")) {
      cluster::ElasticEvent Ev;
      if (!parseDecommission(V, Ev))
        return BadFlag(A, "EXEC@STAGE, e.g. --decommission=2@3");
      Config.Cluster.Elastic.push_back(Ev);
    } else if (const char *V = Val("--join-at=")) {
      if (!support::parseUnsigned(V, 1, 1u << 20, U))
        return BadFlag(A, "a 1-based cluster stage index >= 1");
      cluster::ElasticEvent Ev;
      Ev.Join = true;
      Ev.AtStage = U;
      Config.Cluster.Elastic.push_back(Ev);
    } else if (const char *V = Val("--hosts=")) {
      if (!support::parseUnsigned(V, 0, 256, U))
        return BadFlag(A, "a host count in [0, 256] (0 = one per executor)");
      Config.Cluster.NumHosts = static_cast<unsigned>(U);
    } else if (const char *V = Val("--zero-copy-shuffle=")) {
      if (std::strcmp(V, "on") == 0)
        Config.Cluster.ZeroCopyShuffle = true;
      else if (std::strcmp(V, "off") == 0)
        Config.Cluster.ZeroCopyShuffle = false;
      else
        return BadFlag(A, "on or off");
    } else if (std::strcmp(A, "--no-zero-copy-shuffle") == 0)
      Config.Cluster.ZeroCopyShuffle = false;
    else if (const char *V = Val("--epoch-ns=")) {
      if (!support::parseF64(V, 1.0, 1e15, F))
        return BadFlag(A, "an epoch length in simulated ns >= 1");
      Config.EpochNs = F;
    } else if (const char *V = Val("--hotness-sample=")) {
      if (!support::parseUnsigned(V, 0, 1u << 30, U))
        return BadFlag(A, "a line stride >= 0 (0 disables profiling)");
      Config.HotnessSampleEvery = U;
    } else if (const char *V = Val("--migrate-threshold=")) {
      if (!support::parseF64(V, 1e-3, 1e9, F))
        return BadFlag(A, "a samples-per-page density > 0");
      Config.MigrateHotThreshold = F;
    } else if (const char *V = Val("--migrate-max-pages=")) {
      if (!support::parseUnsigned(V, 1, 1u << 20, U))
        return BadFlag(A, "a page budget >= 1");
      Config.MigrateMaxPagesPerStep = U;
    } else if (const char *V = Val("--max-pause-us=")) {
      if (!support::parseUnsigned(V, 0, 1u << 30, U))
        return BadFlag(A, "a pause budget in microseconds >= 0");
      Config.MaxPauseUs = static_cast<uint32_t>(U);
    } else if (const char *V = Val("--pretenure-calls=")) {
      if (!support::parseUnsigned(V, 0, 1u << 30, U))
        return BadFlag(A, "a call count >= 0 (0 disables the oracle)");
      Config.PretenureMinCalls = static_cast<uint32_t>(U);
    } else if (const char *V = Val("--inc-step-allocs=")) {
      if (!support::parseUnsigned(V, 1, 1u << 30, U))
        return BadFlag(A, "an allocation count >= 1");
      Config.IncStepAllocs = static_cast<uint32_t>(U);
    } else if (const char *V = Val("--offheap-mb=")) {
      if (!support::parseUnsigned(V, 0, 1u << 30, U))
        return BadFlag(A, "a budget in paper MB >= 0 (0 = spill all)");
      Config.OffHeapMB = static_cast<unsigned>(U);
    }
    else if (std::strcmp(A, "--list") == 0) {
      for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads())
        std::printf("%-5s %-36s %s\n", Spec.ShortName.c_str(),
                    Spec.FullName.c_str(), Spec.Dataset.c_str());
      for (const workloads::WorkloadSpec &Spec :
           workloads::extensionWorkloads())
        std::printf("%-5s %-36s %s\n", Spec.ShortName.c_str(),
                    Spec.FullName.c_str(), Spec.Dataset.c_str());
      return 0;
    } else if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      std::printf(
          "usage: panthera_sim [flags]\n"
          "  --workload=NAME    PR|KM|LR|TC|CC|SSSP|BC|SW (--list for all)\n"
          "  --policy=NAME      panthera|dynamic|unmanaged|dram|kn|kw\n"
          "                     (dynamic = Panthera + online hotness\n"
          "                     profiling with between-GC page migration)\n"
          "  --hotness-sample=N sample the access stream every N cache\n"
          "                     lines under --policy=dynamic (default 64;\n"
          "                     0 turns profiling off, byte-identical to\n"
          "                     --policy=panthera)\n"
          "  --migrate-threshold=F  samples-per-page density at which a\n"
          "                     region migrates to DRAM (default 2.0)\n"
          "  --migrate-max-pages=N  page-swap budget per migration step\n"
          "                     (default 256)\n"
          "  --max-pause-us=N   incremental old-gen marking with an N us\n"
          "                     pause budget per mark step (default 0 =\n"
          "                     stop-the-world, byte-identical to builds\n"
          "                     without the feature; docs/gc_pause.md)\n"
          "  --pretenure-calls=N  pretenure tagged arrays whose RDD has\n"
          "                     seen >= N monitored calls in the current\n"
          "                     window (default 0 = oracle off)\n"
          "  --inc-step-allocs=N  allocations between incremental mark\n"
          "                     steps (default 64; ignored at\n"
          "                     --max-pause-us=0)\n"
          "  --offheap-mb=N     off-heap serialized cache tier budget in\n"
          "                     paper MB (docs/offheap.md); OFF_HEAP\n"
          "                     persists serialize into untraced native\n"
          "                     regions behind GC leaf stubs. Default\n"
          "                     16384 (the whole native region); beyond\n"
          "                     the budget partitions spill to disk, so\n"
          "                     0 spills them all\n"
          "  --heap=GB          heap size in paper GB (default 64)\n"
          "  --ratio=F          DRAM : total memory (default 0.333)\n"
          "  --nursery=F        nursery fraction of the heap\n"
          "  --scale=F          dataset scale factor (default 1.0)\n"
          "  --no-eager         disable eager promotion (ablation)\n"
          "  --no-padding       disable card padding (ablation)\n"
          "  --gclog            print the per-collection GC log\n"
          "  --verify           verify the heap after every collection\n"
          "  --metrics-json=F   write the flat metrics registry to F\n"
          "  --trace-json=F     write the chrome://tracing span/event\n"
          "                     trace (simulated clock) to F; load it at\n"
          "                     chrome://tracing or ui.perfetto.dev\n"
          "  --fault=SITE:p=X   Bernoulli fault at one of the sites\n"
          "                     task|cache|alloc|shuffle|executor|\n"
          "                     slow-executor|fetch\n"
          "  --fault=SITE:nth=N fire on the Nth occurrence instead\n"
          "  --fault-seed=N     fault-plan seed\n"
          "  --task-retries=N   per-task attempt budget\n"
          "  --verify-recovery  verify the heap after every recovery path\n"
          "  --executors=N      simulated executors (docs/cluster.md);\n"
          "                     1 (default) runs the single-heap engine\n"
          "                     byte-identically, N > 1 shards the heap\n"
          "                     and runs the distributed shuffle\n"
          "  --net-bw=GBps      fabric bandwidth for remote shuffle\n"
          "                     fetches (default 10)\n"
          "  --net-lat-us=US    fabric per-transfer latency (default 200)\n"
          "  --no-speculation   disable speculative execution of straggler\n"
          "                     tasks (docs/robustness.md)\n"
          "  --speculation-mult=F  straggler threshold: speculate when a\n"
          "                     task runs F x the stage median (default 1.5)\n"
          "  --slow-factor=F    slowdown applied by a slow-executor fault\n"
          "                     fire (default 4)\n"
          "  --fetch-retries=N  transient-fetch attempt budget before the\n"
          "                     block is declared lost (default 3)\n"
          "  --decommission=E@K drain executor E at the start of cluster\n"
          "                     stage K (1-based); repeatable\n"
          "  --join-at=K        add a fresh executor at the start of\n"
          "                     cluster stage K; repeatable\n"
          "  --hosts=N          pack the executors onto N physical hosts\n"
          "                     (executor E lives on host E %% N); 0\n"
          "                     (default) gives every executor its own\n"
          "                     host, so nothing is co-located\n"
          "  --zero-copy-shuffle=on|off\n"
          "                     shared-memory shuffle between co-located\n"
          "                     executors: same-host fetches skip the\n"
          "                     serialization + fabric charges (default\n"
          "                     on; inert until --hosts co-locates)\n"
          "  --no-zero-copy-shuffle  same as --zero-copy-shuffle=off\n"
          "  --epoch-ns=NS      bandwidth-trace bucket length in simulated\n"
          "                     ns (default 100000)\n"
          "  --list             list workloads and exit\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", A);
      return 1;
    }
  }

  const workloads::WorkloadSpec *Spec = workloads::findWorkload(Workload);
  if (!Spec) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                 Workload.c_str());
    return 1;
  }
  Config.Policy = parsePolicy(Policy);

  std::printf("%s under %s | heap %u GB, DRAM ratio %.3f, nursery %.3f, "
              "scale %.2f\n",
              Spec->FullName.c_str(), gc::policyName(Config.Policy),
              Config.HeapPaperGB, Config.DramRatio, Config.NurseryFraction,
              Scale);

  std::unique_ptr<core::Runtime> Owner;
  double Checksum = 0.0;
  // Telemetry is written on failure paths too -- a run that dies on OOM
  // is precisely the one whose trace is worth inspecting.
  auto DumpTelemetry = [&]() -> bool {
    if (!Owner)
      return true;
    bool Ok = true;
    auto WriteFile = [&](const std::string &Path, const char *What,
                         const std::function<void(std::FILE *)> &Write) {
      if (Path.empty())
        return;
      std::FILE *F = std::fopen(Path.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "cannot open %s file '%s'\n", What,
                     Path.c_str());
        Ok = false;
        return;
      }
      Write(F);
      std::fclose(F);
    };
    WriteFile(MetricsPath, "--metrics-json",
              [&](std::FILE *F) { Owner->writeMetricsJson(F); });
    WriteFile(TracePath, "--trace-json",
              [&](std::FILE *F) { Owner->writeTraceJson(F); });
    return Ok;
  };
  try {
    Owner = std::make_unique<core::Runtime>(Config);
    Checksum = Spec->Run(*Owner, Scale);
  } catch (const OutOfMemoryError &E) {
    std::fprintf(stderr,
                 "out of memory after staged fallback (emergency GC, "
                 "NVM overflow, cache eviction): %s\n",
                 E.what());
    DumpTelemetry();
    return 2;
  } catch (const EngineError &E) {
    std::fprintf(stderr, "engine failure: %s\n", E.what());
    DumpTelemetry();
    return 2;
  }
  core::Runtime &RT = *Owner;
  core::RunReport R = RT.report();

  std::printf("\nresult checksum: %g\n", Checksum);
  std::printf("\ntime:   %10.3f simulated ms total\n", R.TotalNs / 1e6);
  std::printf("        %10.3f ms mutator (%.1f%%)\n", R.MutatorNs / 1e6,
              100.0 * R.MutatorNs / R.TotalNs);
  std::printf("        %10.3f ms GC (%.1f%%), %llu minor + %llu major\n",
              R.GcNs / 1e6, 100.0 * R.GcNs / R.TotalNs,
              static_cast<unsigned long long>(R.Gc.MinorGcs),
              static_cast<unsigned long long>(R.Gc.MajorGcs));
  std::printf("\ntraffic: DRAM %llu reads / %llu writes, NVM %llu reads / "
              "%llu writes (lines)\n",
              static_cast<unsigned long long>(R.DramTraffic.LineReads),
              static_cast<unsigned long long>(R.DramTraffic.LineWrites),
              static_cast<unsigned long long>(R.NvmTraffic.LineReads),
              static_cast<unsigned long long>(R.NvmTraffic.LineWrites));
  std::printf("\nenergy: %8.3f J total = %.3f DRAM static + %.3f NVM "
              "static + %.3f DRAM dyn + %.3f NVM dyn\n",
              R.TotalJoules, R.Energy.DramStaticJoules,
              R.Energy.NvmStaticJoules, R.Energy.DramDynamicJoules,
              R.Energy.NvmDynamicJoules);
  std::printf("\nheap:   old DRAM %llu / %llu KB, old NVM %llu / %llu KB\n",
              static_cast<unsigned long long>(
                  RT.heap().oldDram().usedBytes() / 1024),
              static_cast<unsigned long long>(
                  RT.heap().oldDram().sizeBytes() / 1024),
              static_cast<unsigned long long>(
                  RT.heap().oldNvm().usedBytes() / 1024),
              static_cast<unsigned long long>(
                  RT.heap().oldNvm().sizeBytes() / 1024));
  std::printf("        %llu arrays pretenured, %llu eager promotions, "
              "%llu/%llu RDD arrays migrated to DRAM/NVM\n",
              static_cast<unsigned long long>(
                  RT.heap().stats().ArraysPretenured),
              static_cast<unsigned long long>(R.Gc.EagerPromotions),
              static_cast<unsigned long long>(R.Gc.MigratedRddArraysToDram),
              static_cast<unsigned long long>(R.Gc.MigratedRddArraysToNvm));
  std::printf("engine: %llu stages, %llu shuffle records (%llu spills), "
              "%llu RDDs materialized, %llu evicted, %llu monitored calls\n",
              static_cast<unsigned long long>(R.Engine.StagesRun),
              static_cast<unsigned long long>(R.Engine.ShuffleRecords),
              static_cast<unsigned long long>(R.Engine.ShuffleSpills),
              static_cast<unsigned long long>(R.Engine.RddsMaterialized),
              static_cast<unsigned long long>(R.Engine.RddsEvictedToDisk),
              static_cast<unsigned long long>(R.MonitoredCalls));

  if (offheap::OffHeapCache *OC = RT.offHeapCache()) {
    const offheap::OffHeapCacheStats &OS = OC->stats();
    const offheap::RegionAllocatorStats &RS = OC->allocator().stats();
    std::printf("\noffheap: %llu partitions cached (%llu KB), %llu evicted, "
                "%llu unpersisted\n",
                static_cast<unsigned long long>(OS.PartitionsCached),
                static_cast<unsigned long long>(OS.BytesCached / 1024),
                static_cast<unsigned long long>(OS.PartitionsEvicted),
                static_cast<unsigned long long>(OS.PartitionsUnpersisted));
    std::printf("         %llu stub reads (%llu KB), regions: %llu carved + "
                "%llu recycled, %llu freed, %llu live of %llu KB claimed\n",
                static_cast<unsigned long long>(OS.StubReads),
                static_cast<unsigned long long>(OS.BytesRead / 1024),
                static_cast<unsigned long long>(RS.RegionsCarved),
                static_cast<unsigned long long>(RS.RegionsRecycled),
                static_cast<unsigned long long>(OS.RegionsFreed),
                static_cast<unsigned long long>(OC->allocator().liveRegions()),
                static_cast<unsigned long long>(
                    OC->allocator().claimBytes() / 1024));
  }

  if (const cluster::Cluster *CL = RT.clusterSim()) {
    const cluster::ClusterStats &CS = CL->stats();
    std::printf("\ncluster: %u executors (%u alive), net %.1f GB/s + %.0f us"
                " latency\n",
                CL->numExecutors(), CL->numAlive(),
                CL->config().Options.NetBandwidthGBps,
                CL->config().Options.NetLatencyUs);
    std::printf("         %llu PROCESS_LOCAL / %llu ANY tasks "
                "(%llu delayed fallbacks)\n",
                static_cast<unsigned long long>(CS.ProcessLocalTasks),
                static_cast<unsigned long long>(CS.AnyTasks),
                static_cast<unsigned long long>(CS.DelayedFallbacks));
    std::printf("         fetches: %llu local (%llu KB), %llu remote "
                "(%llu KB), %.3f ms on the wire\n",
                static_cast<unsigned long long>(CS.LocalBlocksFetched),
                static_cast<unsigned long long>(CS.LocalBytesFetched / 1024),
                static_cast<unsigned long long>(CS.RemoteBlocksFetched),
                static_cast<unsigned long long>(CS.RemoteBytesFetched / 1024),
                CS.NetworkNs / 1e6);
    if (CS.ZeroCopyBlocksFetched != 0)
      std::printf("         zero-copy (same host): %llu blocks (%llu KB) "
                  "via shared memory, no fabric charge\n",
                  static_cast<unsigned long long>(CS.ZeroCopyBlocksFetched),
                  static_cast<unsigned long long>(CS.ZeroCopyBytesFetched /
                                                  1024));
    if (CS.ExecutorsLost != 0)
      std::printf("         %llu executors lost, %llu map outputs lost, "
                  "%llu recomputed via lineage\n",
                  static_cast<unsigned long long>(CS.ExecutorsLost),
                  static_cast<unsigned long long>(CS.MapOutputsLost),
                  static_cast<unsigned long long>(CS.MapOutputsRecomputed));
    if (CS.SpeculativeLaunches != 0 || CS.StragglersFlagged != 0)
      std::printf("         speculation: %llu stragglers flagged, %llu "
                  "copies launched (%llu won), %.3f ms wasted, %llu "
                  "placements steered\n",
                  static_cast<unsigned long long>(CS.StragglersFlagged),
                  static_cast<unsigned long long>(CS.SpeculativeLaunches),
                  static_cast<unsigned long long>(CS.SpeculativeWins),
                  CS.SpeculativeWastedNs / 1e6,
                  static_cast<unsigned long long>(
                      CS.StragglerAvoidedPlacements));
    if (CS.FetchRetries != 0 || CS.FetchEscalations != 0)
      std::printf("         fetch faults: %llu drops + %llu corruptions, "
                  "%llu retries (%.3f ms backoff), %llu escalations\n",
                  static_cast<unsigned long long>(CS.FetchDrops),
                  static_cast<unsigned long long>(CS.FetchCorruptions),
                  static_cast<unsigned long long>(CS.FetchRetries),
                  CS.FetchBackoffNs / 1e6,
                  static_cast<unsigned long long>(CS.FetchEscalations));
    if (CS.ExecutorsDecommissioned != 0 || CS.ExecutorsJoined != 0)
      std::printf("         elastic: %llu decommissioned (%llu blocks / "
                  "%llu KB migrated), %llu joined\n",
                  static_cast<unsigned long long>(CS.ExecutorsDecommissioned),
                  static_cast<unsigned long long>(CS.BlocksMigrated),
                  static_cast<unsigned long long>(CS.BytesMigrated / 1024),
                  static_cast<unsigned long long>(CS.ExecutorsJoined));
  }

  if (Config.Faults.enabled()) {
    const heap::HeapStats &HS = RT.heap().stats();
    std::printf("\nfaults: seed %llu | %llu task / %llu cache-loss / "
                "%llu alloc / %llu shuffle / %llu executor / "
                "%llu slow-executor / %llu fetch injections fired\n",
                static_cast<unsigned long long>(Config.Faults.Seed),
                static_cast<unsigned long long>(
                    RT.faults()->fired(FaultSite::TaskExecution)),
                static_cast<unsigned long long>(
                    RT.faults()->fired(FaultSite::CacheRead)),
                static_cast<unsigned long long>(
                    RT.faults()->fired(FaultSite::Allocation)),
                static_cast<unsigned long long>(
                    RT.faults()->fired(FaultSite::ShuffleFetch)),
                static_cast<unsigned long long>(
                    RT.faults()->fired(FaultSite::ExecutorLoss)),
                static_cast<unsigned long long>(
                    RT.faults()->fired(FaultSite::SlowExecutor)),
                static_cast<unsigned long long>(
                    RT.faults()->fired(FaultSite::FetchTransient)));
    std::printf("        %llu tasks, %llu attempts (%llu retries), "
                "%llu lineage recomputations\n",
                static_cast<unsigned long long>(R.Tasks.totalTasks()),
                static_cast<unsigned long long>(R.Tasks.totalAttempts()),
                static_cast<unsigned long long>(R.Engine.TaskRetries),
                static_cast<unsigned long long>(
                    R.Engine.LineageRecomputations));
    std::printf("        %llu emergency GCs, %llu pressure evictions, "
                "%llu OOM errors thrown\n",
                static_cast<unsigned long long>(HS.EmergencyGcs),
                static_cast<unsigned long long>(HS.PressureEvictions),
                static_cast<unsigned long long>(HS.OomErrorsThrown));
  }

  if (GcLog) {
    std::printf("\ngc log:\n%4s %-6s %9s %9s %8s %8s %8s\n", "#", "kind",
                "t(ms)", "dur(us)", "d2y", "n2y", "drain");
    unsigned Index = 0;
    for (const gc::GcEvent &E : RT.collector().eventLog())
      std::printf("%4u %-6s %9.2f %9.1f %8.1f %8.1f %8.1f  %s\n", Index++,
                  E.IncStep ? "step" : E.Major ? "major" : "minor",
                  E.StartNs / 1e6, E.DurationNs / 1e3,
                  E.DramToYoungTaskNs / 1e3, E.NvmToYoungTaskNs / 1e3,
                  E.DrainNs / 1e3, E.Reason);
  }
  return DumpTelemetry() ? 0 : 1;
}
