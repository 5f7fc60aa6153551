//===- tests/test_parallel.cpp - Thread-count invariance tests ------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The work-stealing pool's contract (docs/parallelism.md): the worker
/// thread count changes host wall-clock time and NOTHING else. These
/// tests run real pipelines at 1, 2, and 8 threads and require results,
/// run reports (simulated time, energy, traffic), GC statistics, and
/// heap statistics to be identical -- exact floating-point equality, not
/// tolerance -- plus the same for a fault-injection run whose recovery
/// machinery must stay deterministic.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

using namespace panthera;
using namespace panthera::rdd;
using heap::ObjRef;

namespace {

constexpr unsigned Threadings[] = {1, 2, 8};

/// Everything a run can observably produce, captured for comparison.
struct RunObservation {
  double Checksum = 0.0;
  core::RunReport Report;
  heap::HeapStats HeapStats;
  std::vector<gc::GcEvent> GcLog;
};

void expectIdentical(const RunObservation &A, const RunObservation &B,
                     unsigned ThreadsB) {
  SCOPED_TRACE("threads=" + std::to_string(ThreadsB) + " vs threads=1");
  EXPECT_EQ(A.Checksum, B.Checksum);

  // Simulated clocks and energy: bit-identical, not approximately equal.
  EXPECT_EQ(A.Report.TotalNs, B.Report.TotalNs);
  EXPECT_EQ(A.Report.MutatorNs, B.Report.MutatorNs);
  EXPECT_EQ(A.Report.GcNs, B.Report.GcNs);
  EXPECT_EQ(A.Report.TotalJoules, B.Report.TotalJoules);

  // Device traffic.
  EXPECT_EQ(A.Report.DramTraffic.LineReads, B.Report.DramTraffic.LineReads);
  EXPECT_EQ(A.Report.DramTraffic.LineWrites,
            B.Report.DramTraffic.LineWrites);
  EXPECT_EQ(A.Report.NvmTraffic.LineReads, B.Report.NvmTraffic.LineReads);
  EXPECT_EQ(A.Report.NvmTraffic.LineWrites, B.Report.NvmTraffic.LineWrites);

  // Collector counters.
  EXPECT_EQ(A.Report.Gc.MinorGcs, B.Report.Gc.MinorGcs);
  EXPECT_EQ(A.Report.Gc.MajorGcs, B.Report.Gc.MajorGcs);
  EXPECT_EQ(A.Report.Gc.BytesPromoted, B.Report.Gc.BytesPromoted);
  EXPECT_EQ(A.Report.Gc.BytesCopiedToSurvivor,
            B.Report.Gc.BytesCopiedToSurvivor);
  EXPECT_EQ(A.Report.Gc.EagerPromotions, B.Report.Gc.EagerPromotions);
  EXPECT_EQ(A.Report.Gc.CardsScanned, B.Report.Gc.CardsScanned);
  EXPECT_EQ(A.Report.Gc.CardsCleaned, B.Report.Gc.CardsCleaned);
  EXPECT_EQ(A.Report.Gc.SharedArrayCardScans,
            B.Report.Gc.SharedArrayCardScans);
  EXPECT_EQ(A.Report.Gc.MigratedRddArraysToDram,
            B.Report.Gc.MigratedRddArraysToDram);
  EXPECT_EQ(A.Report.Gc.MigratedRddArraysToNvm,
            B.Report.Gc.MigratedRddArraysToNvm);

  // Engine counters.
  EXPECT_EQ(A.Report.Engine.StagesRun, B.Report.Engine.StagesRun);
  EXPECT_EQ(A.Report.Engine.ShuffleRecords, B.Report.Engine.ShuffleRecords);
  EXPECT_EQ(A.Report.Engine.RddsMaterialized,
            B.Report.Engine.RddsMaterialized);

  // Heap layout and allocation effects, including the parallel-scavenge
  // promotion buffers.
  EXPECT_EQ(A.HeapStats.ObjectsAllocated, B.HeapStats.ObjectsAllocated);
  EXPECT_EQ(A.HeapStats.BytesAllocated, B.HeapStats.BytesAllocated);
  EXPECT_EQ(A.HeapStats.PretenureDramFallbacks,
            B.HeapStats.PretenureDramFallbacks);
  EXPECT_EQ(A.HeapStats.CardPaddingWasteBytes,
            B.HeapStats.CardPaddingWasteBytes);
  EXPECT_EQ(A.HeapStats.GcPlabRefills, B.HeapStats.GcPlabRefills);
  EXPECT_EQ(A.HeapStats.GcPlabWasteBytes, B.HeapStats.GcPlabWasteBytes);

  // Per-collection event log: same collections at the same simulated
  // times with the same phase costs.
  ASSERT_EQ(A.GcLog.size(), B.GcLog.size());
  for (size_t I = 0; I != A.GcLog.size(); ++I) {
    EXPECT_EQ(A.GcLog[I].Major, B.GcLog[I].Major);
    EXPECT_EQ(A.GcLog[I].StartNs, B.GcLog[I].StartNs);
    EXPECT_EQ(A.GcLog[I].DurationNs, B.GcLog[I].DurationNs);
    EXPECT_EQ(A.GcLog[I].BytesPromoted, B.GcLog[I].BytesPromoted);
    EXPECT_EQ(A.GcLog[I].CardsScanned, B.GcLog[I].CardsScanned);
  }
}

RunObservation runWorkload(const char *Name, unsigned Threads,
                           bool Verify = false) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload(Name);
  EXPECT_NE(Spec, nullptr);
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.NumThreads = Threads;
  Config.VerifyHeap = Verify;
  core::Runtime RT(Config);
  RunObservation Obs;
  Obs.Checksum = Spec->Run(RT, /*Scale=*/0.4);
  Obs.Report = RT.report();
  Obs.HeapStats = RT.heap().stats();
  Obs.GcLog = RT.collector().eventLog();
  return Obs;
}

TEST(ThreadCountInvariance, PageRankIsByteIdenticalAcrossThreadCounts) {
  RunObservation Ref = runWorkload("PR", Threadings[0], /*Verify=*/true);
  EXPECT_GT(Ref.Report.Gc.MinorGcs, 0u)
      << "pipeline must exercise the parallel scavenge";
  for (unsigned T : {Threadings[1], Threadings[2]})
    expectIdentical(Ref, runWorkload("PR", T, /*Verify=*/true), T);
}

TEST(ThreadCountInvariance, KMeansIsByteIdenticalAcrossThreadCounts) {
  RunObservation Ref = runWorkload("KM", Threadings[0]);
  for (unsigned T : {Threadings[1], Threadings[2]})
    expectIdentical(Ref, runWorkload("KM", T), T);
}

//===----------------------------------------------------------------------===
// Fault-tolerance pipeline: injection + recovery stay deterministic at
// every thread count (every run executes its stages serially; the GC
// underneath them runs on the pool).
//===----------------------------------------------------------------------===

SourceData makeData(int64_t N, uint32_t Partitions = 4) {
  SourceData Data(Partitions);
  for (int64_t I = 0; I != N; ++I)
    Data[static_cast<size_t>(I) % Data.size()].push_back(
        {I, static_cast<double>(I) * 2.0});
  return Data;
}

struct FaultObservation {
  std::vector<SourceRecord> Results;
  uint64_t InjectedTaskFailures = 0;
  uint64_t TaskRetries = 0;
  uint64_t MinorGcs = 0;
  double TotalNs = 0.0;
};

FaultObservation runFaultPipeline(unsigned Threads, SourceData &Data) {
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.HeapPaperGB = 16;
  Config.Engine.NumPartitions = 4;
  Config.NumThreads = Threads;
  Config.VerifyHeapAfterRecovery = true;
  Config.Faults.site(FaultSite::TaskExecution).FireOnNth = 3;
  core::Runtime RT(Config);

  Rdd Hot = RT.ctx()
                .source(&Data)
                .map([](RddContext &C, ObjRef T) {
                  return C.makeTuple(C.key(T) % 16, C.value(T));
                })
                .persistAs("hot", StorageLevel::MemoryOnly);
  Rdd Sums = Hot.reduceByKey([](double A, double B) { return A + B; });
  EXPECT_EQ(Hot.count(), 2000);

  FaultObservation Obs;
  Obs.Results = Sums.collect();
  Obs.InjectedTaskFailures = RT.ctx().stats().InjectedTaskFailures;
  Obs.TaskRetries = RT.ctx().stats().TaskRetries;
  Obs.MinorGcs = RT.collector().stats().MinorGcs;
  Obs.TotalNs = RT.report().TotalNs;
  return Obs;
}

TEST(ThreadCountInvariance, FaultRecoveryIsIdenticalAcrossThreadCounts) {
  SourceData Data = makeData(2000);
  FaultObservation Ref = runFaultPipeline(Threadings[0], Data);
  EXPECT_EQ(Ref.InjectedTaskFailures, 1u);
  EXPECT_GE(Ref.TaskRetries, 1u);
  for (unsigned T : {Threadings[1], Threadings[2]}) {
    SCOPED_TRACE("threads=" + std::to_string(T));
    FaultObservation Got = runFaultPipeline(T, Data);
    EXPECT_EQ(Got.InjectedTaskFailures, Ref.InjectedTaskFailures);
    EXPECT_EQ(Got.TaskRetries, Ref.TaskRetries);
    EXPECT_EQ(Got.MinorGcs, Ref.MinorGcs);
    EXPECT_EQ(Got.TotalNs, Ref.TotalNs);
    ASSERT_EQ(Got.Results.size(), Ref.Results.size());
    for (size_t I = 0; I != Got.Results.size(); ++I) {
      EXPECT_EQ(Got.Results[I].Key, Ref.Results[I].Key);
      EXPECT_EQ(Got.Results[I].Val, Ref.Results[I].Val);
    }
  }
}

//===----------------------------------------------------------------------===
// Pool plumbing.
//===----------------------------------------------------------------------===

TEST(WorkStealingPool, RunCoversEveryIndexExactlyOnce) {
  support::WorkStealingPool Pool(4);
  constexpr size_t N = 10000;
  std::vector<std::atomic<uint32_t>> Hits(N);
  Pool.run(N, [&](size_t I, unsigned) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(WorkStealingPool, SingleWorkerRunsInline) {
  support::WorkStealingPool Pool(1);
  EXPECT_EQ(Pool.numWorkers(), 1u);
  std::vector<int> Order;
  Pool.run(5, [&](size_t I, unsigned W) {
    EXPECT_EQ(W, 0u);
    Order.push_back(static_cast<int>(I));
  });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkStealingPool, RuntimeHonorsExplicitThreadCount) {
  core::RuntimeConfig Config;
  Config.NumThreads = 3;
  core::Runtime RT(Config);
  EXPECT_EQ(RT.pool().numWorkers(), 3u);
}

} // namespace
