//===- tests/test_cluster.cpp - Multi-executor cluster simulation ---------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The cluster layer's contract (docs/cluster.md): sharding the heap
/// across executors and running the distributed shuffle changes accounting
/// and placement, never results; one executor means the seed single-heap
/// engine verbatim; a lost executor's map outputs come back from lineage
/// with identical final contents.
///
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"
#include "core/Runtime.h"

#include <gtest/gtest.h>

#include <string>

using namespace panthera;

namespace {

struct RunOut {
  double Checksum = 0.0;
  double TotalNs = 0.0;
  std::string Metrics;
  std::string Trace;
  cluster::ClusterStats Cluster; ///< Zero-valued when no cluster exists.
  uint64_t LineageRecomputations = 0;
  bool HadCluster = false;
};

/// A two-shuffle pipeline (reduceByKey then sortByKey) over a 12-partition
/// source: map placement, reduce placement, and both fetch passes all run.
RunOut runPipeline(core::RuntimeConfig Config) {
  rdd::SourceData Data(12);
  for (int64_t I = 0; I != 24000; ++I)
    Data[static_cast<size_t>(I) % Data.size()].push_back(
        {I % 257, static_cast<double>(I % 31) * 0.5});
  Config.Engine.NumPartitions = 12;
  core::Runtime RT(Config);
  RunOut O;
  rdd::Rdd Sorted = RT.ctx()
                        .source(&Data)
                        .mapValues([](double V) { return V * 1.5 + 1.0; })
                        .reduceByKey([](double A, double B) { return A + B; })
                        .sortByKey();
  int64_t Pos = 0;
  for (const rdd::SourceRecord &R : Sorted.collect())
    O.Checksum += static_cast<double>(R.Key) * static_cast<double>(Pos++) +
                  R.Val;
  O.TotalNs = RT.report().TotalNs;
  O.Metrics = RT.metricsJson();
  O.Trace = RT.traceJson();
  O.LineageRecomputations = RT.report().Engine.LineageRecomputations;
  if (cluster::Cluster *CL = RT.clusterSim()) {
    O.Cluster = CL->stats();
    O.HadCluster = true;
  }
  return O;
}

core::RuntimeConfig clusterConfig(unsigned Executors) {
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.HeapPaperGB = 64;
  Config.Cluster.NumExecutors = Executors;
  return Config;
}

TEST(ClusterSim, SingleExecutorIsTheSeedPath) {
  // --executors=1 must not construct a cluster at all: same engine, same
  // simulated clock, same exported key set as a config that never
  // mentioned the cluster.
  RunOut Default = runPipeline(core::RuntimeConfig{});
  RunOut One = runPipeline(clusterConfig(1));
  EXPECT_FALSE(Default.HadCluster);
  EXPECT_FALSE(One.HadCluster);
  EXPECT_DOUBLE_EQ(One.Checksum, Default.Checksum);
  EXPECT_DOUBLE_EQ(One.TotalNs, Default.TotalNs);
  EXPECT_EQ(One.Metrics, Default.Metrics);
  EXPECT_EQ(One.Trace, Default.Trace);
  EXPECT_EQ(Default.Metrics.find("cluster."), std::string::npos);
  EXPECT_EQ(Default.Trace.find("network"), std::string::npos);
}

TEST(ClusterSim, ChecksumInvariantAcrossExecutorCounts) {
  RunOut One = runPipeline(clusterConfig(1));
  RunOut Two = runPipeline(clusterConfig(2));
  RunOut Four = runPipeline(clusterConfig(4));
  EXPECT_DOUBLE_EQ(Two.Checksum, One.Checksum);
  EXPECT_DOUBLE_EQ(Four.Checksum, One.Checksum);
  EXPECT_TRUE(Two.HadCluster);
  EXPECT_TRUE(Four.HadCluster);
}

TEST(ClusterSim, LocalityPlacementAndFetchAccounting) {
  RunOut R = runPipeline(clusterConfig(4));
  ASSERT_TRUE(R.HadCluster);
  const cluster::ClusterStats &CS = R.Cluster;
  // Split owners and cached-partition locations give most tasks a live
  // preference the slack admits.
  EXPECT_GT(CS.ProcessLocalTasks, 0u);
  EXPECT_GT(CS.BlocksStored, 0u);
  EXPECT_GT(CS.BytesStored, 0u);
  // Both shuffles fetched every non-empty block exactly once; with four
  // executors some blocks are co-located and some are not.
  EXPECT_GT(CS.LocalBlocksFetched, 0u);
  EXPECT_GT(CS.RemoteBlocksFetched, 0u);
  EXPECT_LE(CS.LocalBlocksFetched + CS.RemoteBlocksFetched, CS.BlocksStored);
  // Network time tracks remote volume and lands in metrics and the trace.
  EXPECT_GT(CS.NetworkNs, 0.0);
  EXPECT_GT(CS.RemoteBytesFetched, 0u);
  EXPECT_NE(R.Metrics.find("\"cluster.fetch.remote_blocks\""),
            std::string::npos);
  EXPECT_NE(R.Metrics.find("\"cluster.executors\""), std::string::npos);
  EXPECT_NE(R.Trace.find("remote fetch"), std::string::npos);
  EXPECT_EQ(CS.ExecutorsLost, 0u);
}

TEST(ClusterSim, ZeroCopyShuffleOnSharedHostSkipsFabric) {
  // Four executors packed onto one physical host: every cross-executor
  // fetch is co-located and rides shared memory -- same results, zero-copy
  // counters populated, strictly less driver fabric time than the default
  // one-host-per-executor layout.
  core::RuntimeConfig Shared = clusterConfig(4);
  Shared.Cluster.NumHosts = 1; // ZeroCopyShuffle defaults to on
  RunOut Z = runPipeline(Shared);
  RunOut Fabric = runPipeline(clusterConfig(4));
  ASSERT_TRUE(Z.HadCluster);
  EXPECT_DOUBLE_EQ(Z.Checksum, Fabric.Checksum);
  EXPECT_GT(Z.Cluster.ZeroCopyBlocksFetched, 0u);
  EXPECT_GT(Z.Cluster.ZeroCopyBytesFetched, 0u);
  EXPECT_EQ(Z.Cluster.RemoteBlocksFetched, 0u)
      << "on one shared host no fetch may cross the fabric";
  EXPECT_LT(Z.Cluster.NetworkNs, Fabric.Cluster.NetworkNs);
  EXPECT_NE(Z.Metrics.find("\"cluster.fetch.zero_copy_blocks\""),
            std::string::npos);
  EXPECT_NE(Z.Trace.find("zero-copy fetch"), std::string::npos);
}

TEST(ClusterSim, ZeroCopyDisabledOnSharedHostPaysFabric) {
  // --zero-copy-shuffle=off with co-located executors: identical results
  // and block accounting, but the fetches pay the fabric again.
  core::RuntimeConfig On = clusterConfig(4);
  On.Cluster.NumHosts = 1;
  core::RuntimeConfig Off = On;
  Off.Cluster.ZeroCopyShuffle = false;
  RunOut A = runPipeline(On);
  RunOut B = runPipeline(Off);
  EXPECT_DOUBLE_EQ(B.Checksum, A.Checksum);
  EXPECT_EQ(B.Cluster.ZeroCopyBlocksFetched, 0u);
  EXPECT_GT(B.Cluster.NetworkNs, A.Cluster.NetworkNs);
}

TEST(ClusterSim, ZeroCopyFlagIsInertWithoutSharedHosts) {
  // At the default NumHosts == 0 every executor is its own host, so the
  // zero-copy branch can never trigger and the flag's value must not
  // change a byte of the exports (the seed engine's contract).
  core::RuntimeConfig Off = clusterConfig(3);
  Off.Cluster.ZeroCopyShuffle = false;
  RunOut A = runPipeline(clusterConfig(3));
  RunOut B = runPipeline(Off);
  EXPECT_EQ(A.Cluster.ZeroCopyBlocksFetched, 0u);
  EXPECT_EQ(B.Metrics, A.Metrics);
  EXPECT_EQ(B.Trace, A.Trace);
}

// A fixed executor count replays to identical results and exports.
TEST(ClusterSim, FixedExecutorCountIsThreadInvariant) {
  RunOut A = runPipeline(clusterConfig(3));
  RunOut B = runPipeline(clusterConfig(3));
  EXPECT_DOUBLE_EQ(B.Checksum, A.Checksum);
  EXPECT_DOUBLE_EQ(B.TotalNs, A.TotalNs);
  EXPECT_EQ(B.Metrics, A.Metrics);
  EXPECT_EQ(B.Trace, A.Trace);
}

TEST(ClusterSim, ExecutorLossRecoversIdenticalResults) {
  RunOut Clean = runPipeline(clusterConfig(3));
  core::RuntimeConfig Faulty = clusterConfig(3);
  Faulty.Faults.site(FaultSite::ExecutorLoss).FireOnNth = 2;
  RunOut Lost = runPipeline(Faulty);

  // The paper's fault model: an executor dies mid-shuffle, its map outputs
  // are recomputed from lineage, and the job's answer does not change.
  EXPECT_DOUBLE_EQ(Lost.Checksum, Clean.Checksum);
  EXPECT_EQ(Lost.Cluster.ExecutorsLost, 1u);
  EXPECT_GT(Lost.Cluster.MapOutputsLost, 0u);
  EXPECT_GT(Lost.Cluster.MapOutputsRecomputed, 0u);
  EXPECT_GT(Lost.LineageRecomputations, 0u);
  // Recovery is visible as trace spans, not silent.
  EXPECT_NE(Lost.Trace.find("executor lost"), std::string::npos);
  EXPECT_NE(Lost.Trace.find("recompute map output"), std::string::npos);
  EXPECT_EQ(Clean.Trace.find("executor lost"), std::string::npos);
}

TEST(ClusterSim, KillExecutorDropsLocationsAndBlocks) {
  // Unit-level: drive a Cluster directly, no engine.
  cluster::ClusterConfig CC;
  CC.Options.NumExecutors = 2;
  CC.ExecutorHeap = gc::makeHeapConfig(gc::PolicyKind::Panthera, 8, 1.0 / 3.0);
  CC.ExecutorHeap.NativeBytes = 4ull << 20;
  memsim::HybridMemory DriverMem(64ull << 20, memsim::MemoryTechnology{},
                                 memsim::CacheConfig{});
  cluster::Cluster CL(CC, DriverMem, nullptr);

  CL.beginShuffle(2, 2);
  uint64_t Payload[4] = {1, 2, 3, 4};
  CL.registerMapOutput(0, 0, 0, Payload, sizeof(Payload), 4, 0);
  CL.registerMapOutput(1, 0, 1, Payload, sizeof(Payload), 4, 4);
  CL.recordPartitionLocation(7, 0, 1);
  EXPECT_EQ(CL.partitionLocation(7, 0), 1);

  std::vector<uint32_t> LostMaps = CL.killExecutor(1);
  ASSERT_EQ(LostMaps.size(), 1u);
  EXPECT_EQ(LostMaps[0], 1u);
  EXPECT_TRUE(CL.mapOutput(1, 0).Lost);
  EXPECT_FALSE(CL.mapOutput(0, 0).Lost);
  EXPECT_EQ(CL.partitionLocation(7, 0), -1);
  EXPECT_EQ(CL.numAlive(), 1u);
  // The surviving executor must take every placement, and the last one
  // can never be killed.
  EXPECT_EQ(CL.placeTask(1), 0u);
  EXPECT_THROW(CL.killExecutor(0), EngineError);
}

//===----------------------------------------------------------------------===
// Degraded executors: speculation, transient fetches
//===----------------------------------------------------------------------===

TEST(ClusterDegraded, SpeculationOnOffChecksumInvariant) {
  // The robustness layer's determinism bar: a degraded executor with
  // speculation on, with speculation off, and no fault at all must all
  // produce byte-identical results -- speculation moves simulated cost,
  // never data.
  RunOut Clean = runPipeline(clusterConfig(3));
  for (unsigned Executors : {2u, 4u}) {
    core::RuntimeConfig On = clusterConfig(Executors);
    On.Faults.site(FaultSite::SlowExecutor).FireOnNth = 1;
    core::RuntimeConfig Off = On;
    Off.Cluster.SpeculationEnabled = false;
    RunOut A = runPipeline(On);
    RunOut B = runPipeline(Off);
    EXPECT_DOUBLE_EQ(A.Checksum, Clean.Checksum) << Executors;
    EXPECT_DOUBLE_EQ(B.Checksum, Clean.Checksum) << Executors;
    // The fault really degraded an executor, and only the speculating
    // run launched copies.
    EXPECT_GT(A.Cluster.SpeculativeLaunches, 0u) << Executors;
    EXPECT_GT(A.Cluster.StragglersFlagged, 0u) << Executors;
    EXPECT_EQ(B.Cluster.SpeculativeLaunches, 0u) << Executors;
    EXPECT_EQ(B.Cluster.StragglersFlagged, 0u) << Executors;
    EXPECT_NE(A.Trace.find("executor slowed"), std::string::npos);
    EXPECT_NE(A.Trace.find("speculative"), std::string::npos);
  }
}

TEST(ClusterDegraded, SpeculationInvariantUnderCombinedFaultSchedule) {
  // Speculation on vs off under a combined schedule -- a straggler and a
  // transient-fetch storm at once.
  core::RuntimeConfig On = clusterConfig(4);
  On.Faults.site(FaultSite::SlowExecutor).FireOnNth = 2;
  On.Faults.site(FaultSite::FetchTransient).Probability = 0.1;
  On.Faults.Seed = 42;
  core::RuntimeConfig Off = On;
  Off.Cluster.SpeculationEnabled = false;
  RunOut Clean = runPipeline(clusterConfig(4));
  RunOut A = runPipeline(On);
  RunOut B = runPipeline(Off);
  EXPECT_DOUBLE_EQ(A.Checksum, Clean.Checksum);
  EXPECT_DOUBLE_EQ(B.Checksum, Clean.Checksum);
}

TEST(ClusterDegraded, TransientFetchRetriesRecoverChecksum) {
  RunOut Clean = runPipeline(clusterConfig(3));
  core::RuntimeConfig Faulty = clusterConfig(3);
  Faulty.Faults.site(FaultSite::FetchTransient).Probability = 0.25;
  Faulty.Faults.Seed = 9;
  RunOut R = runPipeline(Faulty);
  EXPECT_DOUBLE_EQ(R.Checksum, Clean.Checksum);
  // Drops and corruptions both occurred and were retried under backoff.
  EXPECT_GT(R.Cluster.FetchRetries, 0u);
  EXPECT_GT(R.Cluster.FetchDrops + R.Cluster.FetchCorruptions, 0u);
  EXPECT_GT(R.Cluster.FetchBackoffNs, 0.0);
  EXPECT_NE(R.Trace.find("backoff"), std::string::npos);
  EXPECT_NE(R.Metrics.find("\"cluster.fetch_retry.attempts\""),
            std::string::npos);
}

TEST(ClusterDegraded, ExhaustedFetchRetriesEscalateToLineage) {
  // Retry budget 1 + a fetch that always fails: every remote and local
  // block fetch escalates to executor-loss-style recovery, and lineage
  // still reproduces the exact answer.
  RunOut Clean = runPipeline(clusterConfig(2));
  core::RuntimeConfig Faulty = clusterConfig(2);
  Faulty.Faults.site(FaultSite::FetchTransient).Probability = 0.03;
  Faulty.Faults.Seed = 3;
  Faulty.Cluster.FetchRetryLimit = 1;
  // Every firing draw escalates straight to a lost block, so give the
  // task-level retry loop headroom to absorb repeated escalations.
  Faulty.Engine.MaxTaskAttempts = 10;
  RunOut R = runPipeline(Faulty);
  EXPECT_DOUBLE_EQ(R.Checksum, Clean.Checksum);
  EXPECT_GT(R.Cluster.FetchEscalations, 0u);
  EXPECT_GT(R.Cluster.MapOutputsRecomputed, 0u);
  EXPECT_GT(R.LineageRecomputations, 0u);
}

//===----------------------------------------------------------------------===
// Delay-scheduling edge cases (unit-level)
//===----------------------------------------------------------------------===

namespace {
cluster::ClusterConfig unitClusterConfig(unsigned Executors) {
  cluster::ClusterConfig CC;
  CC.Options.NumExecutors = Executors;
  CC.ExecutorHeap =
      gc::makeHeapConfig(gc::PolicyKind::Panthera, 8, 1.0 / 3.0);
  CC.ExecutorHeap.NativeBytes = 4ull << 20;
  return CC;
}
} // namespace

TEST(ClusterDelaySched, SaturatedPreferredExpiresSlackToAny) {
  // Every task prefers executor 0. Delay scheduling honors the hint while
  // executor 0 is within the slack of the least-loaded executor; once the
  // whole slack is spent the hint expires and the task goes ANY to the
  // least-loaded machine.
  memsim::HybridMemory DriverMem(64ull << 20, memsim::MemoryTechnology{},
                                 memsim::CacheConfig{});
  cluster::Cluster CL(unitClusterConfig(2), DriverMem, nullptr);
  // Slack is 1: placements 1 and 2 stay PROCESS_LOCAL (load 0 and 1 vs
  // min 0), placement 3 sees executor 0 two tasks ahead and falls back.
  EXPECT_EQ(CL.placeTask(0), 0u);
  EXPECT_EQ(CL.placeTask(0), 0u);
  EXPECT_EQ(CL.placeTask(0), 1u);
  EXPECT_EQ(CL.stats().ProcessLocalTasks, 2u);
  EXPECT_EQ(CL.stats().DelayedFallbacks, 1u);
  EXPECT_EQ(CL.stats().AnyTasks, 1u);
  // With the pack caught up, the hint is honored again next stage.
  CL.beginStage();
  EXPECT_EQ(CL.placeTask(0), 0u);
}

TEST(ClusterDelaySched, StaleHintAfterExecutorLossGoesAny) {
  // A cached partition recorded on an executor that is later lost leaves
  // a stale PROCESS_LOCAL hint; placement must shrug it off as ANY and the
  // location map must forget the machine.
  memsim::HybridMemory DriverMem(64ull << 20, memsim::MemoryTechnology{},
                                 memsim::CacheConfig{});
  cluster::Cluster CL(unitClusterConfig(3), DriverMem, nullptr);
  CL.recordPartitionLocation(/*RddId=*/5, /*Part=*/0, /*Exec=*/1);
  ASSERT_EQ(CL.partitionLocation(5, 0), 1);
  CL.killExecutor(1);
  EXPECT_EQ(CL.stats().ExecutorsLost, 1u);
  EXPECT_EQ(CL.partitionLocation(5, 0), -1);
  EXPECT_EQ(CL.numAlive(), 2u);
  // The stale hint (still cached by a caller) resolves to a live
  // executor, counted as ANY, never the dead one.
  uint64_t AnyBefore = CL.stats().AnyTasks;
  unsigned Placed = CL.placeTask(1);
  EXPECT_NE(Placed, 1u);
  EXPECT_TRUE(CL.executorAlive(Placed));
  EXPECT_EQ(CL.stats().AnyTasks, AnyBefore + 1);
  EXPECT_EQ(CL.stats().ProcessLocalTasks, 0u);
}

TEST(ClusterDelaySched, FlaggedStragglerSteersPlacement) {
  // accountTask on a degraded executor flags it; subsequent placements
  // steer around the flag even for a PROCESS_LOCAL hint, unless every
  // live executor is flagged.
  memsim::HybridMemory DriverMem(64ull << 20, memsim::MemoryTechnology{},
                                 memsim::CacheConfig{});
  cluster::Cluster CL(unitClusterConfig(2), DriverMem, nullptr);
  // Healthy cost: no flag.
  cluster::Cluster::SpeculationOutcome O = CL.accountTask(0, 1000.0);
  EXPECT_FALSE(O.Launched);
  EXPECT_FALSE(CL.flaggedStraggler(0));
  // Degrade 0 (factor 4 > multiplier 1.5): the next completed task on it
  // is a straggler; a copy launches on executor 1 and wins.
  CL.degradeExecutor(0);
  O = CL.accountTask(0, 1000.0);
  EXPECT_TRUE(O.Launched);
  EXPECT_TRUE(O.CopyWon);
  EXPECT_EQ(O.CopyExec, 1u);
  EXPECT_TRUE(CL.flaggedStraggler(0));
  EXPECT_EQ(CL.stats().SpeculativeLaunches, 1u);
  EXPECT_EQ(CL.stats().SpeculativeWins, 1u);
  // The PROCESS_LOCAL hint for the flagged machine is refused.
  uint64_t Steered = CL.stats().StragglerAvoidedPlacements;
  EXPECT_EQ(CL.placeTask(0), 1u);
  EXPECT_EQ(CL.stats().StragglerAvoidedPlacements, Steered + 1);
  // Flag the other one too: with every live executor flagged the
  // scheduler has no healthy machine to steer to and uses them again.
  CL.degradeExecutor(1);
  CL.accountTask(1, 1000.0);
  EXPECT_TRUE(CL.flaggedStraggler(1));
  unsigned P = CL.placeTask(0);
  EXPECT_LT(P, 2u);
}

TEST(ClusterDegraded, MakespanFoldsPerStage) {
  memsim::HybridMemory DriverMem(64ull << 20, memsim::MemoryTechnology{},
                                 memsim::CacheConfig{});
  cluster::Cluster CL(unitClusterConfig(2), DriverMem, nullptr);
  EXPECT_DOUBLE_EQ(CL.makespanNs(), 0.0);
  CL.accountTask(0, 1000.0);
  CL.accountTask(1, 400.0);
  // Stage makespan is the max per-executor occupancy, not the sum.
  EXPECT_DOUBLE_EQ(CL.makespanNs(), 1000.0);
  CL.beginStage();
  CL.accountTask(1, 300.0);
  EXPECT_DOUBLE_EQ(CL.makespanNs(), 1300.0);
}

} // namespace
