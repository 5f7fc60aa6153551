//===- tests/test_hotness.cpp - Hotness profiler + dynamic migration ------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The online hotness profiler (memsim/HotnessTracker), the between-GC
/// migration engine (memsim/Migration), and the end-to-end contracts of
/// --policy=dynamic: determinism across runs and executor counts, byte
/// identity with static Panthera when profiling is disabled, and actual
/// migration activity on the shifting-working-set workload.
///
//===----------------------------------------------------------------------===//

#include "memsim/HotnessTracker.h"
#include "memsim/HybridMemory.h"
#include "memsim/Migration.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

using namespace panthera;
using namespace panthera::memsim;

namespace {

constexpr uint64_t Page = AddressMap::PageBytes;

//===----------------------------------------------------------------------===//
// HotnessTracker unit tests
//===----------------------------------------------------------------------===//

TEST(HotnessTracker, SampleCountIsPureFunctionOfTheStream) {
  // Samples land at exact line-counter crossings, so the count depends
  // only on how many lines were accounted -- not on the granularity of
  // the onRange calls delivering them.
  HotnessConfig C;
  C.SampleEveryLines = 64;
  HotnessTracker Coarse(0, 64 * Page, C);
  HotnessTracker Fine(0, 64 * Page, C);

  const uint64_t Span = 64 * Page;
  Coarse.onRange(0, Span); // one big range
  for (uint64_t A = 0; A != Span; A += CacheLineBytes)
    Fine.onRange(A, CacheLineBytes); // line at a time

  uint64_t Lines = Span / CacheLineBytes;
  EXPECT_EQ(Coarse.stats().Samples, Lines / C.SampleEveryLines);
  EXPECT_EQ(Fine.stats().Samples, Coarse.stats().Samples);
}

TEST(HotnessTracker, IgnoresAccessesOutsideTheMonitoredInterval) {
  HotnessConfig C;
  C.SampleEveryLines = 1; // sample every line
  HotnessTracker T(16 * Page, 32 * Page, C);
  T.onRange(0, Page);         // entirely below
  T.onRange(48 * Page, Page); // entirely above
  EXPECT_EQ(T.stats().Samples, 0u);
  T.onRange(16 * Page, Page); // inside
  EXPECT_EQ(T.stats().Samples, Page / CacheLineBytes);
}

TEST(HotnessTracker, SplitsConcentrateRegionsOnTheHotRange) {
  // Hammer one page out of 256: after a few epochs the region containing
  // it must have split down toward page granularity and carry a far
  // higher sample density than the cold remainder.
  HotnessConfig C;
  C.SampleEveryLines = 1;
  C.EpochSamples = 512;
  const uint64_t Span = 256 * Page;
  const uint64_t Hot = 37 * Page;
  HotnessTracker T(0, Span, C);
  for (int I = 0; I != 40; ++I)
    T.onRange(Hot, Page);

  EXPECT_GT(T.stats().Epochs, 0u);
  EXPECT_GT(T.stats().Splits, 0u);
  const HotRegion *HotR = nullptr;
  for (const HotRegion &R : T.regions())
    if (R.Start <= Hot && Hot < R.End)
      HotR = &R;
  ASSERT_NE(HotR, nullptr);
  EXPECT_LE(HotR->bytes(), 4 * Page)
      << "splitting should have refined the hot region";
  // Density in the hot region dwarfs every region not overlapping it.
  for (const HotRegion &R : T.regions()) {
    if (R.End <= Hot || R.Start > Hot + Page) {
      EXPECT_GT(HotR->samplesPerPage(), 4.0 * R.samplesPerPage());
    }
  }
}

TEST(HotnessTracker, ColdRegionsMergeBackAndTheTableStaysBounded) {
  HotnessConfig C;
  C.SampleEveryLines = 1;
  C.EpochSamples = 256;
  C.MaxRegions = 32;
  const uint64_t Span = 1024 * Page;
  HotnessTracker T(0, Span, C);
  // Move the hot page around so old hot regions go cold and merge.
  for (int Phase = 0; Phase != 8; ++Phase)
    for (int I = 0; I != 20; ++I)
      T.onRange((Phase * 100 + 3) * Page, Page);
  EXPECT_GT(T.stats().Merges, 0u);
  EXPECT_LE(T.regions().size(), C.MaxRegions);
  // Invariant: regions tile [lo, hi) exactly.
  uint64_t Cursor = T.lo();
  for (const HotRegion &R : T.regions()) {
    EXPECT_EQ(R.Start, Cursor);
    EXPECT_LT(R.Start, R.End);
    Cursor = R.End;
  }
  EXPECT_EQ(Cursor, T.hi());
}

TEST(HotnessTracker, ResetCountersKeepsBoundariesAndClearsHeat) {
  HotnessConfig C;
  C.SampleEveryLines = 1;
  C.EpochSamples = 128;
  HotnessTracker T(0, 64 * Page, C);
  for (int I = 0; I != 10; ++I)
    T.onRange(5 * Page, Page);
  size_t NRegions = T.regions().size();
  T.resetCounters();
  EXPECT_EQ(T.regions().size(), NRegions);
  for (const HotRegion &R : T.regions())
    EXPECT_EQ(R.Count, 0u);
}

TEST(HotnessTracker, SampleAddressesMatchTheDivisionForm) {
  // The tracker keeps a next-sample cursor; each sample must still land on
  // the line the division form picks, (Before / Stride + 1) * Stride, over
  // random ranges that straddle pages and the interval's ends. One region
  // per page (no epoch ever ends) makes a sample moved by a line across a
  // page boundary show in the counts.
  constexpr uint64_t Lo = 4 * Page, Hi = 20 * Page;
  for (uint64_t Stride : {1ull, 3ull, 64ull, 1000ull}) {
    SCOPED_TRACE(testing::Message() << "stride " << Stride);
    HotnessConfig C;
    C.SampleEveryLines = Stride;
    C.EpochSamples = 1ull << 40;
    HotnessTracker T(Lo, Hi, C);
    ASSERT_EQ(T.regions().size(), 16u);
    std::vector<uint32_t> Expected(16, 0);
    uint64_t Cursor = 0, Samples = 0, State = Stride;
    for (int I = 0; I != 5000; ++I) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t Addr = (State >> 20) % (24 * Page);
      const uint64_t Bytes = 1 + (State >> 44) % (3 * Page);
      T.onRange(Addr, Bytes);
      // The division form of the sampling loop.
      const uint64_t S = std::max(Addr, Lo), E = std::min(Addr + Bytes, Hi);
      if (S >= E)
        continue;
      const uint64_t FirstLine = S / CacheLineBytes;
      const uint64_t NLines = (E - 1) / CacheLineBytes - FirstLine + 1;
      for (uint64_t Next = (Cursor / Stride + 1) * Stride;
           Next <= Cursor + NLines; Next += Stride) {
        const uint64_t At = (FirstLine + (Next - 1 - Cursor)) * CacheLineBytes;
        ++Expected[(At - Lo) / Page];
        ++Samples;
      }
      Cursor += NLines;
      ASSERT_EQ(T.stats().Samples, Samples) << "range " << I;
      for (size_t R = 0; R != 16; ++R)
        ASSERT_EQ(T.regions()[R].Count, Expected[R])
            << "range " << I << ", page " << R;
    }
    EXPECT_GT(Samples, 100u);
  }
}

//===----------------------------------------------------------------------===//
// MigrationEngine unit tests (standalone HybridMemory)
//===----------------------------------------------------------------------===//

/// 64 pages of DRAM followed by 64 pages of NVM, tracker over the whole
/// span sampling every line, engine eligible over both halves.
struct EngineFixture {
  EngineFixture()
      : Mem(128 * Page, MemoryTechnology{}, CacheConfig{}),
        Hot(0, 128 * Page, [] {
          HotnessConfig C;
          C.SampleEveryLines = 1;
          C.EpochSamples = 1u << 30; // no decay mid-test
          return C;
        }()),
        Engine(Mem, Hot, MigrationConfig{}) {
    Mem.map().setRange(0, 64 * Page, Device::DRAM);
    Mem.map().setRange(64 * Page, 128 * Page, Device::NVM);
    Engine.setEligibleRanges({{0, 64 * Page, Device::DRAM},
                              {64 * Page, 128 * Page, Device::NVM}});
    Mem.setHotnessTracker(&Hot);
  }

  HybridMemory Mem;
  HotnessTracker Hot;
  MigrationEngine Engine;
};

TEST(MigrationEngine, SwapsHotNvmPagesWithColdDramOneToOne) {
  EngineFixture F;
  // Heat 8 NVM pages through the accounted mutator stream.
  for (int I = 0; I != 8; ++I)
    F.Mem.onAccessRange(64 * Page, 8 * Page, /*IsWrite=*/false, 64);

  uint64_t GenBefore = F.Mem.map().generation();
  double GcBefore = F.Mem.gcTimeNs();
  uint64_t NvmWritesBefore = F.Mem.traffic(Device::NVM).LineWrites;
  MigrationStep S = F.Engine.step();

  EXPECT_EQ(S.PagesSwapped, 8u);
  // Hot NVM pages now DRAM-backed; 1:1 swap conserved DRAM capacity.
  for (uint64_t P = 0; P != 8; ++P)
    EXPECT_EQ(F.Mem.map().deviceOf((64 + P) * Page), Device::DRAM);
  uint64_t DramPages = 0;
  for (uint64_t P = 0; P != 128; ++P)
    DramPages += F.Mem.map().deviceOf(P * Page) == Device::DRAM;
  EXPECT_EQ(DramPages, 64u);
  // Every remap bumped the generation (satellite: staleness contract).
  EXPECT_EQ(F.Mem.map().generation(), GenBefore + 2 * S.PagesSwapped);
  // The copy was charged to the GC clock and the traffic counters.
  EXPECT_GT(F.Mem.gcTimeNs(), GcBefore);
  EXPECT_NEAR(S.CopyNs, F.Mem.gcTimeNs() - GcBefore, 1e-9);
  EXPECT_GT(F.Mem.traffic(Device::NVM).LineWrites, NvmWritesBefore);
  EXPECT_EQ(F.Engine.stats().PagesToDram, 8u);
  EXPECT_EQ(F.Engine.stats().PagesToNvm, 8u);
  EXPECT_EQ(F.Engine.stats().BytesCopied, 2 * 8 * Page);
}

TEST(MigrationEngine, StepWithoutHeatMigratesNothing) {
  EngineFixture F;
  MigrationStep S = F.Engine.step();
  EXPECT_EQ(S.PagesSwapped, 0u);
  EXPECT_DOUBLE_EQ(S.CopyNs, 0.0);
  EXPECT_EQ(F.Engine.stats().Steps, 1u);
}

TEST(MigrationEngine, ResetRestoresTheCanonicalMappingForFree) {
  EngineFixture F;
  for (int I = 0; I != 8; ++I)
    F.Mem.onAccessRange(64 * Page, 8 * Page, /*IsWrite=*/false, 64);
  ASSERT_GT(F.Engine.step().PagesSwapped, 0u);

  double GcBefore = F.Mem.gcTimeNs();
  F.Engine.resetToCanonical();
  for (uint64_t P = 0; P != 64; ++P)
    EXPECT_EQ(F.Mem.map().deviceOf(P * Page), Device::DRAM);
  for (uint64_t P = 64; P != 128; ++P)
    EXPECT_EQ(F.Mem.map().deviceOf(P * Page), Device::NVM);
  // Major-GC compaction already pays the copy: the reset charges nothing.
  EXPECT_DOUBLE_EQ(F.Mem.gcTimeNs(), GcBefore);
  EXPECT_EQ(F.Engine.stats().Resets, 1u);
  EXPECT_GT(F.Engine.stats().PagesRestored, 0u);
  // The tracker's heat described the pre-reset layout and was cleared.
  for (const HotRegion &R : F.Hot.regions())
    EXPECT_EQ(R.Count, 0u);
}

TEST(MigrationEngine, GcActorTrafficDoesNotFeedTheProfiler) {
  EngineFixture F;
  {
    ActorScope Scope(F.Mem, Actor::Gc);
    F.Mem.onAccessRange(64 * Page, 8 * Page, /*IsWrite=*/false, 64);
  }
  EXPECT_EQ(F.Hot.stats().Samples, 0u)
      << "GC evacuation traffic must not count as application heat";
  EXPECT_EQ(F.Engine.step().PagesSwapped, 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end --policy=dynamic contracts (SW workload)
//===----------------------------------------------------------------------===//

struct RunResult {
  double Checksum = 0.0;
  std::string Metrics;
  std::string Trace;
  core::RunReport Report;
};

RunResult runSw(gc::PolicyKind Policy, unsigned Executors = 1,
                uint64_t SampleEvery = 64, double Scale = 0.25) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("SW");
  EXPECT_NE(Spec, nullptr);
  core::RuntimeConfig Config;
  Config.Policy = Policy;
  Config.Cluster.NumExecutors = Executors;
  Config.HotnessSampleEvery = SampleEvery;
  core::Runtime RT(Config);
  RunResult R;
  R.Checksum = Spec->Run(RT, Scale);
  R.Metrics = RT.metricsJson();
  R.Trace = RT.traceJson();
  R.Report = RT.report();
  return R;
}

TEST(DynamicPolicy, MigrationFiresOnTheShiftingWorkingSet) {
  RunResult R = runSw(gc::PolicyKind::PantheraDynamic);
  EXPECT_TRUE(std::isfinite(R.Checksum));
  EXPECT_NE(R.Metrics.find("memsim.hotness.samples"), std::string::npos);
  EXPECT_NE(R.Metrics.find("memsim.migration.steps"), std::string::npos);
  // The rotating hot segment must actually trigger NVM->DRAM promotion.
  const char Key[] = "\"memsim.migration.pages_to_dram\": ";
  size_t Pos = R.Metrics.find(Key);
  ASSERT_NE(Pos, std::string::npos);
  EXPECT_GT(std::atof(R.Metrics.c_str() + Pos + sizeof(Key) - 1), 0.0);
}

TEST(DynamicPolicy, ChecksumMatchesEveryOtherPolicy) {
  double Reference = runSw(gc::PolicyKind::DramOnly).Checksum;
  EXPECT_DOUBLE_EQ(runSw(gc::PolicyKind::Panthera).Checksum, Reference);
  EXPECT_DOUBLE_EQ(runSw(gc::PolicyKind::PantheraDynamic).Checksum,
                   Reference);
}

TEST(DynamicPolicy, DeterministicAcrossThreadCounts) {
  RunResult One = runSw(gc::PolicyKind::PantheraDynamic);
  RunResult Again = runSw(gc::PolicyKind::PantheraDynamic);
  EXPECT_DOUBLE_EQ(One.Checksum, Again.Checksum);
  EXPECT_EQ(One.Metrics, Again.Metrics)
      << "profiling and migration must replay identically";
  EXPECT_EQ(One.Trace, Again.Trace);
}

TEST(DynamicPolicy, ChecksumInvariantAcrossExecutorCounts) {
  RunResult Single = runSw(gc::PolicyKind::PantheraDynamic, /*Execs=*/1);
  RunResult Quad = runSw(gc::PolicyKind::PantheraDynamic, /*Execs=*/4);
  EXPECT_DOUBLE_EQ(Single.Checksum, Quad.Checksum);
}

TEST(DynamicPolicy, SampleZeroIsByteIdenticalToStaticPanthera) {
  RunResult Static = runSw(gc::PolicyKind::Panthera);
  RunResult Off =
      runSw(gc::PolicyKind::PantheraDynamic, 1, /*SampleEvery=*/0);
  EXPECT_DOUBLE_EQ(Off.Checksum, Static.Checksum);
  EXPECT_EQ(Off.Metrics, Static.Metrics)
      << "with profiling off the dynamic policy must not perturb one bit";
  EXPECT_EQ(Off.Trace, Static.Trace);
  EXPECT_DOUBLE_EQ(Off.Report.TotalNs, Static.Report.TotalNs);
  EXPECT_DOUBLE_EQ(Off.Report.TotalJoules, Static.Report.TotalJoules);
}

TEST(DynamicPolicy, ProfilingDisabledForStaticPolicies) {
  // No tracker is ever installed for non-dynamic policies: the hotness
  // metric keys must not even exist in their exports.
  RunResult Static = runSw(gc::PolicyKind::Panthera);
  EXPECT_EQ(Static.Metrics.find("memsim.hotness"), std::string::npos);
  EXPECT_EQ(Static.Metrics.find("memsim.migration"), std::string::npos);
}

} // namespace
