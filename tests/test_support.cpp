//===- tests/test_support.cpp - Support-library tests ---------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SparkOps.h"
#include "rdd/StorageLevel.h"
#include "support/FaultInjector.h"
#include "support/MemTag.h"
#include "support/Statistics.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace panthera;

TEST(MemTag, MergePrefersDram) {
  EXPECT_EQ(mergeTags(MemTag::Dram, MemTag::Nvm), MemTag::Dram);
  EXPECT_EQ(mergeTags(MemTag::Nvm, MemTag::Dram), MemTag::Dram);
  EXPECT_EQ(mergeTags(MemTag::Nvm, MemTag::None), MemTag::Nvm);
  EXPECT_EQ(mergeTags(MemTag::None, MemTag::None), MemTag::None);
  EXPECT_EQ(mergeTags(MemTag::Dram, MemTag::Dram), MemTag::Dram);
}

TEST(MemTag, MergeIsCommutativeAndIdempotent) {
  const MemTag Tags[] = {MemTag::None, MemTag::Dram, MemTag::Nvm};
  for (MemTag A : Tags)
    for (MemTag B : Tags) {
      EXPECT_EQ(mergeTags(A, B), mergeTags(B, A));
      EXPECT_EQ(mergeTags(A, A), A);
      // Merging never weakens either operand (lattice property).
      MemTag M = mergeTags(A, B);
      EXPECT_EQ(mergeTags(M, A), M);
      EXPECT_EQ(mergeTags(M, B), M);
    }
}

TEST(MemTag, Names) {
  EXPECT_STREQ(memTagName(MemTag::None), "NONE");
  EXPECT_STREQ(memTagName(MemTag::Dram), "DRAM");
  EXPECT_STREQ(memTagName(MemTag::Nvm), "NVM");
}

TEST(Statistics, GeomeanOfEqualValues) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Statistics, MeanAndAccumulator) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  Accumulator A;
  A.add(3.0);
  A.add(1.0);
  A.add(2.0);
  EXPECT_DOUBLE_EQ(A.sum(), 6.0);
  EXPECT_DOUBLE_EQ(A.average(), 2.0);
  EXPECT_DOUBLE_EQ(A.min(), 1.0);
  EXPECT_DOUBLE_EQ(A.max(), 3.0);
  EXPECT_EQ(A.count(), 3u);
}

TEST(Statistics, AccumulatorSkipsNonFiniteSamples) {
  // A NaN must not poison the running sum/min/max: it is skipped and
  // counted, whether it arrives first or mid-stream.
  Accumulator First;
  First.add(std::nan(""));
  First.add(2.0);
  First.add(4.0);
  EXPECT_DOUBLE_EQ(First.sum(), 6.0);
  EXPECT_DOUBLE_EQ(First.average(), 3.0);
  EXPECT_DOUBLE_EQ(First.min(), 2.0);
  EXPECT_DOUBLE_EQ(First.max(), 4.0);
  EXPECT_EQ(First.count(), 2u);
  EXPECT_EQ(First.nonFiniteCount(), 1u);

  Accumulator Middle;
  Middle.add(1.0);
  Middle.add(std::numeric_limits<double>::infinity());
  Middle.add(std::nan(""));
  Middle.add(3.0);
  EXPECT_DOUBLE_EQ(Middle.sum(), 4.0);
  EXPECT_DOUBLE_EQ(Middle.min(), 1.0);
  EXPECT_DOUBLE_EQ(Middle.max(), 3.0);
  EXPECT_EQ(Middle.count(), 2u);
  EXPECT_EQ(Middle.nonFiniteCount(), 2u);
}

TEST(Statistics, GeomeanRejectsNonPositiveOrNonFinite) {
  // The positivity precondition is a typed error in every build mode, not
  // an assert that Release silently skips past into log(-1) = NaN.
  EXPECT_THROW(geomean({1.0, -2.0}), EngineError);
  EXPECT_THROW(geomean({0.0}), EngineError);
  EXPECT_THROW(geomean({2.0, std::nan("")}), EngineError);
  EXPECT_THROW(geomean({std::numeric_limits<double>::infinity()}),
               EngineError);
}

TEST(Units, PaperScaleIsConsistent) {
  EXPECT_EQ(PaperGB, MiB);
  EXPECT_EQ(GiB / PaperGB, 1024u) << "1 GB -> 1 MB";
  // The pretenure threshold scales by the same factor as sizes: 1M
  // elements / 1024.
  EXPECT_EQ(ScaledLargeArrayThreshold, 1024u * 1024u / 1024u);
}

TEST(StorageLevel, ParseRoundTrips) {
  using rdd::parseStorageLevel;
  using rdd::StorageLevel;
  using rdd::storageLevelName;
  for (StorageLevel L :
       {StorageLevel::MemoryOnly, StorageLevel::MemoryOnlySer,
        StorageLevel::MemoryAndDisk, StorageLevel::MemoryAndDiskSer,
        StorageLevel::DiskOnly, StorageLevel::OffHeapSer})
    EXPECT_EQ(parseStorageLevel(storageLevelName(L)), L);
  // The argless persist() form reaches the parser as "".
  EXPECT_EQ(parseStorageLevel(""), StorageLevel::MemoryOnly);
  // A typo'd level used to silently become MEMORY_ONLY; it must throw.
  EXPECT_THROW(parseStorageLevel("SOMETHING_ELSE"), EngineError);
  EXPECT_THROW(parseStorageLevel("memory_only"), EngineError);
}

TEST(StorageLevel, HeapLevelClassification) {
  using rdd::isHeapLevel;
  using rdd::StorageLevel;
  EXPECT_TRUE(isHeapLevel(StorageLevel::MemoryOnly));
  EXPECT_TRUE(isHeapLevel(StorageLevel::MemoryAndDiskSer));
  EXPECT_FALSE(isHeapLevel(StorageLevel::DiskOnly));
  EXPECT_FALSE(isHeapLevel(StorageLevel::OffHeapSer));
}

TEST(SparkOps, Classification) {
  using namespace panthera::analysis;
  EXPECT_TRUE(isAction("count"));
  EXPECT_TRUE(isAction("collectAsMap"));
  EXPECT_FALSE(isAction("join"));
  EXPECT_TRUE(isPersist("persist"));
  EXPECT_TRUE(isUnpersist("unpersist"));
}

//===----------------------------------------------------------------------===
// Fault-plan validation (support/FaultInjector.h)
//===----------------------------------------------------------------------===

TEST(FaultConfig, ParseAcceptsValidSpecs) {
  FaultPlan Plan;
  parseFaultSpec("task:p=0.25", Plan);
  EXPECT_DOUBLE_EQ(Plan.site(FaultSite::TaskExecution).Probability, 0.25);
  parseFaultSpec("slow-executor:p=1", Plan);
  EXPECT_DOUBLE_EQ(Plan.site(FaultSite::SlowExecutor).Probability, 1.0);
  parseFaultSpec("fetch:nth=3", Plan);
  EXPECT_EQ(Plan.site(FaultSite::FetchTransient).FireOnNth, 3u);
  // Boundary probabilities are legal.
  parseFaultSpec("cache:p=0", Plan);
  parseFaultSpec("shuffle:p=1.0", Plan);
}

TEST(FaultConfig, ParseRejectsOutOfRangeProbability) {
  // Regression: "p=1.5" used to flow into the plan unvalidated and only
  // misbehave at draw time. It must be a typed parse-time error now, and
  // it must not clobber the site's previous configuration.
  FaultPlan Plan;
  Plan.site(FaultSite::TaskExecution).Probability = 0.5;
  EXPECT_THROW(parseFaultSpec("task:p=1.5", Plan), FaultConfigError);
  EXPECT_DOUBLE_EQ(Plan.site(FaultSite::TaskExecution).Probability, 0.5);
  EXPECT_THROW(parseFaultSpec("task:p=-0.1", Plan), FaultConfigError);
  EXPECT_THROW(parseFaultSpec("fetch:p=nan", Plan), FaultConfigError);
}

TEST(FaultConfig, ParseRejectsMalformedSpecs) {
  FaultPlan Plan;
  EXPECT_THROW(parseFaultSpec("task", Plan), FaultConfigError);
  EXPECT_THROW(parseFaultSpec("warp-core:p=0.1", Plan), FaultConfigError);
  EXPECT_THROW(parseFaultSpec("task:q=0.1", Plan), FaultConfigError);
  EXPECT_THROW(parseFaultSpec("task:nth=0", Plan), FaultConfigError);
  EXPECT_THROW(parseFaultSpec("task:p=banana", Plan), FaultConfigError);
}

TEST(FaultConfig, InjectorRejectsOutOfRangePlan) {
  // A plan assembled programmatically (bypassing the parser) is still
  // range-checked when the injector is built.
  FaultPlan Plan;
  Plan.site(FaultSite::FetchTransient).Probability = 2.0;
  EXPECT_THROW(FaultInjector Inj(Plan), FaultConfigError);
  Plan.site(FaultSite::FetchTransient).Probability = 0.5;
  EXPECT_NO_THROW(FaultInjector Inj(Plan));
}

TEST(FaultConfig, NewSiteNamesRoundTrip) {
  FaultSite S;
  ASSERT_TRUE(parseFaultSite("slow-executor", S));
  EXPECT_EQ(S, FaultSite::SlowExecutor);
  ASSERT_TRUE(parseFaultSite("slow", S));
  EXPECT_EQ(S, FaultSite::SlowExecutor);
  ASSERT_TRUE(parseFaultSite("fetch", S));
  EXPECT_EQ(S, FaultSite::FetchTransient);
  EXPECT_STREQ(faultSiteName(FaultSite::SlowExecutor), "slow-executor");
  EXPECT_STREQ(faultSiteName(FaultSite::FetchTransient), "fetch");
}
