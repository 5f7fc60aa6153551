//===- tests/test_offheap.cpp - Off-heap serialized cache tier tests ------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The off-heap serialized cache tier (docs/offheap.md): RegionAllocator
/// invariants (bump boundary, whole-region reclamation, free-list
/// recycling), the OffHeapCache round trip and eviction order, the
/// GC-leaf-stub contract (cached bytes contribute zero trace work), the
/// engine integration behind StorageLevel::OffHeapSer (including the
/// zero-budget spill-all case and persist/unpersist cycles returning their
/// native bytes), and the lazily built tier's absence from runs that never
/// persist OFF_HEAP.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "gc/HeapVerifier.h"
#include "offheap/OffHeapCache.h"

#include <gtest/gtest.h>

using namespace panthera;
using heap::ObjRef;
using rdd::Rdd;
using rdd::RddContext;
using rdd::SourceData;
using rdd::SourceRecord;

namespace {

class OffHeapTest : public ::testing::Test {
protected:
  void makeRuntime(unsigned OffHeapMB = core::RuntimeConfig().OffHeapMB,
                   unsigned Executors = 1) {
    core::RuntimeConfig Config;
    Config.Policy = gc::PolicyKind::Panthera;
    Config.HeapPaperGB = 16;
    Config.OffHeapMB = OffHeapMB;
    Config.Cluster.NumExecutors = Executors;
    RT = std::make_unique<core::Runtime>(Config);
  }

  SourceData makeData(int64_t N) {
    SourceData Data(RT->ctx().config().NumPartitions);
    for (int64_t I = 0; I != N; ++I)
      Data[static_cast<size_t>(I) % Data.size()].push_back(
          {I, static_cast<double>(I) * 0.5});
    return Data;
  }

  Rdd persistOffHeap(const SourceData *Data) {
    return RT->ctx()
        .source(Data)
        .map([](RddContext &C, ObjRef T) {
          return C.makeTuple(C.key(T), C.value(T));
        })
        .persistAs("oh", rdd::StorageLevel::OffHeapSer);
  }

  std::unique_ptr<core::Runtime> RT;
};

//===----------------------------------------------------------------------===
// RegionAllocator
//===----------------------------------------------------------------------===

TEST_F(OffHeapTest, RegionAllocatorClaimsAndCarvesPageGranular) {
  makeRuntime(0);
  offheap::RegionAllocator A(RT->heap(), 64 * 1024, 4096);
  ASSERT_TRUE(A.claimed());
  EXPECT_EQ(A.claimBytes(), 64u * 1024);
  EXPECT_EQ(A.claimUsed(), 0u);

  uint32_t R0 = A.allocRegion(100); // rounds up to one page
  ASSERT_NE(R0, offheap::NoRegion);
  EXPECT_EQ(A.regionSize(R0), 4096u);
  EXPECT_EQ(A.claimUsed(), 4096u);
  EXPECT_EQ(A.refCount(R0), 1u);
  EXPECT_TRUE(A.live(R0));
  EXPECT_EQ(A.stats().RegionsCarved, 1u);

  // Bump allocation is 8-aligned and sequential.
  uint64_t P0 = A.regionAlloc(R0, 10);
  uint64_t P1 = A.regionAlloc(R0, 8);
  EXPECT_EQ(P0, A.regionBase(R0));
  EXPECT_EQ(P1, P0 + 16);
  EXPECT_EQ(A.regionUsed(R0), 24u);
}

// Satellite regression: the arena-full boundary. The pre-refactor shuffle
// arenas signalled "spill this block to executor disk" with a bare
// UINT64_MAX; the named offheap::NoAddress sentinel must appear exactly at
// the old boundary -- a request that fits to the last byte succeeds, one
// more 8-byte step fails.
TEST_F(OffHeapTest, FullArenaReturnsTheNamedSpillSentinel) {
  makeRuntime(0);
  offheap::RegionAllocator A(RT->heap(), 8192, 4096);
  ASSERT_TRUE(A.claimed());
  uint32_t Arena = A.allocRegion(A.claimBytes());
  ASSERT_NE(Arena, offheap::NoRegion);
  EXPECT_EQ(A.regionSize(Arena), 8192u);

  EXPECT_NE(A.regionAlloc(Arena, 8000), offheap::NoAddress);
  // 192 bytes left: 200 must spill, 192 must still fit, then 1 spills.
  EXPECT_EQ(A.regionAlloc(Arena, 200), offheap::NoAddress);
  EXPECT_NE(A.regionAlloc(Arena, 192), offheap::NoAddress);
  EXPECT_EQ(A.regionAlloc(Arena, 1), offheap::NoAddress);
  // The reset rewinds the bump pointer for the next shuffle.
  A.resetRegion(Arena);
  EXPECT_EQ(A.regionUsed(Arena), 0u);
  EXPECT_NE(A.regionAlloc(Arena, 8192), offheap::NoAddress);
}

TEST_F(OffHeapTest, RefcountReleaseRecyclesThroughTheFreeList) {
  makeRuntime(0);
  offheap::RegionAllocator A(RT->heap(), 16 * 1024, 4096);
  uint32_t R0 = A.allocRegion(4096);
  uint32_t R1 = A.allocRegion(4096);
  uint32_t R2 = A.allocRegion(4096);
  ASSERT_NE(R2, offheap::NoRegion);

  A.retain(R1);
  EXPECT_FALSE(A.release(R1)) << "refcount 2 -> 1 keeps the region live";
  EXPECT_TRUE(A.live(R1));
  EXPECT_TRUE(A.release(R1));
  EXPECT_FALSE(A.live(R1));
  EXPECT_TRUE(A.release(R0));
  EXPECT_EQ(A.liveRegions(), 1u);

  // Recycling is first-fit in region-id order: R0 comes back first even
  // though R1 was freed first.
  uint32_t Re = A.allocRegion(1024);
  EXPECT_EQ(Re, R0);
  EXPECT_EQ(A.refCount(Re), 1u);
  EXPECT_EQ(A.regionUsed(Re), 0u);
  EXPECT_EQ(A.touches(Re), 0u);
  EXPECT_EQ(A.stats().RegionsRecycled, 1u);
  EXPECT_EQ(A.stats().RegionsReleased, 2u);
}

TEST_F(OffHeapTest, ClaimHalvesUnderNativePressureAndCanEndUnclaimed) {
  makeRuntime(0);
  // Consume almost the whole native space, then ask for more than the
  // remainder: the claim halves until it fits.
  uint64_t Free = RT->heap().native().sizeBytes() -
                  RT->heap().native().usedBytes();
  RT->heap().allocNative(Free - 64 * 1024);
  offheap::RegionAllocator A(RT->heap(), 1024 * 1024, 4096);
  ASSERT_TRUE(A.claimed());
  EXPECT_LE(A.claimBytes(), 64u * 1024);
  EXPECT_GE(A.claimBytes(), 4096u);

  // Below MinClaimBytes nothing is claimed and every allocRegion fails
  // (the caller's disk-spill fallback).
  offheap::RegionAllocator B(RT->heap(), 1024 * 1024 * 1024, 1024 * 1024);
  EXPECT_FALSE(B.claimed());
  EXPECT_EQ(B.allocRegion(8), offheap::NoRegion);
  EXPECT_GT(B.stats().AllocFailures, 0u);
}

//===----------------------------------------------------------------------===
// OffHeapCache
//===----------------------------------------------------------------------===

TEST_F(OffHeapTest, CacheRoundTripsRecords) {
  makeRuntime(0);
  offheap::OffHeapCache Cache(RT->heap(), 64 * 1024, nullptr, nullptr);
  std::vector<SourceRecord> Rows;
  for (int64_t I = 0; I != 500; ++I)
    Rows.push_back({I, I * 2.0});

  offheap::OffHeapCache::Placement P = Cache.cachePartition(
      Rows.data(), Rows.size(), sizeof(SourceRecord), /*RddId=*/7,
      /*Part=*/0);
  ASSERT_NE(P.Region, offheap::NoRegion);
  ASSERT_NE(P.Addr, offheap::NoAddress);
  EXPECT_EQ(Cache.numCached(), 1u);
  EXPECT_EQ(Cache.stats().PartitionsCached, 1u);
  EXPECT_EQ(Cache.stats().BytesCached, Rows.size() * sizeof(SourceRecord));

  std::vector<SourceRecord> Back(Rows.size());
  Cache.readPartition(P.Region, P.Addr, Back.data(), Back.size(),
                      sizeof(SourceRecord));
  for (size_t I = 0; I != Rows.size(); ++I) {
    EXPECT_EQ(Back[I].Key, Rows[I].Key);
    EXPECT_DOUBLE_EQ(Back[I].Val, Rows[I].Val);
  }
  EXPECT_EQ(Cache.stats().StubReads, 1u);
  EXPECT_EQ(Cache.allocator().touches(P.Region), 1u);
}

TEST_F(OffHeapTest, VictimOrderIsUntouchedFirstThenLeastTouched) {
  makeRuntime(0);
  offheap::OffHeapCache Cache(RT->heap(), 64 * 1024, nullptr, nullptr);
  std::vector<SourceRecord> Rows(64, SourceRecord{1, 1.0});
  auto CacheOne = [&](uint32_t Part) {
    return Cache.cachePartition(Rows.data(), Rows.size(),
                                sizeof(SourceRecord), /*RddId=*/1, Part);
  };
  offheap::OffHeapCache::Placement P0 = CacheOne(0);
  offheap::OffHeapCache::Placement P1 = CacheOne(1);
  offheap::OffHeapCache::Placement P2 = CacheOne(2);
  std::vector<SourceRecord> Buf(Rows.size());

  // Touch 0 twice and 2 once: the untouched partition 1 evicts first.
  Cache.readPartition(P0.Region, P0.Addr, Buf.data(), Buf.size(),
                      sizeof(SourceRecord));
  Cache.readPartition(P0.Region, P0.Addr, Buf.data(), Buf.size(),
                      sizeof(SourceRecord));
  Cache.readPartition(P2.Region, P2.Addr, Buf.data(), Buf.size(),
                      sizeof(SourceRecord));
  offheap::OffHeapCache::Victim V = Cache.pickVictim();
  EXPECT_EQ(V.Region, P1.Region);
  EXPECT_EQ(V.Part, 1u);

  // With 1 gone, the least-touched survivor (2, one read) is next.
  Cache.release(P1.Region, /*Evicted=*/true);
  V = Cache.pickVictim();
  EXPECT_EQ(V.Region, P2.Region);
  EXPECT_EQ(Cache.stats().PartitionsEvicted, 1u);
  EXPECT_EQ(Cache.stats().RegionsFreed, 1u);
}

//===----------------------------------------------------------------------===
// Engine integration (StorageLevel::OffHeapSer + the tier)
//===----------------------------------------------------------------------===

TEST_F(OffHeapTest, EngineRoundTripsThroughStubs) {
  makeRuntime(/*OffHeapMB=*/256);
  SourceData Data = makeData(2000);
  Rdd R = persistOffHeap(&Data);
  EXPECT_EQ(RT->offHeapCache(), nullptr) << "the tier is built on first use";
  EXPECT_EQ(R.count(), 2000);
  ASSERT_NE(RT->offHeapCache(), nullptr);
  EXPECT_TRUE(R.node()->OffHeapStubs);
  const offheap::OffHeapCacheStats &S = RT->offHeapCache()->stats();
  EXPECT_EQ(S.PartitionsCached, RT->ctx().config().NumPartitions);
  EXPECT_EQ(S.PartitionsEvicted, 0u);

  // Second action reads back through the stubs, not a recompute.
  EXPECT_EQ(R.count(), 2000);
  EXPECT_GT(RT->offHeapCache()->stats().StubReads, 0u);
  for (const SourceRecord &Rec : R.collect())
    EXPECT_DOUBLE_EQ(Rec.Val, Rec.Key * 0.5);
  // The tier's counters publish under offheap.*.
  EXPECT_NE(RT->metricsJson().find("\"offheap.partitions_cached\""),
            std::string::npos);
}

// The leaf-stub contract: cached bytes never appear in trace work. 20x
// the cached data must leave the collector's visited-object count exactly
// unchanged -- the old generation sees the same stubs either way.
TEST_F(OffHeapTest, StubsAreGcLeaves) {
  auto VisitedAfterCaching = [&](int64_t Records) {
    makeRuntime(/*OffHeapMB=*/2048);
    SourceData Data = makeData(Records);
    Rdd R = persistOffHeap(&Data);
    R.count();
    EXPECT_EQ(RT->offHeapCache()->stats().PartitionsEvicted, 0u);
    RT->collector().collectMajor("measure");
    gc::VerifyResult V = gc::verifyHeap(RT->heap());
    EXPECT_TRUE(V.Ok) << V.FirstProblem;
    return V.ObjectsVisited;
  };
  uint64_t Small = VisitedAfterCaching(2000);
  uint64_t Large = VisitedAfterCaching(40000);
  EXPECT_EQ(Small, Large)
      << "cached bytes leaked into the traced object graph";
}

TEST_F(OffHeapTest, UnpersistFreesAndRecyclesRegions) {
  makeRuntime(/*OffHeapMB=*/256);
  SourceData Data = makeData(2000);
  {
    Rdd R = persistOffHeap(&Data);
    R.count();
    offheap::RegionAllocator &A = RT->offHeapCache()->allocator();
    EXPECT_EQ(A.liveRegions(), RT->ctx().config().NumPartitions);
    R.unpersist();
    EXPECT_EQ(A.liveRegions(), 0u);
    EXPECT_EQ(RT->offHeapCache()->numCached(), 0u);
    EXPECT_EQ(RT->offHeapCache()->stats().PartitionsUnpersisted,
              RT->ctx().config().NumPartitions);
  }
  // A fresh persist recycles the freed regions instead of carving.
  Rdd R2 = persistOffHeap(&Data);
  R2.count();
  EXPECT_GT(RT->offHeapCache()->allocator().stats().RegionsRecycled, 0u);
  for (const SourceRecord &Rec : R2.collect())
    EXPECT_DOUBLE_EQ(Rec.Val, Rec.Key * 0.5);
}

// A budget far below the partition footprint: the eviction loop spills
// earlier partitions to the RDD's disk tier, results stay correct, and
// spilled stubs read back through the disk path.
TEST_F(OffHeapTest, BudgetPressureSpillsToDiskAndStaysCorrect) {
  makeRuntime(/*OffHeapMB=*/8); // 8 KB claim vs ~4 x 8 KB of partitions
  SourceData Data = makeData(2000);
  Rdd R = persistOffHeap(&Data);
  EXPECT_EQ(R.count(), 2000);
  const offheap::OffHeapCacheStats &S = RT->offHeapCache()->stats();
  EXPECT_GT(S.PartitionsEvicted, 0u) << "the tiny budget must evict";
  double Sum = R.reduce([](double A, double B) { return A + B; });
  double Expected = 0;
  for (int64_t I = 0; I != 2000; ++I)
    Expected += I * 0.5;
  EXPECT_DOUBLE_EQ(Sum, Expected);
}

// A zero budget is not a separate mode: the tier claims nothing, and every
// partition spills to executor disk behind a NoAddress stub.
TEST_F(OffHeapTest, ZeroBudgetSpillsEveryPartition) {
  makeRuntime(/*OffHeapMB=*/0);
  SourceData Data = makeData(2000);
  Rdd R = persistOffHeap(&Data);
  EXPECT_EQ(R.count(), 2000);
  EXPECT_TRUE(R.node()->OffHeapStubs);
  ASSERT_NE(RT->offHeapCache(), nullptr);
  EXPECT_FALSE(RT->offHeapCache()->allocator().claimed());
  EXPECT_EQ(RT->offHeapCache()->stats().PartitionsCached, 0u);
  EXPECT_EQ(R.node()->DiskParts.size(), RT->ctx().config().NumPartitions);
  double Sum = R.reduce([](double A, double B) { return A + B; });
  EXPECT_DOUBLE_EQ(Sum, 0.5 * 1999 * 2000 / 2);
}

// Regression: OFF_HEAP persists used to bump-allocate native memory that
// unpersist never returned, so the default 16 MB native region ran out
// after ten 100k-record cycles. Regions now recycle through unpersist.
TEST_F(OffHeapTest, PersistUnpersistCyclesReturnNativeBytes) {
  makeRuntime();
  SourceData Data = makeData(100000);
  for (int Cycle = 0; Cycle != 30; ++Cycle) {
    Rdd R = persistOffHeap(&Data);
    ASSERT_EQ(R.count(), 100000) << "cycle " << Cycle;
    R.unpersist();
  }
  const offheap::OffHeapCache &C = *RT->offHeapCache();
  EXPECT_EQ(C.stats().PartitionsEvicted, 0u);
  EXPECT_EQ(C.stats().PartitionsUnpersisted,
            30u * RT->ctx().config().NumPartitions);
  EXPECT_EQ(RT->offHeapCache()->allocator().liveRegions(), 0u);
  EXPECT_EQ(RT->heap().native().usedBytes(),
            RT->offHeapCache()->allocator().claimBytes())
      << "the tier's one claim is the only native allocation";
  EXPECT_EQ(RT->offHeapCache()->allocator().claimBytes(),
            RT->heap().native().sizeBytes())
      << "the default budget claims exactly the native region";
}

// The tier is built by the first OFF_HEAP persist, so a run that never
// makes one exports no offheap.* keys.
TEST_F(OffHeapTest, TierOffIsInert) {
  makeRuntime();
  SourceData Data = makeData(2000);
  Rdd R = RT->ctx().source(&Data).persistAs("mem",
                                             rdd::StorageLevel::MemoryOnly);
  EXPECT_EQ(R.count(), 2000);
  EXPECT_EQ(RT->offHeapCache(), nullptr);
  EXPECT_EQ(RT->metricsJson().find("offheap."), std::string::npos);
  EXPECT_EQ(RT->traceJson().find("offheap"), std::string::npos);
}

TEST_F(OffHeapTest, ChecksumInvariantAcrossThreadsAndExecutors) {
  auto SumWith = [&](unsigned Executors) {
    makeRuntime(/*OffHeapMB=*/256, Executors);
    SourceData Data = makeData(4000);
    Rdd R = persistOffHeap(&Data);
    R.count(); // materialize into the tier first
    return R.reduce([](double A, double B) { return A + B; });
  };
  double Base = SumWith(1);
  EXPECT_DOUBLE_EQ(Base, SumWith(2));
  EXPECT_DOUBLE_EQ(Base, SumWith(3));
}

} // namespace
