//===- tests/test_gc.cpp - Collector unit tests ---------------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace panthera;
using namespace panthera::heap;
using namespace panthera::gc;

namespace {

class GcTest : public ::testing::Test {
protected:
  void build(PolicyKind Policy, unsigned HeapGB = 8,
             double Ratio = 1.0 / 3.0) {
    // Tear down in reverse dependency order: ~Collector touches the Heap,
    // and the Heap touches the memory simulator.
    C.reset();
    H.reset();
    Mem.reset();
    HeapConfig HC = makeHeapConfig(Policy, HeapGB, Ratio);
    HC.NativeBytes = PaperGB;
    Mem = std::make_unique<memsim::HybridMemory>(
        HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
        memsim::MemoryTechnology{}, memsim::CacheConfig{});
    H = std::make_unique<Heap>(HC, *Mem);
    C = std::make_unique<Collector>(*H, Policy, &Monitor);
  }

  std::unique_ptr<memsim::HybridMemory> Mem;
  std::unique_ptr<Heap> H;
  AccessMonitor Monitor;
  std::unique_ptr<Collector> C;
};

TEST_F(GcTest, MinorGcCollectsUnreachableYoungObjects) {
  build(PolicyKind::Panthera);
  for (int I = 0; I != 1000; ++I)
    H->allocPlain(1, 16);
  uint64_t Before = H->eden().usedBytes();
  EXPECT_GT(Before, 0u);
  C->collectMinor("test");
  EXPECT_EQ(H->eden().usedBytes(), 0u);
  EXPECT_EQ(H->fromSpace().usedBytes(), 0u) << "all garbage";
  EXPECT_EQ(C->stats().MinorGcs, 1u);
}

TEST_F(GcTest, MinorGcPreservesRootedObjects) {
  build(PolicyKind::Panthera);
  GcRoot R(*H, H->allocPlain(1, 16));
  H->storeI64(R.get(), 0, 777);
  C->collectMinor("test");
  EXPECT_FALSE(R.get().isNull());
  EXPECT_EQ(H->loadI64(R.get(), 0), 777) << "payload copied intact";
  EXPECT_TRUE(H->fromSpace().contains(R.get().addr()))
      << "survivor copied to the (swapped) survivor space";
}

TEST_F(GcTest, ReferencesAreUpdatedWhenObjectsMove) {
  build(PolicyKind::Panthera);
  GcRoot Parent(*H, H->allocPlain(1, 8));
  {
    ObjRef Child = H->allocPlain(0, 8);
    H->storeI64(Child, 0, 55);
    H->storeRef(Parent.get(), 0, Child);
  }
  C->collectMinor("test");
  ObjRef Child = H->loadRef(Parent.get(), 0);
  ASSERT_FALSE(Child.isNull());
  EXPECT_EQ(H->loadI64(Child, 0), 55);
}

TEST_F(GcTest, TaggedObjectsArePromotedEagerly) {
  build(PolicyKind::Panthera);
  GcRoot R(*H, H->allocPlain(1, 16));
  H->header(R.get().addr())->setMemTag(MemTag::Dram);
  C->collectMinor("test");
  EXPECT_TRUE(H->oldDram().contains(R.get().addr()))
      << "eager promotion moved the tagged object to old DRAM";
  EXPECT_GE(C->stats().EagerPromotions, 1u);
}

TEST_F(GcTest, TagPropagatesThroughTracing) {
  build(PolicyKind::Panthera);
  // An NVM-tagged array referencing young tuples: tracing must stamp the
  // tag on the tuples and promote them into NVM alongside the array.
  H->setPendingArrayTag(MemTag::Nvm, 3);
  GcRoot Arr(*H, H->allocRefArray(2048));
  ASSERT_TRUE(H->oldNvm().contains(Arr.get().addr()));
  for (uint32_t I = 0; I != 64; ++I) {
    ObjRef T = H->allocPlain(0, 16);
    H->storeRef(Arr.get(), I, T);
  }
  C->collectMinor("test");
  for (uint32_t I = 0; I != 64; ++I) {
    ObjRef T = H->loadRef(Arr.get(), I);
    ASSERT_FALSE(T.isNull());
    EXPECT_TRUE(H->oldNvm().contains(T.addr()))
        << "tuple " << I << " should follow its array into NVM";
    EXPECT_EQ(H->header(T.addr())->memTag(), MemTag::Nvm);
  }
}

TEST_F(GcTest, DramTagWinsConflicts) {
  build(PolicyKind::Panthera);
  // One young object referenced from both a DRAM-tagged and an NVM-tagged
  // holder: DRAM must win (§4.2.2 conflicts).
  H->setPendingArrayTag(MemTag::Dram, 1);
  GcRoot DramArr(*H, H->allocRefArray(2048));
  H->setPendingArrayTag(MemTag::Nvm, 2);
  GcRoot NvmArr(*H, H->allocRefArray(2048));
  ObjRef Shared = H->allocPlain(0, 8);
  H->storeRef(DramArr.get(), 0, Shared);
  H->storeRef(NvmArr.get(), 0, Shared);
  C->collectMinor("test");
  ObjRef Moved = H->loadRef(DramArr.get(), 0);
  EXPECT_EQ(Moved, H->loadRef(NvmArr.get(), 0)) << "still shared";
  EXPECT_EQ(H->header(Moved.addr())->memTag(), MemTag::Dram);
}

TEST_F(GcTest, TagRaisedAfterScanReachesChildren) {
  build(PolicyKind::Panthera);
  // Young X is reachable from an untagged root U and from a DRAM-tagged
  // young root D; X references young Y. The discover worklist is
  // last-in first-out, so with D rooted before U, X and Y are scanned
  // untagged first, and only then does D's scan raise X to DRAM. The raise
  // must re-enqueue X so that Y observes the stronger tag too.
  GcRoot D(*H, H->allocPlain(1, 16));
  H->header(D.get().addr())->setMemTag(MemTag::Dram);
  GcRoot U(*H, H->allocPlain(1, 16));
  ObjRef X = H->allocPlain(1, 16);
  H->storeRef(D.get(), 0, X);
  H->storeRef(U.get(), 0, X);
  ObjRef Y = H->allocPlain(0, 16);
  H->storeRef(X, 0, Y);
  C->collectMinor("test");
  ObjRef MovedX = H->loadRef(U.get(), 0);
  ObjRef MovedY = H->loadRef(MovedX, 0);
  EXPECT_TRUE(H->oldDram().contains(MovedX.addr()));
  EXPECT_EQ(H->header(MovedY.addr())->memTag(), MemTag::Dram);
  EXPECT_TRUE(H->oldDram().contains(MovedY.addr()))
      << "the child of a raised object follows it into old DRAM";
}

TEST_F(GcTest, UntaggedObjectsAgeBeforePromotionToNvm) {
  build(PolicyKind::Panthera);
  GcRoot R(*H, H->allocPlain(0, 16));
  uint8_t Tenure = H->config().Tuning.TenureAge;
  for (uint8_t I = 0; I + 1 < Tenure; ++I) {
    C->collectMinor("age");
    EXPECT_TRUE(H->isYoung(R.get().addr())) << "survivor round " << int(I);
  }
  C->collectMinor("tenure");
  EXPECT_TRUE(H->oldNvm().contains(R.get().addr()))
      << "untagged tenured objects land in NVM (§4.1)";
}

TEST_F(GcTest, EagerPromotionCanBeDisabled) {
  build(PolicyKind::Panthera);
  // Rebuild with eager promotion off (reverse dependency order, as in
  // build(): the old Collector's destructor touches the old Heap).
  C.reset();
  H.reset();
  Mem.reset();
  HeapConfig HC = makeHeapConfig(PolicyKind::Panthera, 8, 1.0 / 3.0);
  HC.Tuning.EagerPromotion = false;
  Mem = std::make_unique<memsim::HybridMemory>(
      HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
      memsim::MemoryTechnology{}, memsim::CacheConfig{});
  H = std::make_unique<Heap>(HC, *Mem);
  C = std::make_unique<Collector>(*H, PolicyKind::Panthera, &Monitor);

  GcRoot R(*H, H->allocPlain(0, 16));
  H->header(R.get().addr())->setMemTag(MemTag::Dram);
  C->collectMinor("test");
  EXPECT_TRUE(H->isYoung(R.get().addr()))
      << "without eager promotion the tagged object ages normally";
}

TEST_F(GcTest, OldToYoungReferencesFoundViaCards) {
  build(PolicyKind::Panthera);
  H->setPendingArrayTag(MemTag::Nvm, 4);
  GcRoot Arr(*H, H->allocRefArray(2048));
  C->collectMinor("settle");
  // Store a young object into the old array after the GC: only the card
  // table can reveal it to the next minor GC.
  ObjRef T = H->allocPlain(0, 8);
  H->storeI64(T, 0, 31337);
  H->storeRef(Arr.get(), 77, T);
  C->collectMinor("card scan");
  ObjRef Moved = H->loadRef(Arr.get(), 77);
  ASSERT_FALSE(Moved.isNull());
  EXPECT_EQ(H->loadI64(Moved, 0), 31337);
  EXPECT_FALSE(H->isYoung(Moved.addr())) << "promoted via tag propagation";
}

TEST_F(GcTest, MajorGcCompactsAndPreservesGraph) {
  build(PolicyKind::Panthera);
  GcRoot Arr(*H, H->allocRefArray(64));
  for (uint32_t I = 0; I != 64; ++I) {
    ObjRef T = H->allocPlain(0, 8);
    H->storeI64(T, 0, I);
    H->storeRef(Arr.get(), I, T);
  }
  // Create garbage, then fully collect.
  for (int I = 0; I != 5000; ++I)
    H->allocPlain(1, 32);
  C->collectMajor("test");
  EXPECT_EQ(C->stats().MajorGcs, 1u);
  EXPECT_EQ(H->eden().usedBytes(), 0u);
  for (uint32_t I = 0; I != 64; ++I) {
    ObjRef T = H->loadRef(Arr.get(), I);
    ASSERT_FALSE(T.isNull());
    EXPECT_EQ(H->loadI64(T, 0), I);
    EXPECT_TRUE(H->isOld(T.addr())) << "full GC tenures all survivors";
  }
}

TEST_F(GcTest, MajorGcReclaimsUnrootedOldObjects) {
  build(PolicyKind::Panthera);
  size_t RootId;
  {
    H->setPendingArrayTag(MemTag::Nvm, 5);
    ObjRef Arr = H->allocRefArray(4096);
    RootId = H->addPersistentRoot(Arr);
  }
  uint64_t UsedBefore = H->oldNvm().usedBytes();
  EXPECT_GT(UsedBefore, 0u);
  H->removePersistentRoot(RootId);
  C->collectMajor("test");
  EXPECT_LT(H->oldNvm().usedBytes(), UsedBefore)
      << "unpersisted array must be reclaimed";
}

TEST_F(GcTest, DynamicMigrationMovesHotRddToDram) {
  build(PolicyKind::Panthera);
  H->setPendingArrayTag(MemTag::Nvm, 42);
  GcRoot Arr(*H, H->allocRefArray(2048));
  ASSERT_TRUE(H->oldNvm().contains(Arr.get().addr()));
  // Clear the static tag so only the dynamic decision applies; then record
  // enough calls to cross the hot threshold.
  H->header(Arr.get().addr())->setMemTag(MemTag::None);
  for (int I = 0; I != 20; ++I)
    Monitor.recordCall(42);
  C->collectMajor("migrate");
  EXPECT_TRUE(H->oldDram().contains(Arr.get().addr()))
      << "hot NVM array must migrate to DRAM";
  EXPECT_EQ(C->stats().MigratedRddArraysToDram, 1u);
  EXPECT_EQ(C->stats().RddsMigrated, 1u);
}

TEST_F(GcTest, DynamicMigrationDemotesColdDramRdd) {
  build(PolicyKind::Panthera);
  H->setPendingArrayTag(MemTag::Dram, 43);
  GcRoot Arr(*H, H->allocRefArray(2048));
  ASSERT_TRUE(H->oldDram().contains(Arr.get().addr()));
  H->header(Arr.get().addr())->setMemTag(MemTag::None);
  // Zero calls in the window: cold.
  C->collectMajor("demote");
  EXPECT_TRUE(H->oldNvm().contains(Arr.get().addr()))
      << "cold DRAM array must migrate to NVM";
  EXPECT_EQ(C->stats().MigratedRddArraysToNvm, 1u);
}

TEST_F(GcTest, MigrationMovesReachableClosure) {
  build(PolicyKind::Panthera);
  H->setPendingArrayTag(MemTag::Nvm, 44);
  GcRoot Arr(*H, H->allocRefArray(2048));
  H->header(Arr.get().addr())->setMemTag(MemTag::None);
  {
    ObjRef T = H->allocPlain(0, 16);
    H->storeI64(T, 0, 9);
    H->storeRef(Arr.get(), 0, T);
  }
  C->collectMinor("promote tuple");
  for (int I = 0; I != 20; ++I)
    Monitor.recordCall(44);
  // The static tag was cleared on the array but tracing re-tagged the
  // tuple NVM during the minor GC; reset it to None for a clean test.
  ObjRef Tuple = H->loadRef(Arr.get(), 0);
  H->header(Tuple.addr())->setMemTag(MemTag::None);
  C->collectMajor("migrate");
  EXPECT_TRUE(H->oldDram().contains(Arr.get().addr()));
  ObjRef Moved = H->loadRef(Arr.get(), 0);
  EXPECT_TRUE(H->oldDram().contains(Moved.addr()))
      << "objects reachable from the migrated array move too";
  EXPECT_EQ(H->loadI64(Moved, 0), 9);
}

TEST_F(GcTest, KingsguardNurseryPromotesToNvmOnly) {
  build(PolicyKind::KingsguardNursery);
  GcRoot R(*H, H->allocPlain(0, 16));
  for (int I = 0; I != 4; ++I)
    C->collectMinor("age");
  EXPECT_TRUE(H->oldNvm().contains(R.get().addr()));
  EXPECT_FALSE(H->hasSplitOldGen());
}

TEST_F(GcTest, KingsguardWritesPlacesWriteHotInDram) {
  build(PolicyKind::KingsguardWrites);
  GcRoot Hot(*H, H->allocPlain(0, 16));
  GcRoot Cold(*H, H->allocPlain(0, 16));
  // Write the hot object repeatedly; leave the cold one untouched.
  for (int I = 0; I != 8; ++I)
    H->storeI64(Hot.get(), 0, I);
  for (int I = 0; I != 4; ++I)
    C->collectMinor("age");
  EXPECT_TRUE(H->oldDram().contains(Hot.get().addr()))
      << "write-hot object belongs in DRAM under KW";
  EXPECT_TRUE(H->oldNvm().contains(Cold.get().addr()))
      << "read-only object belongs in NVM under KW";
}

TEST_F(GcTest, SharedCardPathologyWithoutPadding) {
  // Two large arrays sharing a card: the §4.2.3 pathology must appear when
  // padding is off and disappear when it is on.
  HeapConfig HC = makeHeapConfig(PolicyKind::Panthera, 8, 1.0 / 3.0);
  HC.Tuning.CardPadding = false;
  Mem = std::make_unique<memsim::HybridMemory>(
      HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
      memsim::MemoryTechnology{}, memsim::CacheConfig{});
  H = std::make_unique<Heap>(HC, *Mem);
  C = std::make_unique<Collector>(*H, PolicyKind::Panthera, &Monitor);

  H->setPendingArrayTag(MemTag::Nvm, 1);
  GcRoot A(*H, H->allocRefArray(1056));
  H->setPendingArrayTag(MemTag::Nvm, 2);
  GcRoot B(*H, H->allocRefArray(1056));
  // Dirty the shared boundary card via a store near the end of A.
  ObjRef T = H->allocPlain(0, 8);
  H->storeRef(A.get(), 1055, T);
  C->collectMinor("scan");
  EXPECT_GE(C->stats().SharedArrayCardScans, 1u);
  uint64_t FirstScan = C->stats().SharedArrayCardScans;
  // The shared card can never be cleaned: the next minor GC rescans it.
  C->collectMinor("rescan");
  EXPECT_GT(C->stats().SharedArrayCardScans, FirstScan);
}

TEST_F(GcTest, NoSharedCardPathologyWithPadding) {
  build(PolicyKind::Panthera); // padding on by default
  H->setPendingArrayTag(MemTag::Nvm, 1);
  GcRoot A(*H, H->allocRefArray(1056));
  H->setPendingArrayTag(MemTag::Nvm, 2);
  GcRoot B(*H, H->allocRefArray(1056));
  ObjRef T = H->allocPlain(0, 8);
  H->storeRef(A.get(), 1055, T);
  C->collectMinor("scan");
  EXPECT_EQ(C->stats().SharedArrayCardScans, 0u);
}

TEST_F(GcTest, AllocationTriggersMinorGcWhenEdenFull) {
  build(PolicyKind::Panthera);
  GcRoot Live(*H, H->allocPlain(1, 16));
  uint64_t EdenSize = H->eden().sizeBytes();
  uint64_t PerObject = 48; // header + ref + payload
  uint64_t N = EdenSize / PerObject + 100;
  for (uint64_t I = 0; I != N; ++I)
    H->allocPlain(1, 8);
  EXPECT_GE(C->stats().MinorGcs, 1u) << "eden exhaustion must collect";
  EXPECT_FALSE(Live.get().isNull());
}

TEST_F(GcTest, UnmanagedInterleavedPromotionWorks) {
  build(PolicyKind::Unmanaged);
  GcRoot R(*H, H->allocPlain(0, 16));
  for (int I = 0; I != 4; ++I)
    C->collectMinor("age");
  EXPECT_TRUE(H->oldNvm().contains(R.get().addr()))
      << "unified (interleaved) old space holds tenured objects";
}

TEST_F(GcTest, EventLogRecordsEveryCollection) {
  build(PolicyKind::Panthera);
  GcRoot R(*H, H->allocPlain(1, 16));
  C->collectMinor("first");
  C->collectMinor("second");
  C->collectMajor("full");
  const std::vector<GcEvent> &Log = C->eventLog();
  ASSERT_GE(Log.size(), 3u);
  size_t N = Log.size();
  EXPECT_FALSE(Log[N - 3].Major);
  EXPECT_STREQ(Log[N - 3].Reason, "first");
  EXPECT_FALSE(Log[N - 2].Major);
  EXPECT_TRUE(Log[N - 1].Major);
  EXPECT_STREQ(Log[N - 1].Reason, "full");
  for (const GcEvent &E : Log)
    EXPECT_GE(E.DurationNs, 0.0);
  // Events are time-ordered.
  for (size_t I = 1; I != N; ++I)
    EXPECT_GE(Log[I].StartNs, Log[I - 1].StartNs);
}

TEST_F(GcTest, EventLogCountsPromotedBytes) {
  build(PolicyKind::Panthera);
  H->setPendingArrayTag(MemTag::Nvm, 9);
  GcRoot Arr(*H, H->allocRefArray(2048));
  for (uint32_t I = 0; I != 256; ++I) {
    ObjRef T = H->allocPlain(0, 16);
    H->storeRef(Arr.get(), I, T);
  }
  C->collectMinor("promote");
  const GcEvent &E = C->eventLog().back();
  EXPECT_GT(E.BytesPromoted, 256u * 32)
      << "eagerly promoted tuples must be attributed to this event";
  EXPECT_GT(E.CardsScanned, 0u);
}

/// Regression test for the survivor-age wraparound: with TenureAge at
/// the uint8 ceiling and the old generation packed full, untagged
/// survivors can neither tenure by age nor be promoted, so their age must
/// pin at 255 across further minor GCs instead of wrapping to 0 (which
/// restarts the tenuring clock and strands hot objects in the nursery).
TEST(GcAgeSaturation, ParallelScavengeSaturatesAt255) {
  HeapConfig HC = makeHeapConfig(PolicyKind::Panthera, 2, 1.0 / 3.0);
  HC.NativeBytes = PaperGB / 4;
  HC.Tuning.TenureAge = 255;
  HC.Tuning.MajorGcOccupancy = 2.0; // no automatic major resets the clock
  auto Mem = std::make_unique<memsim::HybridMemory>(
      HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
      memsim::MemoryTechnology{}, memsim::CacheConfig{});
  auto H = std::make_unique<Heap>(HC, *Mem);
  auto C = std::make_unique<Collector>(*H, PolicyKind::Panthera, nullptr);

  // Pack both old-generation components with pretenured arrays until one
  // falls back to a young allocation (DRAM-tagged arrays overflow into
  // NVM first): promotions must now fail for anything array-sized.
  for (int I = 0; I != 1000; ++I) {
    H->setPendingArrayTag(MemTag::Dram, 1);
    ObjRef A = H->allocRefArray(1024);
    if (H->isYoung(A.addr()))
      break;
  }
  H->setPendingArrayTag(MemTag::None, 0);

  // Rooted young objects one step from the age ceiling.
  std::vector<size_t> Ids;
  for (int I = 0; I != 600; ++I)
    Ids.push_back(H->addPersistentRoot(H->allocPlain(0, 8)));
  for (size_t Id : Ids)
    H->header(H->persistentRoot(Id).addr())->Age = 254;

  C->collectMinor("age-saturation");
  C->collectMinor("age-saturation"); // the wrap step: 255 must stay 255
  size_t YoungAtCeiling = 0;
  for (size_t Id : Ids) {
    uint64_t Addr = H->persistentRoot(Id).addr();
    if (!H->isYoung(Addr))
      continue; // squeezed into a leftover old-gen gap; age preserved
    EXPECT_EQ(H->header(Addr)->Age, 255u)
        << "survivor age must saturate";
    ++YoungAtCeiling;
  }
  EXPECT_GE(YoungAtCeiling, 50u)
      << "test setup must strand objects at the age ceiling";
}

TEST(AccessMonitorSaturation, WindowCountSaturatesInsteadOfWrapping) {
  // A hot RDD's window counter at the uint32 boundary must pin at
  // UINT32_MAX, not wrap toward 0 and read as cold at the next major GC.
  AccessMonitor M;
  M.recordCalls(7, UINT32_MAX - 1);
  EXPECT_EQ(M.callsInWindow(7), UINT32_MAX - 1);
  M.recordCall(7); // exactly at the boundary
  EXPECT_EQ(M.callsInWindow(7), UINT32_MAX);
  M.recordCall(7); // would wrap to 0 without saturation
  EXPECT_EQ(M.callsInWindow(7), UINT32_MAX);
  M.recordCalls(7, 12345); // bulk add past the boundary
  EXPECT_EQ(M.callsInWindow(7), UINT32_MAX);
  // The lifetime total (Table 5) keeps counting in 64 bits.
  EXPECT_EQ(M.totalCalls(),
            static_cast<uint64_t>(UINT32_MAX) + 1 + 12345);
  // Saturation is per-RDD: other entries are unaffected.
  M.recordCall(8);
  EXPECT_EQ(M.callsInWindow(8), 1u);
  M.resetWindow();
  EXPECT_EQ(M.callsInWindow(7), 0u);
}

} // namespace
