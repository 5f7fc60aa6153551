//===- tests/test_cardtable.cpp - Card table / object-start tests ---------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/CardTable.h"
#include "heap/Heap.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <memory>

using namespace panthera;
using namespace panthera::heap;

TEST(CardTable, IndexingAndDirtying) {
  CardTable CT(1 << 20);
  EXPECT_EQ(CT.cardIndex(0), 0u);
  EXPECT_EQ(CT.cardIndex(511), 0u);
  EXPECT_EQ(CT.cardIndex(512), 1u);
  EXPECT_EQ(CT.cardStart(3), 3u * 512);
  EXPECT_FALSE(CT.isDirty(5));
  CT.dirtyCardFor(5 * 512 + 100);
  EXPECT_TRUE(CT.isDirty(5));
  CT.clean(5);
  EXPECT_FALSE(CT.isDirty(5));
}

TEST(CardTable, ObjectStartKeepsLowestPerCard) {
  CardTable CT(1 << 20);
  CT.noteObjectStart(1024 + 128);
  CT.noteObjectStart(1024 + 64); // lower in the same card
  CT.noteObjectStart(1024 + 256);
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(1024)), 1024u + 64);
}

TEST(CardTable, ClearRangeResetsBothTables) {
  CardTable CT(1 << 20);
  CT.dirtyCardFor(2048);
  CT.noteObjectStart(2048);
  CT.clearRange(1536, 4096);
  EXPECT_FALSE(CT.isDirty(CT.cardIndex(2048)));
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(2048)), CardTable::NoObject);
}

TEST(CardTable, CardIndexAbortsBeyondCoveredRange) {
  CardTable CT(1 << 20); // 2048 cards
  EXPECT_EQ(CT.cardIndex((1 << 20) - 1), CT.numCards() - 1);
#if GTEST_HAS_DEATH_TEST
  // One byte past the covered range must die in every build type, not
  // just under assertions: a release-build out-of-bounds index here
  // corrupts the dirty/first-object vectors silently.
  EXPECT_DEATH(CT.cardIndex(1 << 20), "beyond covered range");
  EXPECT_DEATH(CT.dirtyCardFor(UINT64_MAX), "beyond covered range");
#endif
}

TEST(CardTable, ObjectStartAtAddressZeroIsVisible) {
  // Address 0 is a legal recorded start (the table covers the range from
  // 0); the old `0` empty sentinel made such an object invisible to
  // dirty-card scanning. An untouched card must report NoObject instead.
  CardTable CT(1 << 20);
  EXPECT_EQ(CT.firstObjectInCard(0), CardTable::NoObject);
  CT.noteObjectStart(0);
  EXPECT_EQ(CT.firstObjectInCard(0), 0u);
  // A later, higher start in the same card must not displace it.
  CT.noteObjectStart(128);
  EXPECT_EQ(CT.firstObjectInCard(0), 0u);
  CT.clearRange(0, 512);
  EXPECT_EQ(CT.firstObjectInCard(0), CardTable::NoObject);
}

TEST(CardTable, ClearRangePartialCardIsConservative) {
  // Unaligned Start/End sharing a card with a neighbor: the dirty bit
  // must survive (spurious rescan is safe) and the first-object entry is
  // dropped only when the recorded start lies inside [Start, End).
  CardTable CT(1 << 20);

  // Leading partial card: neighbor's object at 1024, cleared range
  // starts mid-card at 1280.
  CT.dirtyCardFor(1024);
  CT.noteObjectStart(1024);
  CT.clearRange(1280, 4096);
  EXPECT_TRUE(CT.isDirty(CT.cardIndex(1024)))
      << "partial card must keep its dirty bit";
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(1024)), 1024u)
      << "neighbor's object start below Start must survive";

  // Same leading card, but the recorded start lies inside the range.
  CT.noteObjectStart(1300); // 1300 > 1024, keeps 1024 -- reset first
  CT.clearRange(512, 1536); // drops 1024 (full card 1024..1536? no: 1024
                            // card is [1024,1536), fully inside [512,1536))
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(1024)), CardTable::NoObject);
  CT.dirtyCardFor(1100);
  CT.noteObjectStart(1100);
  CT.clearRange(1200, 2048); // 1100 < Start: entry survives
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(1100)), 1100u);
  CT.clearRange(1050, 1536); // 1100 inside [1050, 1536): entry dropped
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(1100)), CardTable::NoObject);
  EXPECT_TRUE(CT.isDirty(CT.cardIndex(1100)))
      << "partial trailing card keeps its dirty bit";

  // Trailing partial card: range ends mid-card, object past End survives.
  CT.dirtyCardFor(4096 + 400);
  CT.noteObjectStart(4096 + 400);
  CT.clearRange(2048, 4096 + 100); // End mid-card, start at 4496 >= End
  EXPECT_TRUE(CT.isDirty(CT.cardIndex(4096)));
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(4096)), 4096u + 400);
}

namespace {

class BotTest : public ::testing::Test {
protected:
  void SetUp() override {
    HeapConfig Config;
    Config.HeapBytes = 8 * PaperGB;
    Config.NativeBytes = 2 * PaperGB;
    Config.Layout = OldGenLayout::SplitDramNvm;
    Mem = std::make_unique<memsim::HybridMemory>(
        16 * PaperGB, memsim::MemoryTechnology{}, memsim::CacheConfig{});
    H = std::make_unique<Heap>(Config, *Mem);
  }
  std::unique_ptr<memsim::HybridMemory> Mem;
  std::unique_ptr<Heap> H;
};

TEST_F(BotTest, FindsObjectSpanningManyCards) {
  // One giant array covers dozens of cards with no object start in them.
  H->setPendingArrayTag(MemTag::Nvm, 1);
  ObjRef Big = H->allocRefArray(8192); // 64 KB+, ~128 cards
  Space &S = H->oldNvm();
  size_t FirstCard = H->cardTable().cardIndex(Big.addr());
  for (size_t Off : {size_t(1), size_t(17), size_t(100)}) {
    EXPECT_EQ(H->firstObjectIntersectingCard(S, FirstCard + Off),
              Big.addr())
        << "card " << Off << " cards past the array start";
  }
}

TEST_F(BotTest, ReturnsZeroBeyondAllocationFrontier) {
  H->setPendingArrayTag(MemTag::Nvm, 1);
  H->allocRefArray(2048);
  Space &S = H->oldNvm();
  size_t TopCard = H->cardTable().cardIndex(S.top());
  EXPECT_EQ(H->firstObjectIntersectingCard(S, TopCard + 10), 0u);
}

TEST_F(BotTest, FindsSecondObjectInSharedCard) {
  // Without padding, a small filler-free layout puts the boundary of two
  // arrays inside one card; the walk from the first must reach both.
  HeapConfig Config;
  Config.HeapBytes = 8 * PaperGB;
  Config.NativeBytes = 2 * PaperGB;
  Config.Tuning.CardPadding = false;
  Mem = std::make_unique<memsim::HybridMemory>(
      16 * PaperGB, memsim::MemoryTechnology{}, memsim::CacheConfig{});
  H = std::make_unique<Heap>(Config, *Mem);

  H->setPendingArrayTag(MemTag::Nvm, 1);
  ObjRef A = H->allocRefArray(1056); // ends mid-card
  H->setPendingArrayTag(MemTag::Nvm, 2);
  ObjRef B = H->allocRefArray(1056);
  size_t BoundaryCard = H->cardTable().cardIndex(B.addr());
  uint64_t First = H->firstObjectIntersectingCard(H->oldNvm(), BoundaryCard);
  EXPECT_EQ(First, A.addr()) << "the covering object starts earlier";
  // Walking from First by sizes must reach B within the card.
  uint64_t Next = First + H->header(First)->SizeBytes;
  EXPECT_EQ(Next, B.addr());
}

TEST_F(BotTest, SnapshottedFrontierHidesLaterObjects) {
  // The scavenge computes card ranges against the old-space tops it saw
  // before planning; objects promoted since then must stay invisible,
  // both as scan results and as anchors for the backwards search.
  HeapConfig Config;
  Config.HeapBytes = 8 * PaperGB;
  Config.NativeBytes = 2 * PaperGB;
  Config.Tuning.CardPadding = false;
  Mem = std::make_unique<memsim::HybridMemory>(
      16 * PaperGB, memsim::MemoryTechnology{}, memsim::CacheConfig{});
  H = std::make_unique<Heap>(Config, *Mem);

  Space &S = H->oldNvm();
  H->setPendingArrayTag(MemTag::Nvm, 1);
  ObjRef A = H->allocRefArray(1056); // ends mid-card
  uint64_t Top = S.top();
  H->setPendingArrayTag(MemTag::Nvm, 2);
  ObjRef B = H->allocRefArray(8192);
  ASSERT_EQ(B.addr(), Top);
  ASSERT_LT(Top, S.top());

  CardTable &Cards = H->cardTable();
  size_t TopCard = Cards.cardIndex(Top);
  // The card holding the snapshot frontier: only A is visible.
  EXPECT_EQ(H->firstObjectIntersectingCard(S, TopCard, Top), A.addr());
  // Cards wholly past the snapshot: B covers them now, but not at Top.
  for (size_t Off : {size_t(1), size_t(5)}) {
    EXPECT_EQ(H->firstObjectIntersectingCard(S, TopCard + Off), B.addr());
    EXPECT_EQ(H->firstObjectIntersectingCard(S, TopCard + Off, Top), 0u)
        << "card " << Off << " past the snapshot frontier";
  }
}

TEST_F(BotTest, WalkObjectsSeesContiguousRun) {
  H->setPendingArrayTag(MemTag::Dram, 1);
  H->allocRefArray(1100);
  H->setPendingArrayTag(MemTag::Dram, 2);
  H->allocRefArray(1100);
  uint64_t Covered = 0;
  H->walkObjects(H->oldDram().base(), H->oldDram().top(), [&](uint64_t A) {
    Covered += H->header(A)->SizeBytes;
  });
  EXPECT_EQ(Covered, H->oldDram().usedBytes())
      << "headers + fillers must tile the space exactly";
}

} // namespace
