//===- memsim/CacheModel.cpp - Set-associative LLC model -----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memsim/CacheModel.h"

#include "support/Errors.h"

#include <algorithm>
#include <bit>

using namespace panthera::memsim;

namespace {

constexpr uint64_t ByteOnes = 0x0101010101010101ull;
constexpr uint64_t ByteLow7 = 0x7F7F7F7F7F7F7F7Full;

/// Bit i is set iff byte i of \p X is zero. The SWAR test leaves 0x80 in
/// exactly the zero bytes (no carry crosses a byte, so it is exact), and
/// the multiply moves bit 8i+7 to bit 56+i without colliding terms.
uint64_t zeroBytes(uint64_t X) {
  const uint64_t High = ~(((X & ByteLow7) + ByteLow7) | X | ByteLow7);
  return (High * 0x0002040810204081ull) >> 56;
}

} // namespace

CacheModel::CacheModel(const CacheConfig &Config)
    : Associativity(Config.Associativity) {
  PANTHERA_CHECK(Associativity != 0 && Associativity <= 255,
                 "cache associativity must be 1..255 (ways are bytes)");
  PANTHERA_CHECK(Config.CapacityBytes >= CacheLineBytes * Associativity,
                 "cache must hold at least one set");
  const uint64_t RawSets =
      Config.CapacityBytes / (CacheLineBytes * Associativity);
  // Power-of-two set count keeps indexing a mask operation.
  const size_t NumSets = std::bit_ceil(RawSets);
  SetMask = NumSets - 1;
  FpWords = (Associativity + 7) / 8;
  const size_t NumLines = NumSets * Associativity;
  Tags.assign(NumLines, NoLine);
  LastUse.assign(NumLines, 0);
  Dirty.assign(NumLines, 0);
  Fp.assign(NumSets * FpWords, 0);
  // At least eight hint slots per line keeps hint aliasing rare.
  const size_t HintSlots = std::bit_ceil(8 * NumLines);
  Hint.assign(HintSlots, 0);
  HintShift = 64 - static_cast<unsigned>(std::countr_zero(HintSlots));
  // Every way starts empty (LastUse 0) and untouched since a sort at
  // clock 0, so empty ways fill in way order.
  Cand.resize(NumLines);
  for (size_t I = 0; I != NumLines; ++I)
    Cand[I] = static_cast<uint8_t>(I % Associativity);
  CandPos.assign(NumSets, 0);
  SortClock.assign(NumSets, 0);
}

inline uint32_t CacheModel::victimWay(size_t Set) {
  // Untouched ways keep their stamps and their sorted order; a way touched
  // or refilled since the sort is newer than all of them. Popped ways were
  // refilled or skipped as touched, so the first untouched candidate is
  // the strict-less LastUse argmin (lowest way on the stamp-0 ties).
  const size_t Base = Set * Associativity;
  const uint8_t *Order = &Cand[Base];
  uint8_t &Pos = CandPos[Set];
  while (Pos != Associativity) {
    const uint8_t Way = Order[Pos++];
    if (LastUse[Base + Way] <= SortClock[Set])
      return Way;
  }
  resort(Set);
  Pos = 1;
  return Order[0];
}

CacheResult CacheModel::lookup(uint64_t LineAddr, bool IsWrite,
                               uint32_t Repeat) {
  const size_t Set = static_cast<size_t>(LineAddr & SetMask);
  const size_t Base = Set * Associativity;
  const uint8_t Fingerprint = fingerprintOf(LineAddr);
  const uint64_t *Words = &Fp[Set * FpWords];
  const uint64_t Pattern = Fingerprint * ByteOnes;
  CacheResult Result;
  // Up to 64 ways per mask; the word loop has a fixed trip count, so it
  // costs no mispredicted branch.
  for (uint32_t Group = 0; Group < FpWords; Group += 8) {
    const uint32_t End = std::min(FpWords, Group + 8);
    uint64_t Match = 0;
    for (uint32_t W = Group; W != End; ++W)
      Match |= zeroBytes(Words[W] ^ Pattern) << (8 * (W - Group));
    for (; Match != 0; Match &= Match - 1) {
      const uint32_t Way = 8 * Group + std::countr_zero(Match);
      if (Tags[Base + Way] == LineAddr) {
        Hint[hintSlotOf(LineAddr)] = static_cast<uint8_t>(Way);
        touch(Base + Way, IsWrite, Repeat);
        Result.Hit = true;
        return Result;
      }
    }
  }

  ++Misses;
  const uint32_t Way = victimWay(Set);
  const size_t Victim = Base + Way;
  // An empty way is never dirty.
  if (Dirty[Victim]) {
    Result.Writeback = true;
    Result.VictimLineAddr = Tags[Victim] * CacheLineBytes;
  }
  Tags[Victim] = LineAddr;
  uint64_t &Word = Fp[Set * FpWords + Way / 8];
  const unsigned Shift = 8 * (Way % 8);
  Word = (Word & ~(uint64_t(0xFF) << Shift)) |
         static_cast<uint64_t>(Fingerprint) << Shift;
  Hint[hintSlotOf(LineAddr)] = static_cast<uint8_t>(Way);
  UseClock += 1 + static_cast<uint64_t>(Repeat);
  LastUse[Victim] = UseClock;
  Dirty[Victim] = IsWrite;
  return Result;
}

void CacheModel::resort(size_t Set) {
  // Stable insertion sort from the previous order: a streaming set, whose
  // candidates were refilled in order, comes back already sorted. Nonzero
  // stamps are distinct, and stability keeps the stamp-0 (empty) ways in
  // their initial way order.
  const size_t Base = Set * Associativity;
  uint8_t *Order = &Cand[Base];
  const uint64_t *Use = &LastUse[Base];
  for (uint32_t I = 1; I != Associativity; ++I) {
    const uint8_t Way = Order[I];
    uint32_t J = I;
    for (; J != 0 && Use[Order[J - 1]] > Use[Way]; --J)
      Order[J] = Order[J - 1];
    Order[J] = Way;
  }
  SortClock[Set] = UseClock;
}
