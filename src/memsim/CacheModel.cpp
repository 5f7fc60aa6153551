//===- memsim/CacheModel.cpp - Set-associative LLC model -----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memsim/CacheModel.h"

#include <bit>

using namespace panthera::memsim;

CacheModel::CacheModel(const CacheConfig &Config)
    : Associativity(Config.Associativity) {
  assert(Config.CapacityBytes >= CacheLineBytes * Config.Associativity &&
         "cache must hold at least one set");
  uint32_t RawSets = static_cast<uint32_t>(
      Config.CapacityBytes / (CacheLineBytes * Config.Associativity));
  // Power-of-two set count keeps indexing a mask operation.
  NumSets = std::bit_ceil(RawSets == 0 ? 1u : RawSets);
  const size_t NumLines = static_cast<size_t>(NumSets) * Associativity;
  Tags.assign(NumLines, NoLine);
  LastUse.assign(NumLines, 0);
  Dirty.assign(NumLines, 0);
  // At least twice as many slots as lines: the load factor stays <= 1/2,
  // so a probe chain always ends at an empty slot.
  const size_t Slots = std::bit_ceil(2 * NumLines);
  Index.assign(Slots, Slot());
  IndexMask = Slots - 1;
  IndexShift = 64 - static_cast<unsigned>(std::countr_zero(Slots));
}

CacheResult CacheModel::miss(uint64_t LineAddr, bool IsWrite,
                             uint32_t Repeat) {
  ++Misses;
  // Evict the least-recently-used way: strict-less argmin, so the lowest
  // way wins ties, and empty ways (LastUse 0) fill first. One branchless
  // pass over the set's contiguous LastUse row.
  const size_t Base =
      static_cast<size_t>(LineAddr & (NumSets - 1)) * Associativity;
  const uint64_t *Row = &LastUse[Base];
  uint32_t Way = 0;
  uint64_t Oldest = Row[0];
  for (uint32_t W = 1; W != Associativity; ++W) {
    const bool Older = Row[W] < Oldest;
    Oldest = Older ? Row[W] : Oldest;
    Way = Older ? W : Way;
  }
  const size_t Victim = Base + Way;

  CacheResult Result;
  if (Tags[Victim] != NoLine) {
    if (Dirty[Victim]) {
      Result.Writeback = true;
      Result.VictimLineAddr = Tags[Victim] * CacheLineBytes;
    }
    eraseAt(findSlot(Tags[Victim]));
  }
  // Probe after the erase: backward shifting may have moved the hole
  // that ends this line's chain.
  Slot &S = Index[findSlot(LineAddr)];
  S.Line = LineAddr;
  S.Way = static_cast<uint32_t>(Victim);

  Tags[Victim] = LineAddr;
  UseClock += 1 + static_cast<uint64_t>(Repeat);
  LastUse[Victim] = UseClock;
  Dirty[Victim] = IsWrite;
  return Result;
}

void CacheModel::eraseAt(size_t I) {
  size_t J = I;
  while (true) {
    Index[I].Line = NoLine;
    while (true) {
      J = (J + 1) & IndexMask;
      if (Index[J].Line == NoLine)
        return;
      size_t Home = slotOf(Index[J].Line);
      // An entry whose home lies cyclically in (I, J] is still reachable
      // with the hole at I; keep scanning past it.
      bool Reachable =
          I <= J ? (Home > I && Home <= J) : (Home > I || Home <= J);
      if (!Reachable)
        break;
    }
    Index[I] = Index[J];
    I = J;
  }
}
