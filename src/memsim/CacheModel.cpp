//===- memsim/CacheModel.cpp - Set-associative LLC model -----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memsim/CacheModel.h"

#include "support/Errors.h"

#include <bit>

using namespace panthera::memsim;

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

void CacheModel::resort(size_t Set) {
  // Stable insertion sort from the previous order: a streaming set, whose
  // candidates were refilled in order, comes back already sorted. Nonzero
  // stamps are distinct, and stability keeps the stamp-0 (empty) ways in
  // their initial way order. The stamps are gathered into a local array
  // first, so the shifting loop compares values it already holds instead
  // of chasing each candidate's way to its stamp.
  const size_t Base = Set * Associativity;
  uint8_t *Order = &Cand[Base];
  uint64_t Use[255];
  for (uint32_t I = 0; I != Associativity; ++I)
    Use[I] = LastUse[Base + Order[I]];
  for (uint32_t I = 1; I != Associativity; ++I) {
    const uint64_t Stamp = Use[I];
    const uint8_t Way = Order[I];
    uint32_t J = I;
    for (; J != 0 && Use[J - 1] > Stamp; --J) {
      Use[J] = Use[J - 1];
      Order[J] = Order[J - 1];
    }
    Use[J] = Stamp;
    Order[J] = Way;
  }
  SortClock[Set] = UseClock;
}
