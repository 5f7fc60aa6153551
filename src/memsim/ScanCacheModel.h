//===- memsim/ScanCacheModel.h - Reference LLC scan model -------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference semantics of CacheModel: the original array-of-structs
/// set-associative LRU cache, which scans the set's ways for the tag and
/// then scans them again for the least-recently-used victim. It is kept
/// verbatim apart from its 64-bit LRU clock, so that
/// HybridMemory's PerLine access path, the twin-replay tests, and
/// bench/micro_memsim diff the production cache against an independent
/// implementation rather than against itself. Nothing in production runs
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_MEMSIM_SCANCACHEMODEL_H
#define PANTHERA_MEMSIM_SCANCACHEMODEL_H

#include "memsim/CacheModel.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace panthera {
namespace memsim {

/// Set-associative LRU cache over line addresses, found by linear scans.
class ScanCacheModel {
public:
  explicit ScanCacheModel(const CacheConfig &Config)
      : Associativity(Config.Associativity) {
    assert(Config.CapacityBytes >= CacheLineBytes * Config.Associativity &&
           "cache must hold at least one set");
    uint32_t RawSets = static_cast<uint32_t>(
        Config.CapacityBytes / (CacheLineBytes * Config.Associativity));
    NumSets = 1;
    while (NumSets < RawSets)
      NumSets <<= 1;
    Lines.assign(static_cast<size_t>(NumSets) * Associativity, Line());
  }

  /// Same contract as CacheModel::access.
  CacheResult access(uint64_t Addr, bool IsWrite, uint32_t Repeat = 0) {
    uint64_t LineAddr = Addr / CacheLineBytes;
    uint32_t Set = static_cast<uint32_t>(LineAddr & (NumSets - 1));
    Line *Ways = &Lines[static_cast<size_t>(Set) * Associativity];
    ++UseClock;

    CacheResult Result;
    // Hit path: bump recency and possibly mark dirty.
    for (uint32_t W = 0; W != Associativity; ++W) {
      if (Ways[W].Tag == LineAddr) {
        Ways[W].LastUse = UseClock;
        Ways[W].Dirty |= IsWrite;
        ++Hits;
        Result.Hit = true;
        if (Repeat != 0) {
          UseClock += Repeat;
          Ways[W].LastUse = UseClock;
          Hits += Repeat;
        }
        return Result;
      }
    }

    // Miss: fill the least-recently-used way (empty ways have LastUse 0
    // and thus lose ties to any used way, so they fill first).
    ++Misses;
    uint32_t VictimWay = 0;
    for (uint32_t W = 1; W != Associativity; ++W)
      if (Ways[W].LastUse < Ways[VictimWay].LastUse)
        VictimWay = W;

    Line &Victim = Ways[VictimWay];
    if (Victim.Tag != ~0ull && Victim.Dirty) {
      Result.Writeback = true;
      Result.VictimLineAddr = Victim.Tag * CacheLineBytes;
    }
    Victim.Tag = LineAddr;
    Victim.LastUse = UseClock;
    Victim.Dirty = IsWrite;
    if (Repeat != 0) {
      UseClock += Repeat;
      Victim.LastUse = UseClock;
      Hits += Repeat;
    }
    return Result;
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  struct Line {
    uint64_t Tag = ~0ull; // line address; ~0 marks an empty way
    uint64_t LastUse = 0;
    bool Dirty = false;
  };

  uint32_t Associativity;
  uint32_t NumSets;
  uint64_t UseClock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  std::vector<Line> Lines; // NumSets x Associativity, row-major
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_SCANCACHEMODEL_H
