//===- memsim/CacheModel.h - Set-associative LLC model ----------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, write-back, write-allocate last-level-cache model with
/// LRU replacement. Accesses that hit cost only the cache-hit latency;
/// misses generate device traffic. Modeling the cache matters for shape
/// fidelity: streaming transformation pipelines have high locality while GC
/// tracing and shuffled access patterns do not, and the paper's penalties
/// come precisely from the latter class of accesses reaching NVM.
///
/// The paper's testbed has a 20 MB 20-way L3 (Table 3); the model defaults
/// to a 20 KB 20-way cache, following the repository-wide 1 GB -> 1 MB scale
/// so that the cache:heap ratio matches the paper's.
///
/// Lines are found through an exact residency index (docs/memsim.md): an
/// open-addressing line -> way table holding exactly the resident lines, so
/// both a hit and a miss are known after one probe and no tag scan runs.
/// Outcomes, LRU order, counters, and writeback victims are those of the
/// plain scan in ScanCacheModel.h.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_MEMSIM_CACHEMODEL_H
#define PANTHERA_MEMSIM_CACHEMODEL_H

#include "memsim/MemoryTechnology.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace panthera {
namespace memsim {

/// Configuration of the modeled last-level cache. Lines are always
/// CacheLineBytes wide, as everywhere else in the simulator.
struct CacheConfig {
  uint64_t CapacityBytes = 20 * 1024; // 20 MB / 1024 (Table 3, scaled)
  uint32_t Associativity = 20;
};

/// Outcome of a cache access, with any writeback the access displaced.
struct CacheResult {
  bool Hit = false;
  /// True when a dirty victim line was evicted; VictimLineAddr names it.
  bool Writeback = false;
  uint64_t VictimLineAddr = 0;
};

/// Set-associative LRU cache over line addresses.
class CacheModel {
public:
  explicit CacheModel(const CacheConfig &Config);

  /// Accesses the line containing \p Addr; \p IsWrite marks the line dirty.
  /// \p Repeat coalesces that many additional back-to-back accesses to the
  /// same line into the bookkeeping of this call. Because the line is MRU
  /// in its set after the first touch and nothing intervenes, each repeat
  /// is a guaranteed hit; the coalesced update (UseClock += 1 + Repeat,
  /// LastUse = final clock, Dirty |= IsWrite, Repeat more hits) is
  /// bit-identical to issuing the accesses one at a time. The batched
  /// range path in HybridMemory uses this for element runs that share a
  /// cache line; repeats never generate traffic, so the caller still
  /// charges Repeat hit costs.
  CacheResult access(uint64_t Addr, bool IsWrite, uint32_t Repeat = 0) {
    return accessLine(Addr / CacheLineBytes, IsWrite, Repeat);
  }

  /// access() addressed by line number (Addr / CacheLineBytes). The hit
  /// is inline -- one index probe plus the LRU/dirty bookkeeping -- and
  /// only a miss leaves the caller.
  CacheResult accessLine(uint64_t LineAddr, bool IsWrite,
                         uint32_t Repeat = 0) {
    assert(LineAddr != NoLine && "line address collides with the sentinel");
    const Slot &S = Index[findSlot(LineAddr)];
    if (S.Line != LineAddr)
      return miss(LineAddr, IsWrite, Repeat);
    UseClock += 1 + static_cast<uint64_t>(Repeat);
    LastUse[S.Way] = UseClock;
    if (IsWrite)
      Dirty[S.Way] = 1;
    CacheResult Result;
    Result.Hit = true;
    return Result;
  }

  /// Every access, repeats included, advances UseClock by one tick, and
  /// each tick is a hit unless it is a miss's first touch.
  uint64_t hits() const { return UseClock - Misses; }
  uint64_t misses() const { return Misses; }

private:
  /// Tag of an empty way and key of an empty index slot. No line address
  /// reaches it: lines are byte addresses divided by CacheLineBytes.
  static constexpr uint64_t NoLine = ~0ull;

  /// Residency-index entry: a resident line and its position in the way
  /// arrays (Set * Associativity + way). Line == NoLine marks an empty
  /// slot.
  struct Slot {
    uint64_t Line = NoLine;
    uint32_t Way = 0;
  };

  /// Fills \p LineAddr into its set's LRU way, evicting (and reporting)
  /// the previous occupant.
  CacheResult miss(uint64_t LineAddr, bool IsWrite, uint32_t Repeat);

  /// Fibonacci-hash home slot of \p Line.
  size_t slotOf(uint64_t Line) const {
    return static_cast<size_t>((Line * 0x9E3779B97F4A7C15ull) >> IndexShift);
  }

  /// Slot for \p Line: its live slot, or the empty slot that ends its
  /// probe chain. The index holds at most half as many lines as it has
  /// slots, so chains stay short and always end.
  size_t findSlot(uint64_t Line) const {
    size_t S = slotOf(Line);
    while (Index[S].Line != Line && Index[S].Line != NoLine)
      S = (S + 1) & IndexMask;
    return S;
  }

  /// Deletes the entry at slot \p I by backward-shifting the rest of its
  /// probe cluster (no tombstones, so findSlot stays a two-test loop).
  void eraseAt(size_t I);

  uint32_t Associativity;
  uint32_t NumSets;
  uint64_t UseClock = 0;
  uint64_t Misses = 0;
  /// The ways, NumSets x Associativity row-major, as struct-of-arrays so
  /// victim selection reads one contiguous LastUse row.
  std::vector<uint64_t> Tags;    // line address; NoLine marks an empty way
  std::vector<uint64_t> LastUse; // UseClock at last touch; 0 = never used
  std::vector<uint8_t> Dirty;
  /// Residency index: power-of-two, linear probing, >= 2x the line count.
  std::vector<Slot> Index;
  size_t IndexMask = 0;
  unsigned IndexShift = 0;
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_CACHEMODEL_H
