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
/// A miss deletes nothing and scans nothing (docs/memsim.md):
///   - a hit is predicted by a way-hint table (one byte per slot, >= 8x as
///     many slots as lines) and confirmed by one tag compare. Hints of
///     evicted lines are never deleted; the tag compare rejects them.
///   - when the hint fails, per-set 8-bit tag fingerprints (one byte per
///     way, 0 = empty) are matched eight ways per 64-bit word, and only the
///     matching ways' tags are compared.
///   - the LRU victim comes from a per-set candidate order sorted by
///     (LastUse, way) at the set's last sort. A way touched since then is
///     newer than every untouched way, so the first candidate not touched
///     since the sort is the exact LRU way.
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
  uint32_t Associativity = 20;        // 1..255: ways are stored as bytes
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
  /// Throws EngineError unless 1 <= Associativity <= 255 and the capacity
  /// holds at least one set.
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

  /// access() addressed by line number (Addr / CacheLineBytes). A hit on
  /// the hinted way is inline -- one tag compare plus the LRU/dirty
  /// stores -- and everything else leaves the caller.
  CacheResult accessLine(uint64_t LineAddr, bool IsWrite,
                         uint32_t Repeat = 0) {
    assert(LineAddr != NoLine && "line address collides with the sentinel");
    const size_t Way = setBase(LineAddr) + Hint[hintSlotOf(LineAddr)];
    if (Tags[Way] != LineAddr)
      return lookup(LineAddr, IsWrite, Repeat);
    touch(Way, IsWrite, Repeat);
    CacheResult Result;
    Result.Hit = true;
    return Result;
  }

  /// Every access, repeats included, advances UseClock by one tick, and
  /// each tick is a hit unless it is a miss's first touch.
  uint64_t hits() const { return UseClock - Misses; }
  uint64_t misses() const { return Misses; }

  /// The 8-bit tag fingerprint of \p Line, never 0, and its way-hint
  /// slot. Public so tests can build streams that collide on either.
  static uint8_t fingerprintOf(uint64_t Line) {
    const uint8_t F =
        static_cast<uint8_t>((Line * 0xC2B2AE3D27D4EB4Full) >> 56);
    return F == 0 ? 1 : F;
  }
  size_t hintSlotOf(uint64_t Line) const {
    return static_cast<size_t>((Line * 0x9E3779B97F4A7C15ull) >> HintShift);
  }

private:
  /// Tag of an empty way. No line address reaches it: lines are byte
  /// addresses divided by CacheLineBytes.
  static constexpr uint64_t NoLine = ~0ull;

  /// Index of way 0 of \p Line's set in the way arrays.
  size_t setBase(uint64_t Line) const {
    return static_cast<size_t>(Line & SetMask) * Associativity;
  }

  /// The hit bookkeeping of way \p Way (Set * Associativity + way).
  void touch(size_t Way, bool IsWrite, uint32_t Repeat) {
    UseClock += 1 + static_cast<uint64_t>(Repeat);
    LastUse[Way] = UseClock;
    if (IsWrite)
      Dirty[Way] = 1;
  }

  /// The hinted way does not hold \p LineAddr: finds it through the set's
  /// fingerprints (a hit, whose hint is refreshed) or fills it (a miss).
  CacheResult lookup(uint64_t LineAddr, bool IsWrite, uint32_t Repeat);

  /// Way (within its set) of the set's least-recently-used line: the
  /// first candidate not touched since the last sort, re-sorting when
  /// every candidate has been.
  uint32_t victimWay(size_t Set);

  /// Re-sorts \p Set's candidates by (LastUse, way), starting from their
  /// previous order.
  void resort(size_t Set);

  uint32_t Associativity;
  uint64_t SetMask = 0;
  /// 64-bit fingerprint words per set: ceil(Associativity / 8).
  uint32_t FpWords = 0;
  uint64_t UseClock = 0;
  uint64_t Misses = 0;
  /// The ways, NumSets x Associativity row-major, as struct-of-arrays.
  std::vector<uint64_t> Tags;    // line address; NoLine marks an empty way
  std::vector<uint64_t> LastUse; // UseClock at last touch; 0 = never used
  std::vector<uint8_t> Dirty;
  /// Per set, FpWords words; byte w % 8 of word w / 8 is way w's
  /// fingerprint, 0 for an empty way (and for the padding of a partial
  /// last word), so an empty way never matches.
  std::vector<uint64_t> Fp;
  /// Way-hint table: Fibonacci hash of a line -> the way within its set
  /// that last held a line hashing there. Never cleared; may be stale.
  std::vector<uint8_t> Hint;
  unsigned HintShift = 0;
  /// Per set: its ways sorted by (LastUse, way) at SortClock, and the
  /// position of the next candidate to try.
  std::vector<uint8_t> Cand;
  std::vector<uint8_t> CandPos;
  std::vector<uint64_t> SortClock;
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_CACHEMODEL_H
