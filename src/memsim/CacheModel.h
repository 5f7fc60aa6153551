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

#include <bit>
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

  /// access() addressed by line number (Addr / CacheLineBytes): a hit on
  /// the hinted way -- one tag compare plus the LRU/dirty stores -- and
  /// otherwise lookup(). Always inlined, like lookup, so a caller's loop
  /// (HybridMemory::fastRange) keeps its hits free of calls.
  [[gnu::always_inline]] CacheResult accessLine(uint64_t LineAddr,
                                                bool IsWrite,
                                                uint32_t Repeat = 0) {
    if (accessHinted(LineAddr, IsWrite, Repeat)) {
      CacheResult Result;
      Result.Hit = true;
      return Result;
    }
    return lookup(LineAddr, IsWrite, Repeat);
  }

  /// The inline half of accessLine: true, with the hit's bookkeeping done,
  /// when the hinted way holds \p LineAddr; false (and no state changed)
  /// otherwise, when the caller must finish the access with lookup().
  bool accessHinted(uint64_t LineAddr, bool IsWrite, uint32_t Repeat) {
    assert(LineAddr != NoLine && "line address collides with the sentinel");
    const size_t Way = setBase(LineAddr) + Hint[hintSlotOf(LineAddr)];
    if (Tags[Way] != LineAddr)
      return false;
    touch(Way, IsWrite, Repeat);
    return true;
  }

  /// The rest of an access whose hinted way does not hold \p LineAddr:
  /// finds it through the set's fingerprints (a hit, whose hint is
  /// refreshed) or fills it (a miss). Always inlined, so that
  /// HybridMemory's one out-of-line miss handler is the only call a miss
  /// makes.
  [[gnu::always_inline]] inline CacheResult
  lookup(uint64_t LineAddr, bool IsWrite, uint32_t Repeat);

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
  static constexpr uint32_t NoWay = ~0u;

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

  /// Bit 8i + 7 is set iff byte i of \p X is zero: the SWAR test leaves
  /// 0x80 in exactly the zero bytes (no carry crosses a byte, so it is
  /// exact).
  static uint64_t zeroBytes(uint64_t X) {
    constexpr uint64_t Low7 = 0x7F7F7F7F7F7F7F7Full;
    return ~(((X & Low7) + Low7) | X | Low7);
  }

  /// The way among \p Word's fingerprint matches (the zeroBytes mask of
  /// the word xor the fingerprint pattern; word \p WordIdx of \p Base's
  /// set) whose tag is \p LineAddr, or NoWay.
  uint32_t matchWay(uint64_t Match, size_t Base, uint32_t WordIdx,
                    uint64_t LineAddr) const {
    for (; Match != 0; Match &= Match - 1) {
      const uint32_t Way =
          8 * WordIdx + (static_cast<uint32_t>(std::countr_zero(Match)) >> 3);
      if (Tags[Base + Way] == LineAddr)
        return Way;
    }
    return NoWay;
  }

  /// Way (within its set) of the set's least-recently-used line: the
  /// first candidate not touched since the last sort, re-sorting when
  /// every candidate has been.
  inline uint32_t victimWay(size_t Set);

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

inline CacheResult CacheModel::lookup(uint64_t LineAddr, bool IsWrite,
                                      uint32_t Repeat) {
  const size_t Set = static_cast<size_t>(LineAddr & SetMask);
  const size_t Base = Set * Associativity;
  const uint8_t Fingerprint = fingerprintOf(LineAddr);
  const size_t HintSlot = hintSlotOf(LineAddr);
  const uint64_t *Words = &Fp[Set * FpWords];
  const uint64_t Pattern = Fingerprint * 0x0101010101010101ull;
  // Almost every lookup is a miss whose fingerprint matches no way. Up to
  // three words (24 ways, the default 20 included) are tested at once with
  // no loop; the word-count branches always go the same way.
  uint32_t Way = NoWay;
  if (FpWords <= 3) {
    const uint64_t M0 = zeroBytes(Words[0] ^ Pattern);
    const uint64_t M1 = FpWords > 1 ? zeroBytes(Words[1] ^ Pattern) : 0;
    const uint64_t M2 = FpWords > 2 ? zeroBytes(Words[2] ^ Pattern) : 0;
    if ((M0 | M1 | M2) != 0) {
      Way = matchWay(M0, Base, 0, LineAddr);
      if (Way == NoWay)
        Way = matchWay(M1, Base, 1, LineAddr);
      if (Way == NoWay)
        Way = matchWay(M2, Base, 2, LineAddr);
    }
  } else {
    for (uint32_t W = 0; W != FpWords && Way == NoWay; ++W)
      Way = matchWay(zeroBytes(Words[W] ^ Pattern), Base, W, LineAddr);
  }
  CacheResult Result;
  if (Way != NoWay) {
    Hint[HintSlot] = static_cast<uint8_t>(Way);
    touch(Base + Way, IsWrite, Repeat);
    Result.Hit = true;
    return Result;
  }

  ++Misses;
  Way = victimWay(Set);
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
  Hint[HintSlot] = static_cast<uint8_t>(Way);
  UseClock += 1 + static_cast<uint64_t>(Repeat);
  LastUse[Victim] = UseClock;
  Dirty[Victim] = IsWrite;
  return Result;
}

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_CACHEMODEL_H
