//===- memsim/HotnessTracker.h - Sampled access-region profiler -*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An online hotness profiler over the memsim access stream, in the style
/// of Linux DAMON: instead of a counter per page (whose cost grows with
/// memory size), it maintains a bounded list of contiguous address regions
/// and samples the mutator's cache-line stream at a fixed stride. Hot
/// regions split so the hot/cold boundary sharpens; adjacent cold regions
/// merge so the list stays small. Monitoring cost is O(log regions) per
/// sample and O(regions) per epoch, independent of how much memory is
/// tracked.
///
/// The tracker is fed by HybridMemory::onAccessRange (mutator actor only,
/// so GC evacuation traffic never counts as application heat) and consumed
/// by the MigrationEngine (Migration.h), which swaps hot-NVM / cold-DRAM
/// page runs between collections. Determinism: samples are taken at exact
/// line-counter crossings of the accounted access stream, which the
/// engine's serial stage execution makes identical from run to run.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_MEMSIM_HOTNESSTRACKER_H
#define PANTHERA_MEMSIM_HOTNESSTRACKER_H

#include "memsim/AddressMap.h"
#include "memsim/MemoryTechnology.h"

#include <cstdint>
#include <vector>

namespace panthera {
namespace memsim {

/// Tuning knobs for the profiler. The defaults keep overhead around one
/// region lookup per 64 accessed lines with a 128-entry region table.
struct HotnessConfig {
  /// Take one sample every N accounted cache lines (the DAMON sampling
  /// interval, expressed in stream position instead of wall time so the
  /// result is deterministic). 0 disables the tracker entirely.
  uint64_t SampleEveryLines = 64;
  /// Samples per aggregation epoch; at each epoch boundary counters decay
  /// and regions split/merge.
  uint64_t EpochSamples = 2048;
  /// Counter decay at epoch end: Count >>= DecayShift (exponential moving
  /// window, like DAMON's aggregation-interval reset but softer).
  unsigned DecayShift = 1;
  /// Regions never split below this (page granularity: migration remaps
  /// whole pages, so finer regions buy nothing).
  uint64_t MinRegionBytes = AddressMap::PageBytes;
  /// Hard cap on the region-table size (DAMON's max_nr_regions).
  unsigned MaxRegions = 128;
  /// A region splits only once it has at least this many (post-decay)
  /// samples in the epoch -- splitting cold regions is pure overhead.
  uint32_t SplitMinCount = 8;
  /// Adjacent regions whose counts are both <= this merge back together.
  uint32_t MergeMaxCount = 1;
};

/// One monitored region: [Start, End) with its sample counter.
struct HotRegion {
  uint64_t Start = 0;
  uint64_t End = 0;
  uint32_t Count = 0;

  uint64_t bytes() const { return End - Start; }
  /// Samples per page -- the density the migration threshold is applied
  /// to, so big and small regions compare fairly.
  double samplesPerPage() const {
    return static_cast<double>(Count) *
           static_cast<double>(AddressMap::PageBytes) /
           static_cast<double>(End - Start);
  }
};

/// Profiler counters exported as memsim.hotness.*.
struct HotnessStats {
  uint64_t Samples = 0; ///< Region-counter bumps taken.
  uint64_t Epochs = 0;  ///< Decay/split/merge passes run.
  uint64_t Splits = 0;  ///< Regions split (hot refinement).
  uint64_t Merges = 0;  ///< Regions merged (cold coarsening).
};

/// The DAMON-style region monitor over one address interval.
class HotnessTracker {
public:
  /// Monitors [Lo, Hi) (bounds are page-aligned outward). The interval is
  /// seeded with a handful of equal regions; split/merge adapts from there.
  HotnessTracker(uint64_t Lo, uint64_t Hi, const HotnessConfig &Config);

  /// Feeds one accounted access range. Called by HybridMemory for every
  /// mutator onAccess/onAccessRange; cost is a couple of integer ops when
  /// no sampling stride is crossed.
  void onRange(uint64_t Addr, uint64_t Bytes) {
    if (Config.SampleEveryLines == 0 || Bytes == 0)
      return;
    uint64_t End = Addr + Bytes;
    if (End <= Lo || Addr >= Hi)
      return;
    uint64_t S = Addr < Lo ? Lo : Addr;
    uint64_t E = End > Hi ? Hi : End;
    uint64_t FirstLine = S / CacheLineBytes;
    uint64_t NLines = (E - 1) / CacheLineBytes - FirstLine + 1;
    uint64_t Before = LineCursor;
    LineCursor += NLines;
    // Sample at every stride crossing of the global line counter, at the
    // exact line that crossed it (deterministic: pure function of the
    // accounted stream). NextSample is the first multiple of the stride
    // past the cursor, so no access divides.
    for (; NextSample <= LineCursor; NextSample += Config.SampleEveryLines)
      record((FirstLine + (NextSample - 1 - Before)) * CacheLineBytes);
  }

  const std::vector<HotRegion> &regions() const { return Regions; }
  const HotnessStats &stats() const { return Stats; }
  uint64_t lo() const { return Lo; }
  uint64_t hi() const { return Hi; }

  /// Zeroes every region counter and the epoch fill (major GC: compaction
  /// re-places everything, so accumulated heat describes a dead layout).
  /// Region boundaries survive -- the learned structure is still the best
  /// prior for the next window.
  void resetCounters();

private:
  void record(uint64_t Addr);
  void endEpoch();

  HotnessConfig Config;
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  uint64_t LineCursor = 0;
  /// The least multiple of SampleEveryLines above LineCursor.
  uint64_t NextSample = 0;
  uint64_t EpochFill = 0;
  std::vector<HotRegion> Regions;
  HotnessStats Stats;
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_HOTNESSTRACKER_H
