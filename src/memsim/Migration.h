//===- memsim/Migration.h - Between-GC hot/cold page migration --*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-migration companion to HotnessTracker: a CAMEO/MemPod-style
/// hot-page swap engine that runs at minor-GC safepoints, *between* major
/// collections. Each step pairs the hottest NVM-backed pages with the
/// coldest DRAM-backed pages inside the old generation and swaps their
/// device mapping through AddressMap::setRange (which bumps the remap
/// generation, keeping HybridMemory's page-run and victim caches coherent),
/// charging the modeled copy traffic to the GC clock.
///
/// DRAM capacity is conserved: migrations are strict 1:1 page swaps. At
/// every major GC the mapping is reset to the canonical static layout --
/// compaction re-places every object by its tag anyway, and the copy was
/// already charged by the collector, so the reset itself is free.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_MEMSIM_MIGRATION_H
#define PANTHERA_MEMSIM_MIGRATION_H

#include "memsim/HotnessTracker.h"
#include "memsim/MemoryTechnology.h"

#include <cstdint>
#include <vector>

namespace panthera {
namespace memsim {

class HybridMemory;

/// Migration policy knobs (--migrate-threshold).
struct MigrationConfig {
  /// A region is migration-hot once it collects at least this many samples
  /// per page in the current window.
  double HotSamplesPerPage = 2.0;
};

/// One address range the engine may remap, with its canonical (static
/// placement) device to restore at major GCs.
struct CanonicalRange {
  uint64_t Start = 0;
  uint64_t End = 0;
  Device Canonical = Device::DRAM;
};

/// Engine counters exported as memsim.migration.*.
struct MigrationStats {
  uint64_t Steps = 0;
  uint64_t PagesToDram = 0;   ///< Hot pages remapped NVM -> DRAM.
  uint64_t PagesToNvm = 0;    ///< Cold pages remapped DRAM -> NVM.
  uint64_t BytesCopied = 0;   ///< Modeled copy volume (both directions).
  uint64_t Resets = 0;        ///< Canonical restores (major GCs).
  uint64_t PagesRestored = 0; ///< Pages put back by those restores.
};

/// Result of one migration step (the collector turns it into a trace span).
struct MigrationStep {
  uint64_t PagesSwapped = 0;
  double CopyNs = 0.0;
};

/// Swaps hot-NVM / cold-DRAM page runs between collections.
class MigrationEngine {
public:
  MigrationEngine(HybridMemory &Mem, HotnessTracker &Hot,
                  const MigrationConfig &Config)
      : Mem(Mem), Hot(Hot), Config(Config) {}

  /// The ranges migration may touch (the old-generation spaces), with
  /// their canonical devices. Anything outside stays put.
  void setEligibleRanges(std::vector<CanonicalRange> Ranges) {
    Eligible = std::move(Ranges);
  }
  const std::vector<CanonicalRange> &eligibleRanges() const {
    return Eligible;
  }

  /// Runs one bounded swap pass (called at the end of a minor GC that did
  /// not escalate to a major). Deterministic: candidates are ordered by
  /// (density, address) only.
  MigrationStep step();

  /// Restores the canonical static mapping and clears the tracker window
  /// (called at the start of every major GC).
  void resetToCanonical();

  const MigrationStats &stats() const { return Stats; }

private:
  HybridMemory &Mem;
  HotnessTracker &Hot;
  MigrationConfig Config;
  std::vector<CanonicalRange> Eligible;
  MigrationStats Stats;
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_MIGRATION_H
