//===- memsim/Migration.cpp - Between-GC hot/cold page migration ----------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memsim/Migration.h"

#include "memsim/HybridMemory.h"

#include <algorithm>
#include <cassert>

using namespace panthera;
using namespace panthera::memsim;

namespace {

/// Page-swap budget per step (bounds the pause added to a minor GC).
constexpr uint64_t MaxPagesPerStep = 256;

/// Collects up to \p Budget pages of [R.Start, R.End) (clipped to the
/// eligible ranges) currently backed by \p OnDevice.
void collectPages(const AddressMap &Map,
                  const std::vector<CanonicalRange> &Eligible,
                  const HotRegion &R, Device OnDevice, uint64_t Budget,
                  std::vector<uint64_t> &Out) {
  constexpr uint64_t P = AddressMap::PageBytes;
  for (const CanonicalRange &E : Eligible) {
    uint64_t S = std::max(R.Start, E.Start);
    uint64_t T = std::min(R.End, E.End);
    for (uint64_t Page = S; Page < T; Page += P) {
      if (Out.size() >= Budget)
        return;
      if (Map.deviceOf(Page) == OnDevice)
        Out.push_back(Page);
    }
  }
}

} // namespace

MigrationStep MigrationEngine::step() {
  MigrationStep Result;
  ++Stats.Steps;

  // Rank the tracker's regions by sample density. Ties break by address,
  // so the candidate order (hence the whole migration schedule) is a pure
  // function of the accounted access stream.
  const std::vector<HotRegion> &Regs = Hot.regions();
  std::vector<size_t> Order(Regs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    double DA = Regs[A].samplesPerPage(), DB = Regs[B].samplesPerPage();
    if (DA != DB)
      return DA > DB;
    return Regs[A].Start < Regs[B].Start;
  });

  // Hottest-first: NVM-backed pages of regions past the hot threshold.
  std::vector<uint64_t> HotPages;
  for (size_t Idx : Order) {
    if (Regs[Idx].samplesPerPage() < Config.HotSamplesPerPage)
      break;
    collectPages(Mem.map(), Eligible, Regs[Idx], Device::NVM, MaxPagesPerStep,
                 HotPages);
    if (HotPages.size() >= MaxPagesPerStep)
      break;
  }
  if (HotPages.empty())
    return Result;

  // Coldest-first: DRAM-backed pages of regions below the threshold, one
  // victim per hot page (strict swap keeps the DRAM budget constant).
  std::vector<uint64_t> ColdPages;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    if (Regs[*It].samplesPerPage() >= Config.HotSamplesPerPage)
      break;
    collectPages(Mem.map(), Eligible, Regs[*It], Device::DRAM,
                 HotPages.size(), ColdPages);
    if (ColdPages.size() >= HotPages.size())
      break;
  }

  uint64_t N = std::min(HotPages.size(), ColdPages.size());
  if (N == 0)
    return Result;

  constexpr uint64_t P = AddressMap::PageBytes;
  AddressMap &Map = Mem.map();
  uint64_t GenBefore = Map.generation();
  for (uint64_t I = 0; I != N; ++I) {
    Map.setRange(HotPages[I], HotPages[I] + P, Device::DRAM);
    Map.setRange(ColdPages[I], ColdPages[I] + P, Device::NVM);
  }
  // Staleness contract (docs/memsim.md): every remap must bump the map
  // generation, or HybridMemory's page-run and victim-writeback caches
  // would keep charging the pre-migration device. gc_fuzz folds the
  // generation into its digest for the same reason.
  assert(Map.generation() == GenBefore + 2 * N &&
         "migration remap did not bump the AddressMap generation");
  (void)GenBefore;

  // Charge the modeled copy: each swap reads the hot page from NVM and
  // writes it to DRAM, and vice versa for the cold victim. Bulk-line
  // accounting on the GC clock, same as the collector's evacuation
  // charges (a page exchange streams far more than the LLC holds).
  constexpr uint64_t LinesPerPage = AddressMap::PageBytes / CacheLineBytes;
  {
    ActorScope Scope(Mem, Actor::Gc);
    double Before = Mem.gcTimeNs();
    Mem.chargeBulkLines(/*DramReads=*/N * LinesPerPage,
                        /*DramWrites=*/N * LinesPerPage,
                        /*NvmReads=*/N * LinesPerPage,
                        /*NvmWrites=*/N * LinesPerPage);
    Result.CopyNs = Mem.gcTimeNs() - Before;
  }
  Stats.PagesToDram += N;
  Stats.PagesToNvm += N;
  Stats.BytesCopied += 2 * N * P;
  Result.PagesSwapped = N;
  return Result;
}

void MigrationEngine::resetToCanonical() {
  ++Stats.Resets;
  AddressMap &Map = Mem.map();
  for (const CanonicalRange &E : Eligible) {
    uint64_t Off = (E.End - E.Start) -
                   Map.bytesBackedBy(E.Start, E.End, E.Canonical);
    if (Off == 0)
      continue;
    Map.setRange(E.Start, E.End, E.Canonical);
    Stats.PagesRestored += Off / AddressMap::PageBytes;
  }
  // No copy is charged: the caller is a major GC whose compaction
  // evacuates every live object (and charges that traffic) anyway.
  Hot.resetCounters();
}
