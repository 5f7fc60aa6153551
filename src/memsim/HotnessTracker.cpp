//===- memsim/HotnessTracker.cpp - Sampled access-region profiler ---------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memsim/HotnessTracker.h"

#include <algorithm>
#include <cassert>

using namespace panthera;
using namespace panthera::memsim;

HotnessTracker::HotnessTracker(uint64_t Lo, uint64_t Hi,
                               const HotnessConfig &Config)
    : Config(Config), NextSample(Config.SampleEveryLines) {
  constexpr uint64_t P = AddressMap::PageBytes;
  this->Lo = Lo / P * P;
  this->Hi = (Hi + P - 1) / P * P;
  assert(this->Lo < this->Hi && "empty tracked interval");
  // Seed with a few equal page-aligned regions; split/merge adapts the
  // partition to the observed access pattern from there.
  uint64_t Span = this->Hi - this->Lo;
  uint64_t Pages = Span / P;
  uint64_t Seed = std::min<uint64_t>({16, Pages, Config.MaxRegions});
  if (Seed == 0)
    Seed = 1;
  uint64_t PagesPer = Pages / Seed;
  uint64_t Start = this->Lo;
  for (uint64_t I = 0; I != Seed; ++I) {
    uint64_t End = I + 1 == Seed ? this->Hi : Start + PagesPer * P;
    Regions.push_back({Start, End, 0});
    Start = End;
  }
}

void HotnessTracker::record(uint64_t Addr) {
  // Regions are a sorted contiguous partition of [Lo, Hi); find the one
  // holding Addr by binary search on Start.
  auto It = std::upper_bound(
      Regions.begin(), Regions.end(), Addr,
      [](uint64_t A, const HotRegion &R) { return A < R.Start; });
  assert(It != Regions.begin() && "address below tracked interval");
  HotRegion &R = *(It - 1);
  assert(Addr >= R.Start && Addr < R.End && "region partition broken");
  if (R.Count != UINT32_MAX)
    ++R.Count;
  ++Stats.Samples;
  if (++EpochFill >= Config.EpochSamples) {
    EpochFill = 0;
    endEpoch();
  }
}

void HotnessTracker::endEpoch() {
  ++Stats.Epochs;

  // Merge adjacent cold regions first so the split pass below has table
  // room. (DAMON merges on similar access rates; cold-only merging keeps
  // every hot/cold boundary where the samples put it.)
  size_t Out = 0;
  for (size_t I = 0; I != Regions.size(); ++I) {
    if (Out != 0 && Regions[Out - 1].End == Regions[I].Start &&
        Regions[Out - 1].Count <= Config.MergeMaxCount &&
        Regions[I].Count <= Config.MergeMaxCount) {
      Regions[Out - 1].End = Regions[I].End;
      Regions[Out - 1].Count =
          std::max(Regions[Out - 1].Count, Regions[I].Count);
      ++Stats.Merges;
      continue;
    }
    Regions[Out++] = Regions[I];
  }
  Regions.resize(Out);

  // Split regions that collected enough samples to justify refining the
  // boundary, largest-count first implicitly by the in-order pass (every
  // qualifying region splits once per epoch while the table has room).
  std::vector<HotRegion> Next;
  Next.reserve(Regions.size() + 8);
  size_t Budget = Config.MaxRegions > Regions.size()
                      ? Config.MaxRegions - Regions.size()
                      : 0;
  for (const HotRegion &R : Regions) {
    if (Budget != 0 && R.Count >= Config.SplitMinCount &&
        R.bytes() >= 2 * Config.MinRegionBytes) {
      constexpr uint64_t P = AddressMap::PageBytes;
      uint64_t Mid = R.Start + (R.bytes() / 2 / P) * P;
      Next.push_back({R.Start, Mid, R.Count / 2});
      Next.push_back({Mid, R.End, R.Count - R.Count / 2});
      --Budget;
      ++Stats.Splits;
      continue;
    }
    Next.push_back(R);
  }
  Regions.swap(Next);

  // Exponential decay: old heat fades so the tracker follows working-set
  // shifts instead of averaging over the whole run.
  for (HotRegion &R : Regions)
    R.Count >>= Config.DecayShift;
}

void HotnessTracker::resetCounters() {
  for (HotRegion &R : Regions)
    R.Count = 0;
  EpochFill = 0;
}
