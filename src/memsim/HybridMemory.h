//===- memsim/HybridMemory.h - Hybrid DRAM/NVM cost model -------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hybrid-memory simulator every heap access is routed through. It
/// stands in for the paper's NUMA-based NVM emulator (§5.1): instead of
/// inserting delays on a real machine, it advances a simulated clock by a
/// latency/bandwidth cost per cache-line miss and keeps per-device traffic
/// counters equivalent to the VTune uncore events the paper collects.
///
/// Time is split between two clocks -- mutator and GC -- which is how the
/// paper produces Fig 5's computation/GC breakdown. An epoch-bucketed
/// bandwidth trace reproduces Fig 8's bandwidth-over-time plots.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_MEMSIM_HYBRIDMEMORY_H
#define PANTHERA_MEMSIM_HYBRIDMEMORY_H

#include "memsim/AddressMap.h"
#include "memsim/CacheModel.h"
#include "memsim/EnergyModel.h"
#include "memsim/MemoryTechnology.h"
#include "memsim/Prefetcher.h"
#include "memsim/ScanCacheModel.h"
#include "support/Metrics.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace panthera {
namespace memsim {

class HotnessTracker;

/// Device bytes moved during one trace epoch, split by direction.
struct EpochSample {
  double DramReadBytes = 0.0;
  double DramWriteBytes = 0.0;
  double NvmReadBytes = 0.0;
  double NvmWriteBytes = 0.0;
};

/// Which implementation services onAccess/onAccessRange. Both produce
/// bit-identical simulated time, energy, traffic, cache statistics, and
/// bandwidth trace; PerLine is the straight-line reference loop over the
/// reference cache model (ScanCacheModel) that the twin-replay tests diff
/// the batched path and its CacheModel against. Production always runs
/// Batched; only setAccessPath selects PerLine.
enum class AccessPathMode {
  Batched, ///< Amortized device/prefetch/LLC bookkeeping per line run.
  PerLine, ///< Reference: one full pipeline evaluation per touched line.
};

/// Integer traffic counts accumulated off the shared simulator and charged
/// in one bulk flush per GC phase (HybridMemory::flushShard), so a phase's
/// simulated time is one multiplication per device and direction, whatever
/// order the phase touched its lines in. The collector's GcTally.
struct TrafficShard {
  uint64_t DramReads = 0;
  uint64_t DramWrites = 0;
  uint64_t NvmReads = 0;
  uint64_t NvmWrites = 0;

  /// Counts the lines of [Addr, Addr+Bytes) against the backing device of
  /// each, resolving the device once per page run (bit-identical to the
  /// per-line lookup: the map is page-granular).
  void add(const AddressMap &Map, uint64_t Addr, uint64_t Bytes,
           bool IsWrite) {
    uint64_t FirstLine = Addr / CacheLineBytes;
    uint64_t LastLine = (Addr + Bytes - 1) / CacheLineBytes;
    constexpr uint64_t LinesPerPage = AddressMap::PageBytes / CacheLineBytes;
    for (uint64_t L = FirstLine; L <= LastLine;) {
      uint64_t PageLast = L | (LinesPerPage - 1);
      if (PageLast > LastLine)
        PageLast = LastLine;
      uint64_t Run = PageLast - L + 1;
      bool Dram = Map.deviceOf(L * CacheLineBytes) == Device::DRAM;
      if (IsWrite)
        (Dram ? DramWrites : NvmWrites) += Run;
      else
        (Dram ? DramReads : NvmReads) += Run;
      L = PageLast + 1;
    }
  }
};

/// Accounting core: owns the address map, the LLC model, the simulated
/// clocks, traffic counters, and the bandwidth trace. It does NOT own the
/// data bytes themselves; the managed heap holds those and reports every
/// load/store here.
class HybridMemory {
public:
  /// \p Registry receives the four epoch-bucketed bandwidth series
  /// (memsim.bandwidth.{dram,nvm}_{read,write}_bytes). When null (unit
  /// tests constructing the simulator standalone) a private registry is
  /// owned internally; bandwidthTrace() works either way.
  HybridMemory(uint64_t TotalBytes, const MemoryTechnology &Tech,
               const CacheConfig &Cache, double EpochNs = 1.0e6,
               support::MetricsRegistry *Registry = nullptr);

  AddressMap &map() { return Map; }
  const AddressMap &map() const { return Map; }
  const MemoryTechnology &technology() const { return Tech; }

  /// Records an access of \p Bytes at \p Addr. Split into cache lines;
  /// hits cost the hit latency, misses cost the device miss latency plus
  /// any dirty-victim writeback.
  void onAccess(uint64_t Addr, uint32_t Bytes, bool IsWrite) {
    onAccessRange(Addr, Bytes, IsWrite, 0);
  }

  /// Records a bulk traversal of [Addr, Addr+Bytes). With \p ElemBytes == 0
  /// the range is one access (exactly onAccess); with \p ElemBytes == E
  /// (Bytes must be a multiple) it models the element loop
  ///   for I in 0..Bytes/E: access(Addr + I*E, E, IsWrite)
  /// i.e. one access per element in address order — the shape every
  /// array-scan and record-copy caller has. Traffic, cache statistics, and
  /// miss costs are exactly the loop's; the one deliberate difference from
  /// issuing Bytes/E separate onAccess calls is that the T guaranteed
  /// repeat hits a line takes from sub-line elements are charged as a
  /// single fused double(T) * HitNs clock term rather than T dependent
  /// additions (a serial FP-add chain would cap the whole simulator's
  /// throughput; at T == 1 the two are the same bit pattern).
  ///
  /// Both implementations (Batched and PerLine) define this op by the
  /// identical FP operation sequence, so simulated time, energy, traffic,
  /// cache statistics, and bandwidth trace are bit-identical between them
  /// (asserted by the twin-replay tests). Batched additionally
  /// resolves the device once per page run, coalesces the repeat cache
  /// probes, and precomputes the cost constants once per call.
  ///
  /// Defined inline: a single access confined to one cache line -- every
  /// mutator field access -- that hits the LLC on its hinted way costs
  /// one predictable slow-path test, one tag compare, and one clock add.
  /// Misses, element ranges, multi-line ranges, and the slow paths
  /// (hotness profiling, PerLine, NaiveInjection) leave the caller.
  void onAccessRange(uint64_t Addr, uint64_t Bytes, bool IsWrite,
                     uint64_t ElemBytes = 0) {
    assert(Bytes > 0 && "zero-size access");
    const uint64_t Line = Addr / CacheLineBytes;
    if (SlowPath || ElemBytes != 0 ||
        Line != (Addr + Bytes - 1) / CacheLineBytes) {
      accessOutOfLine(Addr, Bytes, IsWrite, ElemBytes);
      return;
    }
    touchLine(Line, IsWrite, /*Touches=*/1);
  }

  /// Selects the access implementation (default Batched). PerLine is the
  /// reference loop for differential tests and micro benchmarks; no
  /// runtime option reaches it. Each path has its own cache model, so the
  /// path is chosen before the first access.
  void setAccessPath(AccessPathMode M);
  AccessPathMode accessPath() const { return Path; }

  /// Charges \p Ns of pure CPU work (no memory traffic) to the current
  /// actor's clock. The Spark engine uses this for per-record compute.
  void addCpuWorkNs(double Ns);

  /// Bulk accounting used by the collector's scavenge and mark: charges
  /// whole cache-line counts per device and direction at the current
  /// actor's miss cost, bumping the traffic counters and the bandwidth
  /// trace. No cache-model state is involved: a scavenge streams far more
  /// data than the LLC holds, so it is modeled as all misses at the GC's
  /// bandwidth-bound MLP.
  void chargeBulkLines(uint64_t DramReads, uint64_t DramWrites,
                       uint64_t NvmReads, uint64_t NvmWrites);

  /// Flushes a TrafficShard through chargeBulkLines and returns
  /// the simulated ns the flush added to the current actor's clock.
  double flushShard(const TrafficShard &S) {
    double Before = ActorNs[static_cast<unsigned>(Current)];
    chargeBulkLines(S.DramReads, S.DramWrites, S.NvmReads, S.NvmWrites);
    return ActorNs[static_cast<unsigned>(Current)] - Before;
  }

  void setActor(Actor A) { Current = A; }
  Actor actor() const { return Current; }

  double mutatorTimeNs() const { return ActorNs[0]; }
  double gcTimeNs() const { return ActorNs[1]; }
  double totalTimeNs() const { return ActorNs[0] + ActorNs[1]; }

  const TrafficCounters &traffic(Device D) const {
    return Traffic[static_cast<unsigned>(D)];
  }
  uint64_t cacheHits() const {
    return Reference ? Reference->hits() : Cache.hits();
  }
  uint64_t cacheMisses() const {
    return Reference ? Reference->misses() : Cache.misses();
  }

  /// The Fig 8 bandwidth-over-time trace, rebuilt from the registry's
  /// four bandwidth series (one row per epoch, padded to the longest).
  std::vector<EpochSample> bandwidthTrace() const;
  double epochNs() const { return EpochNs; }

  /// The registry the bandwidth series live in (the Runtime's, or the
  /// internally owned fallback).
  support::MetricsRegistry &metricsRegistry() { return *Registry; }

  uint64_t prefetchedMisses() const { return PrefetchedMisses; }

  /// Installs the online hotness profiler (docs/memsim.md). When set,
  /// every mutator-actor onAccess/onAccessRange feeds it before cost
  /// accounting -- identically on the Batched and PerLine paths, and never
  /// for GC-actor traffic, so profiling observes application heat only.
  /// Null (the default) keeps every non-dynamic policy's accounting
  /// byte-identical to a build without the profiler.
  void setHotnessTracker(HotnessTracker *T) {
    Hot = T;
    updateSlowPath();
  }
  HotnessTracker *hotnessTracker() { return Hot; }

private:
  void chargeNs(double Ns) { ActorNs[static_cast<unsigned>(Current)] += Ns; }
  /// Charges \p Ns but lets it overlap with accumulated CPU slack
  /// (prefetched streams and writebacks run concurrently with compute).
  void chargeOverlappableNs(double Ns) {
    double &Slack = CpuSlackNs[static_cast<unsigned>(Current)];
    double Hidden = Ns < Slack ? Ns : Slack;
    Slack -= Hidden;
    chargeNs(Ns - Hidden);
  }
  void recordTraffic(uint64_t LineAddr, bool IsWrite);
  /// SlowPath is true when an access needs more than the batched cost
  /// model: a hotness tracker to feed, the PerLine reference, or the
  /// cache-blind NaiveInjection mode.
  void updateSlowPath() {
    SlowPath = Hot != nullptr || Path == AccessPathMode::PerLine ||
               Tech.Mode == EmulationMode::NaiveInjection;
  }
  /// onAccessRange for everything but an unprofiled, batched, single-line
  /// single access: feeds the hotness tracker, then dispatches to the
  /// selected implementation.
  void accessOutOfLine(uint64_t Addr, uint64_t Bytes, bool IsWrite,
                       uint64_t ElemBytes);
  /// A batched access confined to cache line \p Line with \p Touches
  /// element touches: the first probe decides hit or miss, and the
  /// repeats are its guaranteed hits, charged as one fused
  /// Touches * HitNs fold (see onAccessRange).
  void touchLine(uint64_t Line, bool IsWrite, uint32_t Touches) {
    CacheResult R = Cache.accessLine(Line, IsWrite, Touches - 1);
    if (!R.Hit) {
      chargeLineMiss(Line, R, Touches);
      return;
    }
    const unsigned Cur = static_cast<unsigned>(Current);
    ActorNs[Cur] += static_cast<double>(Touches) * HitNs[Cur];
  }
  /// Charges the miss of touchLine: the reference per-line loop's miss
  /// branch for one line.
  void chargeLineMiss(uint64_t Line, CacheResult R, uint32_t Touches);
  /// Batched implementation of a multi-line range.
  void fastRange(uint64_t Addr, uint64_t Bytes, bool IsWrite,
                 uint64_t ElemBytes);
  /// Reference implementation: the per-element, per-line pipeline.
  void perLineRange(uint64_t Addr, uint64_t Bytes, bool IsWrite,
                    uint64_t ElemBytes);
  /// One access in NaiveInjection mode: a flat per-line delay.
  void naiveAccess(uint64_t Addr, uint64_t Bytes, bool IsWrite);
  /// deviceOf for writeback victims (arbitrary addresses): a single-entry
  /// page cache invalidated by the map's remap generation.
  Device victimDeviceOf(uint64_t Addr) {
    uint64_t Page = Addr / AddressMap::PageBytes;
    uint64_t Gen = Map.generation();
    if (Page != VictimCachePage || Gen != VictimCacheGen) {
      VictimCachePage = Page;
      VictimCacheGen = Gen;
      VictimCacheDev = Map.deviceOf(Addr);
    }
    return VictimCacheDev;
  }

  AddressMap Map;
  MemoryTechnology Tech;
  CacheModel Cache;
  /// The PerLine path's reference cache; built by setAccessPath(PerLine).
  std::unique_ptr<ScanCacheModel> Reference;
  CacheConfig CacheCfg;
  Actor Current = Actor::Mutator;
  double ActorNs[NumActors] = {0.0, 0.0};
  /// Per-actor LLC hit cost, CacheHitNs / mlp(actor).
  double HitNs[NumActors] = {0.0, 0.0};
  TrafficCounters Traffic[NumDevices];
  double EpochNs;
  /// Registry holding the bandwidth series; OwnedRegistry backs it when
  /// the constructor was not handed one.
  std::unique_ptr<support::MetricsRegistry> OwnedRegistry;
  support::MetricsRegistry *Registry = nullptr;
  /// Cached series handles, indexed [device][direction] as
  /// [DRAM read, DRAM write, NVM read, NVM write]. Map nodes are stable,
  /// so the pointers stay valid for the registry's lifetime.
  support::TimeSeries *Bw[4] = {nullptr, nullptr, nullptr, nullptr};

  /// Prefetcher stream table (Prefetcher.h).
  PrefetchStreamTable Prefetch;
  uint64_t PrefetchedMisses = 0;
  AccessPathMode Path = AccessPathMode::Batched;
  bool SlowPath = false;
  /// Single-entry victim deviceOf cache (see victimDeviceOf).
  uint64_t VictimCachePage = ~0ull;
  uint64_t VictimCacheGen = ~0ull;
  Device VictimCacheDev = Device::DRAM;
  /// Per-actor CPU slack available to hide overlappable memory time.
  double CpuSlackNs[NumActors] = {0.0, 0.0};
  /// Optional hotness profiler fed from onAccessRange (mutator only).
  HotnessTracker *Hot = nullptr;
};

/// RAII switch of the issuing actor; the GC wraps its phases in one.
class ActorScope {
public:
  ActorScope(HybridMemory &Mem, Actor A) : Mem(Mem), Saved(Mem.actor()) {
    Mem.setActor(A);
  }
  ~ActorScope() { Mem.setActor(Saved); }

  ActorScope(const ActorScope &) = delete;
  ActorScope &operator=(const ActorScope &) = delete;

private:
  HybridMemory &Mem;
  Actor Saved;
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_HYBRIDMEMORY_H
