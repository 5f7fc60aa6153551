//===- memsim/HybridMemory.cpp - Hybrid DRAM/NVM cost model --------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memsim/HybridMemory.h"

#include "memsim/HotnessTracker.h"
#include "support/Errors.h"

#include <bit>
#include <cmath>
#include <cstddef>

using namespace panthera::memsim;

HybridMemory::HybridMemory(uint64_t TotalBytes, const MemoryTechnology &Tech,
                           const CacheConfig &CacheCfg, double EpochNs,
                           support::MetricsRegistry *Reg)
    : Map(TotalBytes), Tech(Tech), Cache(CacheCfg), CacheCfg(CacheCfg),
      EpochNs(EpochNs), Epochs(EpochNs), Prefetch(Tech.PrefetchStreams) {
  // The epoch index divides by EpochNs and casts the quotient to size_t; a
  // zero, negative, or non-finite epoch turns that cast into undefined
  // behavior, so reject it at the source.
  PANTHERA_CHECK(std::isfinite(EpochNs) && EpochNs > 0.0,
                 "memsim epoch length must be a positive finite ns value");
  if (Reg) {
    Registry = Reg;
  } else {
    OwnedRegistry = std::make_unique<support::MetricsRegistry>();
    Registry = OwnedRegistry.get();
  }
  Bw[0] = &Registry->series("memsim.bandwidth.dram_read_bytes");
  Bw[1] = &Registry->series("memsim.bandwidth.dram_write_bytes");
  Bw[2] = &Registry->series("memsim.bandwidth.nvm_read_bytes");
  Bw[3] = &Registry->series("memsim.bandwidth.nvm_write_bytes");
  for (unsigned A = 0; A != NumActors; ++A) {
    HitNs[A] = Tech.CacheHitNs / Tech.mlp(static_cast<Actor>(A));
    for (unsigned D = 0; D != NumDevices; ++D)
      for (unsigned W = 0; W != 2; ++W)
        MissNs[A][D][W] = Tech.missCostNs(static_cast<Device>(D),
                                          static_cast<Actor>(A), W != 0);
  }
  for (unsigned D = 0; D != NumDevices; ++D)
    StreamNs[D] = Tech.missCostNs(static_cast<Device>(D), Actor::Mutator,
                                  /*IsWrite=*/false, /*Prefetched=*/true);
  updateSlowPath();
}

double EpochIndex::firstTimeOf(size_t K) const {
  // static_cast<size_t>(Q) >= K exactly when Q >= K, and the rounded
  // product lands within an ulp or two of the boundary.
  const double Kd = static_cast<double>(K);
  double T = Kd * EpochNs;
  if (std::isinf(T))
    return T;
  while (T > 0.0 && std::nextafter(T, 0.0) / EpochNs >= Kd)
    T = std::nextafter(T, 0.0);
  while (T / EpochNs < Kd)
    T = std::nextafter(T, HUGE_VAL);
  return T;
}

size_t EpochIndex::refresh(double T) {
  const size_t K = static_cast<size_t>(T / EpochNs);
  if (K < support::TimeSeries::MaxBuckets) {
    Lo = firstTimeOf(K);
    Hi = firstTimeOf(K + 1);
    Epoch = K;
  }
  return K;
}

void HybridMemory::setAccessPath(AccessPathMode M) {
  PANTHERA_CHECK(cacheHits() == 0 && cacheMisses() == 0,
                 "the memsim access path must be selected before the first "
                 "access");
  Path = M;
  if (M == AccessPathMode::PerLine)
    Reference = std::make_unique<ScanCacheModel>(CacheCfg);
  else
    Reference.reset();
  updateSlowPath();
}

std::vector<EpochSample> HybridMemory::bandwidthTrace() const {
  size_t N = 0;
  for (const support::TimeSeries *S : Bw)
    if (S->size() > N)
      N = S->size();
  std::vector<EpochSample> Trace(N);
  for (size_t I = 0; I != N; ++I) {
    Trace[I].DramReadBytes = Bw[0]->at(I);
    Trace[I].DramWriteBytes = Bw[1]->at(I);
    Trace[I].NvmReadBytes = Bw[2]->at(I);
    Trace[I].NvmWriteBytes = Bw[3]->at(I);
  }
  return Trace;
}

void HybridMemory::accessOutOfLine(uint64_t Addr, uint64_t Bytes,
                                   bool IsWrite, uint64_t ElemBytes) {
  assert((ElemBytes == 0 || Bytes % ElemBytes == 0) &&
         "range must be a whole number of elements");
  // Hotness profiling taps the accounted stream here, ahead of the path
  // dispatch, so Batched and PerLine feed the tracker identically. Only
  // mutator-actor traffic counts: GC evacuation touching a page must not
  // make it look application-hot.
  if (Hot && Current == Actor::Mutator)
    Hot->onRange(Addr, Bytes);
  // NaiveInjection ignores the cache entirely, so there is nothing to
  // amortize; it always takes the reference loop.
  if (Path == AccessPathMode::PerLine ||
      Tech.Mode == EmulationMode::NaiveInjection) {
    perLineRange(Addr, Bytes, IsWrite, ElemBytes);
    return;
  }
  const uint64_t Line = Addr / CacheLineBytes;
  const uint64_t LastLine = (Addr + Bytes - 1) / CacheLineBytes;
  // A single access over a few lines (mostly an object's zero-init that
  // straddles a line) touches each line once: fastRange would count
  // Touches = 1 on every line, so one touchLine per line is the same op
  // sequence without fastRange's set-up.
  if (ElemBytes == 0 && LastLine - Line < MaxShortLines) {
    for (uint64_t L = Line; L <= LastLine; ++L)
      touchLine(L, IsWrite, /*Touches=*/1);
    return;
  }
  if (Line != LastLine) {
    fastRange(Addr, Bytes, IsWrite, ElemBytes);
    return;
  }
  touchLine(Line, IsWrite, static_cast<uint32_t>(Bytes / ElemBytes));
}

void HybridMemory::missLine(uint64_t Line, bool IsWrite, uint32_t Touches) {
  const CacheResult R = Cache.lookup(Line, IsWrite, Touches - 1);
  const unsigned Cur = static_cast<unsigned>(Current);
  if (R.Hit) {
    ActorNs[Cur] += static_cast<double>(Touches) * HitNs[Cur];
    return;
  }
  // Mirrors one missed iteration of the reference per-line loop, including
  // the fused (Touches - 1) * HitNs fold of the line's repeat hits.
  const Device D = Map.deviceOf(Line * CacheLineBytes);
  const unsigned DI = static_cast<unsigned>(D);
  if (Tech.StreamPrefetcher && Prefetch.access(Line)) {
    ++PrefetchedMisses;
    chargeOverlappableNs(StreamNs[DI]);
  } else {
    chargeNs(MissNs[Cur][DI][0]);
  }
  recordTraffic(D, /*IsWrite=*/false);
  if (R.Writeback) {
    const Device VictimDev = victimDeviceOf(R.VictimLineAddr);
    chargeOverlappableNs(StreamNs[static_cast<unsigned>(VictimDev)]);
    recordTraffic(VictimDev, /*IsWrite=*/true);
  }
  if (Touches > 1)
    chargeNs(static_cast<double>(Touches - 1) * HitNs[Cur]);
}

void HybridMemory::perLineRange(uint64_t Addr, uint64_t Bytes, bool IsWrite,
                                uint64_t ElemBytes) {
  if (Tech.Mode == EmulationMode::NaiveInjection) {
    // Naive injection is a flat per-touch delay with no cache, so the
    // range op literally is the element loop.
    if (ElemBytes == 0) {
      naiveAccess(Addr, Bytes, IsWrite);
      return;
    }
    for (uint64_t I = 0, N = Bytes / ElemBytes; I != N; ++I)
      naiveAccess(Addr + I * ElemBytes, ElemBytes, IsWrite);
    return;
  }

  // Cache-aware reference loop: one full pipeline evaluation per touched
  // line -- deviceOf on every line, a prefetcher probe per miss, one
  // cache probe per element touch -- with only the cost fold the range
  // contract defines shared with the batched path (one fused
  // Touches * HitNs term per line; see onAccessRange in the header).
  const double HitNs = Tech.CacheHitNs / Tech.mlp(Current);
  const uint64_t E = ElemBytes ? ElemBytes : Bytes;
  const uint64_t NumElems = Bytes / E;
  const uint64_t FirstLine = Addr / CacheLineBytes;
  const uint64_t LastLine = (Addr + Bytes - 1) / CacheLineBytes;

  uint64_t ElemIdx = 0;
  uint64_t ElemStart = Addr;
  uint64_t CurEnd = 0;
  for (uint64_t Line = FirstLine; Line <= LastLine; ++Line) {
    const uint64_t LineStart = Line * CacheLineBytes;
    const uint64_t LineEnd = LineStart + CacheLineBytes;
    uint32_t Touches = CurEnd > LineStart ? 1u : 0u;
    while (ElemIdx != NumElems && ElemStart < LineEnd) {
      ++Touches;
      ++ElemIdx;
      ElemStart += E;
      CurEnd = ElemStart;
    }
    // One cache probe per touch (the batched path instead coalesces the
    // guaranteed repeat hits through the Repeat parameter -- running both
    // forms differentially checks that coalescing).
    CacheResult R = Reference->access(LineStart, IsWrite);
    for (uint32_t K = 1; K < Touches; ++K)
      Reference->access(LineStart, IsWrite);
    if (R.Hit) {
      chargeNs(static_cast<double>(Touches) * HitNs);
      continue;
    }
    Device D = Map.deviceOf(LineStart);
    bool Prefetched = Tech.StreamPrefetcher && Prefetch.access(Line);
    if (Prefetched) {
      ++PrefetchedMisses;
      chargeOverlappableNs(
          Tech.missCostNs(D, Current, /*IsWrite=*/false, Prefetched));
    } else {
      chargeNs(Tech.missCostNs(D, Current, /*IsWrite=*/false, Prefetched));
    }
    recordTraffic(D, /*IsWrite=*/false, referenceEpoch());
    if (R.Writeback) {
      Device VictimDev = Map.deviceOf(R.VictimLineAddr);
      chargeOverlappableNs(static_cast<double>(CacheLineBytes) /
                           Tech.bandwidthGBs(VictimDev));
      recordTraffic(VictimDev, /*IsWrite=*/true, referenceEpoch());
    }
    if (Touches > 1)
      chargeNs(static_cast<double>(Touches - 1) * HitNs);
  }
}

void HybridMemory::naiveAccess(uint64_t Addr, uint64_t Bytes, bool IsWrite) {
  // §5.1's rejected alternative: a fixed delay per executed load/store,
  // blind to caches and overlap.
  uint64_t FirstLine = Addr / CacheLineBytes;
  uint64_t LastLine = (Addr + Bytes - 1) / CacheLineBytes;
  for (uint64_t Line = FirstLine; Line <= LastLine; ++Line) {
    uint64_t LineAddr = Line * CacheLineBytes;
    Device D = Map.deviceOf(LineAddr);
    chargeNs(IsWrite ? Tech.writeLatencyNs(D) : Tech.readLatencyNs(D));
    recordTraffic(D, IsWrite, referenceEpoch());
  }
}

void HybridMemory::fastRange(uint64_t Addr, uint64_t Bytes, bool IsWrite,
                             uint64_t ElemBytes) {
  // The reference path is a loop of per-element, per-line pipeline
  // evaluations. Three observations let this path strip most of that work
  // without changing a single bit of simulator state:
  //
  //   1. Consecutive touches of one line after the first are guaranteed
  //      LLC hits (the line is MRU; nothing intervenes). The cache model
  //      coalesces them (Repeat) and the clock takes the single fused
  //      Touches * HitNs term the range contract defines -- the same FP
  //      multiply-then-add the reference loop performs.
  //   2. The device map is page-granular and cannot change mid-call, so
  //      one deviceOf per page run equals one per missed line.
  //   3. Miss/hit/writeback costs are pure functions of constants, read
  //      from the tables the constructor built.
  //
  // The clock, slack, and epoch arithmetic below mirrors chargeNs /
  // chargeOverlappableNs / recordTraffic operation-for-operation on local
  // copies, written back at the end.
  const unsigned Cur = static_cast<unsigned>(Current);
  double Clock = ActorNs[Cur];
  const double OtherClock = ActorNs[1 - Cur];
  double Slack = CpuSlackNs[Cur];
  const double HitNs = this->HitNs[Cur];

  // totalTimeNs() is ActorNs[0] + ActorNs[1] in that order; reproduce the
  // operand order exactly so the epoch index rounds identically.
  const auto RecordTraffic = [&](Device D, bool W) {
    double Total = Cur == 0 ? Clock + OtherClock : OtherClock + Clock;
    recordTraffic(D, W, Epochs.index(Total));
  };

  const uint64_t E = ElemBytes ? ElemBytes : Bytes;
  const uint64_t End = Addr + Bytes;
  const uint64_t FirstLine = Addr / CacheLineBytes;
  const uint64_t LastLine = (End - 1) / CacheLineBytes;
  constexpr uint64_t LinesPerPage = AddressMap::PageBytes / CacheLineBytes;
  // When whole elements tile a line exactly (the aligned sub-line scan
  // every bulk caller issues), the touch count is a constant and the
  // cursor advances arithmetically -- no per-element loop. The divisors
  // of the line size are its powers of two.
  const uint32_t TilePerLine =
      (E <= CacheLineBytes && (E & (E - 1)) == 0)
          ? CacheLineBytes >> std::countr_zero(E)
          : 0;

  // Element cursor: ElemStart walks forward monotonically to End (Bytes is
  // a whole number of elements); CurEnd is the end of the last element
  // seen, which detects elements straddling into the current line from the
  // previous one.
  uint64_t ElemStart = Addr;
  uint64_t CurEnd = 0;

  uint64_t Line = FirstLine;
  while (Line <= LastLine) {
    uint64_t PageLast = Line | (LinesPerPage - 1);
    if (PageLast > LastLine)
      PageLast = LastLine;
    const Device D = Map.deviceOf(Line * CacheLineBytes);
    const unsigned DI = static_cast<unsigned>(D);
    for (; Line <= PageLast; ++Line) {
      const uint64_t LineStart = Line * CacheLineBytes;
      const uint64_t LineEnd = LineStart + CacheLineBytes;
      // Touches = number of elements overlapping this line; they appear
      // back-to-back in the reference stream because element spans are
      // sorted and contiguous.
      uint32_t Touches;
      if (TilePerLine != 0 && ElemStart == LineStart &&
          End - ElemStart >= CacheLineBytes) {
        Touches = TilePerLine;
        ElemStart = LineEnd;
        CurEnd = LineEnd;
      } else {
        Touches = CurEnd > LineStart ? 1u : 0u;
        while (ElemStart != End && ElemStart < LineEnd) {
          ++Touches;
          ElemStart += E;
          CurEnd = ElemStart;
        }
      }
      CacheResult R = Cache.accessLine(Line, IsWrite, Touches - 1);
      if (R.Hit) {
        Clock += static_cast<double>(Touches) * HitNs;
        continue;
      }
      bool Prefetched = Tech.StreamPrefetcher && Prefetch.access(Line);
      if (Prefetched) {
        ++PrefetchedMisses;
        double Ns = StreamNs[DI];
        double Hidden = Ns < Slack ? Ns : Slack;
        Slack -= Hidden;
        Clock += Ns - Hidden;
      } else {
        Clock += MissNs[Cur][DI][0];
      }
      RecordTraffic(D, false);
      if (R.Writeback) {
        Device VictimDev = victimDeviceOf(R.VictimLineAddr);
        double Ns = StreamNs[static_cast<unsigned>(VictimDev)];
        double Hidden = Ns < Slack ? Ns : Slack;
        Slack -= Hidden;
        Clock += Ns - Hidden;
        RecordTraffic(VictimDev, true);
      }
      // The remaining touches of a missed line are its guaranteed hits.
      if (Touches > 1)
        Clock += static_cast<double>(Touches - 1) * HitNs;
    }
  }

  ActorNs[Cur] = Clock;
  CpuSlackNs[Cur] = Slack;
}

void HybridMemory::chargeBulkLines(uint64_t DramReads, uint64_t DramWrites,
                                   uint64_t NvmReads, uint64_t NvmWrites) {
  struct Batch {
    Device D;
    bool IsWrite;
    uint64_t Count;
  };
  const Batch Batches[4] = {
      {Device::DRAM, false, DramReads},
      {Device::DRAM, true, DramWrites},
      {Device::NVM, false, NvmReads},
      {Device::NVM, true, NvmWrites},
  };
  for (const Batch &B : Batches) {
    if (B.Count == 0)
      continue;
    chargeNs(static_cast<double>(B.Count) *
             MissNs[static_cast<unsigned>(Current)]
                   [static_cast<unsigned>(B.D)][B.IsWrite ? 1 : 0]);
    TrafficCounters &C = Traffic[static_cast<unsigned>(B.D)];
    if (B.IsWrite)
      C.LineWrites += B.Count;
    else
      C.LineReads += B.Count;
  }
  // Bucket the whole batch into the trace at the post-charge time (one
  // epoch sample; bulk charges are point events on the simulated clock).
  size_t Epoch = Epochs.index(totalTimeNs());
  double LineBytes = CacheLineBytes;
  Bw[0]->addAt(Epoch, LineBytes * static_cast<double>(DramReads));
  Bw[1]->addAt(Epoch, LineBytes * static_cast<double>(DramWrites));
  Bw[2]->addAt(Epoch, LineBytes * static_cast<double>(NvmReads));
  Bw[3]->addAt(Epoch, LineBytes * static_cast<double>(NvmWrites));
}
