//===- tests/test_memsim.cpp - Hybrid-memory simulator tests -------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "memsim/AddressMap.h"
#include "memsim/CacheModel.h"
#include "memsim/EnergyModel.h"
#include "memsim/HybridMemory.h"
#include "memsim/Prefetcher.h"
#include "memsim/ScanCacheModel.h"
#include "support/Errors.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

using namespace panthera;
using namespace panthera::memsim;

namespace {

/// Deterministic seeded generator for the randomized differential tests.
uint64_t splitMix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4595bull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

} // namespace

TEST(AddressMap, DefaultsToDram) {
  AddressMap Map(1 << 20);
  EXPECT_EQ(Map.deviceOf(0), Device::DRAM);
  EXPECT_EQ(Map.deviceOf((1 << 20) - 1), Device::DRAM);
}

TEST(AddressMap, SetRangeChangesDevice) {
  AddressMap Map(1 << 20);
  Map.setRange(4096, 8192, Device::NVM);
  EXPECT_EQ(Map.deviceOf(4095), Device::DRAM);
  EXPECT_EQ(Map.deviceOf(4096), Device::NVM);
  EXPECT_EQ(Map.deviceOf(8191), Device::NVM);
  EXPECT_EQ(Map.deviceOf(8192), Device::DRAM);
}

TEST(AddressMap, InterleaveRespectsProbabilityRoughly) {
  AddressMap Map(64 << 20);
  Map.interleaveRange(0, 64 << 20, 1 << 20, 0.25, /*Seed=*/7);
  uint64_t DramBytes = Map.bytesBackedBy(0, 64 << 20, Device::DRAM);
  double Ratio = static_cast<double>(DramBytes) / (64 << 20);
  // 64 chunks at p=0.25: expect within a loose binomial bound.
  EXPECT_GT(Ratio, 0.05);
  EXPECT_LT(Ratio, 0.55);
}

TEST(AddressMap, InterleaveIsDeterministic) {
  AddressMap A(16 << 20), B(16 << 20);
  A.interleaveRange(0, 16 << 20, 1 << 20, 0.5, 99);
  B.interleaveRange(0, 16 << 20, 1 << 20, 0.5, 99);
  for (uint64_t Addr = 0; Addr < (16u << 20); Addr += 1 << 20)
    EXPECT_EQ(A.deviceOf(Addr), B.deviceOf(Addr));
}

TEST(CacheModel, HitAfterMiss) {
  CacheModel C(CacheConfig{});
  EXPECT_FALSE(C.access(0x1000, false).Hit);
  EXPECT_TRUE(C.access(0x1000, false).Hit);
  EXPECT_TRUE(C.access(0x1020, false).Hit) << "same 64B line";
  EXPECT_FALSE(C.access(0x1040, false).Hit) << "next line";
}

TEST(CacheModel, DirtyEvictionReportsWriteback) {
  CacheConfig Small;
  Small.CapacityBytes = 2 * 64; // two lines total
  Small.Associativity = 2;      // one set
  CacheModel C(Small);
  C.access(0, true);      // dirty line 0
  C.access(64, false);    // fill line 1
  CacheResult R = C.access(128, false); // evicts LRU = line 0 (dirty)
  EXPECT_FALSE(R.Hit);
  EXPECT_TRUE(R.Writeback);
  EXPECT_EQ(R.VictimLineAddr, 0u);
}

TEST(CacheModel, LruPrefersOldest) {
  CacheConfig Small;
  Small.CapacityBytes = 2 * 64;
  Small.Associativity = 2;
  CacheModel C(Small);
  C.access(0, false);
  C.access(64, false);
  C.access(0, false);                    // line 0 now most recent
  CacheResult R = C.access(128, true);   // must evict line 64
  EXPECT_FALSE(R.Hit);
  EXPECT_FALSE(R.Writeback) << "victim was clean";
  EXPECT_TRUE(C.access(0, false).Hit) << "line 0 must survive";
}

TEST(MissCost, NvmCostsMoreThanDram) {
  MemoryTechnology T;
  EXPECT_GT(T.missCostNs(Device::NVM, Actor::Mutator, false),
            T.missCostNs(Device::DRAM, Actor::Mutator, false));
  EXPECT_GT(T.missCostNs(Device::NVM, Actor::Gc, false),
            T.missCostNs(Device::DRAM, Actor::Gc, false));
}

TEST(MissCost, GcIsBandwidthBoundOnNvm) {
  // With the default 64-way GC MLP, the NVM bandwidth term dominates the
  // latency term -- the §5.3 effect that makes Parallel Scavenge suffer.
  MemoryTechnology T;
  double BandwidthTerm = CacheLineBytes / T.NvmBandwidthGBs;
  EXPECT_DOUBLE_EQ(T.missCostNs(Device::NVM, Actor::Gc, false),
                   BandwidthTerm);
}

TEST(HybridMemory, ChargesActorClocksSeparately) {
  HybridMemory Mem(1 << 20, MemoryTechnology{}, CacheConfig{});
  Mem.onAccess(0, 8, false);
  EXPECT_GT(Mem.mutatorTimeNs(), 0.0);
  EXPECT_EQ(Mem.gcTimeNs(), 0.0);
  {
    ActorScope Scope(Mem, Actor::Gc);
    Mem.onAccess(4096, 8, false);
  }
  EXPECT_GT(Mem.gcTimeNs(), 0.0);
  EXPECT_EQ(Mem.actor(), Actor::Mutator) << "scope must restore";
}

TEST(HybridMemory, CountsTrafficPerDevice) {
  HybridMemory Mem(1 << 20, MemoryTechnology{}, CacheConfig{});
  Mem.map().setRange(0, 4096, Device::NVM);
  Mem.onAccess(0, 8, false);
  Mem.onAccess(8192, 8, false);
  EXPECT_EQ(Mem.traffic(Device::NVM).LineReads, 1u);
  EXPECT_EQ(Mem.traffic(Device::DRAM).LineReads, 1u);
}

TEST(HybridMemory, MultiLineAccessTouchesEveryLine) {
  HybridMemory Mem(1 << 20, MemoryTechnology{}, CacheConfig{});
  Mem.onAccess(0, 256, false); // 4 lines
  EXPECT_EQ(Mem.traffic(Device::DRAM).LineReads, 4u);
}

TEST(HybridMemory, BandwidthTraceAccumulates) {
  HybridMemory Mem(1 << 20, MemoryTechnology{}, CacheConfig{}, /*Epoch=*/1e3);
  for (int I = 0; I != 100; ++I)
    Mem.onAccess(static_cast<uint64_t>(I) * 64, 8, false);
  double Total = 0;
  for (const EpochSample &S : Mem.bandwidthTrace())
    Total += S.DramReadBytes;
  EXPECT_DOUBLE_EQ(Total, 100.0 * 64.0);
}

TEST(Energy, NvmWritesDominatePerLine) {
  EnergyParams P;
  TrafficCounters Dram{1000, 1000}, Nvm{1000, 1000};
  EnergyBreakdown E = computeEnergy(P, 0.0, 1.0, 1.0, Dram, Nvm);
  EXPECT_GT(E.NvmDynamicJoules, E.DramDynamicJoules);
}

TEST(Energy, StaticScalesWithCapacityAndTime) {
  EnergyParams P;
  TrafficCounters None;
  EnergyBreakdown A = computeEnergy(P, 1e9, 64.0, 0.0, None, None);
  EnergyBreakdown B = computeEnergy(P, 1e9, 32.0, 0.0, None, None);
  EXPECT_NEAR(A.DramStaticJoules, 2.0 * B.DramStaticJoules, 1e-9);
  EnergyBreakdown C = computeEnergy(P, 2e9, 64.0, 0.0, None, None);
  EXPECT_NEAR(C.DramStaticJoules, 2.0 * A.DramStaticJoules, 1e-9);
}

TEST(Energy, NvmStaticIsSmallRelativeToDram) {
  EnergyParams P;
  TrafficCounters None;
  EnergyBreakdown E = computeEnergy(P, 1e9, 32.0, 32.0, None, None);
  EXPECT_LT(E.NvmStaticJoules, 0.2 * E.DramStaticJoules);
}

TEST(Prefetcher, SequentialMissesAreBandwidthBound) {
  MemoryTechnology T;
  HybridMemory Mem(1 << 22, T, CacheConfig{});
  // A long unit-stride scan: after the first few misses the stream is
  // detected and each line costs only the bandwidth term.
  double Before = Mem.mutatorTimeNs();
  const int Lines = 1000;
  for (int I = 0; I != Lines; ++I)
    Mem.onAccess(static_cast<uint64_t>(I) * 64, 8, false);
  double PerLine = (Mem.mutatorTimeNs() - Before) / Lines;
  EXPECT_LT(PerLine, 1.2 * 64.0 / T.DramBandwidthGBs)
      << "sequential DRAM scan should cost ~bandwidth only";
  EXPECT_GT(Mem.prefetchedMisses(), static_cast<uint64_t>(Lines * 9 / 10));
}

TEST(Prefetcher, RandomMissesPayFullLatency) {
  MemoryTechnology T;
  HybridMemory Mem(64 << 20, T, CacheConfig{});
  double Before = Mem.mutatorTimeNs();
  const int Lines = 1000;
  uint64_t Addr = 0;
  for (int I = 0; I != Lines; ++I) {
    Mem.onAccess(Addr % (48u << 20), 8, false);
    Addr += 4099 * 64; // large prime stride defeats the stream table
  }
  double PerLine = (Mem.mutatorTimeNs() - Before) / Lines;
  EXPECT_NEAR(PerLine, T.DramReadLatencyNs / T.MutatorMlp, 2.0);
}

TEST(Prefetcher, TracksMultipleConcurrentStreams) {
  MemoryTechnology T;
  HybridMemory Mem(64 << 20, T, CacheConfig{});
  // Four interleaved unit-stride streams at distant bases.
  uint64_t Bases[4] = {0, 8 << 20, 16 << 20, 24 << 20};
  for (int I = 0; I != 400; ++I)
    Mem.onAccess(Bases[I % 4] + static_cast<uint64_t>(I / 4) * 64, 8,
                 false);
  EXPECT_GT(Mem.prefetchedMisses(), 350u)
      << "the 8-entry stream table must hold 4 streams";
}

TEST(Prefetcher, CanBeDisabled) {
  MemoryTechnology T;
  T.StreamPrefetcher = false;
  HybridMemory Mem(1 << 22, T, CacheConfig{});
  double Before = Mem.mutatorTimeNs();
  for (int I = 0; I != 100; ++I)
    Mem.onAccess(static_cast<uint64_t>(I) * 64, 8, false);
  double PerLine = (Mem.mutatorTimeNs() - Before) / 100;
  EXPECT_NEAR(PerLine, T.DramReadLatencyNs / T.MutatorMlp, 2.0);
  EXPECT_EQ(Mem.prefetchedMisses(), 0u);
}

TEST(CpuOverlap, HidesPrefetchedStreamsBehindCompute) {
  MemoryTechnology T;
  T.CpuOverlapWindowNs = 200.0;
  HybridMemory Mem(1 << 22, T, CacheConfig{});
  // Interleave compute with a sequential scan: the stream cost should be
  // (mostly) absorbed into the CPU time.
  double Start = Mem.mutatorTimeNs();
  double CpuTotal = 0;
  for (int I = 0; I != 500; ++I) {
    Mem.addCpuWorkNs(20.0);
    CpuTotal += 20.0;
    Mem.onAccess(static_cast<uint64_t>(I) * 64, 8, false);
  }
  double Elapsed = Mem.mutatorTimeNs() - Start;
  EXPECT_LT(Elapsed, CpuTotal * 1.15)
      << "prefetched lines must overlap with compute";
}

TEST(EmulationMode, NaiveInjectionChargesEveryAccess) {
  MemoryTechnology T;
  T.Mode = EmulationMode::NaiveInjection;
  HybridMemory Mem(1 << 20, T, CacheConfig{});
  // Two accesses to the same line: no cache, both pay full latency.
  Mem.onAccess(0, 8, false);
  Mem.onAccess(8, 8, false);
  EXPECT_DOUBLE_EQ(Mem.mutatorTimeNs(), 2.0 * T.DramReadLatencyNs);
  EXPECT_EQ(Mem.traffic(Device::DRAM).LineReads, 2u);
}

TEST(HybridMemory, RejectsNonPositiveOrNonFiniteEpoch) {
  MemoryTechnology T;
  CacheConfig CC;
  EXPECT_THROW(HybridMemory(1 << 20, T, CC, 0.0), EngineError);
  EXPECT_THROW(HybridMemory(1 << 20, T, CC, -100.0), EngineError);
  EXPECT_THROW(HybridMemory(1 << 20, T, CC,
                            std::numeric_limits<double>::quiet_NaN()),
               EngineError);
  EXPECT_THROW(
      HybridMemory(1 << 20, T, CC, std::numeric_limits<double>::infinity()),
      EngineError);
  EXPECT_NO_THROW(HybridMemory(1 << 20, T, CC, 1.0));
}

TEST(CacheModel, MatchesScanReference) {
  // The hinted, fingerprinted cache must reproduce the reference scan
  // model (ScanCacheModel.h) op for op: hit/miss outcome, writeback
  // victim, and counters, over geometries from direct-mapped to the
  // default 16 x 20 (and a 19-set capacity that rounds up to 32 sets),
  // 12 ways (two fingerprint words, the second partial) and a one-set
  // 255-way cache, under hot reuse, same-set conflict strides, random
  // lines, lines sharing one set and one fingerprint (every resident way
  // is a candidate the tag compare must reject), and lines sharing one
  // hint slot, with mixed writes and coalesced repeats throughout.
  struct Geometry {
    uint64_t CapacityBytes;
    uint32_t Associativity;
  };
  const Geometry Geometries[] = {
      {20 * 1024, 20},    // default: 16 sets x 20 ways
      {64, 1},            // 1 set x 1 way
      {2 * 64, 2},        // 1 set x 2 ways
      {4 * 64, 1},        // 4 sets x 1 way
      {64 * 8 * 64, 8},   // 64 sets x 8 ways
      {24 * 1024, 20},    // 19 raw sets -> 32
      {16 * 12 * 64, 12}, // 16 sets x 12 ways
      {255 * 64, 255},    // 1 set x 255 ways
  };
  enum Stream {
    HotReuse,
    SetConflict,
    RandomLines,
    FingerprintCollision,
    HintAlias,
    NumStreams
  };
  for (const Geometry &G : Geometries) {
    CacheConfig Config;
    Config.CapacityBytes = G.CapacityBytes;
    Config.Associativity = G.Associativity;
    const uint64_t Lines = G.CapacityBytes / 64;
    // Pools of 2A + 3 lines: more than a set holds, so they also evict.
    const size_t PoolSize = 2 * G.Associativity + 3;
    // A 64-line stride maps to one set at every geometry above.
    std::vector<uint64_t> SameFingerprint;
    const uint8_t Fingerprint = CacheModel::fingerprintOf(7);
    for (uint64_t K = 0; SameFingerprint.size() != PoolSize; ++K)
      if (CacheModel::fingerprintOf(7 + 64 * K) == Fingerprint)
        SameFingerprint.push_back(7 + 64 * K);
    std::vector<uint64_t> SameHint;
    {
      const CacheModel Probe(Config);
      const size_t Slot = Probe.hintSlotOf(12345);
      for (uint64_t L = 12345; SameHint.size() != PoolSize; ++L)
        if (Probe.hintSlotOf(L) == Slot)
          SameHint.push_back(L);
    }
    for (int S = 0; S != NumStreams; ++S) {
      for (uint64_t Seed : {5ull, 20261018ull}) {
        SCOPED_TRACE(testing::Message()
                     << G.CapacityBytes << " B " << G.Associativity
                     << "-way, stream " << S << ", seed " << Seed);
        CacheModel Fast(Config);
        ScanCacheModel Ref(Config);
        uint64_t State = Seed * 31 + static_cast<uint64_t>(S);
        for (int I = 0; I != 20000; ++I) {
          uint64_t R = splitMix64(State);
          uint64_t Line;
          if (S == HotReuse)
            Line = 1000 + (R >> 16) % (Lines + Lines / 2 + 1);
          else if (S == SetConflict)
            Line = 7 + 64 * ((R >> 16) % (2 * G.Associativity + 3));
          else if (S == RandomLines)
            Line = (R >> 16) % (1u << 20);
          else if (S == FingerprintCollision)
            Line = SameFingerprint[(R >> 16) % PoolSize];
          else
            Line = SameHint[(R >> 16) % PoolSize];
          uint64_t Addr = Line * 64 + (R & 63);
          bool IsWrite = (R & (1ull << 8)) != 0;
          uint32_t Repeat = (R >> 60) & 3;
          CacheResult A = Ref.access(Addr, IsWrite, Repeat);
          CacheResult B = (I & 1) ? Fast.access(Addr, IsWrite, Repeat)
                                  : Fast.accessLine(Line, IsWrite, Repeat);
          ASSERT_EQ(A.Hit, B.Hit) << "op " << I;
          ASSERT_EQ(A.Writeback, B.Writeback) << "op " << I;
          ASSERT_EQ(A.VictimLineAddr, B.VictimLineAddr) << "op " << I;
          ASSERT_EQ(Ref.hits(), Fast.hits()) << "op " << I;
          ASSERT_EQ(Ref.misses(), Fast.misses()) << "op " << I;
        }
      }
    }
  }
}

TEST(CacheModel, RejectsAssociativityOutsideOneTo255) {
  // Ways are stored as bytes (hints, candidate order, fingerprints).
  CacheConfig Config;
  Config.Associativity = 0;
  EXPECT_THROW(CacheModel{Config}, EngineError);
  Config.Associativity = 256;
  Config.CapacityBytes = 256 * 64;
  EXPECT_THROW(CacheModel{Config}, EngineError);
  Config.Associativity = 255;
  EXPECT_NO_THROW(CacheModel{Config});
  Config.CapacityBytes = 254 * 64; // less than one set
  EXPECT_THROW(CacheModel{Config}, EngineError);
}

TEST(CacheModel, LruOrderSurvivesClockWrap) {
  // Coalesced repeats advance the LRU clock by 1 + Repeat, so one access
  // can carry it past 2^32. A 32-bit clock would then stamp B, the line
  // used last, with the smallest value and evict it before A.
  CacheConfig OneSet;
  OneSet.CapacityBytes = 2 * 64;
  OneSet.Associativity = 2;
  CacheModel C(OneSet);
  C.access(0, false);                  // A
  C.access(64, false, 0xFFFFFFFEu);    // B: the clock reaches 2^32
  EXPECT_FALSE(C.access(128, false).Hit); // C evicts the LRU line
  EXPECT_TRUE(C.access(64, false).Hit) << "B was used after A";
}

namespace {

/// Verbatim copy of the original linear stream table, with a LastUse pass
/// for the victim: the pinned reference semantics PrefetchStreamTable must
/// reproduce decision for decision.
class ReferenceStreamTable {
public:
  explicit ReferenceStreamTable(uint32_t N) : Streams(N) {}

  bool access(uint64_t LineAddr) {
    if (Streams.empty())
      return false;
    ++StreamClock;
    size_t Lru = 0;
    for (size_t I = 0; I != Streams.size(); ++I) {
      if (Streams[I].NextLine == LineAddr) {
        Streams[I].NextLine = LineAddr + 1;
        Streams[I].LastUse = StreamClock;
        return true;
      }
      if (Streams[I].LastUse < Streams[Lru].LastUse)
        Lru = I;
    }
    Streams[Lru].NextLine = LineAddr + 1;
    Streams[Lru].LastUse = StreamClock;
    return false;
  }

private:
  struct Stream {
    uint64_t NextLine = ~0ull;
    uint64_t LastUse = 0;
  };
  std::vector<Stream> Streams;
  uint64_t StreamClock = 0;
};

} // namespace

TEST(Prefetcher, StreamTableMatchesReferenceScan) {
  // Randomized mixes of interleaved sequential runs and wild jumps; every
  // single hit/miss decision must match the linear reference at several
  // table widths (including 1 and the default 8).
  for (uint32_t N : {1u, 3u, 8u, 16u}) {
    for (uint64_t Seed : {11ull, 4242ull, 987654321ull}) {
      ReferenceStreamTable Ref(N);
      PrefetchStreamTable Fast(N);
      uint64_t State = Seed ^ N;
      uint64_t Cursors[6] = {0, 1000, 2000, 3000, 4000, 5000};
      for (int I = 0; I != 50000; ++I) {
        uint64_t R = splitMix64(State);
        uint64_t Line;
        unsigned Kind = R % 8;
        if (Kind < 6) {
          // Advance one of six interleaved streams (more than the table
          // holds at small N, forcing constant retraining).
          Line = Cursors[Kind]++;
        } else if (Kind == 6) {
          Line = (R >> 8) % 100000; // random jump
        } else {
          // Re-touch a line near a cursor: duplicate expectations.
          Line = Cursors[R % 6];
        }
        ASSERT_EQ(Ref.access(Line), Fast.access(Line))
            << "N=" << N << " step " << I << " line " << Line;
      }
    }
  }
}

TEST(Prefetcher, WideStreamTableMatchesReferenceScan) {
  // A table wider than any default, spot-checked the same way.
  ReferenceStreamTable Ref(100);
  PrefetchStreamTable Fast(100);
  uint64_t State = 5;
  for (int I = 0; I != 20000; ++I) {
    uint64_t R = splitMix64(State);
    uint64_t Line = (R % 4 != 0) ? (R % 64) * 1000 + I / 4 : (R >> 8) % 5000;
    ASSERT_EQ(Ref.access(Line), Fast.access(Line)) << "step " << I;
  }
}

namespace {

/// One recorded simulator operation, replayable against any instance.
struct SimOp {
  enum KindTy { Access, Range, CpuWork } Kind;
  uint64_t Addr = 0;
  uint64_t Bytes = 0;
  uint64_t ElemBytes = 0;
  bool IsWrite = false;
  bool GcActor = false;
  double CpuNs = 0.0;
};

void replay(HybridMemory &Mem, const std::vector<SimOp> &Ops) {
  for (const SimOp &Op : Ops) {
    ActorScope Scope(Mem, Op.GcActor ? Actor::Gc : Actor::Mutator);
    switch (Op.Kind) {
    case SimOp::Access:
      Mem.onAccess(Op.Addr, static_cast<uint32_t>(Op.Bytes), Op.IsWrite);
      break;
    case SimOp::Range:
      Mem.onAccessRange(Op.Addr, Op.Bytes, Op.IsWrite, Op.ElemBytes);
      break;
    case SimOp::CpuWork:
      Mem.addCpuWorkNs(Op.CpuNs);
      break;
    }
  }
}

void expectIdenticalState(HybridMemory &A, HybridMemory &B) {
  // Exact (bitwise) equality on every observable: clocks, traffic, cache
  // statistics, prefetch statistics, and the full Fig 8 bandwidth trace.
  EXPECT_EQ(A.mutatorTimeNs(), B.mutatorTimeNs());
  EXPECT_EQ(A.gcTimeNs(), B.gcTimeNs());
  for (Device D : {Device::DRAM, Device::NVM}) {
    EXPECT_EQ(A.traffic(D).LineReads, B.traffic(D).LineReads);
    EXPECT_EQ(A.traffic(D).LineWrites, B.traffic(D).LineWrites);
  }
  EXPECT_EQ(A.cacheHits(), B.cacheHits());
  EXPECT_EQ(A.cacheMisses(), B.cacheMisses());
  EXPECT_EQ(A.prefetchedMisses(), B.prefetchedMisses());
  std::vector<EpochSample> TA = A.bandwidthTrace();
  std::vector<EpochSample> TB = B.bandwidthTrace();
  ASSERT_EQ(TA.size(), TB.size());
  for (size_t I = 0; I != TA.size(); ++I) {
    EXPECT_EQ(TA[I].DramReadBytes, TB[I].DramReadBytes) << "epoch " << I;
    EXPECT_EQ(TA[I].DramWriteBytes, TB[I].DramWriteBytes) << "epoch " << I;
    EXPECT_EQ(TA[I].NvmReadBytes, TB[I].NvmReadBytes) << "epoch " << I;
    EXPECT_EQ(TA[I].NvmWriteBytes, TB[I].NvmWriteBytes) << "epoch " << I;
  }
}

} // namespace

TEST(HybridMemory, BatchedPathMatchesPerLineBitExactly) {
  // The tentpole contract: randomized op sequences straddling cache-line,
  // page, and device boundaries must leave a Batched-path simulator in a
  // state bitwise identical to a PerLine-path twin -- simulated clocks,
  // traffic, cache stats, prefetch stats, and the epoch trace.
  constexpr uint64_t Total = 8 << 20;
  // Element sizes covering sub-line tiling (8, 64), line straddling with
  // non-tiling strides (24, 96, 200), and multi-line elements (1536).
  constexpr uint64_t ElemSizes[] = {8, 24, 64, 96, 200, 1536};
  for (uint64_t Seed : {1ull, 42ull, 777777ull}) {
    std::vector<SimOp> Ops;
    uint64_t State = Seed;
    for (int I = 0; I != 4000; ++I) {
      uint64_t R = splitMix64(State);
      SimOp Op;
      unsigned Kind = R % 10;
      Op.IsWrite = (R & (1ull << 20)) != 0;
      Op.GcActor = (R & (1ull << 21)) != 0;
      if (Kind == 0) {
        Op.Kind = SimOp::CpuWork;
        Op.CpuNs = static_cast<double>(R % 500) * 0.5;
      } else if (Kind <= 3) {
        Op.Kind = SimOp::Access;
        Op.Bytes = 1 + (R >> 24) % 256;
        Op.Addr = (R >> 8) % (Total - Op.Bytes);
      } else {
        Op.Kind = SimOp::Range;
        Op.ElemBytes = ElemSizes[(R >> 32) % 6];
        uint64_t Elems = 1 + (R >> 40) % 64;
        Op.Bytes = Op.ElemBytes * Elems;
        Op.Addr = (R >> 8) % (Total - Op.Bytes);
      }
      Ops.push_back(Op);
    }

    MemoryTechnology T;
    // A nonzero overlap window so the slack bookkeeping is exercised.
    T.CpuOverlapWindowNs = 150.0;
    HybridMemory A(Total, T, CacheConfig{}, /*EpochNs=*/5.0e3);
    HybridMemory B(Total, T, CacheConfig{}, /*EpochNs=*/5.0e3);
    A.setAccessPath(AccessPathMode::Batched);
    B.setAccessPath(AccessPathMode::PerLine);
    // Alternate 16 KB NVM stripes so page runs cross device boundaries.
    for (uint64_t Off = 0; Off < Total; Off += 64 * 1024) {
      A.map().setRange(Off, Off + 16 * 1024, Device::NVM);
      B.map().setRange(Off, Off + 16 * 1024, Device::NVM);
    }

    replay(A, Ops);
    replay(B, Ops);
    expectIdenticalState(A, B);
  }
}

TEST(HybridMemory, BatchedPathMatchesPerLineWithoutPrefetcher) {
  // Same differential with the stream prefetcher off and interleaved
  // (Unmanaged-style) device chunks.
  constexpr uint64_t Total = 4 << 20;
  MemoryTechnology T;
  T.StreamPrefetcher = false;
  HybridMemory A(Total, T, CacheConfig{}, 1.0e3);
  HybridMemory B(Total, T, CacheConfig{}, 1.0e3);
  A.setAccessPath(AccessPathMode::Batched);
  B.setAccessPath(AccessPathMode::PerLine);
  A.map().interleaveRange(0, Total, 64 * 1024, 0.5, 13);
  B.map().interleaveRange(0, Total, 64 * 1024, 0.5, 13);

  std::vector<SimOp> Ops;
  uint64_t State = 99;
  for (int I = 0; I != 2000; ++I) {
    uint64_t R = splitMix64(State);
    SimOp Op;
    Op.Kind = SimOp::Range;
    Op.ElemBytes = (R % 2) ? 8 : 96;
    Op.Bytes = Op.ElemBytes * (1 + (R >> 40) % 128);
    Op.Addr = (R >> 8) % (Total - Op.Bytes);
    Op.IsWrite = (R & (1ull << 20)) != 0;
    Ops.push_back(Op);
  }
  replay(A, Ops);
  replay(B, Ops);
  expectIdenticalState(A, B);
}

TEST(HybridMemory, AccessPathIsChosenBeforeTheFirstAccess) {
  // Each path keeps its own cache model, so switching after an access
  // would split one run's cache state across two models.
  HybridMemory Mem(1 << 20, MemoryTechnology{}, CacheConfig{});
  Mem.setAccessPath(AccessPathMode::PerLine);
  Mem.setAccessPath(AccessPathMode::Batched);
  Mem.onAccess(0, 8, false);
  EXPECT_THROW(Mem.setAccessPath(AccessPathMode::PerLine), EngineError);
}

TEST(EmulationMode, NaiveInjectionOvershootsCacheAware) {
  MemoryTechnology Naive;
  Naive.Mode = EmulationMode::NaiveInjection;
  HybridMemory A(1 << 20, Naive, CacheConfig{});
  HybridMemory B(1 << 20, MemoryTechnology{}, CacheConfig{});
  for (int I = 0; I != 1000; ++I) {
    A.onAccess(static_cast<uint64_t>(I % 64) * 8, 8, false);
    B.onAccess(static_cast<uint64_t>(I % 64) * 8, 8, false);
  }
  EXPECT_GT(A.mutatorTimeNs(), 10.0 * B.mutatorTimeNs())
      << "ignoring the cache must cost dearly on a hot working set";
}

TEST(HybridMemory, VictimWritebackSeesDeviceRemapImmediately) {
  // Regression for the single-entry victimDeviceOf cache: a device remap
  // (what the dynamic-migration engine does between GCs) bumps the map
  // generation, and the very next dirty eviction of a line on the remapped
  // page must charge the writeback at the NEW device's bandwidth. A stale
  // cache entry would keep billing the old device.
  CacheConfig OneLine;
  OneLine.CapacityBytes = CacheLineBytes; // one set, one way: every
  OneLine.Associativity = 1;              // distinct line evicts the last
  HybridMemory Mem(1 << 20, MemoryTechnology{}, OneLine);
  const uint64_t A = 0;              // victim line, page 0
  const uint64_t B = 4 * AddressMap::PageBytes;  // conflicting line on another page

  // Round 1: dirty A, then evict it while page 0 is DRAM-backed.
  Mem.onAccess(A, 8, /*IsWrite=*/true);
  double Before1 = Mem.mutatorTimeNs();
  Mem.onAccess(B, 8, /*IsWrite=*/false);
  double EvictDram = Mem.mutatorTimeNs() - Before1;

  // Dirty A again (clean B is displaced without a writeback), then remap
  // page 0 to NVM. The remap must bump the generation.
  Mem.onAccess(A, 8, /*IsWrite=*/true);
  uint64_t GenBefore = Mem.map().generation();
  Mem.map().setRange(0, AddressMap::PageBytes, Device::NVM);
  EXPECT_GT(Mem.map().generation(), GenBefore);

  // Round 2: the same eviction, but the victim now lives on NVM.
  double Before2 = Mem.mutatorTimeNs();
  Mem.onAccess(B, 8, /*IsWrite=*/false);
  double EvictNvm = Mem.mutatorTimeNs() - Before2;

  // Identical access apart from the victim's device: the cost difference
  // is exactly the writeback bandwidth gap.
  const MemoryTechnology &T = Mem.technology();
  double WbGap = static_cast<double>(CacheLineBytes) /
                     T.bandwidthGBs(Device::NVM) -
                 static_cast<double>(CacheLineBytes) /
                     T.bandwidthGBs(Device::DRAM);
  EXPECT_GT(WbGap, 0.0);
  EXPECT_NEAR(EvictNvm - EvictDram, WbGap, 1e-9)
      << "stale victim-device cache: writeback billed to the old device";
}

TEST(EpochIndex, MatchesTheDivisionAroundEpochBoundaries) {
  // The cached epoch range must give static_cast<size_t>(T / E) for every
  // time: at k * E as rounded, at its neighbours, at the least double
  // whose quotient reaches k, mid-epoch, and past the bucket cap (which is
  // never cached), visited in order and in a random order.
  for (double E : {1.0e6, 5.0e3, 1.0e3 / 3.0, 0.1, 7.3}) {
    SCOPED_TRACE(testing::Message() << "EpochNs " << E);
    std::vector<double> Times;
    for (uint64_t K = 0; K != 2000; ++K) {
      const double At = static_cast<double>(K) * E;
      Times.insert(Times.end(), {std::nextafter(At, 0.0), At,
                                 std::nextafter(At, HUGE_VAL), At + E / 2});
    }
    for (size_t K : {support::TimeSeries::MaxBuckets - 1,
                     support::TimeSeries::MaxBuckets}) {
      const double At = static_cast<double>(K) * E;
      Times.insert(Times.end(), {std::nextafter(At, 0.0), At,
                                 std::nextafter(At, HUGE_VAL)});
    }
    EpochIndex InOrder(E);
    for (double T : Times)
      ASSERT_EQ(InOrder.index(T), static_cast<size_t>(T / E)) << T;
    EpochIndex Shuffled(E);
    uint64_t State = 3;
    for (size_t I = 0; I != Times.size(); ++I) {
      const double T = Times[splitMix64(State) % Times.size()];
      ASSERT_EQ(Shuffled.index(T), static_cast<size_t>(T / E)) << T;
    }
  }
}

namespace {

/// The CPU work after which a miss costing \p Cost, issued at \p Clock,
/// ends exactly at \p Target: (Clock + W) + Cost == Target in doubles.
double workLandingAt(double Clock, double Cost, double Target) {
  const double W0 = Target - Cost - Clock;
  for (double Dir : {-HUGE_VAL, HUGE_VAL}) {
    double W = W0;
    for (int I = 0; I != 64; ++I, W = std::nextafter(W, Dir))
      if ((Clock + W) + Cost == Target)
        return W;
  }
  ADD_FAILURE() << "no CPU work lands a miss at " << Target;
  return W0;
}

} // namespace

TEST(HybridMemory, MissAtAnEpochBoundaryMatchesTheDivision) {
  // A miss recorded exactly at k * EpochNs (as rounded), at the least time
  // whose epoch is k, and at the double just below each must land in the
  // division's epoch. The PerLine twin divides; the Batched simulator
  // first records a miss mid-way through the previous epoch, so it answers
  // from the cached range.
  const double E = 1.0e3 / 3.0;
  const MemoryTechnology Tech;
  const double Cost = Tech.missCostNs(Device::DRAM, Actor::Mutator, false);
  for (uint64_t K = 1; K != 60; ++K) {
    const double Kd = static_cast<double>(K);
    double First = Kd * E;
    while (std::nextafter(First, 0.0) / E >= Kd)
      First = std::nextafter(First, 0.0);
    while (First / E < Kd)
      First = std::nextafter(First, HUGE_VAL);
    const double At = Kd * E;
    for (double Target : {At, std::nextafter(At, 0.0), First,
                          std::nextafter(First, 0.0)}) {
      SCOPED_TRACE(testing::Message() << "k " << K << ", target " << Target);
      HybridMemory A(1 << 20, Tech, CacheConfig{}, E);
      HybridMemory B(1 << 20, Tech, CacheConfig{}, E);
      B.setAccessPath(AccessPathMode::PerLine);
      // Lines two apart never continue a prefetch stream: every miss pays
      // the demand cost.
      uint64_t Addr = 0;
      for (double Stop : {Target - E / 2, Target}) {
        if (Stop < Cost)
          continue;
        const double W = workLandingAt(A.mutatorTimeNs(), Cost, Stop);
        for (HybridMemory *M : {&A, &B}) {
          M->addCpuWorkNs(W);
          M->onAccess(Addr, 8, false);
        }
        Addr += 2 * CacheLineBytes;
      }
      ASSERT_EQ(A.mutatorTimeNs(), Target);
      expectIdenticalState(A, B);
      const std::vector<EpochSample> Trace = A.bandwidthTrace();
      ASSERT_EQ(Trace.size(), static_cast<size_t>(Target / E) + 1);
      EXPECT_GT(Trace.back().DramReadBytes, 0.0);
    }
  }
}

TEST(HybridMemory, BucketCapFiresOnTheSameAccessAsTheDivision) {
  // 2^24 epochs span 100 ns, so the fourth 30 ns demand miss is the first
  // traffic past TimeSeries::MaxBuckets. It must throw on both paths, and
  // nothing before it may; hits record no traffic and never throw.
  const double E = 100.0 / static_cast<double>(support::TimeSeries::MaxBuckets);
  for (AccessPathMode Path : {AccessPathMode::Batched, AccessPathMode::PerLine}) {
    for (bool Range : {false, true}) {
      SCOPED_TRACE(testing::Message() << "PerLine " << (Path ==
                                          AccessPathMode::PerLine)
                                      << ", range " << Range);
      HybridMemory Mem(1 << 20, MemoryTechnology{}, CacheConfig{}, E);
      Mem.setAccessPath(Path);
      for (uint64_t I = 0; I != 3; ++I) {
        EXPECT_NO_THROW(Mem.onAccess(I * 2 * CacheLineBytes, 8, false));
        EXPECT_NO_THROW(Mem.onAccess(I * 2 * CacheLineBytes, 8, true));
      }
      const uint64_t Next = 6 * CacheLineBytes;
      if (Range)
        EXPECT_THROW(Mem.onAccessRange(Next, 2 * CacheLineBytes, false, 8),
                     EngineError);
      else
        EXPECT_THROW(Mem.onAccess(Next, 8, false), EngineError);
    }
  }
}

TEST(HybridMemory, ShortSingleAccessesMatchFastRangeAndPerLine) {
  // A single access over 2-4 lines takes one touchLine per line. The same
  // access issued as a one-element range takes fastRange, and a PerLine
  // twin the reference loop; all three must leave identical state. The
  // 600-line pool is larger than the LLC, so hits, misses, stream
  // prefetches and dirty writebacks all occur, across NVM stripes.
  constexpr uint64_t Total = 4 << 20;
  MemoryTechnology T;
  T.CpuOverlapWindowNs = 150.0;
  for (uint64_t Seed : {7ull, 2026ull}) {
    std::vector<SimOp> Single;
    uint64_t State = Seed;
    for (int I = 0; I != 6000; ++I) {
      const uint64_t R = splitMix64(State);
      SimOp Op;
      Op.IsWrite = (R & (1ull << 20)) != 0;
      Op.GcActor = (R & (1ull << 21)) != 0;
      if (R % 8 == 0) {
        Op.Kind = SimOp::CpuWork;
        Op.CpuNs = static_cast<double>(R % 400) * 0.5;
      } else {
        Op.Kind = SimOp::Access;
        // Runs of consecutive lines feed the prefetcher.
        const uint64_t FirstLine = (R % 3 == 0)
                                       ? 1000 + (I % 600)
                                       : 1000 + (R >> 24) % 600;
        const uint64_t Span = 2 + (R >> 40) % 3; // 2..4 lines
        const uint64_t Start = FirstLine * CacheLineBytes + (R >> 8) % 64;
        const uint64_t Last =
            (FirstLine + Span - 1) * CacheLineBytes + (R >> 48) % 64;
        Op.Addr = Start;
        Op.Bytes = Last - Start + 1;
      }
      Single.push_back(Op);
    }
    std::vector<SimOp> AsRange = Single;
    for (SimOp &Op : AsRange)
      if (Op.Kind == SimOp::Access) {
        Op.Kind = SimOp::Range;
        Op.ElemBytes = Op.Bytes;
      }

    HybridMemory A(Total, T, CacheConfig{}, 2.0e3);
    HybridMemory B(Total, T, CacheConfig{}, 2.0e3);
    HybridMemory C(Total, T, CacheConfig{}, 2.0e3);
    C.setAccessPath(AccessPathMode::PerLine);
    for (uint64_t Off = 0; Off < Total; Off += 32 * 1024)
      for (HybridMemory *M : {&A, &B, &C})
        M->map().setRange(Off, Off + 8 * 1024, Device::NVM);
    replay(A, Single);
    replay(B, AsRange);
    replay(C, Single);
    EXPECT_GT(A.prefetchedMisses(), 0u);
    EXPECT_GT(A.traffic(Device::DRAM).LineWrites +
                  A.traffic(Device::NVM).LineWrites,
              0u);
    expectIdenticalState(A, C);
    expectIdenticalState(B, C);
  }
}
