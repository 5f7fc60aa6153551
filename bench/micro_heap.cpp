//===- bench/micro_heap.cpp - google-benchmark micro costs -----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Micro-benchmarks (google-benchmark) of the runtime's building blocks:
/// allocation, reference stores (write barrier + card marking), minor GC
/// with and without eager promotion, pretenured array allocation, and the
/// cache/memory model itself. These measure *host* throughput of the
/// simulator, complementing the figure harnesses that report simulated
/// time.
///
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"
#include "support/Units.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace panthera;
using namespace panthera::heap;

namespace {

struct Fixture {
  explicit Fixture(gc::PolicyKind Policy = gc::PolicyKind::Panthera) {
    HeapConfig HC = gc::makeHeapConfig(Policy, 16, 1.0 / 3.0);
    Mem = std::make_unique<memsim::HybridMemory>(
        HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
        memsim::MemoryTechnology{}, memsim::CacheConfig{});
    H = std::make_unique<Heap>(HC, *Mem);
    C = std::make_unique<gc::Collector>(*H, Policy, nullptr);
  }
  std::unique_ptr<memsim::HybridMemory> Mem;
  std::unique_ptr<Heap> H;
  std::unique_ptr<gc::Collector> C;
};

void BM_AllocPlain(benchmark::State &State) {
  Fixture F;
  for (auto _ : State)
    benchmark::DoNotOptimize(F.H->allocPlain(1, 16));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocPlain);

void BM_RefStoreWithBarrier(benchmark::State &State) {
  Fixture F;
  GcRoot Arr(*F.H, F.H->allocRefArray(512));
  GcRoot T(*F.H, F.H->allocPlain(0, 8));
  uint32_t I = 0;
  for (auto _ : State) {
    F.H->storeRef(Arr.get(), I & 511, T.get());
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RefStoreWithBarrier);

void BM_PrimFieldLoad(benchmark::State &State) {
  Fixture F;
  GcRoot T(*F.H, F.H->allocPlain(0, 16));
  F.H->storeF64(T.get(), 0, 1.5);
  for (auto _ : State)
    benchmark::DoNotOptimize(F.H->loadF64(T.get(), 0));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PrimFieldLoad);

void BM_PretenuredArrayAlloc(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Fixture F; // fresh heap: old space never fills
    State.ResumeTiming();
    for (int I = 0; I != 64; ++I) {
      F.H->setPendingArrayTag(MemTag::Nvm, 1);
      benchmark::DoNotOptimize(F.H->allocRefArray(2048));
    }
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_PretenuredArrayAlloc);

void BM_MinorGcEmptyYoung(benchmark::State &State) {
  Fixture F;
  for (auto _ : State)
    F.C->collectMinor("bench");
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MinorGcEmptyYoung);

void BM_MinorGcWithSurvivors(benchmark::State &State) {
  Fixture F;
  GcRoot Arr(*F.H, F.H->allocRefArray(1024));
  for (auto _ : State) {
    State.PauseTiming();
    // Re-populate: survivors move every collection.
    for (uint32_t I = 0; I != 1024; ++I) {
      ObjRef T = F.H->allocPlain(0, 16);
      F.H->storeRef(Arr.get(), I, T);
    }
    State.ResumeTiming();
    F.C->collectMinor("bench");
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(BM_MinorGcWithSurvivors);

void BM_CacheModelAccess(benchmark::State &State) {
  memsim::CacheModel Cache((memsim::CacheConfig()));
  uint64_t Addr = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Cache.access(Addr, false));
    Addr += 64;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheModelAccess);

void BM_HybridMemoryAccess(benchmark::State &State) {
  memsim::HybridMemory Mem(64 * PaperGB, memsim::MemoryTechnology{},
                           memsim::CacheConfig{});
  uint64_t Addr = 0;
  for (auto _ : State) {
    Mem.onAccess(Addr % (32 * PaperGB), 8, false);
    Addr += 4096;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HybridMemoryAccess);

} // namespace

BENCHMARK_MAIN();
