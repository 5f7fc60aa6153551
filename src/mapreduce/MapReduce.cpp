//===- mapreduce/MapReduce.cpp - Hadoop-like layer on Panthera ------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "mapreduce/MapReduce.h"

#include "core/PantheraApi.h"
#include "rdd/KeyIndex.h"
#include "rdd/PartitionBuilder.h"

#include <memory>

using namespace panthera;
using namespace panthera::mapreduce;
using heap::GcRoot;
using heap::ObjRef;

/// Same SplitMix64-finalizer partitioner the RDD shuffle uses.
static uint32_t reducerOf(int64_t Key, uint32_t NumReducers) {
  uint64_t Z = static_cast<uint64_t>(Key) + 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<uint32_t>((Z ^ (Z >> 31)) % NumReducers);
}

uint32_t OutputTable::rows(uint32_t P) const {
  return H->arrayLength(H->persistentRoot(Roots[P]));
}

KeyValue OutputTable::row(uint32_t P, uint32_t I) const {
  ObjRef Arr = H->persistentRoot(Roots[P]);
  ObjRef T = H->loadRef(Arr, I);
  return {H->loadI64(T, 0), H->loadF64(T, 8)};
}

bool OutputTable::lookup(int64_t Key, double &ValueOut) const {
  uint32_t P = reducerOf(Key, numPartitions());
  ObjRef Arr = H->persistentRoot(Roots[P]);
  uint32_t N = H->arrayLength(Arr);
  for (uint32_t I = 0; I != N; ++I) {
    ObjRef T = H->loadRef(Arr, I);
    if (H->loadI64(T, 0) == Key) {
      ValueOut = H->loadF64(T, 8);
      return true;
    }
  }
  return false;
}

double OutputTable::total() const {
  double Sum = 0.0;
  for (uint32_t P = 0; P != numPartitions(); ++P) {
    uint32_t N = rows(P);
    for (uint32_t I = 0; I != N; ++I)
      Sum += row(P, I).Value;
  }
  return Sum;
}

void OutputTable::release() {
  if (!H)
    return;
  for (size_t Id : Roots)
    H->removePersistentRoot(Id);
  Roots.clear();
}

OutputTable panthera::mapreduce::runJob(
    core::Runtime &RT, const JobConfig &Config,
    const std::vector<std::vector<KeyValue>> &Splits, const MapFn &Map,
    const ReduceFn &Reduce) {
  heap::Heap &H = RT.heap();
  memsim::HybridMemory &Mem = RT.memory();
  uint32_t R = Config.NumReducers;

  // Map phase. Emitted pairs accumulate in heap spill buffers (one per
  // reducer, like Hadoop's MapOutputBuffer) and drain to native "disk"
  // shuffle files when full.
  std::vector<std::vector<KeyValue>> ShuffleFiles(R);
  {
    std::vector<std::unique_ptr<rdd::PartitionBuilder>> Buffers;
    Buffers.reserve(R);
    for (uint32_t I = 0; I != R; ++I)
      Buffers.emplace_back(std::make_unique<rdd::PartitionBuilder>(H));
    auto Spill = [&](uint32_t Target) {
      rdd::PartitionBuilder &B = *Buffers[Target];
      B.forEach([&](ObjRef T) {
        ShuffleFiles[Target].push_back(
            {H.loadI64(T, 0), H.loadF64(T, 8)});
      });
      B.clear();
    };
    Emitter Emit = [&](int64_t Key, double Value) {
      Mem.addCpuWorkNs(Config.RecordCpuNs);
      ObjRef T = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/16);
      H.storeI64(T, 0, Key);
      H.storeF64(T, 8, Value);
      uint32_t Target = reducerOf(Key, R);
      Buffers[Target]->append(T);
      if (Buffers[Target]->size() >= 16384)
        Spill(Target);
    };
    for (const std::vector<KeyValue> &Split : Splits)
      for (const KeyValue &Record : Split) {
        Mem.addCpuWorkNs(Config.RecordCpuNs);
        Map(Record, Emit);
      }
    for (uint32_t I = 0; I != R; ++I)
      Spill(I);
    while (!Buffers.empty())
      Buffers.pop_back(); // LIFO root discipline
  }

  // Reduce phase: aggregate per key, then write the output table through
  // the §4.3 pre-tenuring API.
  std::vector<size_t> Roots;
  for (uint32_t P = 0; P != R; ++P) {
    KeyIndex<int64_t> Keys;
    std::vector<double> Agg;
    for (const KeyValue &KV : ShuffleFiles[P]) {
      Mem.addCpuWorkNs(Config.RecordCpuNs);
      bool New;
      uint32_t Slot = Keys.insert(KV.Key, New);
      if (New)
        Agg.push_back(KV.Value);
      else
        Agg[Slot] = Reduce(Agg[Slot], KV.Value);
    }
    core::pretenureNextArray(H, Config.OutputTag,
                             Config.OutputStructureId);
    ObjRef ArrRaw = H.allocRefArray(static_cast<uint32_t>(Keys.size()));
    H.setPendingArrayTag(MemTag::None, 0);
    if (Config.OutputStructureId != 0)
      H.header(ArrRaw.addr())->RddId = Config.OutputStructureId;
    GcRoot Arr(H, ArrRaw);
    uint32_t Index = 0;
    for (const auto &[Key, Slot] : Keys.sorted()) {
      Mem.addCpuWorkNs(Config.RecordCpuNs);
      ObjRef T = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/16);
      H.storeI64(T, 0, Key);
      H.storeF64(T, 8, Agg[Slot]);
      H.storeRef(Arr.get(), Index++, T);
    }
    Roots.push_back(H.addPersistentRoot(Arr.get()));
  }
  return OutputTable(H, std::move(Roots));
}
