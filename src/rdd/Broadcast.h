//===- rdd/Broadcast.h - Read-only broadcast variables ----------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spark-style broadcast variables: a read-only array shipped to every
/// task. The values live in the managed heap (a primitive array reached
/// from a persistent root), so every per-record read a task performs is
/// visible to the memory model -- under the hybrid layouts, a broadcast
/// that tenures into NVM makes every task pay NVM latency, exactly the
/// class of frequently-read data Panthera keeps in DRAM.
///
/// Broadcasts are small and hot, so they are created through the
/// pre-tenuring API with a DRAM tag by default.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_RDD_BROADCAST_H
#define PANTHERA_RDD_BROADCAST_H

#include "heap/Heap.h"

#include <vector>

namespace panthera {
namespace rdd {

/// A read-only array of doubles visible to user functions. Copyable like
/// Spark's Broadcast handle; all copies share the underlying block.
class Broadcast {
public:
  Broadcast() = default;

  /// Ships \p Values into the heap. \p Tag defaults to DRAM: broadcasts
  /// are read by every task of every stage.
  Broadcast(heap::Heap &H, const std::vector<double> &Values,
            MemTag Tag = MemTag::Dram)
      : H(&H) {
    if (Tag != MemTag::None)
      H.setPendingArrayTag(Tag, /*RddId=*/0);
    heap::ObjRef Block =
        H.allocPrimArray(static_cast<uint32_t>(Values.size()), 8);
    H.setPendingArrayTag(MemTag::None, 0);
    if (Tag != MemTag::None)
      H.header(Block.addr())->setMemTag(Tag);
    {
      heap::GcRoot Root(H, Block);
      for (uint32_t I = 0; I != Values.size(); ++I)
        H.storeElemF64(Root.get(), I, Values[I]);
      RootId = H.addPersistentRoot(Root.get());
    }
  }

  bool valid() const { return H != nullptr && RootId != SIZE_MAX; }

  uint32_t size() const {
    return H->arrayLength(H->persistentRoot(RootId));
  }

  /// Reads element \p I (an accounted heap access, like a real task's).
  double get(uint32_t I) const {
    return H->loadElemF64(H->persistentRoot(RootId), I);
  }

  /// Releases the block (Spark's Broadcast.destroy); the next full GC
  /// reclaims it. Idempotent.
  void destroy() {
    if (valid()) {
      H->removePersistentRoot(RootId);
      RootId = SIZE_MAX;
    }
  }

private:
  heap::Heap *H = nullptr;
  size_t RootId = SIZE_MAX;
};

} // namespace rdd
} // namespace panthera

#endif // PANTHERA_RDD_BROADCAST_H
