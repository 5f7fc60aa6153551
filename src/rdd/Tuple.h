//===- rdd/Tuple.h - Heap layout of RDD data tuples -------------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap shape of RDD elements, mirroring the paper's Fig 1: a
/// materialized partition is a reference array whose elements are tuple
/// objects; a tuple holds an int64 key, a double value, and an optional
/// reference to a nested payload (a CompactBuffer primitive array for
/// groupByKey results, a pair object for co-grouped values, etc.).
///
/// Tuple layout: Plain object, 1 ref slot (payload), 16 payload bytes
/// (key at offset 0, value at offset 8).
///
/// RddContext wraps the heap with element-level helpers and is the handle
/// user transformation functions receive. Functions that hold a tuple
/// reference across an allocation must protect it with heap::GcRoot --
/// allocation can trigger a moving collection.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_RDD_TUPLE_H
#define PANTHERA_RDD_TUPLE_H

#include "heap/Heap.h"

namespace panthera {
namespace rdd {

/// Element-level view over the managed heap for user functions.
class RddContext {
public:
  explicit RddContext(heap::Heap &H) : H(H) {}

  heap::Heap &heap() { return H; }

  /// Allocates a (key, value) tuple with a null payload reference.
  heap::ObjRef makeTuple(int64_t Key, double Value) {
    heap::ObjRef T = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/16);
    H.storeI64(T, 0, Key);
    H.storeF64(T, 8, Value);
    return T;
  }

  /// Allocates a tuple carrying a payload reference. \p Payload is rooted
  /// internally across the allocation.
  heap::ObjRef makeTupleWithRef(int64_t Key, double Value,
                                heap::ObjRef Payload) {
    heap::GcRoot Saved(H, Payload);
    heap::ObjRef T = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/16);
    H.storeI64(T, 0, Key);
    H.storeF64(T, 8, Value);
    H.storeRef(T, 0, Saved.get());
    return T;
  }

  int64_t key(heap::ObjRef Tuple) { return H.loadI64(Tuple, 0); }
  double value(heap::ObjRef Tuple) { return H.loadF64(Tuple, 8); }
  heap::ObjRef payload(heap::ObjRef Tuple) { return H.loadRef(Tuple, 0); }

  /// Length of a tuple's CompactBuffer payload (0 for a null payload).
  uint32_t bufferLength(heap::ObjRef Tuple) {
    heap::ObjRef Buf = payload(Tuple);
    return Buf ? H.arrayLength(Buf) : 0;
  }

  /// Reads element \p I of a CompactBuffer. Buffers built by groupByKey
  /// are reference arrays of boxed values (the paper's Fig 1 heap shape:
  /// buffer -> element object -> payload), so reading an element is a
  /// pointer chase; primitive arrays are also accepted.
  double bufferValue(heap::ObjRef Buffer, uint32_t I) {
    if (H.header(Buffer.addr())->kind() == heap::ObjectKind::RefArray) {
      heap::ObjRef Box = H.loadRef(Buffer, I);
      return H.loadF64(Box, 0);
    }
    return H.loadElemF64(Buffer, I);
  }

  /// Allocates a boxed double (Plain object, 8-byte payload).
  heap::ObjRef makeBox(double Value) {
    heap::ObjRef Box = H.allocPlain(/*NumRefs=*/0, /*PayloadBytes=*/8);
    H.storeF64(Box, 0, Value);
    return Box;
  }

private:
  heap::Heap &H;
};

} // namespace rdd
} // namespace panthera

#endif // PANTHERA_RDD_TUPLE_H
