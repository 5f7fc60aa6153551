//===- memsim/Prefetcher.h - Sequential-stream prefetch table ---*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bookkeeping for the hardware stream prefetcher modeled by HybridMemory:
/// a table of N streams, each holding the next line it expects.
///
///   - a missed line matching the lowest-indexed stream's expectation is a
///     prefetch hit; that stream advances to the successor line and becomes
///     most recently used;
///   - otherwise the least-recently-used stream (ties broken toward the
///     lowest index, which also makes never-used streams fill in index
///     order) is retrained to expect the successor.
///
/// The match is a first-match scan over the N expected lines (N = 8 by
/// default, one contiguous 64-byte row). The victim comes from an
/// intrusive recency list whose head is the LRU stream (initialized 0..N-1
/// so initial ties also pop in index order), so no LastUse pass runs.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_MEMSIM_PREFETCHER_H
#define PANTHERA_MEMSIM_PREFETCHER_H

#include <cstdint>
#include <vector>

namespace panthera {
namespace memsim {

/// Stream-prefetcher state machine; access() per missed line address.
class PrefetchStreamTable {
public:
  explicit PrefetchStreamTable(uint32_t NumStreams) : N(NumStreams) {
    NextLine.assign(N, NoLine);
    Prev.resize(N);
    Next.resize(N);
    for (uint32_t I = 0; I != N; ++I) {
      Prev[I] = I == 0 ? NoIndex : I - 1;
      Next[I] = I + 1 == N ? NoIndex : I + 1;
    }
    Head = 0;
    Tail = N - 1;
  }

  /// True when \p LineAddr continues a tracked sequential stream; updates
  /// the table either way (hit streams advance, misses retrain the LRU
  /// stream).
  bool access(uint64_t LineAddr) {
    if (N == 0)
      return false;
    uint32_t I = 0;
    while (I != N && NextLine[I] != LineAddr)
      ++I;
    // A hit advances its stream; a new stream candidate retrains the LRU
    // victim (list head) to predict the sequential successor. One
    // retarget site keeps the function small enough to inline.
    const bool Hit = I != N;
    retarget(Hit ? I : Head, LineAddr + 1);
    return Hit;
  }

private:
  static constexpr uint64_t NoLine = ~0ull;
  static constexpr uint32_t NoIndex = ~0u;

  /// Points stream \p I at \p Line and makes it most recently used.
  void retarget(uint32_t I, uint64_t Line) {
    NextLine[I] = Line;
    if (I == Tail)
      return;
    // Unlink, then append at the tail.
    if (Prev[I] != NoIndex)
      Next[Prev[I]] = Next[I];
    else
      Head = Next[I];
    Prev[Next[I]] = Prev[I];
    Prev[I] = Tail;
    Next[I] = NoIndex;
    Next[Tail] = I;
    Tail = I;
  }

  uint32_t N;
  /// The line each stream expects next; NoLine until first trained.
  std::vector<uint64_t> NextLine;
  /// Intrusive recency list over stream indices; Head is the LRU victim.
  std::vector<uint32_t> Prev;
  std::vector<uint32_t> Next;
  uint32_t Head = NoIndex;
  uint32_t Tail = NoIndex;
};

} // namespace memsim
} // namespace panthera

#endif // PANTHERA_MEMSIM_PREFETCHER_H
