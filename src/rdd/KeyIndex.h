//===- rdd/KeyIndex.h - First-seen key slots for reduce tasks ---*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The key aggregation every reduce task shares (reduceByKey, groupByKey,
/// distinct, and the MapReduce reduce phase): each distinct key of a row
/// stream gets a dense slot number in first-seen order, so a task keeps
/// its per-key state in a flat vector indexed by slot, and sorted() lists
/// the keys in ascending order when the output must be key-ordered. The
/// table is open addressing (Fibonacci hash, linear probing, at most half
/// full), replacing a node-based std::map per task.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_RDD_KEYINDEX_H
#define PANTHERA_RDD_KEYINDEX_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace panthera {

/// Hash of a key before the table's Fibonacci multiply.
inline uint64_t keyIndexHash(int64_t K) { return static_cast<uint64_t>(K); }
inline uint64_t keyIndexHash(const std::pair<int64_t, int64_t> &K) {
  return static_cast<uint64_t>(K.first) ^
         static_cast<uint64_t>(K.second) * 0xC2B2AE3D27D4EB4Full;
}

/// Distinct keys of a stream, each mapped to the slot of its first
/// occurrence (0, 1, 2, ... in first-seen order).
template <typename KeyT> class KeyIndex {
public:
  KeyIndex() { rehash(16); }

  /// The slot of \p K, assigning the next one when \p K is new.
  uint32_t insert(const KeyT &K, bool &New) {
    size_t H = home(K);
    for (; Table[H].Slot != NoSlot; H = (H + 1) & Mask)
      if (Table[H].Key == K) {
        New = false;
        return Table[H].Slot;
      }
    New = true;
    return add(H, K);
  }

  size_t size() const { return Keys.size(); }

  /// (key, slot) for every distinct key, in ascending key order.
  std::vector<std::pair<KeyT, uint32_t>> sorted() const {
    std::vector<std::pair<KeyT, uint32_t>> Out;
    Out.reserve(Keys.size());
    for (uint32_t S = 0; S != Keys.size(); ++S)
      Out.emplace_back(Keys[S], S);
    std::sort(Out.begin(), Out.end()); // keys are distinct
    return Out;
  }

private:
  static constexpr uint32_t NoSlot = ~0u;
  struct Entry {
    KeyT Key;
    uint32_t Slot;
  };

  size_t home(const KeyT &K) const {
    return static_cast<size_t>((keyIndexHash(K) * 0x9E3779B97F4A7C15ull) >>
                               Shift);
  }

  /// Assigns \p K, whose probe ended at the empty entry \p H, the next
  /// slot; doubles the table past half full.
  uint32_t add(size_t H, const KeyT &K) {
    const uint32_t Slot = static_cast<uint32_t>(Keys.size());
    Table[H] = {K, Slot};
    Keys.push_back(K);
    if (2 * Keys.size() > Table.size())
      rehash(2 * Table.size());
    return Slot;
  }

  void rehash(size_t Capacity) {
    Table.assign(Capacity, Entry{KeyT(), NoSlot});
    Mask = Capacity - 1;
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Capacity));
    for (uint32_t S = 0; S != Keys.size(); ++S) {
      size_t H = home(Keys[S]);
      while (Table[H].Slot != NoSlot)
        H = (H + 1) & Mask;
      Table[H] = {Keys[S], S};
    }
  }

  std::vector<Entry> Table;
  std::vector<KeyT> Keys;
  size_t Mask = 0;
  unsigned Shift = 0;
};

} // namespace panthera

#endif // PANTHERA_RDD_KEYINDEX_H
