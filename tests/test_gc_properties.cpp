//===- tests/test_gc_properties.cpp - Randomized GC property tests --------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property-based stress tests: a deterministic fuzzer mutates a random
/// object graph (allocations, ref rewrites, root churn, tag stamping,
/// explicit collections) under every policy, and after every step the
/// shadow model must match the heap and the heap verifier must pass.
///
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"
#include "gc/HeapVerifier.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

using namespace panthera;
using namespace panthera::heap;
using namespace panthera::gc;

namespace {

/// One fuzz scenario: policy + seed + whether major GCs are mixed in.
using Scenario = std::tuple<PolicyKind, uint64_t, bool>;

class GcFuzz : public ::testing::TestWithParam<Scenario> {};

/// Shadow model: each live node mirrors a heap object. Node payloads are
/// unique stamps so copied objects can be re-identified after moves.
struct ShadowNode {
  int64_t Stamp;
  std::vector<int> Children; // indices into the shadow array, -1 = null
};

TEST_P(GcFuzz, GraphSurvivesChurnUnderEveryPolicy) {
  auto [Policy, Seed, WithMajors] = GetParam();
  HeapConfig HC = makeHeapConfig(Policy, 8, 1.0 / 3.0);
  HC.Tuning.VerifyHeap = true; // verify after *every* collection
  auto Mem = std::make_unique<memsim::HybridMemory>(
      HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
      memsim::MemoryTechnology{}, memsim::CacheConfig{});
  Heap H(HC, *Mem);
  support::WorkStealingPool Pool(1);
  Collector C(H, Policy, nullptr, Pool);

  SplitMix64 Rng(Seed);
  constexpr int NumRoots = 24;
  constexpr int RefsPerNode = 3;

  // Persistent roots backed by the shadow model.
  std::vector<size_t> RootIds;
  std::vector<ShadowNode> Shadow; // Shadow[i] corresponds to root i chain
  std::vector<int> RootNode(NumRoots, -1);
  for (int I = 0; I != NumRoots; ++I)
    RootIds.push_back(H.addPersistentRoot(ObjRef()));

  auto NewNode = [&](int64_t Stamp) {
    ObjRef Obj = H.allocPlain(RefsPerNode, 8);
    H.storeI64(Obj, 0, Stamp);
    return Obj;
  };

  int64_t NextStamp = 1;
  for (int Step = 0; Step != 3000; ++Step) {
    switch (Rng.nextBelow(100)) {
    default: {
      // Allocate a node and attach it to a random root slot or child.
      int Root = static_cast<int>(Rng.nextBelow(NumRoots));
      int64_t Stamp = NextStamp++;
      ObjRef Obj = NewNode(Stamp);
      int NodeIdx = static_cast<int>(Shadow.size());
      Shadow.push_back({Stamp, std::vector<int>(RefsPerNode, -1)});
      if (RootNode[Root] < 0 || Rng.nextBelow(2) == 0) {
        H.setPersistentRoot(RootIds[Root], Obj);
        RootNode[Root] = NodeIdx;
      } else {
        // Attach as a child of the root's node.
        int Slot = static_cast<int>(Rng.nextBelow(RefsPerNode));
        ObjRef Parent = H.persistentRoot(RootIds[Root]);
        {
          GcRoot Saved(H, Obj);
          // (no allocation between load and store; store directly)
          H.storeRef(Parent, Slot, Saved.get());
        }
        Shadow[RootNode[Root]].Children[Slot] = NodeIdx;
      }
      // Occasionally stamp tags (tagged objects promote eagerly).
      if (Rng.nextBelow(10) == 0)
        H.header(Obj.addr())
            ->setMemTag(Rng.nextBelow(2) ? MemTag::Dram : MemTag::Nvm);
      break;
    }
    case 90 ... 93: { // drop a root (subtree becomes garbage)
      int Root = static_cast<int>(Rng.nextBelow(NumRoots));
      H.setPersistentRoot(RootIds[Root], ObjRef());
      RootNode[Root] = -1;
      break;
    }
    case 94 ... 96: // minor GC
      C.collectMinor("fuzz");
      break;
    case 97: // garbage burst
      for (int I = 0; I != 200; ++I)
        H.allocPlain(1, 24);
      break;
    case 98:
    case 99:
      if (WithMajors)
        C.collectMajor("fuzz");
      break;
    }

    // Validate the whole shadow graph every 250 steps (cheap enough).
    if (Step % 250 == 249) {
      for (int Root = 0; Root != NumRoots; ++Root) {
        if (RootNode[Root] < 0)
          continue;
        ObjRef Obj = H.persistentRoot(RootIds[Root]);
        ASSERT_FALSE(Obj.isNull());
        const ShadowNode &Node = Shadow[RootNode[Root]];
        ASSERT_EQ(H.loadI64(Obj, 0), Node.Stamp) << "root " << Root;
        for (int Slot = 0; Slot != RefsPerNode; ++Slot) {
          ObjRef Child = H.loadRef(Obj, Slot);
          if (Node.Children[Slot] < 0)
            continue; // heap child may be stale garbage or null; skip
          ASSERT_FALSE(Child.isNull());
          ASSERT_EQ(H.loadI64(Child, 0),
                    Shadow[Node.Children[Slot]].Stamp)
              << "root " << Root << " slot " << Slot << " step " << Step;
        }
      }
      VerifyResult V = verifyHeap(H);
      ASSERT_TRUE(V.Ok) << V.FirstProblem;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GcFuzz,
    ::testing::Values(
        Scenario{PolicyKind::Panthera, 1, true},
        Scenario{PolicyKind::Panthera, 2, false},
        Scenario{PolicyKind::Panthera, 3, true},
        Scenario{PolicyKind::Unmanaged, 4, true},
        Scenario{PolicyKind::Unmanaged, 5, false},
        Scenario{PolicyKind::DramOnly, 6, true},
        Scenario{PolicyKind::KingsguardNursery, 7, true},
        Scenario{PolicyKind::KingsguardWrites, 8, true},
        Scenario{PolicyKind::KingsguardWrites, 9, false}));

/// Sweep: tagged arrays with many tagged children keep integrity across
/// repeated collections for every (eager promotion, card padding) combo.
class GcOptionSweep
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GcOptionSweep, TaggedArrayGraphsSurviveCollections) {
  auto [Eager, Padding] = GetParam();
  HeapConfig HC = makeHeapConfig(PolicyKind::Panthera, 8, 1.0 / 3.0);
  HC.Tuning.EagerPromotion = Eager;
  HC.Tuning.CardPadding = Padding;
  HC.Tuning.VerifyHeap = true;
  auto Mem = std::make_unique<memsim::HybridMemory>(
      HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes),
      memsim::MemoryTechnology{}, memsim::CacheConfig{});
  Heap H(HC, *Mem);
  support::WorkStealingPool Pool(1);
  Collector C(H, PolicyKind::Panthera, nullptr, Pool);

  std::vector<size_t> Roots;
  for (int A = 0; A != 4; ++A) {
    H.setPendingArrayTag(A % 2 ? MemTag::Dram : MemTag::Nvm, A + 1);
    GcRoot Arr(H, H.allocRefArray(1500));
    for (uint32_t I = 0; I != 1500; ++I) {
      ObjRef T = H.allocPlain(0, 8);
      H.storeI64(T, 0, A * 10000 + I);
      H.storeRef(Arr.get(), I, T);
    }
    Roots.push_back(H.addPersistentRoot(Arr.get()));
  }
  for (int GC = 0; GC != 3; ++GC)
    C.collectMinor("sweep");
  C.collectMajor("sweep");

  for (int A = 0; A != 4; ++A) {
    ObjRef Arr = H.persistentRoot(Roots[A]);
    for (uint32_t I = 0; I != 1500; ++I) {
      ObjRef T = H.loadRef(Arr, I);
      ASSERT_EQ(H.loadI64(T, 0), A * 10000 + static_cast<int64_t>(I))
          << "eager=" << Eager << " padding=" << Padding;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Options, GcOptionSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

} // namespace
