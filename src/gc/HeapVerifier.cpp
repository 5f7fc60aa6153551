//===- gc/HeapVerifier.cpp - Post-GC heap integrity checking --------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/HeapVerifier.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace panthera;
using namespace panthera::gc;
using heap::Heap;
using heap::ObjectHeader;
using heap::ObjRef;
using heap::Space;

namespace {

class Verifier {
public:
  Verifier(Heap &H, const VerifyOptions &Opts) : H(H), Opts(Opts) {}

  VerifyResult run() {
    H.forEachRoot([this](ObjRef &R) {
      if (Result.Ok)
        checkAndPush(R.addr(), /*From=*/0, ~0u);
    });
    while (Result.Ok && !Stack.empty()) {
      uint64_t Addr = Stack.back();
      Stack.pop_back();
      ++Result.ObjectsVisited;
      ObjectHeader *Hdr = H.header(Addr);
      uint32_t N = Hdr->numRefSlots();
      for (uint32_t I = 0; I != N && Result.Ok; ++I) {
        ObjRef Child = H.rawLoadRef(Addr, I);
        if (Child)
          checkAndPush(Child.addr(), Addr, I);
      }
    }
    if (Result.Ok)
      checkSpaceTiling();
    return Result;
  }

private:
  Space *spaceOf(uint64_t Addr) {
    for (Space *S : {&H.eden(), &H.fromSpace(), &H.toSpace(), &H.oldDram(),
                     &H.oldNvm()})
      if (S->contains(Addr))
        return S;
    return nullptr;
  }

  void fail(uint64_t Addr, uint64_t From, uint32_t Slot, const char *Why) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "object 0x%" PRIx64 " (reached from 0x%" PRIx64
                  " slot %u): %s",
                  Addr, From, Slot, Why);
    Result.Ok = false;
    Result.FirstProblem = Buf;
  }

  void checkAndPush(uint64_t Addr, uint64_t From, uint32_t Slot) {
    if (!Visited.insert(Addr).second)
      return;
    if (Addr % 8 != 0)
      return fail(Addr, From, Slot, "misaligned reference");
    Space *S = spaceOf(Addr);
    if (!S)
      return fail(Addr, From, Slot, "outside every heap space");
    if (Addr >= S->top())
      return fail(Addr, From, Slot,
                  "beyond its space's allocation frontier (dangling)");
    ObjectHeader *Hdr = H.header(Addr);
    if (Hdr->SizeBytes < sizeof(ObjectHeader) ||
        Addr + Hdr->SizeBytes > S->top())
      return fail(Addr, From, Slot, "corrupt object size");
    if (Hdr->isForwarded())
      return fail(Addr, From, Slot, "stale forwarding pointer");
    Stack.push_back(Addr);
  }

  /// Walks every space object-by-object and checks that the headers tile
  /// the space exactly -- no gap, no overlap, walk ending exactly at the
  /// allocation frontier. This is what catches a scavenge that
  /// retires a PLAB remainder without writing a well-formed filler over
  /// it. For the old generation it additionally cross-checks the card
  /// table's first-object map: every entry must name the lowest object
  /// start in its card (an entry a promotion path forgot to note, or one
  /// pointing into the middle of an object, breaks dirty-card scanning).
  void checkSpaceTiling() {
    for (Space *S : {&H.eden(), &H.fromSpace(), &H.toSpace(), &H.oldDram(),
                     &H.oldNvm()}) {
      if (S->sizeBytes() == 0)
        continue;
      bool Old = H.isOld(S->base());
      std::unordered_map<size_t, uint64_t> FirstStart;
      uint64_t Addr = S->base();
      while (Addr < S->top()) {
        ObjectHeader *Hdr = H.header(Addr);
        uint64_t Size = Hdr->SizeBytes;
        if (Size < sizeof(ObjectHeader) || Size % 8 != 0 ||
            Addr + Size > S->top())
          return fail(Addr, 0, ~0u, "space not walkable: bad object size");
        if (Hdr->kind() == heap::ObjectKind::PrimArray &&
            sizeof(ObjectHeader) +
                    static_cast<uint64_t>(Hdr->Length) * Hdr->Aux >
                Size)
          return fail(Addr, 0, ~0u,
                      "primitive array (or filler) payload exceeds size");
        if (Old) {
          size_t Card = H.cardTable().cardIndex(Addr);
          FirstStart.emplace(Card, Addr); // first visit = lowest start
          if (Opts.CheckCardMarking)
            checkOldToYoungSlots(Addr, Hdr);
        }
        if (!Result.Ok)
          return;
        Addr += Size;
      }
      if (Addr != S->top())
        return fail(Addr, 0, ~0u, "space walk overshot its frontier");
      if (!Old)
        continue;
      size_t FirstCard = H.cardTable().cardIndex(S->base());
      size_t LastCard = S->usedBytes() == 0
                            ? FirstCard
                            : H.cardTable().cardIndex(S->top() - 1);
      for (size_t C = FirstCard; S->usedBytes() != 0 && C <= LastCard;
           ++C) {
        auto It = FirstStart.find(C);
        uint64_t Expect =
            It == FirstStart.end() ? heap::CardTable::NoObject : It->second;
        if (H.cardTable().firstObjectInCard(C) != Expect)
          return fail(H.cardTable().cardStart(C), 0, ~0u,
                      "card first-object map disagrees with the walk");
      }
    }
  }

  /// Every old->young edge must live on a dirty card, or the next minor
  /// GC's card scan will never discover it. Checked for every old object
  /// the tiling walk visits, reachable or not.
  void checkOldToYoungSlots(uint64_t Addr, ObjectHeader *Hdr) {
    uint32_t N = Hdr->numRefSlots();
    for (uint32_t I = 0; I != N; ++I) {
      ObjRef Child = H.rawLoadRef(Addr, I);
      if (!Child || !H.isYoung(Child.addr()))
        continue;
      uint64_t SlotAddr = H.refSlotAddr(Addr, I);
      if (!H.cardTable().isDirty(H.cardTable().cardIndex(SlotAddr)))
        return fail(Addr, 0, I,
                    "old->young reference on a clean card (write barrier "
                    "or card scan lost the edge)");
    }
  }

  Heap &H;
  VerifyOptions Opts;
  VerifyResult Result;
  std::unordered_set<uint64_t> Visited;
  std::vector<uint64_t> Stack;
};

} // namespace

VerifyResult panthera::gc::verifyHeap(Heap &H) {
  return Verifier(H, VerifyOptions{}).run();
}

VerifyResult panthera::gc::verifyHeap(Heap &H, const VerifyOptions &Opts) {
  return Verifier(H, Opts).run();
}
