//===- fuzz/DifferentialRunner.cpp - Replay + oracle diff -----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Replay engine. The real heap and the shadow graph execute every action
// in lockstep; whenever a collection ran (detected through the collector's
// GC counters, so collections triggered from inside allocation paths are
// caught too) the runner re-establishes object identity with a pairing
// traversal: shadow roots and real persistent roots are walked in the same
// deterministic order, and every (shadow node, real object) pair must
// agree on kind, length, element width, RDD id, header size, and every
// payload byte. The traversal is a graph-isomorphism check, so it subsumes
// a reachable-multiset diff; MEMORY_BITS monotonicity and the survivor-age
// clock are checked relationally per sync window; card-table first-object
// coverage and old->young dirty-card coverage come from gc::verifyHeap.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialRunner.h"

#include "fuzz/ShadowHeap.h"
#include "gc/Collector.h"
#include "gc/HeapVerifier.h"
#include "memsim/HybridMemory.h"
#include "offheap/RegionAllocator.h"
#include "support/Errors.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

using namespace panthera;
using namespace panthera::fuzz;
using heap::Heap;
using heap::ObjectHeader;
using heap::ObjectKind;
using heap::ObjRef;

namespace {

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t FnvPrime = 0x100000001b3ull;

class Runner {
public:
  Runner(const FuzzOptions &Opts, const std::vector<FuzzAction> &Schedule)
      : Opts(Opts), Schedule(Schedule), Setup(makeFuzzSetup(Opts.Config)) {}

  FuzzResult run() {
    Mem = std::make_unique<memsim::HybridMemory>(
        heap::HeapConfig::alignPage(4096 + Setup.Config.HeapBytes +
                                    Setup.Config.NativeBytes),
        memsim::MemoryTechnology{}, memsim::CacheConfig{});
    H = std::make_unique<Heap>(Setup.Config, *Mem);
    C = std::make_unique<gc::Collector>(*H, Setup.Policy, nullptr);
    FaultPlan Plan;
    Plan.Seed = Opts.Seed;
    bool WantFaults = false;
    if (Setup.FaultProbability > 0.0) {
      Plan.site(FaultSite::Allocation).Probability = Setup.FaultProbability;
      WantFaults = true;
    }
    if (Opts.Executors > 1) {
      // Executors mode also interleaves the degraded-cluster sites
      // (docs/robustness.md): every action draws slow-executor and
      // transient-fetch. A slow-executor fire models the replica falling
      // behind and collecting more often (forced minor GC -- a real heap
      // effect the digests must agree on); a fetch fire is absorbed by
      // the retry layer and only counted. Both schedules are pure
      // functions of the seed, so all replicas see identical fires.
      Plan.site(FaultSite::SlowExecutor).Probability = 1.0 / 64.0;
      Plan.site(FaultSite::FetchTransient).Probability = 1.0 / 32.0;
      WantFaults = true;
    }
    if (WantFaults) {
      Faults = std::make_unique<FaultInjector>(Plan);
      H->setFaultInjector(Faults.get());
    }
    NativeFree = H->native().sizeBytes();
    if (Setup.OffHeapBytes > 0) {
      // The off-heap claim comes out of the same native bump pointer the
      // AllocNative oracle models, so it must be counted as consumed.
      OffHeapAlloc = std::make_unique<offheap::RegionAllocator>(
          *H, Setup.OffHeapBytes, /*MinClaimBytes=*/4096);
      NativeFree -= OffHeapAlloc->claimBytes();
    }
    Digest = FnvOffset;

    for (size_t I = 0; I != Schedule.size() && R.Ok; ++I) {
      Current = I;
      execute(Schedule[I]);
      ++R.ActionsRun;
      if (!R.Ok)
        break;
      if (Faults && Opts.Executors > 1) {
        Faults->shouldFail(FaultSite::FetchTransient); // counted only
        if (Faults->shouldFail(FaultSite::SlowExecutor))
          collect(/*Major=*/false);
      }
      if (!R.Ok)
        break;
      if (epoch() != SyncedEpoch)
        sync();
      if (R.Ok && H->pendingArrayTag() != ShadowPendingTag)
        fail("pending rdd_alloc tag mismatch: heap=%d shadow=%d",
             static_cast<int>(H->pendingArrayTag()),
             static_cast<int>(ShadowPendingTag));
    }
    if (R.Ok) {
      Current = Schedule.size() ? Schedule.size() - 1 : 0;
      sync(); // final diff even for schedules that never collected
    }
    // Fold the off-heap allocator's lifecycle counters into the digest: a
    // replica whose region carve/recycle/release history diverged fails
    // the cross-executor comparison even with matching heap images.
    if (OffHeapAlloc) {
      const offheap::RegionAllocatorStats &OS = OffHeapAlloc->stats();
      Digest = (Digest ^ OS.RegionsCarved) * FnvPrime;
      Digest = (Digest ^ OS.RegionsRecycled) * FnvPrime;
      Digest = (Digest ^ OS.RegionsReleased) * FnvPrime;
      Digest = (Digest ^ OS.BytesAllocated) * FnvPrime;
      Digest = (Digest ^ OS.AllocFailures) * FnvPrime;
    }
    // Fold the interleaved fault-fire counts into the digest: a replica
    // whose fire schedule diverged fails the cross-executor comparison
    // even if its heap image happens to match.
    if (Faults) {
      Digest = (Digest ^ Faults->fired(FaultSite::SlowExecutor)) * FnvPrime;
      Digest = (Digest ^ Faults->fired(FaultSite::FetchTransient)) * FnvPrime;
    }
    // Fold the remap generation: every device remap (migration or layout
    // change) must bump it, so a replica whose migration history diverged
    // -- or a remap path that forgot the bump and left victimDeviceOf's
    // cache stale -- breaks the digest.
    Digest = (Digest ^ Mem->map().generation()) * FnvPrime;
    R.Digest = Digest;
    R.MinorGcs = C->stats().MinorGcs;
    R.MajorGcs = C->stats().MajorGcs;
    R.OomErrorsThrown = H->stats().OomErrorsThrown;
    R.LiveObjectsAtEnd = Live.size();
    return R;
  }

private:
  struct RootEntry {
    size_t HeapId;
    uint32_t Node;
  };

  uint64_t epoch() const { return C->stats().MinorGcs + C->stats().MajorGcs; }

  void fail(const char *Fmt, ...) {
    char Buf[512];
    va_list Ap;
    va_start(Ap, Fmt);
    std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
    va_end(Ap);
    R.Ok = false;
    char Full[640];
    std::snprintf(Full, sizeof(Full), "action %zu (%s): %s", Current,
                  fuzzOpName(Schedule.empty() ? FuzzOp::MinorGc
                                              : Schedule[Current].Op),
                  Buf);
    R.Problem = Full;
    R.FailingAction = Current;
  }

  //===--- action execution -----------------------------------------------===

  void execute(const FuzzAction &A) {
    switch (A.Op) {
    case FuzzOp::AllocPlain:
      allocate(A.Op, static_cast<uint32_t>(A.A), static_cast<uint32_t>(A.B));
      break;
    case FuzzOp::AllocRefArray:
      allocate(A.Op, static_cast<uint32_t>(A.A), 0);
      break;
    case FuzzOp::AllocPrimArray:
      allocate(A.Op, static_cast<uint32_t>(A.A), static_cast<uint32_t>(A.B));
      break;
    case FuzzOp::AllocHuge:
      switch (A.A) {
      case 0:
        allocate(FuzzOp::AllocPlain, 0, static_cast<uint32_t>(A.B));
        break;
      case 1:
        allocate(FuzzOp::AllocRefArray, static_cast<uint32_t>(A.B), 0);
        break;
      default:
        allocate(FuzzOp::AllocPrimArray, static_cast<uint32_t>(A.B), 8);
        break;
      }
      break;
    case FuzzOp::AllocNative:
      allocNative(A.A);
      break;
    case FuzzOp::StoreRef:
      storeRef(A);
      break;
    case FuzzOp::WritePayload:
      writePayload(A);
      break;
    case FuzzOp::AddRoot:
      if (!Live.empty()) {
        uint32_t Id = Live[A.A % Live.size()];
        addRoot(H->addPersistentRoot(ObjRef(Shadow.node(Id).RealAddr)), Id);
      }
      break;
    case FuzzOp::DropRoot:
      if (!Roots.empty()) {
        size_t Idx = A.A % Roots.size();
        H->removePersistentRoot(Roots[Idx].HeapId);
        Roots.erase(Roots.begin() + static_cast<ptrdiff_t>(Idx));
        recomputeLive();
      }
      break;
    case FuzzOp::SetPendingTag: {
      MemTag T = (A.A % 2) == 0 ? MemTag::Dram : MemTag::Nvm;
      uint32_t Rdd = static_cast<uint32_t>(A.B);
      H->setPendingArrayTag(T, Rdd);
      ShadowPendingTag = T;
      ShadowPendingRdd = Rdd;
      break;
    }
    case FuzzOp::MinorGc:
      collect(/*Major=*/false);
      break;
    case FuzzOp::MajorGc:
      collect(/*Major=*/true);
      break;
    case FuzzOp::MinorGcBurst:
      for (uint64_t I = 0; I != A.A && R.Ok; ++I) {
        collect(/*Major=*/false);
        if (R.Ok && epoch() != SyncedEpoch)
          sync();
      }
      break;
    case FuzzOp::IncMarkStep:
      // A no-op unless a cycle is active. The step that empties the gray
      // stack triggers the finishing major GC, which can throw a
      // compaction overflow just like an explicit MajorGc action.
      try {
        C->incrementalStep();
      } catch (const OutOfMemoryError &) {
        GcThrewInWindow = true;
      }
      break;
    case FuzzOp::OffHeapStub:
      if (OffHeapAlloc)
        offHeapChurn(A);
      break;
    }
  }

  void collect(bool Major) {
    try {
      if (Major)
        C->collectMajor("fuzz");
      else
        C->collectMinor("fuzz");
    } catch (const OutOfMemoryError &) {
      // Compaction overflow: the live set does not fit. The plan was
      // unwound with the heap intact; the next sync verifies that.
      GcThrewInWindow = true;
    }
  }

  /// Unified managed-allocation handler. Computes the oracle's
  /// prediction, runs the real allocation, and mirrors the outcome.
  void allocate(FuzzOp Kind, uint32_t A, uint32_t B) {
    const heap::GcTuning &T = H->config().Tuning;
    uint64_t Size64 = 0;
    uint32_t Length = 0;
    switch (Kind) {
    case FuzzOp::AllocPlain:
      Size64 = heap::plainObjectSize(A, B);
      break;
    case FuzzOp::AllocRefArray:
      Size64 = heap::refArraySize(A);
      Length = A;
      break;
    case FuzzOp::AllocPrimArray:
      Size64 = heap::primArraySize(A, B);
      Length = A;
      break;
    default:
      return;
    }
    bool IsArray = Kind != FuzzOp::AllocPlain;
    bool MustThrow = Size64 > heap::MaxObjectBytes;
    bool ConsumesPending = IsArray && ShadowPendingTag != MemTag::None &&
                           Length >= T.LargeArrayElems;

    ObjRef Ref;
    bool Threw = false;
    try {
      switch (Kind) {
      case FuzzOp::AllocPlain:
        Ref = H->allocPlain(A, B);
        break;
      case FuzzOp::AllocRefArray:
        Ref = H->allocRefArray(A);
        break;
      default:
        Ref = H->allocPrimArray(A, B);
        break;
      }
    } catch (const OutOfMemoryError &) {
      Threw = true;
      GcThrewInWindow = true; // allocation may have burned failed GCs
    }

    if (MustThrow) {
      if (!Threw)
        fail("size %" PRIu64 " overflows the uint32 header field but the "
             "allocation succeeded",
             Size64);
      // The size check precedes pending-tag consumption: the tag stays
      // armed, and the shadow graph is untouched.
      return;
    }
    if (Threw) {
      // Legitimate (or injected) OOM. The pending tag is consumed exactly
      // when a pretenure-sized array got far enough to claim it.
      if (ConsumesPending) {
        ShadowPendingTag = MemTag::None;
        ShadowPendingRdd = 0;
      }
      return;
    }

    uint64_t Addr = Ref.addr();
    bool Young = H->isYoung(Addr);
    if (!Young && !H->isOld(Addr)) {
      fail("allocation returned 0x%" PRIx64 " outside every heap space",
           Addr);
      return;
    }

    ShadowNode N;
    N.ExpectedSize = static_cast<uint32_t>(Size64);
    MemTag WantTag = MemTag::None;
    uint32_t WantRdd = 0;
    switch (Kind) {
    case FuzzOp::AllocPlain:
      N.Kind = ObjectKind::Plain;
      N.NumRefs = A;
      N.PayloadBytes = B;
      N.Refs.assign(A, NoNode);
      N.Payload.assign(B, 0);
      break;
    case FuzzOp::AllocRefArray:
      N.Kind = ObjectKind::RefArray;
      N.Length = Length;
      N.Refs.assign(Length, NoNode);
      // A claimed tag survives even when the old generation was full and
      // the array fell back to a young allocation (the GC promotes it
      // eagerly later); the RDD id travels with it.
      if (ConsumesPending) {
        WantTag = ShadowPendingTag;
        WantRdd = ShadowPendingRdd;
      }
      break;
    default:
      N.Kind = ObjectKind::PrimArray;
      N.Length = Length;
      N.ElemBytes = B;
      N.Payload.assign(static_cast<size_t>(Length) * B, 0);
      // The serialized-cache path keeps the tag only when the array
      // actually landed in the old generation; the young fallback
      // allocates it untagged.
      if (ConsumesPending && !Young) {
        WantTag = ShadowPendingTag;
        WantRdd = ShadowPendingRdd;
      }
      break;
    }
    if (ConsumesPending) {
      ShadowPendingTag = MemTag::None;
      ShadowPendingRdd = 0;
    }
    N.RddId = WantRdd;
    N.LastTag = WantTag;
    N.LastAge = 0;
    N.LastWasYoung = Young;
    N.RealAddr = Addr;
    N.BirthEpoch = epoch();

    const ObjectHeader *Hdr = H->header(Addr);
    if (Hdr->SizeBytes != N.ExpectedSize || Hdr->kind() != N.Kind)
      fail("freshly allocated header disagrees: size %u kind %u, expected "
           "size %u kind %u",
           Hdr->SizeBytes, unsigned(Hdr->Kind), N.ExpectedSize,
           unsigned(N.Kind));
    else if (Hdr->memTag() != WantTag || Hdr->RddId != WantRdd)
      fail("freshly allocated tag/rdd disagree: tag %s rdd %u, expected "
           "%s/%u",
           memTagName(Hdr->memTag()), Hdr->RddId, memTagName(WantTag),
           WantRdd);
    else if (Hdr->Age != 0 || Hdr->isForwarded())
      fail("freshly allocated object has age %u / forward 0x%" PRIx64,
           unsigned(Hdr->Age), Hdr->Forward);
    if (!R.Ok)
      return;

    uint32_t Id = Shadow.create(std::move(N));
    addRoot(H->addPersistentRoot(Ref), Id);
  }

  void allocNative(uint64_t Bytes) {
    uint64_t Aligned = (Bytes + 7) & ~7ull;
    bool MustThrow = Aligned < Bytes || Aligned > NativeFree;
    bool Threw = false;
    uint64_t Addr = 0;
    try {
      Addr = H->allocNative(Bytes);
    } catch (const OutOfMemoryError &) {
      Threw = true;
    }
    // The native region is exactly modeled (bump pointer, no collection),
    // so the oracle predicts success and failure both ways.
    if (MustThrow && !Threw)
      fail("native allocation of %" PRIu64 " bytes must fail (%" PRIu64
           " free) but returned 0x%" PRIx64,
           Bytes, NativeFree, Addr);
    else if (!MustThrow && Threw)
      fail("native allocation of %" PRIu64 " bytes failed with %" PRIu64
           " bytes free",
           Bytes, NativeFree);
    else if (!Threw)
      NativeFree -= Aligned;
  }

  void storeRef(const FuzzAction &A) {
    std::vector<uint32_t> Sources;
    for (uint32_t Id : Live)
      if (Shadow.node(Id).refSlots() > 0)
        Sources.push_back(Id);
    if (Sources.empty() || Live.empty())
      return;
    uint32_t Src = Sources[A.A % Sources.size()];
    ShadowNode &S = Shadow.node(Src);
    uint32_t Slot = static_cast<uint32_t>(A.B % S.refSlots());
    uint32_t Dst = A.C == UINT64_MAX ? NoNode : Live[A.C % Live.size()];
    ObjRef Value =
        Dst == NoNode ? ObjRef() : ObjRef(Shadow.node(Dst).RealAddr);
    H->storeRef(ObjRef(S.RealAddr), Slot, Value);
    S.Refs[Slot] = Dst;
    recomputeLive(); // the overwritten edge may have orphaned a subgraph
  }

  void writePayload(const FuzzAction &A) {
    std::vector<uint32_t> Writable;
    for (uint32_t Id : Live) {
      const ShadowNode &N = Shadow.node(Id);
      if ((N.Kind == ObjectKind::Plain && N.PayloadBytes >= 8) ||
          (N.Kind == ObjectKind::PrimArray && N.ElemBytes == 8 &&
           N.Length > 0))
        Writable.push_back(Id);
    }
    if (Writable.empty())
      return;
    ShadowNode &N = Shadow.node(Writable[A.A % Writable.size()]);
    int64_t Value = static_cast<int64_t>(A.C);
    if (N.Kind == ObjectKind::Plain) {
      uint32_t Off = static_cast<uint32_t>(A.B % (N.PayloadBytes / 8)) * 8;
      H->storeI64(ObjRef(N.RealAddr), Off, Value);
      std::memcpy(&N.Payload[Off], &Value, 8);
    } else {
      uint32_t Idx = static_cast<uint32_t>(A.B % N.Length);
      H->storeElemI64(ObjRef(N.RealAddr), Idx, Value);
      std::memcpy(&N.Payload[static_cast<size_t>(Idx) * 8], &Value, 8);
    }
  }

  /// Off-heap tier churn (docs/offheap.md). Allocate: serialize a seeded
  /// record pattern into a fresh region and hang a GC-leaf stub off a new
  /// root. Spill: read a live stub's records back and verify them against
  /// the pattern -- region bytes live outside the collector's reach and
  /// must never change -- then null the handle and release the region so
  /// the free list recycles its storage.
  void offHeapChurn(const FuzzAction &A) {
    if ((A.B % 4) == 3) {
      if (!Stubs.empty())
        spillStub(A.C % Stubs.size());
      return;
    }
    uint32_t Count = static_cast<uint32_t>(A.A);
    uint64_t Bytes = static_cast<uint64_t>(Count) * 8;
    uint32_t Region = OffHeapAlloc->allocRegion(Bytes);
    if (Region == offheap::NoRegion && !Stubs.empty()) {
      // Budget exhausted: spill the lowest-region live stub (the cache
      // tier's untouched-first order degenerates to this here) and retry.
      size_t VictimIdx = 0;
      for (size_t I = 1; I != Stubs.size(); ++I)
        if (Stubs[I].Region < Stubs[VictimIdx].Region)
          VictimIdx = I;
      spillStub(VictimIdx);
      if (!R.Ok)
        return;
      Region = OffHeapAlloc->allocRegion(Bytes);
    }
    if (Region == offheap::NoRegion)
      return; // nothing spillable; the stats fold records the failure
    uint64_t Addr = OffHeapAlloc->regionAlloc(Region, Bytes);
    std::vector<uint64_t> Records(Count);
    for (uint32_t I = 0; I != Count; ++I)
      Records[I] = A.C + I * 0x9e3779b97f4a7c15ull;
    H->nativeWriteRecords(Addr, Records.data(), Count, 8);
    uint32_t Rdd = static_cast<uint32_t>(A.B % (1u << 16));
    ObjRef Stub;
    try {
      Stub = H->allocOffHeapStub(Addr, Region, Count, Rdd);
    } catch (const OutOfMemoryError &) {
      GcThrewInWindow = true; // the stub OOMed; the region rolls back
      OffHeapAlloc->release(Region);
      return;
    }
    const ObjectHeader *Hdr = H->header(Stub.addr());
    if (Hdr->kind() != ObjectKind::OffHeapStub ||
        Hdr->SizeBytes != heap::offHeapStubSize() || Hdr->Length != Count ||
        Hdr->RddId != Rdd || Hdr->Age != 0) {
      fail("freshly allocated stub header disagrees: kind %u size %u "
           "length %u rdd %u age %u",
           unsigned(Hdr->Kind), Hdr->SizeBytes, Hdr->Length, Hdr->RddId,
           unsigned(Hdr->Age));
      return;
    }
    ShadowNode N;
    N.Kind = ObjectKind::OffHeapStub;
    N.Length = Count;
    N.RddId = Rdd;
    N.ExpectedSize = static_cast<uint32_t>(heap::offHeapStubSize());
    N.Payload.assign(heap::OffHeapStubPayloadBytes, 0);
    std::memcpy(N.Payload.data(), &Addr, 8);
    std::memcpy(N.Payload.data() + 8, &Region, 4);
    N.RealAddr = Stub.addr();
    N.BirthEpoch = epoch();
    uint32_t Id = Shadow.create(std::move(N));
    addRoot(H->addPersistentRoot(Stub), Id);
    Stubs.push_back(StubEntry{Id, Region, Addr, Count, A.C});
  }

  /// Reads a stub's region back, verifies every record, nulls the stub's
  /// native handle (the engine's spilled-to-disk marker), and releases
  /// the region.
  void spillStub(size_t Idx) {
    StubEntry E = Stubs[Idx];
    Stubs.erase(Stubs.begin() + static_cast<ptrdiff_t>(Idx));
    std::vector<uint64_t> Back(E.Count);
    H->nativeReadRecords(E.Addr, Back.data(), E.Count, 8);
    for (uint32_t I = 0; I != E.Count; ++I)
      if (Back[I] != E.Pattern + I * 0x9e3779b97f4a7c15ull) {
        fail("off-heap region %u record %u corrupted: 0x%" PRIx64
             ", expected 0x%" PRIx64,
             E.Region, I, Back[I], E.Pattern + I * 0x9e3779b97f4a7c15ull);
        return;
      }
    ShadowNode &N = Shadow.node(E.Node);
    H->setStubNativeAddr(ObjRef(N.RealAddr), offheap::NoAddress);
    uint64_t None = offheap::NoAddress;
    std::memcpy(N.Payload.data(), &None, 8);
    OffHeapAlloc->release(E.Region);
  }

  //===--- roots and liveness ---------------------------------------------===

  void addRoot(size_t HeapId, uint32_t Node) {
    // Persistent-root slots are reused, so keep the list sorted by slot id
    // to mirror the order Heap::forEachRoot visits them in.
    auto It = std::lower_bound(Roots.begin(), Roots.end(), HeapId,
                               [](const RootEntry &E, size_t Id) {
                                 return E.HeapId < Id;
                               });
    Roots.insert(It, RootEntry{HeapId, Node});
    recomputeLive();
  }

  void recomputeLive() {
    std::vector<uint32_t> RootIds;
    RootIds.reserve(Roots.size());
    for (const RootEntry &E : Roots)
      RootIds.push_back(E.Node);
    Live = Shadow.mark(RootIds);
    Shadow.retainOnly(Live);
    // A stub that just died unpersisted its partition: release the region
    // so later churn recycles it through the free list.
    for (size_t I = Stubs.size(); I-- > 0;) {
      if (Shadow.alive(Stubs[I].Node))
        continue;
      OffHeapAlloc->release(Stubs[I].Region);
      Stubs.erase(Stubs.begin() + static_cast<ptrdiff_t>(I));
    }
  }

  //===--- the differential sync ------------------------------------------===

  void hash(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      Digest ^= (V >> (I * 8)) & 0xff;
      Digest *= FnvPrime;
    }
  }
  void hashBytes(const uint8_t *P, size_t N) {
    for (size_t I = 0; I != N; ++I) {
      Digest ^= P[I];
      Digest *= FnvPrime;
    }
  }

  /// Re-establishes shadow<->real identity after collections moved
  /// objects, checking every oracle invariant along the way.
  void sync() {
    uint64_t DMinor = C->stats().MinorGcs - SyncedMinor;
    uint64_t DMajor = C->stats().MajorGcs - SyncedMajor;
    bool OneMinor = DMinor == 1 && DMajor == 0 && !GcThrewInWindow;
    bool MajorOnly = DMinor == 0 && DMajor >= 1;
    const heap::GcTuning &T = H->config().Tuning;

    gc::VerifyOptions VOpts;
    VOpts.CheckCardMarking = true;
    gc::VerifyResult V = gc::verifyHeap(*H, VOpts);
    if (!V.Ok) {
      fail("heap verifier: %s", V.FirstProblem.c_str());
      return;
    }

    hash(DMinor);
    hash(DMajor);

    std::unordered_map<uint32_t, uint64_t> Paired;
    std::unordered_map<uint64_t, uint32_t> RealOwner;
    std::vector<std::pair<uint32_t, uint64_t>> Stack;
    for (auto It = Roots.rbegin(); It != Roots.rend(); ++It) {
      ObjRef Root = H->persistentRoot(It->HeapId);
      if (!Root) {
        fail("persistent root %zu nulled while its object is live",
             It->HeapId);
        return;
      }
      Stack.emplace_back(It->Node, Root.addr());
    }

    while (!Stack.empty() && R.Ok) {
      auto [Id, Addr] = Stack.back();
      Stack.pop_back();
      auto It = Paired.find(Id);
      if (It != Paired.end()) {
        if (It->second != Addr)
          fail("shadow object %u reached at 0x%" PRIx64 " and 0x%" PRIx64
               ": one oracle object aliases two heap objects",
               Id, It->second, Addr);
        continue;
      }
      auto Ro = RealOwner.find(Addr);
      if (Ro != RealOwner.end()) {
        fail("heap object 0x%" PRIx64
             " paired with shadow %u and %u: two oracle objects collapsed",
             Addr, Ro->second, Id);
        return;
      }
      Paired.emplace(Id, Addr);
      RealOwner.emplace(Addr, Id);
      if (!checkPair(Id, Addr, OneMinor, MajorOnly, T))
        return;
      ShadowNode &N = Shadow.node(Id);
      for (size_t S = N.Refs.size(); S-- > 0;) {
        ObjRef Child = H->rawLoadRef(Addr, static_cast<uint32_t>(S));
        if (N.Refs[S] == NoNode) {
          if (Child) {
            fail("slot %zu of shadow %u must be null but heap holds "
                 "0x%" PRIx64,
                 S, Id, Child.addr());
            return;
          }
          continue;
        }
        if (!Child) {
          fail("slot %zu of shadow %u lost its referent (heap slot null)",
               S, Id);
          return;
        }
        Stack.emplace_back(N.Refs[S], Child.addr());
      }
    }
    if (!R.Ok)
      return;

    // Reachable-set equality: the traversal visited every live shadow
    // node exactly when the real heap kept it; a shadow node it never
    // reached would mean the real collector freed (or unlinked) a live
    // object.
    if (Paired.size() != Live.size()) {
      fail("reachable sets differ: oracle %zu live objects, pairing found "
           "%zu",
           Live.size(), Paired.size());
      return;
    }

    SyncedMinor = C->stats().MinorGcs;
    SyncedMajor = C->stats().MajorGcs;
    SyncedEpoch = epoch();
    GcThrewInWindow = false;
  }

  bool checkPair(uint32_t Id, uint64_t Addr, bool OneMinor, bool MajorOnly,
                 const heap::GcTuning &T) {
    ShadowNode &N = Shadow.node(Id);
    const ObjectHeader *Hdr = H->header(Addr);
    bool Young = H->isYoung(Addr);
    if (!Young && !H->isOld(Addr)) {
      fail("shadow %u maps to 0x%" PRIx64 " outside every heap space", Id,
           Addr);
      return false;
    }
    if (Hdr->kind() != N.Kind || Hdr->SizeBytes != N.ExpectedSize ||
        Hdr->Length != (N.Kind == ObjectKind::Plain
                            ? N.NumRefs * heap::RefSlotBytes + N.PayloadBytes
                            : N.Length) ||
        Hdr->Aux != (N.Kind == ObjectKind::Plain
                         ? N.NumRefs
                         : N.Kind == ObjectKind::PrimArray ? N.ElemBytes
                                                           : 0u)) {
      fail("shadow %u header mismatch at 0x%" PRIx64
           ": kind %u size %u length %u aux %u",
           Id, Addr, unsigned(Hdr->Kind), Hdr->SizeBytes, Hdr->Length,
           unsigned(Hdr->Aux));
      return false;
    }
    if (Hdr->RddId != N.RddId) {
      fail("shadow %u rdd id changed: heap %u, oracle %u", Id, Hdr->RddId,
           N.RddId);
      return false;
    }

    // Payload checksum (exact bytes, not just a digest, so the report can
    // name the first bad byte).
    const uint8_t *Real = nullptr;
    if (N.Kind == ObjectKind::Plain && N.PayloadBytes)
      Real = H->rawBytes(Addr + sizeof(ObjectHeader) +
                         static_cast<uint64_t>(N.NumRefs) *
                             heap::RefSlotBytes);
    else if (N.Kind == ObjectKind::PrimArray && !N.Payload.empty())
      Real = H->rawBytes(Addr + sizeof(ObjectHeader));
    else if (N.Kind == ObjectKind::OffHeapStub)
      // The stub's region handle must ride every evacuation verbatim.
      Real = H->rawBytes(Addr + sizeof(ObjectHeader));
    if (Real && !N.Payload.empty() &&
        std::memcmp(Real, N.Payload.data(), N.Payload.size()) != 0) {
      size_t Bad = 0;
      while (Real[Bad] == N.Payload[Bad])
        ++Bad;
      fail("shadow %u payload corrupted at byte %zu: heap %02x, oracle "
           "%02x",
           Id, Bad, Real[Bad], N.Payload[Bad]);
      return false;
    }

    // MEMORY_BITS only ever strengthen (None -> NVM -> DRAM): minor GCs
    // merge tags monotonically and nothing in these configs retags
    // downward (dynamic migration is inert without an access monitor).
    if (mergeTags(Hdr->memTag(), N.LastTag) != Hdr->memTag()) {
      fail("shadow %u MEMORY_BITS weakened: %s -> %s", Id,
           memTagName(N.LastTag), memTagName(Hdr->memTag()));
      return false;
    }

    // Survivor-age clock, exact over unambiguous windows. Objects born
    // after this window's collections have nothing to age-check yet.
    if (N.BirthEpoch != epoch()) {
      if (OneMinor) {
        if (N.LastWasYoung && Young) {
          uint8_t Want = N.LastAge == 255 ? 255 : N.LastAge + 1;
          if (Hdr->Age != Want) {
            fail("shadow %u survivor age clock broken: age %u after a "
                 "minor gc, expected %u (was %u)",
                 Id, unsigned(Hdr->Age), unsigned(Want),
                 unsigned(N.LastAge));
            return false;
          }
        } else if (N.LastWasYoung && !Young) {
          if (Hdr->Age != N.LastAge) {
            fail("shadow %u promotion changed its age: %u -> %u", Id,
                 unsigned(N.LastAge), unsigned(Hdr->Age));
            return false;
          }
        } else if (!N.LastWasYoung &&
                   (Young || Addr != N.RealAddr || Hdr->Age != N.LastAge)) {
          fail("shadow %u old-generation object moved or re-aged during a "
               "minor gc",
               Id);
          return false;
        }
      } else if (MajorOnly) {
        // A completed major compaction tenures everything at TenureAge; a
        // failed one (compaction overflow) leaves the object untouched.
        bool Compacted = !Young && Hdr->Age == T.TenureAge;
        bool Untouched = Addr == N.RealAddr && Hdr->Age == N.LastAge &&
                         Young == N.LastWasYoung;
        if (!Compacted && !Untouched) {
          fail("shadow %u after major gc: age %u young=%d, expected "
               "tenured at %u or untouched",
               Id, unsigned(Hdr->Age), int(Young), unsigned(T.TenureAge));
          return false;
        }
      }
    }

    N.LastTag = Hdr->memTag();
    N.LastAge = Hdr->Age;
    N.LastWasYoung = Young;
    N.RealAddr = Addr;

    hash(Addr);
    hash(static_cast<uint64_t>(Hdr->Kind) | (uint64_t(Hdr->Flags) << 8) |
         (uint64_t(Hdr->Age) << 16) | (uint64_t(Hdr->Aux) << 24) |
         (uint64_t(Hdr->Length) << 32));
    hash(Hdr->RddId);
    if (!N.Payload.empty() && Real)
      hashBytes(Real, N.Payload.size());
    return true;
  }

  FuzzOptions Opts;
  const std::vector<FuzzAction> &Schedule;
  FuzzSetup Setup;
  std::unique_ptr<memsim::HybridMemory> Mem;
  std::unique_ptr<Heap> H;
  std::unique_ptr<gc::Collector> C;
  std::unique_ptr<FaultInjector> Faults;

  ShadowHeap Shadow;
  std::vector<RootEntry> Roots;
  std::vector<uint32_t> Live;
  /// Off-heap tier state (only for configs with an OffHeapBytes claim).
  std::unique_ptr<offheap::RegionAllocator> OffHeapAlloc;
  struct StubEntry {
    uint32_t Node;    ///< Shadow node id of the on-heap stub.
    uint32_t Region;  ///< Region backing the cached records.
    uint64_t Addr;    ///< Native address of the first record.
    uint32_t Count;   ///< Records in the region.
    uint64_t Pattern; ///< Seed of the record pattern (read-back check).
  };
  std::vector<StubEntry> Stubs; ///< Live (unspilled) stubs only.
  MemTag ShadowPendingTag = MemTag::None;
  uint32_t ShadowPendingRdd = 0;
  uint64_t NativeFree = 0;

  uint64_t SyncedMinor = 0, SyncedMajor = 0, SyncedEpoch = 0;
  bool GcThrewInWindow = false;
  uint64_t Digest = 0;
  size_t Current = 0;
  FuzzResult R;
};

} // namespace

FuzzResult panthera::fuzz::runSchedule(const FuzzOptions &Opts,
                                       const std::vector<FuzzAction> &S) {
  FuzzResult First = Runner(Opts, S).run();
  // Cluster mode: replay the schedule on each additional executor heap and
  // require a bit-identical heap image. Divergence here means per-executor
  // heaps do not evolve deterministically from their inputs, which would
  // sink the cluster's executor-count invariance guarantee.
  for (unsigned E = 1; E < Opts.Executors && First.Ok; ++E) {
    FuzzResult R = Runner(Opts, S).run();
    if (!R.Ok)
      return R;
    if (R.Digest != First.Digest) {
      First.Ok = false;
      First.Problem = "executor " + std::to_string(E) +
                      " heap digest diverged from executor 0 under an "
                      "identical schedule";
      First.FailingAction = S.empty() ? 0 : S.size() - 1;
      return First;
    }
  }
  return First;
}

FuzzResult panthera::fuzz::runDifferential(const FuzzOptions &Opts) {
  std::vector<FuzzAction> S = generateSchedule(
      Opts.Seed, Opts.NumOps, makeFuzzSetup(Opts.Config).Profile);
  return runSchedule(Opts, S);
}

size_t panthera::fuzz::shrinkToMinimalOps(const FuzzOptions &Opts) {
  std::vector<FuzzAction> Full = generateSchedule(
      Opts.Seed, Opts.NumOps, makeFuzzSetup(Opts.Config).Profile);
  auto Fails = [&](size_t N) {
    std::vector<FuzzAction> Prefix(Full.begin(),
                                   Full.begin() + static_cast<ptrdiff_t>(N));
    return !runSchedule(Opts, Prefix).Ok;
  };
  if (!Fails(Full.size()))
    return Opts.NumOps;
  // Divergence detection is monotone enough in practice for a binary
  // search over prefix length: find the shortest still-failing prefix.
  size_t Lo = 0, Hi = Full.size(); // Lo passes (empty schedule), Hi fails
  while (Hi - Lo > 1) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (Fails(Mid))
      Hi = Mid;
    else
      Lo = Mid;
  }
  return Hi;
}
