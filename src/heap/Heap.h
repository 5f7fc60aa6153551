//===- heap/Heap.h - The managed heap over hybrid memory --------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed heap: a young generation (eden + two survivor semispaces)
/// placed entirely in DRAM, an old generation laid out per the configured
/// policy (split DRAM/NVM for Panthera, unified for the baselines), and an
/// NVM-backed native region for off-heap storage (§4.1, Fig 3).
///
/// Every mutator field access goes through the accessor methods, which
/// route traffic to the HybridMemory cost model and run the card-marking
/// write barrier. The collector (src/gc) drives evacuation through the
/// "runtime-internal" raw accessors, charging its own traffic explicitly.
///
/// Code holding references across any allocation must protect them with
/// GcRoot handles -- a minor collection can move any young object.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_HEAP_HEAP_H
#define PANTHERA_HEAP_HEAP_H

#include "heap/CardTable.h"
#include "heap/HeapConfig.h"
#include "heap/ObjectModel.h"
#include "heap/Space.h"
#include "memsim/HybridMemory.h"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

namespace panthera {

class FaultInjector;

namespace support {
class MetricsRegistry;
class TraceLog;
} // namespace support

namespace heap {

/// Interface the collector implements so the heap can request collections
/// on allocation failure without depending on the gc library.
class GcHost {
public:
  virtual ~GcHost();
  /// Runs a minor (young-generation) collection.
  virtual void collectMinor(const char *Reason) = 0;
  /// Runs a major (full-heap) collection.
  virtual void collectMajor(const char *Reason) = 0;
  /// Called at the top of every mutator allocation (never from inside a
  /// collection). The incremental marker uses this as its pacing hook: a
  /// bounded mark step runs every Tuning.IncStepAllocs allocations while a
  /// cycle is active. Default is a no-op so the stop-the-world collector
  /// is unaffected.
  virtual void allocationSafepoint() {}
};

/// Allocation / barrier counters.
struct HeapStats {
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ArraysPretenured = 0;
  uint64_t ArraysOraclePretenured = 0; ///< Pretenured below the size
                                       ///< threshold by the NG2C-style
                                       ///< allocation-site oracle.
  uint64_t PretenureDramFallbacks = 0; ///< DRAM-tagged arrays that landed
                                       ///< in NVM because DRAM was full.
  uint64_t RefStores = 0;
  uint64_t CardPaddingWasteBytes = 0;
  // Scavenge promotion buffers (PLABs).
  uint64_t GcPlabRefills = 0;    ///< Promotion-buffer extents carved.
  uint64_t GcPlabWasteBytes = 0; ///< Filler bytes retiring PLAB remainders.
  // Staged OOM-fallback counters.
  uint64_t EmergencyGcs = 0;          ///< Emergency full GCs on alloc failure.
  uint64_t PressureEvictions = 0;     ///< Caches shed via the pressure hook.
  uint64_t OomErrorsThrown = 0;       ///< OutOfMemoryError raised (no abort).
};

class Heap;

/// RAII stack root: registers a slot the collector scans and updates.
/// Strictly LIFO, like a handle scope.
class GcRoot {
public:
  explicit GcRoot(Heap &H, ObjRef Initial = ObjRef());
  ~GcRoot();

  GcRoot(const GcRoot &) = delete;
  GcRoot &operator=(const GcRoot &) = delete;

  ObjRef get() const;
  void set(ObjRef R);

private:
  Heap &H;
  size_t Index;
};

/// The managed heap.
class Heap {
public:
  Heap(const HeapConfig &Config, memsim::HybridMemory &Mem);

  const HeapConfig &config() const { return Config; }
  memsim::HybridMemory &memory() { return Mem; }
  CardTable &cardTable() { return Cards; }
  HeapStats &stats() { return Stats; }

  void setGcHost(GcHost *Host) { this->Host = Host; }

  /// Installs the (optional) fault injector; the mutator allocation path
  /// consults its Allocation site.
  void setFaultInjector(FaultInjector *F) { Faults = F; }

  /// Called when every in-heap fallback failed: the engine should shed one
  /// MEMORY_AND_DISK cache to disk and return true, or return false when
  /// nothing is left to evict. \p BytesNeeded is the failing request.
  using PressureHandler = std::function<bool(uint64_t BytesNeeded)>;
  void setPressureHandler(PressureHandler Fn) {
    OnPressure = std::move(Fn);
  }

  /// Called after each recovery step (emergency GC, pressure eviction) when
  /// RuntimeConfig::VerifyHeapAfterRecovery is on. The hook lives above the
  /// heap (it runs gc::verifyHeap, which this library cannot link).
  using RecoveryHook = std::function<void(const char *What)>;
  void setRecoveryVerifier(RecoveryHook Fn) {
    RecoveryVerifier = std::move(Fn);
  }

  /// Installs the observability sinks (docs/observability.md): the staged
  /// OOM-fallback path emits instant events on the heap track (emergency
  /// GC, NVM-overflow retry, pressure eviction, OOM error), stamped with
  /// the simulated clock. Either may be null. Scalar heap.* counters are
  /// synced from HeapStats by Runtime::publishMetrics.
  void setTelemetry(support::MetricsRegistry *M, support::TraceLog *T) {
    Metrics = M;
    TraceSink = T;
  }

  //===--------------------------------------------------------------------===
  // Spaces
  //===--------------------------------------------------------------------===

  Space &eden() { return Eden; }
  Space &fromSpace() { return From; }
  Space &toSpace() { return To; }
  /// Old-generation DRAM component (empty-sized for UnifiedNvm layouts).
  Space &oldDram() { return OldDramSpace; }
  /// Old-generation NVM component (or the unified space for baselines).
  Space &oldNvm() { return OldNvmSpace; }
  Space &native() { return NativeSpace; }
  /// True when the old generation has distinct DRAM and NVM components.
  bool hasSplitOldGen() const {
    return Config.Layout == OldGenLayout::SplitDramNvm;
  }
  /// The old-generation spaces in address order (1 for unified layouts).
  std::vector<Space *> oldSpaces();

  /// One old-generation address range with the device the static layout
  /// backs it with. The dynamic-migration engine remaps pages inside
  /// these ranges between GCs and restores the canonical device at every
  /// major GC (docs/memsim.md).
  struct OldGenRegion {
    uint64_t Base = 0;
    uint64_t End = 0;
    memsim::Device Canonical = memsim::Device::DRAM;
  };

  /// The old generation's ranges with their canonical devices, in address
  /// order. Empty for UnifiedInterleaved (no per-range canonical device
  /// exists; the chunk map is probabilistic).
  std::vector<OldGenRegion> oldGenRegions() const;

  bool isYoung(uint64_t Addr) const {
    return Eden.contains(Addr) || From.contains(Addr) || To.contains(Addr);
  }
  bool isOld(uint64_t Addr) const {
    return OldDramSpace.contains(Addr) || OldNvmSpace.contains(Addr);
  }

  /// Exchanges the survivor semispaces after a scavenge.
  void swapSurvivors() { std::swap(From, To); }

  //===--------------------------------------------------------------------===
  // Allocation (mutator-facing; may trigger GC)
  //===--------------------------------------------------------------------===

  /// Allocates a Plain object with \p NumRefs leading reference slots and
  /// \p PayloadBytes raw bytes.
  ObjRef allocPlain(uint32_t NumRefs, uint32_t PayloadBytes);

  /// Allocates a reference array. If a pretenure tag is pending (§4.2.1's
  /// rdd_alloc wait state) and \p Length reaches the large-array threshold,
  /// the array goes directly into the tagged old-generation space.
  ObjRef allocRefArray(uint32_t Length);

  /// Allocates a primitive array of \p Length elements x \p ElemBytes.
  /// Like allocRefArray, a sufficiently large primitive array claims a
  /// pending rdd_alloc tag and is pretenured (serialized RDD caches are
  /// single large primitive arrays).
  ObjRef allocPrimArray(uint32_t Length, uint32_t ElemBytes);

  /// Allocates raw native (off-heap, NVM) storage; never collected.
  uint64_t allocNative(uint64_t Bytes);

  /// Allocates an OffHeapStub: the on-heap handle for a partition the
  /// off-heap cache tier serialized into a native region. The stub's
  /// payload holds {NativeAddr, Region}; Length holds the record count.
  /// The collector treats the stub as a leaf (numRefSlots() == 0), so the
  /// serialized bytes behind it never contribute trace or compaction work.
  ObjRef allocOffHeapStub(uint64_t NativeAddr, uint32_t Region,
                          uint32_t RecordCount, uint32_t RddId);

  /// Arms the rdd_alloc wait state: the next sufficiently large RefArray
  /// allocation is placed per \p Tag and stamped with \p RddId.
  void setPendingArrayTag(MemTag Tag, uint32_t RddId) {
    PendingTag = Tag;
    PendingRddId = RddId;
  }
  MemTag pendingArrayTag() const { return PendingTag; }

  /// NG2C-style allocation-site pretenuring oracle: when installed, a
  /// tagged array below the large-array threshold is still pretenured if
  /// the oracle says its RDD's allocation site is long-lived (fed by the
  /// AccessMonitor hotness profile). Null disables the heuristic.
  using PretenureOracle = std::function<bool(uint32_t RddId)>;
  void setPretenureOracle(PretenureOracle Fn) { Pretenure = std::move(Fn); }

  //===--------------------------------------------------------------------===
  // Mutator field access (accounted + write barrier)
  //===--------------------------------------------------------------------===

  ObjRef loadRef(ObjRef Obj, uint32_t Slot);
  void storeRef(ObjRef Obj, uint32_t Slot, ObjRef Value);

  /// Bulk ref-slot copy: the accounted equivalent of
  ///   for I in 0..Count: storeRef(Dst, DstFirst+I, loadRef(Src, SrcFirst+I))
  /// issued as two element-granular ranges (all reads, then all writes)
  /// plus the per-store write-barrier bookkeeping. Only valid when no
  /// allocation can intervene (the caller holds both objects stable);
  /// PartitionBuilder::finish uses it to flatten chunks.
  void copyRefRange(ObjRef Dst, uint32_t DstFirst, ObjRef Src,
                    uint32_t SrcFirst, uint32_t Count);
  int64_t loadI64(ObjRef Obj, uint32_t ByteOffset);
  void storeI64(ObjRef Obj, uint32_t ByteOffset, int64_t Value);
  double loadF64(ObjRef Obj, uint32_t ByteOffset);
  void storeF64(ObjRef Obj, uint32_t ByteOffset, double Value);

  /// Primitive-array element access (ElemBytes must be 8 for these).
  int64_t loadElemI64(ObjRef Array, uint32_t Index);
  void storeElemI64(ObjRef Array, uint32_t Index, int64_t Value);
  double loadElemF64(ObjRef Array, uint32_t Index);
  void storeElemF64(ObjRef Array, uint32_t Index, double Value);

  /// Bulk primitive-array element access: \p Count consecutive 8-byte
  /// elements starting at \p FirstIndex. Accounted as one element-granular
  /// range through the memsim fast path — the simulated cost is
  /// bit-identical to the per-element loop on either access path; only the
  /// bookkeeping is amortized.
  void loadElemsI64(ObjRef Array, uint32_t FirstIndex, uint32_t Count,
                    int64_t *Dst);
  void storeElemsI64(ObjRef Array, uint32_t FirstIndex, uint32_t Count,
                     const int64_t *Src);

  /// Native-region access (accounted, no barrier).
  void nativeWrite(uint64_t Addr, const void *Src, uint64_t Bytes);
  void nativeRead(uint64_t Addr, void *Dst, uint64_t Bytes);

  /// Bulk native-region access accounted as \p Count records of
  /// \p RecordBytes each (the cost of the equivalent per-record loop),
  /// moving the Count * RecordBytes payload in one memcpy.
  void nativeWriteRecords(uint64_t Addr, const void *Src, uint64_t Count,
                          uint64_t RecordBytes);
  void nativeReadRecords(uint64_t Addr, void *Dst, uint64_t Count,
                         uint64_t RecordBytes);

  uint32_t arrayLength(ObjRef Obj) const {
    return header(Obj.addr())->Length;
  }
  uint32_t plainPayloadOffset(ObjRef Obj) const {
    return sizeof(ObjectHeader) + header(Obj.addr())->Aux * RefSlotBytes;
  }

  /// OffHeapStub payload access (accounted). The record count rides in the
  /// header's Length field and is read unaccounted, like arrayLength.
  uint64_t stubNativeAddr(ObjRef Stub);
  uint32_t stubRegion(ObjRef Stub);
  uint32_t stubRecordCount(ObjRef Stub) const {
    assert(header(Stub.addr())->kind() == ObjectKind::OffHeapStub);
    return header(Stub.addr())->Length;
  }
  /// Retargets a stub, e.g. to offheap::NoAddress when its region is
  /// evicted to disk. No write barrier: the payload holds no references.
  void setStubNativeAddr(ObjRef Stub, uint64_t NativeAddr);

  //===--------------------------------------------------------------------===
  // Roots
  //===--------------------------------------------------------------------===

  /// Registers a long-lived root slot (persisted RDDs); returns its id.
  size_t addPersistentRoot(ObjRef R);
  void removePersistentRoot(size_t Id);
  ObjRef persistentRoot(size_t Id) const { return PersistentRoots[Id]; }
  void setPersistentRoot(size_t Id, ObjRef R) { PersistentRoots[Id] = R; }

  /// Applies \p Fn to every root slot (stack handles + persistent roots);
  /// the collector uses this to trace and to fix up moved references.
  void forEachRoot(const std::function<void(ObjRef &)> &Fn);

  //===--------------------------------------------------------------------===
  // Runtime-internal interface (collector use; unaccounted unless noted)
  //===--------------------------------------------------------------------===

  ObjectHeader *header(uint64_t Addr) {
    return reinterpret_cast<ObjectHeader *>(&Buffer[Addr]);
  }
  const ObjectHeader *header(uint64_t Addr) const {
    return reinterpret_cast<const ObjectHeader *>(&Buffer[Addr]);
  }

  uint64_t refSlotAddr(uint64_t Obj, uint32_t Slot) const {
    return Obj + sizeof(ObjectHeader) +
           static_cast<uint64_t>(Slot) * RefSlotBytes;
  }

  ObjRef rawLoadRef(uint64_t Obj, uint32_t Slot) const {
    uint64_t V;
    std::memcpy(&V, &Buffer[refSlotAddr(Obj, Slot)], sizeof(V));
    return ObjRef(V);
  }
  void rawStoreRef(uint64_t Obj, uint32_t Slot, ObjRef R) {
    uint64_t V = R.addr();
    std::memcpy(&Buffer[refSlotAddr(Obj, Slot)], &V, sizeof(V));
  }

  uint8_t *rawBytes(uint64_t Addr) { return &Buffer[Addr]; }

  /// Charges device traffic for a GC-driven (or other explicit) access.
  void account(uint64_t Addr, uint32_t Bytes, bool IsWrite) {
    Mem.onAccess(Addr, Bytes, IsWrite);
  }

  /// Range form of account(): one bulk charge for a traversal of
  /// [Addr, Addr+Bytes) in \p ElemBytes-sized steps (0 = a single access
  /// spanning the range). See HybridMemory::onAccessRange.
  void accountRange(uint64_t Addr, uint64_t Bytes, bool IsWrite,
                    uint64_t ElemBytes = 0) {
    Mem.onAccessRange(Addr, Bytes, IsWrite, ElemBytes);
  }

  /// Allocates \p Bytes in the old generation honoring \p Tag; applies the
  /// Panthera card-padding rule when \p IsRddArray. Returns 0 when full.
  /// Never triggers a collection (GC promotion path uses this).
  uint64_t allocateInOld(uint64_t Bytes, MemTag Tag, bool IsRddArray);

  /// Writes a dead filler object over [Addr, Addr+Bytes) and records its
  /// start so the space stays walkable. The scavenge uses this to
  /// retire promotion-buffer (PLAB) remainders; no waste stat is charged
  /// here -- callers account the waste to the right counter.
  void writeFillerObject(uint64_t Addr, uint64_t Bytes);

  /// Walks all objects in [Start, End) in address order.
  void walkObjects(uint64_t Start, uint64_t End,
                   const std::function<void(uint64_t)> &Fn);

  /// First object whose byte range intersects card \p CardIdx of \p S,
  /// or 0 when the card is past the allocation frontier \p Top. Objects
  /// at or above \p Top are invisible, so a caller holding a snapshotted
  /// frontier (the scavenge, while its plan phase extends the old spaces)
  /// sees a fixed object population.
  uint64_t firstObjectIntersectingCard(Space &S, size_t CardIdx,
                                       uint64_t Top);
  uint64_t firstObjectIntersectingCard(Space &S, size_t CardIdx) {
    return firstObjectIntersectingCard(S, CardIdx, S.top());
  }

  bool inGc() const { return InGcFlag; }
  void setInGc(bool V) { InGcFlag = V; }

  //===--------------------------------------------------------------------===
  // Incremental-marking hooks (docs/gc_pause.md)
  //===--------------------------------------------------------------------===

  /// SATB (snapshot-at-the-beginning) recording: while active, storeRef
  /// and copyRefRange append every overwritten non-null reference to the
  /// SATB buffer before the raw store, preserving the marking snapshot.
  /// The mutator is single-threaded (the non-atomic HeapStats counters
  /// rely on the same invariant), so one unsynchronized buffer suffices.
  void setSatbActive(bool V) { SatbActive = V; }
  bool satbActive() const { return SatbActive; }
  std::vector<uint64_t> &satbBuffer() { return Satb; }

  /// Allocate-black: while a marking cycle is active every new object is
  /// born marked, so objects allocated mid-cycle are never freed by the
  /// cycle's compaction regardless of when they become reachable.
  void setAllocBlack(bool V) { AllocBlack = V; }

  /// Requests a full collection (the engine uses this after evicting a
  /// storage block so the freed space becomes allocatable).
  void requestMajorGc(const char *Reason) {
    if (Host && !InGcFlag)
      Host->collectMajor(Reason);
  }

private:
  friend class GcRoot;

  /// Initializes a header at \p Addr and zeroes the payload; charges the
  /// allocation-write traffic.
  void formatObject(uint64_t Addr, uint32_t SizeBytes, ObjectKind Kind,
                    uint32_t Aux, uint32_t Length, uint32_t RddId,
                    MemTag Tag);

  /// Narrows a 64-bit computed object size into the uint32 header field;
  /// throws a typed OutOfMemoryError when it does not fit.
  uint32_t checkedObjectSize(uint64_t Size64, const char *What);

  /// Allocates in eden, collecting when full. Returns the address.
  uint64_t allocateYoung(uint32_t Bytes);

  /// Last-resort staged fallback after the normal GC-and-retry path fails:
  /// emergency full GC -> DRAM<->NVM overflow retry -> pressure-callback
  /// cache eviction -> OutOfMemoryError. Returns a young-or-old address.
  uint64_t oomFallback(uint64_t Bytes, MemTag Tag, bool IsRddArray,
                       const char *What);

  /// Plugs [Addr, Addr+Bytes) with a filler object so spaces stay walkable.
  void insertFiller(uint64_t Addr, uint64_t Bytes);

  void writeBarrier(ObjRef Obj, uint64_t SlotAddr);

  HeapConfig Config;
  memsim::HybridMemory &Mem;
  CardTable Cards;
  HeapStats Stats;
  GcHost *Host = nullptr;
  FaultInjector *Faults = nullptr;
  PressureHandler OnPressure;
  RecoveryHook RecoveryVerifier;
  support::MetricsRegistry *Metrics = nullptr;
  support::TraceLog *TraceSink = nullptr;
  bool InPressureHandler = false; ///< Re-entrancy guard for stage 3.

  /// Backing bytes of the whole simulated memory, from calloc. glibc
  /// serves a request above its mmap threshold (at most 32 MB; a 64 GB
  /// paper heap is ~80 MB here) with fresh zero pages from mmap, so only
  /// the pages a run touches are ever faulted in; zero-filling the buffer
  /// would write every page up front. Smaller requests may reuse freed
  /// memory, which calloc clears.
  struct FreeBytes {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t[], FreeBytes> Buffer;
  Space Eden, From, To;
  Space OldDramSpace, OldNvmSpace;
  Space NativeSpace;

  MemTag PendingTag = MemTag::None;
  uint32_t PendingRddId = 0;
  bool InGcFlag = false;
  bool SatbActive = false;
  bool AllocBlack = false;
  std::vector<uint64_t> Satb;
  PretenureOracle Pretenure;

  std::vector<ObjRef> RootStack;
  std::vector<ObjRef> PersistentRoots;
  std::vector<size_t> FreePersistentSlots;
};

inline GcRoot::GcRoot(Heap &H, ObjRef Initial) : H(H) {
  Index = H.RootStack.size();
  H.RootStack.push_back(Initial);
}

inline GcRoot::~GcRoot() {
  assert(Index == H.RootStack.size() - 1 && "GcRoots must nest LIFO");
  H.RootStack.pop_back();
}

inline ObjRef GcRoot::get() const { return H.RootStack[Index]; }
inline void GcRoot::set(ObjRef R) { H.RootStack[Index] = R; }

} // namespace heap
} // namespace panthera

#endif // PANTHERA_HEAP_HEAP_H
