//===- heap/Heap.cpp - The managed heap over hybrid memory ---------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "heap/Heap.h"

#include "support/Errors.h"
#include "support/FaultInjector.h"
#include "support/TraceLog.h"

#include <cstdio>
#include <new>

using namespace panthera;
using namespace panthera::heap;
using memsim::Device;

GcHost::~GcHost() = default;

namespace {
/// Restores a bool flag on scope exit (exception-safe re-entrancy guard).
struct FlagScope {
  bool &Flag;
  bool Saved;
  explicit FlagScope(bool &Flag) : Flag(Flag), Saved(Flag) { Flag = true; }
  ~FlagScope() { Flag = Saved; }
};
} // namespace

Heap::Heap(const HeapConfig &Config, memsim::HybridMemory &Mem)
    : Config(Config), Mem(Mem), Cards(Mem.map().totalBytes()) {
  uint64_t EdenBytes = Config.edenBytes();
  uint64_t SurvivorBytes = Config.survivorBytes();
  uint64_t OldBytes = Config.HeapBytes - EdenBytes - 2 * SurvivorBytes;
  OldBytes = HeapConfig::alignPage(OldBytes);

  uint64_t OldDramBytes = 0;
  uint64_t OldNvmBytes = OldBytes;
  if (Config.Layout == OldGenLayout::SplitDramNvm) {
    OldDramBytes = HeapConfig::alignPage(Config.oldDramBytes());
    if (OldDramBytes > OldBytes)
      OldDramBytes = OldBytes;
    OldNvmBytes = OldBytes - OldDramBytes;
  }

  // Leave page zero unused so address 0 is a valid null reference.
  uint64_t Cursor = 4096;
  Eden = Space("eden", Cursor, EdenBytes);
  Cursor += EdenBytes;
  From = Space("from", Cursor, SurvivorBytes);
  Cursor += SurvivorBytes;
  To = Space("to", Cursor, SurvivorBytes);
  Cursor += SurvivorBytes;
  OldDramSpace = Space("old-dram", Cursor, OldDramBytes);
  Cursor += OldDramBytes;
  OldNvmSpace = Space("old-nvm", Cursor, OldNvmBytes);
  Cursor += OldNvmBytes;
  NativeSpace = Space("native", Cursor, Config.NativeBytes);
  Cursor += Config.NativeBytes;

  uint64_t Total = Mem.map().totalBytes();
  if (Cursor > Total)
    throw EngineError("heap misconfiguration: simulated memory smaller "
                      "than configured heap");
  Buffer.reset(static_cast<uint8_t *>(std::calloc(Total, 1)));
  if (!Buffer)
    throw std::bad_alloc();

  // Back each range with its device. The nursery is always DRAM (§4.1).
  memsim::AddressMap &Map = Mem.map();
  Map.setRange(Eden.base(), To.end(), Device::DRAM);
  switch (Config.Layout) {
  case OldGenLayout::SplitDramNvm:
    Map.setRange(OldDramSpace.base(), OldDramSpace.end(), Device::DRAM);
    Map.setRange(OldNvmSpace.base(), OldNvmSpace.end(), Device::NVM);
    break;
  case OldGenLayout::UnifiedDram:
    Map.setRange(OldNvmSpace.base(), OldNvmSpace.end(), Device::DRAM);
    break;
  case OldGenLayout::UnifiedNvm:
    Map.setRange(OldNvmSpace.base(), OldNvmSpace.end(), Device::NVM);
    break;
  case OldGenLayout::UnifiedInterleaved:
    Map.interleaveRange(OldNvmSpace.base(), OldNvmSpace.end(),
                        Config.InterleaveChunkBytes, Config.DramRatio,
                        Config.InterleaveSeed);
    break;
  }
  Map.setRange(NativeSpace.base(), NativeSpace.end(), Device::NVM);
}

std::vector<Heap::OldGenRegion> Heap::oldGenRegions() const {
  std::vector<OldGenRegion> Result;
  switch (Config.Layout) {
  case OldGenLayout::SplitDramNvm:
    if (OldDramSpace.sizeBytes() > 0)
      Result.push_back(
          {OldDramSpace.base(), OldDramSpace.end(), Device::DRAM});
    Result.push_back({OldNvmSpace.base(), OldNvmSpace.end(), Device::NVM});
    break;
  case OldGenLayout::UnifiedDram:
    Result.push_back({OldNvmSpace.base(), OldNvmSpace.end(), Device::DRAM});
    break;
  case OldGenLayout::UnifiedNvm:
    Result.push_back({OldNvmSpace.base(), OldNvmSpace.end(), Device::NVM});
    break;
  case OldGenLayout::UnifiedInterleaved:
    break;
  }
  return Result;
}

std::vector<Space *> Heap::oldSpaces() {
  std::vector<Space *> Result;
  if (OldDramSpace.sizeBytes() > 0)
    Result.push_back(&OldDramSpace);
  Result.push_back(&OldNvmSpace);
  return Result;
}

//===----------------------------------------------------------------------===
// Allocation
//===----------------------------------------------------------------------===

void Heap::formatObject(uint64_t Addr, uint32_t SizeBytes, ObjectKind Kind,
                        uint32_t Aux, uint32_t Length, uint32_t RddId,
                        MemTag Tag) {
  std::memset(&Buffer[Addr], 0, SizeBytes);
  ObjectHeader *H = header(Addr);
  H->SizeBytes = SizeBytes;
  H->Kind = static_cast<uint8_t>(Kind);
  H->Aux = static_cast<uint8_t>(Aux);
  H->Length = Length;
  H->RddId = RddId;
  H->setMemTag(Tag);
  // Allocate-black: objects born during an incremental marking cycle are
  // live by definition for that cycle (fillers stay unmarked -- they are
  // reclaimed at compaction like any dead object).
  if (AllocBlack)
    H->setMarked(true);
  ++Stats.ObjectsAllocated;
  Stats.BytesAllocated += SizeBytes;
  // Zero-initialization traffic (TLAB zeroing in a real JVM).
  Mem.onAccess(Addr, SizeBytes, /*IsWrite=*/true);
  Mem.addCpuWorkNs(Config.Tuning.AllocCpuNs);
}

uint64_t Heap::allocateYoung(uint32_t Bytes) {
  assert(!InGcFlag && "collector must not allocate through the young path");
  if (Faults && Faults->shouldFail(FaultSite::Allocation)) {
    ++Stats.OomErrorsThrown;
    throw OutOfMemoryError("injected allocation failure");
  }
  uint64_t Addr = Eden.allocate(Bytes);
  if (Addr)
    return Addr;
  if (Host) {
    try {
      Host->collectMinor("eden full");
      Addr = Eden.allocate(Bytes);
      if (Addr)
        return Addr;
    } catch (const OutOfMemoryError &) {
      // The collection itself found no room (survivor headroom or
      // compaction overflow). The heap is untouched; the staged fallback
      // below can still shed caches before giving up.
    }
  }
  // Object larger than eden: place it directly in the old generation.
  Addr = allocateInOld(Bytes, MemTag::None, /*IsRddArray=*/false);
  if (!Addr && Host) {
    try {
      Host->collectMajor("old gen full on young overflow");
    } catch (const OutOfMemoryError &) {
    }
    Addr = allocateInOld(Bytes, MemTag::None, /*IsRddArray=*/false);
  }
  if (!Addr)
    Addr = oomFallback(Bytes, MemTag::None, /*IsRddArray=*/false,
                       "allocation does not fit in eden or the old "
                       "generation");
  return Addr;
}

uint64_t Heap::oomFallback(uint64_t Bytes, MemTag Tag, bool IsRddArray,
                           const char *What) {
  // After a full collection (or an eviction-driven one) both eden and the
  // old generation may have room again; prefer eden for young-sized
  // requests so survivor-space semantics stay normal.
  auto Retry = [&]() -> uint64_t {
    uint64_t A = Eden.allocate(Bytes);
    if (!A)
      A = allocateInOld(Bytes, Tag, IsRddArray);
    return A;
  };

  // Stage 1: emergency full GC. (Stage 2 -- old-gen DRAM<->NVM overflow
  // placement -- is inherent in allocateInOld's primary/fallback search.)
  if (Host && !InGcFlag) {
    ++Stats.EmergencyGcs;
    if (TraceSink)
      TraceSink
          ->instant(support::TraceTrack::Heap, "emergency gc", "heap",
                    Mem.totalTimeNs())
          .arg("bytes", Bytes)
          .arg("what", std::string(What));
    try {
      Host->collectMajor("emergency full gc: allocation failure");
      if (RecoveryVerifier)
        RecoveryVerifier("emergency full gc");
      if (uint64_t Addr = Retry())
        return Addr;
    } catch (const OutOfMemoryError &) {
      // Even a full compaction cannot fit the live set; eviction below
      // is the only stage that can shrink it.
    }
  }

  // Stage 3: ask the engine to shed MEMORY_AND_DISK caches to disk, one
  // LRU victim at a time, collecting after each so the space is reusable.
  // The handler itself streams (and allocates); the guard keeps a nested
  // allocation failure from recursing back into eviction.
  if (OnPressure && !InPressureHandler) {
    FlagScope Guard(InPressureHandler);
    while (OnPressure(Bytes)) {
      ++Stats.PressureEvictions;
      if (TraceSink)
        TraceSink
            ->instant(support::TraceTrack::Heap, "pressure eviction", "heap",
                      Mem.totalTimeNs())
            .arg("bytes", Bytes);
      try {
        if (Host && !InGcFlag)
          Host->collectMajor("memory pressure eviction");
      } catch (const OutOfMemoryError &) {
        continue; // evict further before retrying the collection
      }
      if (RecoveryVerifier)
        RecoveryVerifier("pressure eviction");
      if (uint64_t Addr = Retry())
        return Addr;
    }
  }

  ++Stats.OomErrorsThrown;
  if (TraceSink)
    TraceSink
        ->instant(support::TraceTrack::Heap, "oom error", "heap",
                  Mem.totalTimeNs())
        .arg("bytes", Bytes)
        .arg("what", std::string(What));
  throw OutOfMemoryError(What);
}

void Heap::writeFillerObject(uint64_t Addr, uint64_t Bytes) {
  assert(Bytes >= sizeof(ObjectHeader) && (Bytes & 7) == 0 &&
         "filler must hold a header");
  std::memset(&Buffer[Addr], 0, sizeof(ObjectHeader));
  ObjectHeader *H = header(Addr);
  H->SizeBytes = static_cast<uint32_t>(Bytes);
  H->Kind = static_cast<uint8_t>(ObjectKind::PrimArray);
  H->Aux = 1;
  H->Length = static_cast<uint32_t>(Bytes - sizeof(ObjectHeader));
  Cards.noteObjectStart(Addr);
}

void Heap::insertFiller(uint64_t Addr, uint64_t Bytes) {
  writeFillerObject(Addr, Bytes);
  Stats.CardPaddingWasteBytes += Bytes;
}

uint64_t Heap::allocateInOld(uint64_t Bytes, MemTag Tag, bool IsRddArray) {
  Space *Primary;
  Space *Fallback = nullptr;
  if (!hasSplitOldGen()) {
    Primary = &OldNvmSpace; // the unified old space
  } else if (Tag == MemTag::Dram) {
    Primary = &OldDramSpace;
    Fallback = &OldNvmSpace;
  } else {
    Primary = &OldNvmSpace;
    Fallback = &OldDramSpace;
  }

  bool Pad = IsRddArray && Config.Tuning.CardPadding;
  for (Space *S : {Primary, Fallback}) {
    if (!S || S->sizeBytes() == 0)
      continue;
    uint64_t Addr = S->allocate(Bytes);
    if (!Addr)
      continue;
    if (S == Fallback && Tag == MemTag::Dram) {
      ++Stats.PretenureDramFallbacks;
      // §4.1 overflow placement: DRAM-tagged data lands in NVM because
      // the DRAM component is full. Always on a serial path (mutator
      // allocation or the scavenge's serial plan phase).
      if (TraceSink)
        TraceSink
            ->instant(support::TraceTrack::Heap, "nvm overflow", "heap",
                      Mem.totalTimeNs())
            .arg("bytes", Bytes);
    }
    Cards.noteObjectStart(Addr);
    if (Pad) {
      // §4.2.3 card padding: align the end of the array region to a card
      // boundary so no later large array shares this array's last card.
      uint64_t Misalign = S->top() % CardTable::CardBytes;
      if (Misalign != 0) {
        uint64_t Gap = CardTable::CardBytes - Misalign;
        if (Gap < sizeof(ObjectHeader))
          Gap += CardTable::CardBytes;
        uint64_t FillerAddr = S->allocate(Gap);
        if (FillerAddr)
          insertFiller(FillerAddr, Gap);
      }
    }
    return Addr;
  }
  return 0;
}

/// Narrows a 64-bit object size into the uint32 header field, rejecting
/// anything too large to represent: a silently wrapped size would corrupt
/// every linear space walk that steps by SizeBytes.
uint32_t Heap::checkedObjectSize(uint64_t Size64, const char *What) {
  if (Size64 > MaxObjectBytes) {
    ++Stats.OomErrorsThrown;
    throw OutOfMemoryError(std::string(What) +
                           ": object size overflows the 32-bit header size "
                           "field");
  }
  return static_cast<uint32_t>(Size64);
}

ObjRef Heap::allocPlain(uint32_t NumRefs, uint32_t PayloadBytes) {
  assert(NumRefs <= 255 && "Plain objects carry at most 255 ref slots");
  if (Host && !InGcFlag)
    Host->allocationSafepoint();
  uint32_t Size =
      checkedObjectSize(plainObjectSize(NumRefs, PayloadBytes), "allocPlain");
  uint64_t Addr = allocateYoung(Size);
  formatObject(Addr, Size, ObjectKind::Plain, NumRefs,
               NumRefs * RefSlotBytes + PayloadBytes, /*RddId=*/0,
               MemTag::None);
  return ObjRef(Addr);
}

ObjRef Heap::allocRefArray(uint32_t Length) {
  if (Host && !InGcFlag)
    Host->allocationSafepoint();
  uint32_t Size = checkedObjectSize(refArraySize(Length), "allocRefArray");
  MemTag Tag = MemTag::None;
  uint32_t RddId = 0;
  // §4.2.1: a pending rdd_alloc tag claims the next large array. The
  // NG2C-style oracle extends the claim to smaller tagged arrays whose
  // allocation site (RDD id) the hotness profile says is long-lived.
  bool BySite = Length < Config.Tuning.LargeArrayElems && Pretenure &&
                PendingTag != MemTag::None && Pretenure(PendingRddId);
  if (PendingTag != MemTag::None &&
      (Length >= Config.Tuning.LargeArrayElems || BySite)) {
    Tag = PendingTag;
    RddId = PendingRddId;
    PendingTag = MemTag::None;
    PendingRddId = 0;
    uint64_t Addr = allocateInOld(Size, Tag, /*IsRddArray=*/true);
    if (!Addr && Host && !InGcFlag) {
      Host->collectMajor("old gen full on pretenured array");
      Addr = allocateInOld(Size, Tag, /*IsRddArray=*/true);
    }
    if (Addr) {
      ++Stats.ArraysPretenured;
      if (BySite)
        ++Stats.ArraysOraclePretenured;
      formatObject(Addr, Size, ObjectKind::RefArray, 0, Length, RddId, Tag);
      return ObjRef(Addr);
    }
    // Old generation exhausted: fall through to a young allocation; the
    // header keeps the tag so the GC promotes it eagerly later.
  }
  uint64_t Addr = allocateYoung(Size);
  formatObject(Addr, Size, ObjectKind::RefArray, 0, Length, RddId, Tag);
  return ObjRef(Addr);
}

ObjRef Heap::allocPrimArray(uint32_t Length, uint32_t ElemBytes) {
  assert(ElemBytes > 0 && ElemBytes <= 255 && "element size fits Aux");
  if (Host && !InGcFlag)
    Host->allocationSafepoint();
  uint32_t Size =
      checkedObjectSize(primArraySize(Length, ElemBytes), "allocPrimArray");
  // Serialized RDD caches are large primitive arrays; the rdd_alloc wait
  // state pretenures them exactly like reference arrays. No card padding
  // is needed: primitive arrays hold no references and are never scanned.
  bool BySite = Length < Config.Tuning.LargeArrayElems && Pretenure &&
                PendingTag != MemTag::None && Pretenure(PendingRddId);
  if (PendingTag != MemTag::None &&
      (Length >= Config.Tuning.LargeArrayElems || BySite)) {
    MemTag Tag = PendingTag;
    uint32_t RddId = PendingRddId;
    PendingTag = MemTag::None;
    PendingRddId = 0;
    uint64_t Addr = allocateInOld(Size, Tag, /*IsRddArray=*/false);
    if (!Addr && Host && !InGcFlag) {
      Host->collectMajor("old gen full on pretenured serialized array");
      Addr = allocateInOld(Size, Tag, /*IsRddArray=*/false);
    }
    if (Addr) {
      ++Stats.ArraysPretenured;
      if (BySite)
        ++Stats.ArraysOraclePretenured;
      formatObject(Addr, Size, ObjectKind::PrimArray, ElemBytes, Length,
                   RddId, Tag);
      return ObjRef(Addr);
    }
  }
  uint64_t Addr = allocateYoung(Size);
  formatObject(Addr, Size, ObjectKind::PrimArray, ElemBytes, Length,
               /*RddId=*/0, MemTag::None);
  return ObjRef(Addr);
}

uint64_t Heap::allocNative(uint64_t Bytes) {
  uint64_t Aligned = (Bytes + 7) & ~7ull;
  if (Aligned < Bytes) {
    // Rounding a near-UINT64_MAX request wrapped to a tiny size; the
    // request itself can obviously never be satisfied.
    ++Stats.OomErrorsThrown;
    throw OutOfMemoryError("native allocation size overflows");
  }
  uint64_t Addr = NativeSpace.allocate(Aligned);
  if (!Addr) {
    // The native region is never collected, so there is no staged fallback
    // to run -- but the failure is still a typed, catchable error.
    ++Stats.OomErrorsThrown;
    throw OutOfMemoryError("native (off-heap) region exhausted");
  }
  return Addr;
}

ObjRef Heap::allocOffHeapStub(uint64_t NativeAddr, uint32_t Region,
                              uint32_t RecordCount, uint32_t RddId) {
  if (Host && !InGcFlag)
    Host->allocationSafepoint();
  constexpr uint32_t Size = sizeof(ObjectHeader) + OffHeapStubPayloadBytes;
  uint64_t Addr = allocateYoung(Size);
  formatObject(Addr, Size, ObjectKind::OffHeapStub, /*Aux=*/0, RecordCount,
               RddId, MemTag::None);
  uint64_t Payload = Addr + sizeof(ObjectHeader);
  std::memcpy(&Buffer[Payload], &NativeAddr, sizeof(NativeAddr));
  std::memcpy(&Buffer[Payload + 8], &Region, sizeof(Region));
  Mem.onAccessRange(Payload, OffHeapStubPayloadBytes, /*IsWrite=*/true,
                    /*ElemBytes=*/8);
  return ObjRef(Addr);
}

uint64_t Heap::stubNativeAddr(ObjRef Stub) {
  assert(Stub && "null dereference");
  assert(header(Stub.addr())->kind() == ObjectKind::OffHeapStub);
  uint64_t Payload = Stub.addr() + sizeof(ObjectHeader);
  Mem.onAccess(Payload, 8, /*IsWrite=*/false);
  uint64_t V;
  std::memcpy(&V, &Buffer[Payload], sizeof(V));
  return V;
}

uint32_t Heap::stubRegion(ObjRef Stub) {
  assert(Stub && "null dereference");
  assert(header(Stub.addr())->kind() == ObjectKind::OffHeapStub);
  uint64_t Payload = Stub.addr() + sizeof(ObjectHeader);
  Mem.onAccess(Payload + 8, 4, /*IsWrite=*/false);
  uint32_t V;
  std::memcpy(&V, &Buffer[Payload + 8], sizeof(V));
  return V;
}

void Heap::setStubNativeAddr(ObjRef Stub, uint64_t NativeAddr) {
  assert(Stub && "null dereference");
  assert(header(Stub.addr())->kind() == ObjectKind::OffHeapStub);
  uint64_t Payload = Stub.addr() + sizeof(ObjectHeader);
  Mem.onAccess(Payload, 8, /*IsWrite=*/true);
  std::memcpy(&Buffer[Payload], &NativeAddr, sizeof(NativeAddr));
}

//===----------------------------------------------------------------------===
// Accessors
//===----------------------------------------------------------------------===

void Heap::writeBarrier(ObjRef Obj, uint64_t SlotAddr) {
  ++Stats.RefStores;
  Cards.dirtyCardFor(SlotAddr);
  Mem.addCpuWorkNs(Config.Tuning.BarrierCpuNs);
  if (Config.Tuning.KwWriteMonitoring) {
    ObjectHeader *H = header(Obj.addr());
    if (H->WriteCount != UINT32_MAX)
      ++H->WriteCount;
    Mem.onAccess(Obj.addr(), sizeof(uint32_t), /*IsWrite=*/true);
  }
}

ObjRef Heap::loadRef(ObjRef Obj, uint32_t Slot) {
  assert(Obj && "null dereference");
  assert(Slot < header(Obj.addr())->numRefSlots() && "ref slot out of range");
  uint64_t SlotAddr = refSlotAddr(Obj.addr(), Slot);
  Mem.onAccess(SlotAddr, RefSlotBytes, /*IsWrite=*/false);
  return rawLoadRef(Obj.addr(), Slot);
}

void Heap::storeRef(ObjRef Obj, uint32_t Slot, ObjRef Value) {
  assert(Obj && "null dereference");
  assert(Slot < header(Obj.addr())->numRefSlots() && "ref slot out of range");
  uint64_t SlotAddr = refSlotAddr(Obj.addr(), Slot);
  if (SatbActive) {
    // SATB barrier: log the overwritten reference before the store so the
    // marking snapshot stays reachable. The barrier's pre-read of the slot
    // is charged like any other load.
    Mem.onAccess(SlotAddr, RefSlotBytes, /*IsWrite=*/false);
    if (ObjRef Old = rawLoadRef(Obj.addr(), Slot))
      Satb.push_back(Old.addr());
  }
  Mem.onAccess(SlotAddr, RefSlotBytes, /*IsWrite=*/true);
  rawStoreRef(Obj.addr(), Slot, Value);
  writeBarrier(Obj, SlotAddr);
}

void Heap::copyRefRange(ObjRef Dst, uint32_t DstFirst, ObjRef Src,
                        uint32_t SrcFirst, uint32_t Count) {
  if (Count == 0)
    return;
  assert(Dst && Src && "null dereference");
  assert(SrcFirst + static_cast<uint64_t>(Count) <=
             header(Src.addr())->numRefSlots() &&
         "source ref range out of bounds");
  assert(DstFirst + static_cast<uint64_t>(Count) <=
             header(Dst.addr())->numRefSlots() &&
         "destination ref range out of bounds");
  uint64_t SrcAddr = refSlotAddr(Src.addr(), SrcFirst);
  uint64_t DstAddr = refSlotAddr(Dst.addr(), DstFirst);
  if (SatbActive) {
    // SATB barrier, range form: log every overwritten destination slot
    // before the memmove, charging the pre-reads as one element range.
    Mem.onAccessRange(DstAddr, Count * uint64_t(RefSlotBytes),
                      /*IsWrite=*/false, RefSlotBytes);
    for (uint32_t I = 0; I != Count; ++I)
      if (ObjRef Old = rawLoadRef(Dst.addr(), DstFirst + I))
        Satb.push_back(Old.addr());
  }
  Mem.onAccessRange(SrcAddr, Count * uint64_t(RefSlotBytes),
                    /*IsWrite=*/false, RefSlotBytes);
  Mem.onAccessRange(DstAddr, Count * uint64_t(RefSlotBytes),
                    /*IsWrite=*/true, RefSlotBytes);
  std::memmove(&Buffer[DstAddr], &Buffer[SrcAddr],
               Count * uint64_t(RefSlotBytes));
  // Per-store write-barrier bookkeeping, matching writeBarrier().
  for (uint32_t I = 0; I != Count; ++I) {
    ++Stats.RefStores;
    Cards.dirtyCardFor(DstAddr + I * uint64_t(RefSlotBytes));
    Mem.addCpuWorkNs(Config.Tuning.BarrierCpuNs);
  }
  if (Config.Tuning.KwWriteMonitoring) {
    ObjectHeader *Hdr = header(Dst.addr());
    for (uint32_t I = 0; I != Count; ++I) {
      if (Hdr->WriteCount != UINT32_MAX)
        ++Hdr->WriteCount;
      Mem.onAccess(Dst.addr(), sizeof(uint32_t), /*IsWrite=*/true);
    }
  }
}

int64_t Heap::loadI64(ObjRef Obj, uint32_t ByteOffset) {
  uint64_t Addr = Obj.addr() + plainPayloadOffset(Obj) + ByteOffset;
  Mem.onAccess(Addr, 8, /*IsWrite=*/false);
  int64_t V;
  std::memcpy(&V, &Buffer[Addr], sizeof(V));
  return V;
}

void Heap::storeI64(ObjRef Obj, uint32_t ByteOffset, int64_t Value) {
  uint64_t Addr = Obj.addr() + plainPayloadOffset(Obj) + ByteOffset;
  Mem.onAccess(Addr, 8, /*IsWrite=*/true);
  std::memcpy(&Buffer[Addr], &Value, sizeof(Value));
  if (Config.Tuning.KwWriteMonitoring) {
    ObjectHeader *H = header(Obj.addr());
    if (H->WriteCount != UINT32_MAX)
      ++H->WriteCount;
  }
}

double Heap::loadF64(ObjRef Obj, uint32_t ByteOffset) {
  uint64_t Addr = Obj.addr() + plainPayloadOffset(Obj) + ByteOffset;
  Mem.onAccess(Addr, 8, /*IsWrite=*/false);
  double V;
  std::memcpy(&V, &Buffer[Addr], sizeof(V));
  return V;
}

void Heap::storeF64(ObjRef Obj, uint32_t ByteOffset, double Value) {
  uint64_t Addr = Obj.addr() + plainPayloadOffset(Obj) + ByteOffset;
  Mem.onAccess(Addr, 8, /*IsWrite=*/true);
  std::memcpy(&Buffer[Addr], &Value, sizeof(Value));
}

int64_t Heap::loadElemI64(ObjRef Array, uint32_t Index) {
  assert(header(Array.addr())->kind() == ObjectKind::PrimArray &&
         header(Array.addr())->Aux == 8 && "not an 8-byte prim array");
  assert(Index < header(Array.addr())->Length && "index out of range");
  uint64_t Addr = Array.addr() + sizeof(ObjectHeader) + Index * 8ull;
  Mem.onAccess(Addr, 8, /*IsWrite=*/false);
  int64_t V;
  std::memcpy(&V, &Buffer[Addr], sizeof(V));
  return V;
}

void Heap::storeElemI64(ObjRef Array, uint32_t Index, int64_t Value) {
  assert(Index < header(Array.addr())->Length && "index out of range");
  uint64_t Addr = Array.addr() + sizeof(ObjectHeader) + Index * 8ull;
  Mem.onAccess(Addr, 8, /*IsWrite=*/true);
  std::memcpy(&Buffer[Addr], &Value, sizeof(Value));
}

double Heap::loadElemF64(ObjRef Array, uint32_t Index) {
  int64_t Bits = loadElemI64(Array, Index);
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

void Heap::loadElemsI64(ObjRef Array, uint32_t FirstIndex, uint32_t Count,
                        int64_t *Dst) {
  if (Count == 0)
    return;
  assert(header(Array.addr())->kind() == ObjectKind::PrimArray &&
         header(Array.addr())->Aux == 8 && "not an 8-byte prim array");
  assert(FirstIndex + static_cast<uint64_t>(Count) <=
             header(Array.addr())->Length &&
         "range out of bounds");
  uint64_t Addr = Array.addr() + sizeof(ObjectHeader) + FirstIndex * 8ull;
  Mem.onAccessRange(Addr, Count * 8ull, /*IsWrite=*/false, /*ElemBytes=*/8);
  std::memcpy(Dst, &Buffer[Addr], Count * 8ull);
}

void Heap::storeElemsI64(ObjRef Array, uint32_t FirstIndex, uint32_t Count,
                         const int64_t *Src) {
  if (Count == 0)
    return;
  assert(FirstIndex + static_cast<uint64_t>(Count) <=
             header(Array.addr())->Length &&
         "range out of bounds");
  uint64_t Addr = Array.addr() + sizeof(ObjectHeader) + FirstIndex * 8ull;
  Mem.onAccessRange(Addr, Count * 8ull, /*IsWrite=*/true, /*ElemBytes=*/8);
  std::memcpy(&Buffer[Addr], Src, Count * 8ull);
}

void Heap::storeElemF64(ObjRef Array, uint32_t Index, double Value) {
  int64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  storeElemI64(Array, Index, Bits);
}

void Heap::nativeWrite(uint64_t Addr, const void *Src, uint64_t Bytes) {
  assert(NativeSpace.contains(Addr) && "native write outside native space");
  Mem.onAccess(Addr, static_cast<uint32_t>(Bytes), /*IsWrite=*/true);
  std::memcpy(&Buffer[Addr], Src, Bytes);
}

void Heap::nativeRead(uint64_t Addr, void *Dst, uint64_t Bytes) {
  assert(NativeSpace.contains(Addr) && "native read outside native space");
  Mem.onAccess(Addr, static_cast<uint32_t>(Bytes), /*IsWrite=*/false);
  std::memcpy(Dst, &Buffer[Addr], Bytes);
}

void Heap::nativeWriteRecords(uint64_t Addr, const void *Src, uint64_t Count,
                              uint64_t RecordBytes) {
  if (Count == 0)
    return;
  assert(NativeSpace.contains(Addr) && "native write outside native space");
  Mem.onAccessRange(Addr, Count * RecordBytes, /*IsWrite=*/true, RecordBytes);
  std::memcpy(&Buffer[Addr], Src, Count * RecordBytes);
}

void Heap::nativeReadRecords(uint64_t Addr, void *Dst, uint64_t Count,
                             uint64_t RecordBytes) {
  if (Count == 0)
    return;
  assert(NativeSpace.contains(Addr) && "native read outside native space");
  Mem.onAccessRange(Addr, Count * RecordBytes, /*IsWrite=*/false, RecordBytes);
  std::memcpy(Dst, &Buffer[Addr], Count * RecordBytes);
}

//===----------------------------------------------------------------------===
// Roots
//===----------------------------------------------------------------------===

size_t Heap::addPersistentRoot(ObjRef R) {
  if (!FreePersistentSlots.empty()) {
    size_t Id = FreePersistentSlots.back();
    FreePersistentSlots.pop_back();
    PersistentRoots[Id] = R;
    return Id;
  }
  PersistentRoots.push_back(R);
  return PersistentRoots.size() - 1;
}

void Heap::removePersistentRoot(size_t Id) {
  assert(Id < PersistentRoots.size() && "bad persistent root id");
  PersistentRoots[Id] = ObjRef();
  FreePersistentSlots.push_back(Id);
}

void Heap::forEachRoot(const std::function<void(ObjRef &)> &Fn) {
  for (ObjRef &R : RootStack)
    if (R)
      Fn(R);
  for (ObjRef &R : PersistentRoots)
    if (R)
      Fn(R);
}

//===----------------------------------------------------------------------===
// Space walking
//===----------------------------------------------------------------------===

void Heap::walkObjects(uint64_t Start, uint64_t End,
                       const std::function<void(uint64_t)> &Fn) {
  uint64_t Addr = Start;
  while (Addr < End) {
    uint32_t Size = header(Addr)->SizeBytes;
    assert(Size >= sizeof(ObjectHeader) && "corrupt object header");
    Fn(Addr);
    Addr += Size;
  }
}

uint64_t Heap::firstObjectIntersectingCard(Space &S, size_t CardIdx,
                                           uint64_t Top) {
  uint64_t CardLo = Cards.cardStart(CardIdx);
  uint64_t CardHi = CardLo + CardTable::CardBytes;
  if (CardLo >= Top)
    return 0;

  // Anchor: the nearest known object start strictly before this card (the
  // covering object may begin in an earlier card); fall back to the space
  // base, from which every object is reachable by walking headers.
  uint64_t Anchor = S.base();
  size_t BaseCard = Cards.cardIndex(S.base());
  for (size_t C = CardIdx; C > BaseCard;) {
    --C;
    uint64_t A = Cards.firstObjectInCard(C);
    if (A != CardTable::NoObject && A < Top) {
      Anchor = A;
      break;
    }
  }

  uint64_t Addr = Anchor;
  while (Addr < Top) {
    uint32_t Size = header(Addr)->SizeBytes;
    if (Addr + Size > CardLo)
      return Addr < CardHi ? Addr : 0;
    Addr += Size;
  }
  return 0;
}
