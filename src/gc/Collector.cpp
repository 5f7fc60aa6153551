//===- gc/Collector.cpp - Panthera generational collector ----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include "gc/HeapVerifier.h"
#include "memsim/Migration.h"
#include "support/Errors.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/TraceLog.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

using namespace panthera;
using namespace panthera::gc;
using heap::CardTable;
using heap::ObjectHeader;
using heap::ObjectKind;
using heap::ObjRef;
using heap::Space;

[[noreturn]] static void fatalGc(const char *What) {
  std::fprintf(stderr, "panthera: gc failure: %s\n", What);
  std::abort();
}

Collector::Collector(heap::Heap &H, PolicyKind Policy, AccessMonitor *Monitor,
                     support::WorkStealingPool &Pool)
    : H(H), Policy(Policy), Monitor(Monitor), Pool(Pool) {
  H.setGcHost(this);
}

Collector::~Collector() { H.setGcHost(nullptr); }

void Collector::emitTelemetry(const GcEvent &Event) {
  if (Event.IncStep) {
    // Incremental mark steps are bounded pauses, not collections: they get
    // their own histogram and span and skip the occupancy sampling (the
    // heap shape has not changed).
    if (Metrics)
      Metrics->histogram("gc.incremental.step_ns").observe(Event.DurationNs);
    if (TraceSink)
      TraceSink
          ->span(support::TraceTrack::Gc, "incremental mark step", "gc",
                 Event.StartNs, Event.DurationNs)
          .arg("reason", std::string(Event.Reason));
    return;
  }
  if (Metrics) {
    const char *Kind = Event.Major ? "major" : "minor";
    Metrics->histogram(std::string("gc.") + Kind + ".pause_ns")
        .observe(Event.DurationNs);
    if (Event.Major) {
      Metrics->histogram("gc.major.mark_ns").observe(Event.MarkNs);
      Metrics->histogram("gc.major.compact_ns").observe(Event.CompactNs);
    } else {
      Metrics->histogram("gc.minor.dram_to_young_ns")
          .observe(Event.DramToYoungTaskNs);
      Metrics->histogram("gc.minor.nvm_to_young_ns")
          .observe(Event.NvmToYoungTaskNs);
      Metrics->histogram("gc.minor.drain_ns").observe(Event.DrainNs);
    }
    // Per-space occupancy, sampled right after the collection: the gauge
    // keeps the latest value, the histogram the whole run's distribution.
    auto Sample = [&](Space &S, const char *Name) {
      double Used = static_cast<double>(S.usedBytes());
      Metrics->gauge(std::string("heap.occupancy.") + Name + "_bytes")
          .set(Used);
      double Ratio =
          S.sizeBytes() ? Used / static_cast<double>(S.sizeBytes()) : 0.0;
      Metrics->histogram(std::string("heap.occupancy.") + Name + "_ratio")
          .observe(Ratio);
    };
    Sample(H.eden(), "eden");
    Sample(H.fromSpace(), "from");
    Sample(H.toSpace(), "to");
    Sample(H.oldDram(), "old_dram");
    Sample(H.oldNvm(), "old_nvm");
  }

  if (TraceSink) {
    using support::TraceTrack;
    TraceSink
        ->span(TraceTrack::Gc, Event.Major ? "major gc" : "minor gc", "gc",
               Event.StartNs, Event.DurationNs)
        .arg("reason", std::string(Event.Reason))
        .arg("bytes_promoted", Event.BytesPromoted)
        .arg("bytes_copied_to_survivor", Event.BytesCopiedToSurvivor)
        .arg("cards_scanned", Event.CardsScanned)
        .arg("rdd_arrays_migrated", Event.RddArraysMigrated);
    // Phase sub-spans, laid out back-to-back from the pause start. The
    // phases do not necessarily cover the whole pause (setup/cleanup time
    // between them stays unattributed), which chrome://tracing renders as
    // gaps inside the parent span.
    double T = Event.StartNs;
    auto Phase = [&](const char *Name, double DurNs) {
      if (DurNs <= 0.0)
        return;
      TraceSink->span(TraceTrack::Gc, Name, "gc.phase", T, DurNs);
      T += DurNs;
    };
    if (Event.Major) {
      Phase("mark", Event.MarkNs);
      Phase("compact", Event.CompactNs);
    } else {
      Phase("dram-to-young cards", Event.DramToYoungTaskNs);
      Phase("nvm-to-young cards", Event.NvmToYoungTaskNs);
      Phase("drain", Event.DrainNs);
    }
  }
}

//===----------------------------------------------------------------------===
// Minor GC
//===----------------------------------------------------------------------===

bool Collector::scavengeHeadroomOk() const {
  heap::Heap &MH = const_cast<heap::Heap &>(static_cast<const heap::Heap &>(H));
  // Worst case: every young byte survives and must land in to-space or be
  // tenured. An actual scavenge that exceeds this would die mid-evacuation
  // with the heap half-forwarded, so it is never allowed to start.
  uint64_t Worst = MH.eden().usedBytes() + MH.fromSpace().usedBytes();
  uint64_t Room = MH.toSpace().sizeBytes() - MH.toSpace().usedBytes();
  for (Space *S : MH.oldSpaces())
    Room += S->sizeBytes() - S->usedBytes();
  return Worst <= Room;
}

void Collector::collectMinor(const char *Reason) {
  assert(!H.inGc() && "re-entrant collection");
  if (!scavengeHeadroomOk()) {
    // A sliding full compaction needs no evacuation headroom and leaves
    // the young generation empty, so there is nothing left to scavenge.
    // If even the live set does not fit, collectMajor throws a typed
    // OutOfMemoryError before moving a single object.
    collectMajor("minor gc survivor headroom exhausted");
    return;
  }
  // The SATB log may hold young addresses, which the evacuation below
  // would invalidate: trace them now, as a step event of their own so the
  // minor pause accounting stays untouched.
  if (IncActive)
    satbDrainStep();
  H.setInGc(true);
  GcEvent Event;
  Event.Major = false;
  Event.Reason = Reason;
  Event.StartNs = H.memory().totalTimeNs();
  double GcNsBefore = H.memory().gcTimeNs();
  uint64_t PromotedBefore = Stats.BytesPromoted;
  uint64_t CopiedBefore = Stats.BytesCopiedToSurvivor;
  uint64_t CardsBefore = Stats.CardsScanned;
  {
    memsim::ActorScope Scope(H.memory(), memsim::Actor::Gc);
    ++Stats.MinorGcs;
    // Work-stealing scavenge: claim / plan / copy / fixup phases (see
    // below), deterministic at every worker count.
    scavengeParallel(Event);

    // Young spaces: eden and from are now garbage; survivors sit in 'to'.
    uint64_t YoungLo = std::min(
        {H.eden().base(), H.fromSpace().base(), H.toSpace().base()});
    uint64_t YoungHi =
        std::max({H.eden().end(), H.fromSpace().end(), H.toSpace().end()});
    H.eden().reset();
    H.fromSpace().reset();
    H.swapSurvivors();
    // Young cards are never scanned; drop any stale dirty bits, but keep
    // the old-generation cards (including uncleanable shared ones).
    // clearRange leaves a card partially shared with a neighboring space
    // conservatively dirty and preserves its out-of-range FirstObj entry.
    H.cardTable().clearRange(YoungLo, YoungHi);
  }
  H.setInGc(false);
  Event.DurationNs = H.memory().gcTimeNs() - GcNsBefore;
  Event.BytesPromoted = Stats.BytesPromoted - PromotedBefore;
  Event.BytesCopiedToSurvivor =
      Stats.BytesCopiedToSurvivor - CopiedBefore;
  Event.CardsScanned = Stats.CardsScanned - CardsBefore;
  Events.push_back(Event);
  emitTelemetry(Event);
  if (H.config().Tuning.VerifyHeap) {
    VerifyResult V = verifyHeap(H);
    if (!V.Ok) {
      std::fprintf(stderr, "verify after minor gc #%llu: %s\n",
                   static_cast<unsigned long long>(Stats.MinorGcs),
                   V.FirstProblem.c_str());
      std::abort();
    }
  }
  uint64_t MajorsBefore = Stats.MajorGcs;
  maybeTriggerMajor();
  // Between-GC dynamic migration (--policy=dynamic): one bounded hot/cold
  // page-swap step per minor GC. Skipped when this minor escalated to a
  // major -- the major already reset placement to the canonical layout,
  // so the tracker window describes a heap that no longer exists.
  if (Migration && Stats.MajorGcs == MajorsBefore) {
    double StepStart = H.memory().totalTimeNs();
    memsim::MigrationStep S = Migration->step();
    if (S.PagesSwapped != 0 && TraceSink)
      TraceSink->span(support::TraceTrack::Gc, "migration.step",
                      "gc.migration", StepStart, S.CopyNs);
  }
}

//===----------------------------------------------------------------------===
// Parallel scavenge (docs/parallelism.md)
//
// A copying scavenge that interleaves discovery, placement, and copying
// depends on trace order. This scavenge splits the work into four phases
// so that every order-dependent decision is made serially and every
// order-free phase runs on the work-stealing pool:
//
//   1. discover (parallel): claim reachable young objects with a CAS on the
//      header's forwarding word and compute the monotone MEMORY_BITS
//      fixpoint; roots and dirty cards seed per-worker Chase-Lev deques.
//   2. plan (serial): walk eden + from-space in address order and assign
//      every claimed object its destination under the tag/age promotion
//      rules; old-generation placement goes through promotion buffers
//      (PLABs) whose remainders are retired as dead fillers.
//   3. copy (parallel): memcpy each object to its planned destination and
//      rewrite its reference slots through the forwarding words.
//   4. fixup (serial): rewrite roots and dirty-card slots, make the card
//      clean/keep decisions, and charge the merged traffic tallies.
//
// Because the claim set, the tag fixpoint, and the address-ordered plan are
// all independent of scheduling, the resulting heap image, statistics, and
// simulated time are bit-identical at every worker count.
//===----------------------------------------------------------------------===

namespace {

/// Forward-word value marking "claimed, destination not yet planned".
constexpr uint64_t ClaimedSentinel = 1;

/// Per-worker integer traffic counts, merged before the single bulk charge
/// so simulated GC time is independent of scheduling (floating-point
/// accumulation order never varies). Promoted to memsim::TrafficShard so
/// every parallel phase (not just the GC) can shard its accounting; the
/// flush (HybridMemory::flushShard) charges the current actor and returns
/// the ns consumed, exactly as the old GcTally::charge did under the GC
/// actor scope.
using GcTally = memsim::TrafficShard;

MemTag loadTagAtomic(ObjectHeader *Hdr) {
  std::atomic_ref<uint8_t> F(Hdr->Flags);
  return static_cast<MemTag>(F.load(std::memory_order_relaxed) &
                             ObjectHeader::MemoryBitsMask);
}

/// Raises the object's MEMORY_BITS to merge(current, Incoming). Returns
/// true when the stored tag changed. The merge is monotone (DRAM > NVM >
/// none), so concurrent raisers converge and each object's tag can rise at
/// most twice.
bool raiseTagAtomic(ObjectHeader *Hdr, MemTag Incoming) {
  if (Incoming == MemTag::None)
    return false;
  std::atomic_ref<uint8_t> F(Hdr->Flags);
  uint8_t Old = F.load(std::memory_order_relaxed);
  for (;;) {
    MemTag Cur = static_cast<MemTag>(Old & ObjectHeader::MemoryBitsMask);
    MemTag Merged = mergeTags(Cur, Incoming);
    if (Merged == Cur)
      return false;
    uint8_t New = static_cast<uint8_t>((Old & ~ObjectHeader::MemoryBitsMask) |
                                       static_cast<uint8_t>(Merged));
    if (F.compare_exchange_weak(Old, New, std::memory_order_relaxed))
      return true;
  }
}

/// Claims the object for this scavenge: CAS the forwarding word from 0 to
/// the sentinel. Exactly one thread wins per object.
bool claimAtomic(ObjectHeader *Hdr) {
  std::atomic_ref<uint64_t> Fwd(Hdr->Forward);
  uint64_t Expected = 0;
  return Fwd.compare_exchange_strong(Expected, ClaimedSentinel,
                                     std::memory_order_relaxed);
}

/// One minor collection's parallel-scavenge state. Constructed per GC on
/// the caller's stack; shares the heap, the collector's stats, and the
/// pool.
class ParallelScavenge {
public:
  ParallelScavenge(heap::Heap &H, GcStats &Stats,
                   support::WorkStealingPool &Pool)
      : H(H), Stats(Stats), Pool(Pool), Workers(Pool.numWorkers()),
        Map(H.memory().map()) {}

  void collect(GcEvent &Event) {
    prepare();
    discover();
    plan();
    copy();
    fixup(Event);
  }

private:
  //===--- shared helpers -------------------------------------------------===

  /// One dirty old-generation card's work item.
  struct CardWork {
    Space *S;
    size_t Idx;
  };

  bool inCollectedYoung(uint64_t Addr) const {
    return H.eden().contains(Addr) || H.fromSpace().contains(Addr);
  }

  uint64_t topOf(heap::Space *S) const {
    return S == &H.oldDram() ? TopDram : TopNvm;
  }

  /// Slot ranges a dirty card's scan covers: each intersecting object's
  /// slots clamped to the card, or -- under the §4.2.3 shared-array rule --
  /// every slot of every intersecting object. Computed against the
  /// snapshotted old-space frontier, so the parallel discover pass and the
  /// serial fixup pass see the identical object population even though
  /// planning extends the old spaces in between.
  struct CardRange {
    uint64_t Addr;
    uint32_t Begin, End;
  };
  struct CardScan {
    bool HasObjects = false;
    bool Shared = false;
    std::vector<CardRange> Ranges;
  };

  CardScan collectCardRanges(Space &S, size_t CardIdx, uint64_t Top) {
    CardScan R;
    CardTable &Cards = H.cardTable();
    uint64_t CardLo = Cards.cardStart(CardIdx);
    uint64_t CardHi = CardLo + CardTable::CardBytes;
    uint64_t First = H.firstObjectIntersectingCard(S, CardIdx, Top);
    if (!First)
      return R;
    R.HasObjects = true;
    std::vector<uint64_t> Objs;
    unsigned LargeArrays = 0;
    for (uint64_t A = First; A < Top && A < CardHi;
         A += H.header(A)->SizeBytes) {
      Objs.push_back(A);
      ObjectHeader *Hdr = H.header(A);
      if (Hdr->kind() == ObjectKind::RefArray &&
          Hdr->SizeBytes >= CardTable::CardBytes)
        ++LargeArrays;
    }
    if (LargeArrays >= 2) {
      R.Shared = true;
      for (uint64_t A : Objs)
        R.Ranges.push_back({A, 0, H.header(A)->numRefSlots()});
      return R;
    }
    for (uint64_t A : Objs) {
      ObjectHeader *Hdr = H.header(A);
      uint32_t N = Hdr->numRefSlots();
      uint64_t SlotsBase = A + sizeof(ObjectHeader);
      uint32_t Begin = 0;
      if (CardLo > SlotsBase)
        Begin = static_cast<uint32_t>(
            (CardLo - SlotsBase + heap::RefSlotBytes - 1) /
            heap::RefSlotBytes);
      uint32_t End = N;
      if (SlotsBase < CardHi) {
        uint64_t Fit = (CardHi - SlotsBase + heap::RefSlotBytes - 1) /
                       heap::RefSlotBytes;
        End = static_cast<uint32_t>(std::min<uint64_t>(N, Fit));
      } else {
        End = 0;
      }
      if (Begin < End)
        R.Ranges.push_back({A, Begin, End});
    }
    return R;
  }

  //===--- phase 0: prepare -----------------------------------------------===

  void prepare() {
    H.forEachRoot([this](ObjRef &R) { Roots.push_back(&R); });
    TopDram = H.oldDram().top();
    TopNvm = H.oldNvm().top();
    CardTable &Cards = H.cardTable();
    for (Space *S : H.oldSpaces()) {
      if (S->usedBytes() == 0)
        continue;
      size_t FirstCard = Cards.cardIndex(S->base());
      size_t LastCard = Cards.cardIndex(S->top() - 1);
      for (size_t C = FirstCard; C <= LastCard; ++C)
        if (Cards.isDirty(C))
          DirtyCards.push_back({S, C});
    }
  }

  //===--- phase 1: discover (parallel) -----------------------------------===

  void enqueue(uint64_t Addr, unsigned W) {
    Pending.fetch_add(1);
    Deques[W]->push(Addr);
  }

  void visitYoung(uint64_t Addr, MemTag Incoming, unsigned W) {
    ObjectHeader *Hdr = H.header(Addr);
    bool Claimed = claimAtomic(Hdr);
    bool Raised = raiseTagAtomic(Hdr, Incoming);
    // A raise on an already-claimed object re-enqueues it so its children
    // observe the stronger tag; the monotone merge bounds re-scans at two
    // per object and makes the fixpoint schedule-independent.
    if (Claimed || Raised)
      enqueue(Addr, W);
  }

  void scanObject(uint64_t Addr, unsigned W) {
    ObjectHeader *Hdr = H.header(Addr);
    MemTag Tag = loadTagAtomic(Hdr);
    uint32_t N = Hdr->numRefSlots();
    for (uint32_t I = 0; I != N; ++I) {
      ObjRef Child = H.rawLoadRef(Addr, I);
      if (Child && inCollectedYoung(Child.addr()))
        visitYoung(Child.addr(), Tag, W);
    }
  }

  void scanDirtyCard(const CardWork &C, unsigned W);

  void discover() {
    Deques.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      Deques.push_back(std::make_unique<support::ChaseLevDeque<uint64_t>>());
    size_t NumItems = Roots.size() + DirtyCards.size();
    Pending.store(NumItems);
    Pool.runOnWorkers([this, NumItems](unsigned W) {
      // Striped initial work: roots first, then dirty cards.
      for (size_t I = W; I < NumItems; I += Workers) {
        if (I < Roots.size()) {
          ObjRef R = *Roots[I];
          if (R && inCollectedYoung(R.addr()))
            visitYoung(R.addr(), MemTag::None, W);
        } else {
          scanDirtyCard(DirtyCards[I - Roots.size()], W);
        }
        Pending.fetch_sub(1);
      }
      // Work-stealing trace to the claim/tag fixpoint.
      for (;;) {
        uint64_t Addr;
        if (Deques[W]->pop(Addr)) {
          scanObject(Addr, W);
          Pending.fetch_sub(1);
          continue;
        }
        bool Stole = false;
        for (unsigned I = 1; I != Workers && !Stole; ++I)
          Stole = Deques[(W + I) % Workers]->steal(Addr);
        if (Stole) {
          scanObject(Addr, W);
          Pending.fetch_sub(1);
          continue;
        }
        if (Pending.load() == 0)
          break;
        std::this_thread::yield();
      }
    });
  }

  //===--- phase 2: plan (serial) -----------------------------------------===

  /// Per-space promotion buffer: a bump extent carved from the owning
  /// space. Retiring a partially used extent plugs the remainder with a
  /// dead filler; the fit rule never leaves a remainder smaller than a
  /// header, so every remainder is representable.
  struct Plab {
    Space *S = nullptr;
    uint64_t Cursor = 0;
    uint64_t Limit = 0;
  };

  static constexpr uint64_t PlabBytes = 16 * 1024;
  static constexpr uint64_t MinFiller = sizeof(ObjectHeader);

  void retirePlab(Plab &P) {
    uint64_t R = P.Limit - P.Cursor;
    if (R == 0)
      return;
    assert(R >= MinFiller && "unrepresentable PLAB remainder");
    H.writeFillerObject(P.Cursor, R);
    H.stats().GcPlabWasteBytes += R;
    P.Cursor = P.Limit;
  }

  bool refillPlab(Plab &P) {
    uint64_t A = P.S->allocate(PlabBytes);
    if (!A)
      return false;
    ++H.stats().GcPlabRefills;
    if (A == P.Limit && P.Limit != 0) {
      P.Limit = A + PlabBytes; // contiguous: the remainder is absorbed
    } else {
      retirePlab(P);
      P.Cursor = A;
      P.Limit = A + PlabBytes;
    }
    return true;
  }

  uint64_t plabPlace(Plab &P, uint32_t Size) {
    if (!P.S || P.S->sizeBytes() == 0)
      return 0;
    uint64_t Avail = P.Limit - P.Cursor;
    bool Fits = Avail == Size || Avail >= Size + MinFiller;
    if (!Fits) {
      if (!refillPlab(P)) {
        // The space cannot supply a whole extent; fall back to a direct
        // tail allocation so the scavenge keeps the guarantee that
        // scavengeHeadroomOk established.
        uint64_t A = P.S->allocate(Size);
        if (A)
          H.cardTable().noteObjectStart(A);
        return A;
      }
      Avail = P.Limit - P.Cursor;
      Fits = Avail == Size || Avail >= Size + MinFiller;
      if (!Fits)
        return 0;
    }
    uint64_t Addr = P.Cursor;
    P.Cursor += Size;
    H.cardTable().noteObjectStart(Addr);
    return Addr;
  }

  /// Old-generation placement mirroring Heap::allocateInOld's primary /
  /// fallback order, with small objects routed through the PLABs. Large or
  /// card-padded (RDD array) objects bypass the PLAB and allocate
  /// directly, which also re-establishes card padding.
  uint64_t placeOld(uint32_t Size, MemTag Tag, bool IsRddArray) {
    if (IsRddArray || Size + MinFiller > PlabBytes)
      return H.allocateInOld(Size, Tag, IsRddArray);
    Plab *Primary;
    Plab *Fallback = nullptr;
    if (!H.hasSplitOldGen()) {
      Primary = &NvmPlab;
    } else if (Tag == MemTag::Dram) {
      Primary = &DramPlab;
      Fallback = &NvmPlab;
    } else {
      Primary = &NvmPlab;
      Fallback = &DramPlab;
    }
    for (Plab *P : {Primary, Fallback}) {
      if (!P)
        continue;
      uint64_t Addr = plabPlace(*P, Size);
      if (!Addr)
        continue;
      if (P == Fallback && Tag == MemTag::Dram)
        ++H.stats().PretenureDramFallbacks;
      return Addr;
    }
    return 0;
  }

  struct Move {
    uint64_t Old;
    uint64_t New;
    uint32_t Size;
    bool Promoted;
  };

  void plan() {
    DramPlab.S = &H.oldDram();
    NvmPlab.S = &H.oldNvm();
    const heap::GcTuning &T = H.config().Tuning;
    for (Space *S : {&H.eden(), &H.fromSpace()}) {
      H.walkObjects(S->base(), S->top(), [&](uint64_t Addr) {
        ObjectHeader *Hdr = H.header(Addr);
        if (Hdr->Forward == 0)
          return; // unreachable
        MemTag Tag = Hdr->memTag(); // the discover fixpoint's merged tag
        uint32_t Size = Hdr->SizeBytes;
        bool IsRddArray = Hdr->kind() == ObjectKind::RefArray &&
                          Size >= CardTable::CardBytes;
        bool TagPromote =
            Tag != MemTag::None && T.EagerPromotion && H.hasSplitOldGen();
        // Widen before the +1: at Age == 255 a uint8 increment wraps to 0
        // and resets the tenuring clock, so a saturated age must stay
        // tenure-eligible.
        bool AgePromote = static_cast<uint32_t>(Hdr->Age) + 1 >= T.TenureAge;
        uint64_t NewAddr = 0;
        bool Promoted = false;
        if (TagPromote || AgePromote) {
          MemTag PromoTag = Tag;
          if (T.KwWriteMonitoring)
            PromoTag =
                Hdr->WriteCount >= T.KwHotWrites ? MemTag::Dram : MemTag::Nvm;
          NewAddr = placeOld(Size, PromoTag, IsRddArray);
          Promoted = NewAddr != 0;
          if (TagPromote && Promoted)
            ++Stats.EagerPromotions;
        }
        if (!NewAddr)
          NewAddr = H.toSpace().allocate(Size);
        if (!NewAddr) {
          // Survivor overflow: tenure regardless of age.
          NewAddr = placeOld(Size, Tag, IsRddArray);
          Promoted = NewAddr != 0;
        }
        if (!NewAddr)
          fatalGc("no space left for a surviving object during scavenge");
        Hdr->Forward = NewAddr;
        if (Promoted)
          Stats.BytesPromoted += Size;
        else
          Stats.BytesCopiedToSurvivor += Size;
        Moves.push_back({Addr, NewAddr, Size, Promoted});
      });
    }
    retirePlab(DramPlab);
    retirePlab(NvmPlab);
  }

  //===--- phase 3: copy (parallel) ---------------------------------------===

  void copy() {
    Tallies.assign(Workers, GcTally());
    DirtySlots.assign(Workers, {});
    Pool.run(Moves.size(), [this](size_t I, unsigned W) {
      const Move &M = Moves[I];
      GcTally &T = Tallies[W];
      T.add(Map, M.Old, M.Size, /*IsWrite=*/false);
      T.add(Map, M.New, M.Size, /*IsWrite=*/true);
      std::memcpy(H.rawBytes(M.New), H.rawBytes(M.Old), M.Size);
      ObjectHeader *NewHdr = H.header(M.New);
      NewHdr->Forward = 0;
      if (!M.Promoted)
        NewHdr->Age = static_cast<uint8_t>(
            NewHdr->Age == 255 ? 255 : NewHdr->Age + 1);
      bool ParentOld = H.isOld(M.New);
      uint32_t N = NewHdr->numRefSlots();
      for (uint32_t S = 0; S != N; ++S) {
        uint64_t SlotAddr = H.refSlotAddr(M.New, S);
        T.add(Map, SlotAddr, heap::RefSlotBytes, /*IsWrite=*/false);
        ObjRef Child = H.rawLoadRef(M.New, S);
        if (!Child)
          continue;
        if (inCollectedYoung(Child.addr())) {
          ObjRef Moved(H.header(Child.addr())->Forward);
          H.rawStoreRef(M.New, S, Moved);
          T.add(Map, SlotAddr, heap::RefSlotBytes, /*IsWrite=*/true);
          Child = Moved;
        }
        // Promoted objects still pointing into the young generation must
        // be visible to the next minor GC's card scan; the dirtying is
        // deferred so it lands after the fixup phase's clean decisions.
        if (ParentOld && H.isYoung(Child.addr()))
          DirtySlots[W].push_back(SlotAddr);
      }
    });
  }

  //===--- phase 4: fixup (serial) ----------------------------------------===

  void fixup(GcEvent &Event) {
    H.forEachRoot([this](ObjRef &R) {
      if (R && inCollectedYoung(R.addr()))
        R = ObjRef(H.header(R.addr())->Forward);
    });

    GcTally DramCards, NvmCards;
    CardTable &Cards = H.cardTable();
    for (const CardWork &C : DirtyCards) {
      GcTally &T =
          H.hasSplitOldGen() && C.S == &H.oldDram() ? DramCards : NvmCards;
      ++Stats.CardsScanned;
      CardScan CS = collectCardRanges(*C.S, C.Idx, topOf(C.S));
      if (!CS.HasObjects) {
        Cards.clean(C.Idx);
        continue;
      }
      if (CS.Shared)
        ++Stats.SharedArrayCardScans;
      bool YoungRemains = false;
      for (const CardRange &R : CS.Ranges) {
        for (uint32_t S = R.Begin; S != R.End; ++S) {
          uint64_t SlotAddr = H.refSlotAddr(R.Addr, S);
          T.add(Map, SlotAddr, heap::RefSlotBytes, /*IsWrite=*/false);
          ObjRef Child = H.rawLoadRef(R.Addr, S);
          if (!Child)
            continue;
          if (inCollectedYoung(Child.addr())) {
            ObjRef Moved(H.header(Child.addr())->Forward);
            H.rawStoreRef(R.Addr, S, Moved);
            T.add(Map, SlotAddr, heap::RefSlotBytes, /*IsWrite=*/true);
            Child = Moved;
          }
          if (H.isYoung(Child.addr()))
            YoungRemains = true;
        }
      }
      if (!CS.Shared && !YoungRemains) {
        Cards.clean(C.Idx);
        ++Stats.CardsCleaned;
      }
    }

    // Re-dirty the cards of promoted objects that still reference young
    // survivors -- strictly after the clean decisions above, which would
    // otherwise clean a card a promoted object just dirtied.
    for (const std::vector<uint64_t> &V : DirtySlots)
      for (uint64_t SlotAddr : V)
        Cards.dirtyCardFor(SlotAddr);

    // Single bulk charge per task family; the integer counts were merged
    // above, so time is identical at every worker count. Root handles live
    // outside simulated memory, so scanning them is free -- the copies it
    // caused are part of the drain tally.
    memsim::HybridMemory &Mem = H.memory();
    Event.DramToYoungTaskNs = Mem.flushShard(DramCards);
    Event.NvmToYoungTaskNs = Mem.flushShard(NvmCards);
    GcTally Drain;
    for (const GcTally &T : Tallies)
      Drain.merge(T);
    Event.DrainNs = Mem.flushShard(Drain);
  }

  //===--- state ----------------------------------------------------------===

  heap::Heap &H;
  GcStats &Stats;
  support::WorkStealingPool &Pool;
  unsigned Workers;
  const memsim::AddressMap &Map;

  std::vector<ObjRef *> Roots;
  std::vector<CardWork> DirtyCards;
  uint64_t TopDram = 0, TopNvm = 0;

  std::vector<std::unique_ptr<support::ChaseLevDeque<uint64_t>>> Deques;
  std::atomic<size_t> Pending{0};

  Plab DramPlab, NvmPlab;
  std::vector<Move> Moves;

  std::vector<GcTally> Tallies;
  std::vector<std::vector<uint64_t>> DirtySlots;
};

void ParallelScavenge::scanDirtyCard(const CardWork &C, unsigned W) {
  CardScan CS = collectCardRanges(*C.S, C.Idx, topOf(C.S));
  for (const CardRange &R : CS.Ranges) {
    MemTag Tag = H.header(R.Addr)->memTag(); // old gen: stable during GC
    for (uint32_t S = R.Begin; S != R.End; ++S) {
      ObjRef Child = H.rawLoadRef(R.Addr, S);
      if (Child && inCollectedYoung(Child.addr()))
        visitYoung(Child.addr(), Tag, W);
    }
  }
}

} // namespace

void Collector::scavengeParallel(GcEvent &Event) {
  ParallelScavenge PS(H, Stats, Pool);
  PS.collect(Event);
}

void Collector::maybeTriggerMajor() {
  double Threshold = H.config().Tuning.MajorGcOccupancy;
  uint64_t Used = 0;
  uint64_t Size = 0;
  for (Space *S : H.oldSpaces()) {
    Used += S->usedBytes();
    Size += S->sizeBytes();
  }
  if (Size == 0)
    return;
  // Progress guard: require a couple of minor collections between majors
  // so a heap legitimately full of hot data does not thrash in
  // back-to-back full collections.
  if (Stats.MinorGcs < MinorsAtLastMajor + 3)
    return;
  bool TotalFull =
      static_cast<double>(Used) >= Threshold * static_cast<double>(Size);
  // The old generation's DRAM component is the scarce resource: when it
  // fills up, a full GC gives dynamic migration the chance to demote cold
  // RDDs and reclaim DRAM (§4.2.2).
  bool DramFull = false;
  if (H.hasSplitOldGen() && H.oldDram().sizeBytes() > 0) {
    uint64_t DUsed = H.oldDram().usedBytes();
    uint64_t DSize = H.oldDram().sizeBytes();
    DramFull =
        static_cast<double>(DUsed) >= Threshold * static_cast<double>(DSize);
  }
  if (TotalFull || DramFull) {
    const char *Reason = DramFull ? "old DRAM component occupancy"
                                  : "old generation occupancy";
    // With a pause budget, the occupancy trigger starts an incremental
    // marking cycle instead of a stop-the-world major; an already-active
    // cycle covers the trigger and finishes on its own pace.
    if (H.config().Tuning.MaxPauseUs > 0) {
      if (!IncActive)
        startIncrementalCycle(Reason);
      return;
    }
    collectMajor(Reason);
  }
}

//===----------------------------------------------------------------------===
// Major GC
//===----------------------------------------------------------------------===

void Collector::markParallelFromRoots() {
  // Work-stealing mark. Exactly one worker claims each object (an atomic
  // fetch_or of the mark bit), and the claimer scans it, so every header
  // and slot is tallied exactly once regardless of scheduling -- the
  // merged traffic counts, and hence MarkNs, are worker-count invariant.
  unsigned Workers = Pool.numWorkers();
  std::vector<std::unique_ptr<support::ChaseLevDeque<uint64_t>>> Deques;
  Deques.reserve(Workers);
  for (unsigned W = 0; W != Workers; ++W)
    Deques.push_back(std::make_unique<support::ChaseLevDeque<uint64_t>>());
  std::vector<uint64_t> Roots;
  H.forEachRoot([&Roots](ObjRef &R) { Roots.push_back(R.addr()); });
  std::atomic<size_t> Pending{Roots.size()};
  std::vector<GcTally> Tallies(Workers);
  const memsim::AddressMap &Map = H.memory().map();

  auto Claim = [this](uint64_t Addr) {
    std::atomic_ref<uint8_t> F(H.header(Addr)->Flags);
    uint8_t Old =
        F.fetch_or(ObjectHeader::MarkBit, std::memory_order_relaxed);
    return (Old & ObjectHeader::MarkBit) == 0;
  };
  auto Scan = [&](uint64_t Addr, unsigned W) {
    ObjectHeader *Hdr = H.header(Addr);
    GcTally &T = Tallies[W];
    T.add(Map, Addr, sizeof(ObjectHeader), /*IsWrite=*/false);
    uint32_t N = Hdr->numRefSlots();
    for (uint32_t I = 0; I != N; ++I) {
      T.add(Map, H.refSlotAddr(Addr, I), heap::RefSlotBytes,
            /*IsWrite=*/false);
      ObjRef Child = H.rawLoadRef(Addr, I);
      if (Child && Claim(Child.addr())) {
        Pending.fetch_add(1);
        Deques[W]->push(Child.addr());
      }
    }
  };

  Pool.runOnWorkers([&](unsigned W) {
    for (size_t I = W; I < Roots.size(); I += Workers) {
      if (Claim(Roots[I]))
        Scan(Roots[I], W);
      Pending.fetch_sub(1);
    }
    for (;;) {
      uint64_t Addr;
      if (Deques[W]->pop(Addr)) {
        Scan(Addr, W);
        Pending.fetch_sub(1);
        continue;
      }
      bool Stole = false;
      for (unsigned I = 1; I != Workers && !Stole; ++I)
        Stole = Deques[(W + I) % Workers]->steal(Addr);
      if (Stole) {
        Scan(Addr, W);
        Pending.fetch_sub(1);
        continue;
      }
      if (Pending.load() == 0)
        break;
      std::this_thread::yield();
    }
  });

  GcTally Total;
  for (const GcTally &T : Tallies)
    Total.merge(T);
  H.memory().flushShard(Total);
}

//===----------------------------------------------------------------------===
// Incremental marking (docs/gc_pause.md)
//
// With --max-pause-us=N the occupancy trigger starts a marking cycle
// instead of a stop-the-world major GC. The cycle snapshots the roots,
// arms the heap's SATB write barrier and allocate-black allocation, and
// then advances in bounded steps at allocation safepoints, each draining
// the mutation log and scanning gray old objects until N microseconds of
// simulated GC time have elapsed. When the trace runs dry, a normal major
// GC runs as the final remark + compaction; its root trace skips the
// already-marked snapshot, so the remaining pause is dominated by the
// compaction copy. Soundness is the standard SATB weak-snapshot argument:
// every object live at remark is snapshot-reachable (each snapshot edge
// either survives until its source is scanned or was overwritten, which
// logged the target) or was allocated during the cycle (born marked).
//===----------------------------------------------------------------------===

void Collector::incMarkRef(uint64_t Addr) {
  ObjectHeader *Hdr = H.header(Addr);
  if (Hdr->isMarked())
    return;
  Hdr->setMarked(true);
  if (H.isOld(Addr)) {
    IncStack.push_back(Addr);
    return;
  }
  // Young objects move at every minor GC, so their addresses must never
  // wait on the gray stack across steps: close over the young subgraph
  // now, deferring only its old children. Cheap in practice -- cycles
  // start right after a minor GC, when only to-space survivors are young.
  std::vector<uint64_t> YoungStack;
  YoungStack.push_back(Addr);
  while (!YoungStack.empty()) {
    uint64_t A = YoungStack.back();
    YoungStack.pop_back();
    ObjectHeader *AH = H.header(A);
    H.account(A, sizeof(ObjectHeader), /*IsWrite=*/false);
    uint32_t N = AH->numRefSlots();
    for (uint32_t I = 0; I != N; ++I) {
      H.account(H.refSlotAddr(A, I), heap::RefSlotBytes, /*IsWrite=*/false);
      ObjRef Child = H.rawLoadRef(A, I);
      if (!Child)
        continue;
      ObjectHeader *CH = H.header(Child.addr());
      if (CH->isMarked())
        continue;
      CH->setMarked(true);
      if (H.isOld(Child.addr()))
        IncStack.push_back(Child.addr());
      else
        YoungStack.push_back(Child.addr());
    }
    ++Stats.IncObjectsMarked;
  }
}

void Collector::scanForMark(uint64_t Addr) {
  ObjectHeader *Hdr = H.header(Addr);
  H.account(Addr, sizeof(ObjectHeader), /*IsWrite=*/false);
  uint32_t N = Hdr->numRefSlots();
  for (uint32_t I = 0; I != N; ++I) {
    H.account(H.refSlotAddr(Addr, I), heap::RefSlotBytes, /*IsWrite=*/false);
    ObjRef Child = H.rawLoadRef(Addr, I);
    if (Child)
      incMarkRef(Child.addr());
  }
  ++Stats.IncObjectsMarked;
}

void Collector::startIncrementalCycle(const char *Reason) {
  assert(!IncActive && "incremental cycle already active");
  ++Stats.IncCycles;
  GcEvent Event;
  Event.IncStep = true;
  Event.Reason = Reason;
  Event.StartNs = H.memory().totalTimeNs();
  double Before = H.memory().gcTimeNs();
  H.setInGc(true);
  {
    memsim::ActorScope Scope(H.memory(), memsim::Actor::Gc);
    IncActive = true;
    AllocsSinceStep = 0;
    H.setSatbActive(true);
    H.setAllocBlack(true);
    // Root snapshot. Runs right after a minor GC, so each root's young
    // closure only walks to-space survivors; old roots just turn gray.
    H.forEachRoot([this](ObjRef &R) { incMarkRef(R.addr()); });
  }
  H.setInGc(false);
  Event.DurationNs = H.memory().gcTimeNs() - Before;
  Events.push_back(Event);
  emitTelemetry(Event);
}

void Collector::incrementalMarkStep(const char *Reason) {
  if (!IncActive)
    return;
  GcEvent Event;
  Event.IncStep = true;
  Event.Reason = Reason;
  Event.StartNs = H.memory().totalTimeNs();
  double Before = H.memory().gcTimeNs();
  double BudgetNs = H.config().Tuning.MaxPauseUs * 1000.0;
  H.setInGc(true);
  {
    memsim::ActorScope Scope(H.memory(), memsim::Actor::Gc);
    ++Stats.IncMarkSteps;
    // Mutation log first: its entries may reference young objects whose
    // addresses only stay valid until the next minor GC.
    std::vector<uint64_t> Log;
    Log.swap(H.satbBuffer());
    Stats.IncSatbDrained += Log.size();
    for (uint64_t A : Log)
      incMarkRef(A);
    while (!IncStack.empty() &&
           H.memory().gcTimeNs() - Before < BudgetNs) {
      uint64_t Addr = IncStack.back();
      IncStack.pop_back();
      scanForMark(Addr);
    }
  }
  H.setInGc(false);
  Event.DurationNs = H.memory().gcTimeNs() - Before;
  Events.push_back(Event);
  emitTelemetry(Event);
  // Trace ran dry: the cycle ends with a normal major GC, whose root
  // trace skips the marked snapshot -- the remark is root iteration plus
  // whatever the snapshot never saw, then the compaction.
  if (IncStack.empty() && H.satbBuffer().empty())
    collectMajor("incremental mark complete");
}

void Collector::satbDrainStep() {
  if (H.satbBuffer().empty())
    return;
  GcEvent Event;
  Event.IncStep = true;
  Event.Reason = "satb drain before minor gc";
  Event.StartNs = H.memory().totalTimeNs();
  double Before = H.memory().gcTimeNs();
  H.setInGc(true);
  {
    memsim::ActorScope Scope(H.memory(), memsim::Actor::Gc);
    std::vector<uint64_t> Log;
    Log.swap(H.satbBuffer());
    Stats.IncSatbDrained += Log.size();
    for (uint64_t A : Log)
      incMarkRef(A);
  }
  H.setInGc(false);
  Event.DurationNs = H.memory().gcTimeNs() - Before;
  Events.push_back(Event);
  emitTelemetry(Event);
}

void Collector::finishIncrementalMark() {
  // Remark (stop-the-world, inside collectMajor's mark phase): finish the
  // snapshot trace serially and disarm the cycle. The barriers come off
  // first -- no mutator runs here, and the compaction below must not see
  // allocate-black or SATB state.
  H.setSatbActive(false);
  H.setAllocBlack(false);
  IncActive = false;
  std::vector<uint64_t> Log;
  Log.swap(H.satbBuffer());
  Stats.IncSatbDrained += Log.size();
  for (uint64_t A : Log)
    incMarkRef(A);
  while (!IncStack.empty()) {
    uint64_t Addr = IncStack.back();
    IncStack.pop_back();
    scanForMark(Addr);
  }
}

void Collector::allocationSafepoint() {
  if (!IncActive)
    return;
  if (++AllocsSinceStep < H.config().Tuning.IncStepAllocs)
    return;
  AllocsSinceStep = 0;
  incrementalMarkStep("allocation pacing");
}

bool Collector::incrementalStep() {
  if (!IncActive)
    return false;
  incrementalMarkStep("explicit step");
  return true;
}

void Collector::propagateMigrationTag(uint64_t ArrayAddr, MemTag Target) {
  std::vector<uint64_t> Stack;
  Stack.push_back(ArrayAddr);
  // The migrating array itself is retagged unconditionally; reachable
  // objects only ever gain a tag at least as strong (DRAM > NVM).
  H.header(ArrayAddr)->setMemTag(Target);
  while (!Stack.empty()) {
    uint64_t Addr = Stack.back();
    Stack.pop_back();
    ObjectHeader *Hdr = H.header(Addr);
    uint32_t N = Hdr->numRefSlots();
    for (uint32_t I = 0; I != N; ++I) {
      ObjRef Child = H.rawLoadRef(Addr, I);
      if (!Child)
        continue;
      ObjectHeader *CHdr = H.header(Child.addr());
      MemTag Merged = mergeTags(CHdr->memTag(), Target);
      if (Merged == CHdr->memTag())
        continue; // already at least as strong; subtree settled
      CHdr->setMemTag(Merged);
      Stack.push_back(Child.addr());
    }
  }
}

void Collector::planMigrations() {
  if (!usesDynamicMigration(Policy) || !Monitor || !H.hasSplitOldGen())
    return;
  const heap::GcTuning &T = H.config().Tuning;
  // Collect decisions first; propagation mutates tags which must not feed
  // back into the scan.
  struct Decision {
    uint64_t Addr;
    uint32_t RddId;
    MemTag Target;
  };
  std::vector<Decision> Decisions;
  for (Space *S : H.oldSpaces()) {
    H.walkObjects(S->base(), S->top(), [&](uint64_t Addr) {
      ObjectHeader *Hdr = H.header(Addr);
      // RDD arrays carry the owning RDD id: reference arrays for
      // deserialized caches, primitive arrays for serialized ones.
      if (!Hdr->isMarked() || Hdr->RddId == 0 ||
          Hdr->kind() == ObjectKind::Plain)
        return;
      uint32_t Calls = Monitor->callsInWindow(Hdr->RddId);
      bool InDram = H.oldDram().contains(Addr);
      if (!InDram && Calls >= T.MigrationHotCalls)
        Decisions.push_back({Addr, Hdr->RddId, MemTag::Dram});
      else if (InDram && Calls == 0)
        Decisions.push_back({Addr, Hdr->RddId, MemTag::Nvm});
    });
  }
  // Apply NVM demotions first so DRAM promotions win any shared-object
  // conflict (DRAM > NVM, §4.2.2).
  std::stable_sort(Decisions.begin(), Decisions.end(),
                   [](const Decision &A, const Decision &B) {
                     return A.Target == MemTag::Nvm && B.Target == MemTag::Dram;
                   });
  for (const Decision &D : Decisions) {
    propagateMigrationTag(D.Addr, D.Target);
    MigratedRddIds.insert(D.RddId);
    if (D.Target == MemTag::Dram)
      ++Stats.MigratedRddArraysToDram;
    else
      ++Stats.MigratedRddArraysToNvm;
  }
  Stats.RddsMigrated = MigratedRddIds.size();
}

MemTag Collector::majorTargetTag(uint64_t Addr, bool WasYoung) {
  ObjectHeader *Hdr = H.header(Addr);
  const heap::GcTuning &T = H.config().Tuning;
  if (!H.hasSplitOldGen())
    return MemTag::None;
  if (T.KwWriteMonitoring)
    return Hdr->WriteCount >= T.KwHotWrites ? MemTag::Dram : MemTag::Nvm;
  MemTag Tag = Hdr->memTag();
  if (Tag != MemTag::None)
    return Tag;
  if (WasYoung)
    return MemTag::Nvm; // untagged objects tenure into NVM
  // Untagged old objects stay on their side of the boundary: compaction
  // must not move data across DRAM/NVM (§4.2.2).
  return H.oldDram().contains(Addr) ? MemTag::Dram : MemTag::Nvm;
}

namespace {

/// Bump cursor over one target space during compaction planning.
struct SpacePlan {
  Space *S = nullptr;
  uint64_t Cursor = 0;
  /// (OldAddr, NewAddr, Size) for live objects placed here.
  struct Move {
    uint64_t OldAddr;
    uint64_t NewAddr;
    uint32_t Size;
  };
  std::vector<Move> Moves;
  /// (Addr, Bytes) filler runs recreated for card padding.
  std::vector<std::pair<uint64_t, uint64_t>> Fillers;

  bool fits(uint64_t Bytes) const {
    return S && Cursor + Bytes <= S->end();
  }
};

} // namespace

void Collector::compactHeap() {
  const heap::GcTuning &T = H.config().Tuning;
  SpacePlan DramPlan, NvmPlan;
  if (H.hasSplitOldGen()) {
    DramPlan.S = &H.oldDram();
    DramPlan.Cursor = H.oldDram().base();
  }
  NvmPlan.S = &H.oldNvm();
  NvmPlan.Cursor = H.oldNvm().base();

  auto PlanFor = [&](MemTag Tag) -> std::pair<SpacePlan *, SpacePlan *> {
    if (!H.hasSplitOldGen())
      return {&NvmPlan, nullptr};
    if (Tag == MemTag::Dram)
      return {&DramPlan, &NvmPlan};
    return {&NvmPlan, DramPlan.S && DramPlan.S->sizeBytes() ? &DramPlan
                                                            : nullptr};
  };

  // Raised while the compaction is still a pure plan (no bytes moved);
  // the handler unwinds the plan's header scribbles and reports OOM.
  struct CompactionOverflow {};
  auto Place = [&](uint64_t Addr, bool WasYoung) {
    ObjectHeader *Hdr = H.header(Addr);
    if (!Hdr->isMarked())
      return;
    uint32_t Size = Hdr->SizeBytes;
    MemTag Tag = majorTargetTag(Addr, WasYoung);
    auto [Primary, Fallback] = PlanFor(Tag);
    SpacePlan *Target = Primary->fits(Size)
                            ? Primary
                            : (Fallback && Fallback->fits(Size) ? Fallback
                                                                : nullptr);
    if (!Target)
      throw CompactionOverflow();
    uint64_t NewAddr = Target->Cursor;
    Target->Cursor += Size;
    Target->Moves.push_back({Addr, NewAddr, Size});
    Hdr->Forward = NewAddr;
    // Re-establish card padding behind large reference arrays (§4.2.3).
    bool IsRddArray = Hdr->kind() == ObjectKind::RefArray &&
                      Size >= CardTable::CardBytes;
    if (IsRddArray && T.CardPadding) {
      uint64_t Misalign = Target->Cursor % CardTable::CardBytes;
      if (Misalign != 0) {
        uint64_t Gap = CardTable::CardBytes - Misalign;
        if (Gap < sizeof(ObjectHeader))
          Gap += CardTable::CardBytes;
        if (Target->Cursor + Gap <= Target->S->end()) {
          Target->Fillers.push_back({Target->Cursor, Gap});
          Target->Cursor += Gap;
        }
      }
    }
  };

  // Place old-generation objects first (their spaces are the compaction
  // targets), then promote every live young object.
  try {
    for (Space *S : H.oldSpaces())
      H.walkObjects(S->base(), S->top(),
                    [&](uint64_t A) { Place(A, /*WasYoung=*/false); });
    for (Space *S : {&H.eden(), &H.fromSpace(), &H.toSpace()})
      H.walkObjects(S->base(), S->top(),
                    [&](uint64_t A) { Place(A, /*WasYoung=*/true); });
  } catch (const CompactionOverflow &) {
    // The live set does not fit even perfectly compacted. Nothing has
    // been copied yet; scrub the mark bits and forward pointers the plan
    // left behind so the heap is exactly as it was, then let the
    // allocation path surface a typed error.
    auto Scrub = [&](uint64_t A) {
      ObjectHeader *Hdr = H.header(A);
      Hdr->setMarked(false);
      Hdr->Forward = 0;
    };
    for (Space *S : H.oldSpaces())
      H.walkObjects(S->base(), S->top(), Scrub);
    for (Space *S : {&H.eden(), &H.fromSpace(), &H.toSpace()})
      H.walkObjects(S->base(), S->top(), Scrub);
    throw OutOfMemoryError(
        "heap exhausted: live data exceeds the old generation even after "
        "full compaction");
  }

  // Update every reference (roots + live objects) to the forward address.
  H.forEachRoot([this](ObjRef &R) {
    ObjectHeader *Hdr = H.header(R.addr());
    assert(Hdr->isMarked() && "root points to unmarked object");
    R = ObjRef(Hdr->Forward);
  });
  auto UpdateRefs = [&](uint64_t Addr) {
    ObjectHeader *Hdr = H.header(Addr);
    if (!Hdr->isMarked())
      return;
    uint32_t N = Hdr->numRefSlots();
    for (uint32_t I = 0; I != N; ++I) {
      ObjRef Child = H.rawLoadRef(Addr, I);
      if (!Child)
        continue;
      ObjectHeader *CHdr = H.header(Child.addr());
      assert(CHdr->isMarked() && "live object references dead object");
      H.rawStoreRef(Addr, I, ObjRef(CHdr->Forward));
    }
  };
  for (Space *S : H.oldSpaces())
    H.walkObjects(S->base(), S->top(), UpdateRefs);
  for (Space *S : {&H.eden(), &H.fromSpace(), &H.toSpace()})
    H.walkObjects(S->base(), S->top(), UpdateRefs);

  // Copy through staging images. Migration makes sources and targets
  // overlap across spaces (a DRAM-resident object may move to NVM while a
  // hot NVM object moves the other way), so *every* staging image must be
  // built from the originals before any space is overwritten.
  CardTable &Cards = H.cardTable();
  std::vector<uint8_t> StagingImages[2];
  SpacePlan *Plans[2] = {&DramPlan, &NvmPlan};
  for (unsigned PI = 0; PI != 2; ++PI) {
    SpacePlan *Plan = Plans[PI];
    if (!Plan->S || Plan->S->sizeBytes() == 0)
      continue;
    Space *S = Plan->S;
    std::vector<uint8_t> &Staging = StagingImages[PI];
    Staging.assign(static_cast<size_t>(Plan->Cursor - S->base()), 0);
    for (const SpacePlan::Move &M : Plan->Moves) {
      H.account(M.OldAddr, M.Size, /*IsWrite=*/false);
      H.account(M.NewAddr, M.Size, /*IsWrite=*/true);
      std::memcpy(&Staging[M.NewAddr - S->base()], H.rawBytes(M.OldAddr),
                  M.Size);
      ObjectHeader *NewHdr =
          reinterpret_cast<ObjectHeader *>(&Staging[M.NewAddr - S->base()]);
      NewHdr->Forward = 0;
      NewHdr->setMarked(false);
      NewHdr->Age = T.TenureAge; // everything here is tenured now
      NewHdr->WriteCount = 0;    // KW monitoring window resets
    }
    for (auto [Addr, Bytes] : Plan->Fillers) {
      ObjectHeader *F =
          reinterpret_cast<ObjectHeader *>(&Staging[Addr - S->base()]);
      F->SizeBytes = static_cast<uint32_t>(Bytes);
      F->Kind = static_cast<uint8_t>(ObjectKind::PrimArray);
      F->Aux = 1;
      F->Length = static_cast<uint32_t>(Bytes - sizeof(ObjectHeader));
    }
  }
  for (unsigned PI = 0; PI != 2; ++PI) {
    SpacePlan *Plan = Plans[PI];
    if (!Plan->S)
      continue;
    Space *S = Plan->S;
    Cards.clearRange(S->base(), S->end());
    if (S->sizeBytes() == 0)
      continue;
    std::vector<uint8_t> &Staging = StagingImages[PI];
    if (!Staging.empty())
      std::memcpy(H.rawBytes(S->base()), Staging.data(), Staging.size());
    S->reset();
    S->setTop(Plan->Cursor);
    for (const SpacePlan::Move &M : Plan->Moves)
      Cards.noteObjectStart(M.NewAddr);
    for (auto [Addr, Bytes] : Plan->Fillers) {
      (void)Bytes;
      Cards.noteObjectStart(Addr);
    }
  }

  // The young generation is empty after a full GC.
  uint64_t YoungLo =
      std::min({H.eden().base(), H.fromSpace().base(), H.toSpace().base()});
  uint64_t YoungHi =
      std::max({H.eden().end(), H.fromSpace().end(), H.toSpace().end()});
  Cards.clearRange(YoungLo, YoungHi);
  H.eden().reset();
  H.fromSpace().reset();
  H.toSpace().reset();
}

void Collector::collectMajor(const char *Reason) {
  assert(!H.inGc() && "re-entrant collection");
  // Drop any between-GC remaps before compaction: the major GC re-places
  // every object by its static tag, so costs are charged against the
  // canonical mapping. The restore itself is free (the compaction copy is
  // what's paid for); it also clears the tracker's heat window.
  if (Migration)
    Migration->resetToCanonical();
  H.setInGc(true);
  GcEvent Event;
  Event.Major = true;
  Event.Reason = Reason;
  Event.StartNs = H.memory().totalTimeNs();
  double GcNsBefore = H.memory().gcTimeNs();
  uint64_t MigratedBefore =
      Stats.MigratedRddArraysToDram + Stats.MigratedRddArraysToNvm;
  {
    memsim::ActorScope Scope(H.memory(), memsim::Actor::Gc);
    ++Stats.MajorGcs;
    double PhaseStart = H.memory().gcTimeNs();
    if (IncActive)
      finishIncrementalMark();
    markParallelFromRoots();
    Event.MarkNs = H.memory().gcTimeNs() - PhaseStart;
    planMigrations();
    PhaseStart = H.memory().gcTimeNs();
    try {
      compactHeap();
    } catch (...) {
      // Compaction overflow: the plan was unwound with the heap intact;
      // drop the in-GC flag so the caller can still run cleanup code.
      H.setInGc(false);
      throw;
    }
    Event.CompactNs = H.memory().gcTimeNs() - PhaseStart;
    if (Monitor)
      Monitor->resetWindow(); // §4.2.2: frequencies reset per major GC
    MinorsAtLastMajor = Stats.MinorGcs;
  }
  H.setInGc(false);
  Event.DurationNs = H.memory().gcTimeNs() - GcNsBefore;
  Event.RddArraysMigrated = Stats.MigratedRddArraysToDram +
                            Stats.MigratedRddArraysToNvm - MigratedBefore;
  Events.push_back(Event);
  emitTelemetry(Event);
  if (H.config().Tuning.VerifyHeap) {
    VerifyResult V = verifyHeap(H);
    if (!V.Ok) {
      std::fprintf(stderr, "verify after major gc #%llu: %s\n",
                   static_cast<unsigned long long>(Stats.MajorGcs),
                   V.FirstProblem.c_str());
      std::abort();
    }
  }
}
