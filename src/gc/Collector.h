//===- gc/Collector.h - Panthera generational collector ---------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Panthera garbage collector (§4): a generational collector modeled on
/// OpenJDK's Parallel Scavenge, extended with
///
///   * tag-propagating minor GC: tracing from a tagged object stamps its
///     MEMORY_BITS onto reachable young objects, which are then *eagerly
///     promoted* into the matching old-generation component (§4.2.2);
///   * DRAM-to-young and NVM-to-young card-scan tasks replacing the single
///     old-to-young task (§4.2.2);
///   * a major GC whose compaction never crosses the DRAM/NVM boundary and
///     which migrates RDD arrays (plus everything reachable from them)
///     between the components according to their monitored call frequency;
///   * the card-sharing pathology of §4.2.3: a dirty card overlapped by two
///     or more large arrays forces a full rescan of every element of each
///     such array at every minor GC and can never be cleaned until a major
///     GC -- unless card padding removed the sharing at allocation time.
///
/// The same collector also implements the baseline policies: with no tags
/// and a unified old generation it behaves exactly like stock Parallel
/// Scavenge (the Unmanaged/KN baselines); with write monitoring enabled it
/// implements Kingsguard-Writes' placement rule.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_GC_COLLECTOR_H
#define PANTHERA_GC_COLLECTOR_H

#include "gc/AccessMonitor.h"
#include "gc/GcPolicy.h"
#include "heap/Heap.h"

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace panthera {
namespace memsim {
class MigrationEngine;
} // namespace memsim
namespace support {
class MetricsRegistry;
class TraceLog;
} // namespace support
namespace gc {

/// One collection's record, in the spirit of a JVM GC log line, with the
/// per-phase breakdown named after Parallel Scavenge's tasks (§4.2.2).
struct GcEvent {
  bool Major = false;
  /// True for incremental-marking step events (cycle start, paced mark
  /// steps, SATB drains): bounded pauses interleaved with the mutator,
  /// not full collections (docs/gc_pause.md).
  bool IncStep = false;
  const char *Reason = "";
  double StartNs = 0.0;    ///< Simulated time the collection began.
  double DurationNs = 0.0; ///< Simulated GC time it consumed.
  uint64_t BytesPromoted = 0;
  uint64_t BytesCopiedToSurvivor = 0;
  uint64_t CardsScanned = 0;
  uint64_t RddArraysMigrated = 0;

  // Minor-GC phases.
  double DramToYoungTaskNs = 0.0; ///< Dirty-card scan of old-gen DRAM.
  double NvmToYoungTaskNs = 0.0;  ///< Dirty-card scan of old-gen NVM.
  double DrainNs = 0.0;           ///< Copy/trace worklist draining.
  // Major-GC phases.
  double MarkNs = 0.0;
  double CompactNs = 0.0;
};

/// Collector counters used by tests and the Fig 5 / Table 5 harnesses.
struct GcStats {
  uint64_t MinorGcs = 0;
  uint64_t MajorGcs = 0;
  uint64_t BytesCopiedToSurvivor = 0;
  uint64_t BytesPromoted = 0;
  uint64_t EagerPromotions = 0;
  uint64_t CardsScanned = 0;
  uint64_t CardsCleaned = 0;
  /// Dirty cards shared by >=2 large arrays (the §4.2.3 pathology): each
  /// occurrence forces full-array rescans.
  uint64_t SharedArrayCardScans = 0;
  uint64_t MigratedRddArraysToDram = 0;
  uint64_t MigratedRddArraysToNvm = 0;
  /// Distinct RDDs that dynamic migration moved (Table 5, col 3).
  uint64_t RddsMigrated = 0;
  // Incremental marking (--max-pause-us, docs/gc_pause.md).
  uint64_t IncCycles = 0;        ///< Incremental cycles started.
  uint64_t IncMarkSteps = 0;     ///< Bounded mark steps run.
  uint64_t IncSatbDrained = 0;   ///< SATB log entries drained.
  uint64_t IncObjectsMarked = 0; ///< Objects scanned incrementally.
};

/// The generational collector. One instance per Heap.
class Collector : public heap::GcHost {
public:
  /// Collections run serially on the calling thread; the GC actor's
  /// memory-level parallelism models the paper's GC threads (DESIGN.md,
  /// "Why the collector is serial").
  Collector(heap::Heap &H, PolicyKind Policy, AccessMonitor *Monitor);
  ~Collector() override;

  void collectMinor(const char *Reason) override;
  void collectMajor(const char *Reason) override;
  /// Pacing hook: with Tuning.MaxPauseUs > 0 and an active incremental
  /// cycle, runs one bounded mark step every Tuning.IncStepAllocs
  /// allocations. A no-op otherwise (the stop-the-world configuration is
  /// byte-identical to a build without the hook).
  void allocationSafepoint() override;

  /// True while an incremental marking cycle is in flight.
  bool incrementalCycleActive() const { return IncActive; }

  /// Runs one bounded mark step now if a cycle is active; the fuzz
  /// harness and tests interleave steps explicitly through this instead
  /// of relying on allocation pacing. Returns whether a step ran.
  bool incrementalStep();

  const GcStats &stats() const { return Stats; }
  PolicyKind policy() const { return Policy; }

  /// Installs the observability sinks (docs/observability.md). After every
  /// collection the collector publishes pause/phase histograms and
  /// per-space occupancy gauges into \p M and a minor/major span with
  /// per-phase sub-spans into \p T, stamped with the simulated clock.
  /// Either may be null. Scalar totals (gc.* counters) are synced from
  /// GcStats by Runtime::publishMetrics instead, so nothing here double
  /// counts.
  void setTelemetry(support::MetricsRegistry *M, support::TraceLog *T) {
    Metrics = M;
    TraceSink = T;
  }

  /// Installs the between-GC page-migration engine (--policy=dynamic,
  /// docs/memsim.md). When set, every minor GC that did not escalate to a
  /// major ends with one bounded hot/cold swap step, and every major GC
  /// starts by restoring the canonical static mapping. Null (the default)
  /// leaves all policies byte-identical to a build without the engine.
  void setMigrationEngine(memsim::MigrationEngine *M) { Migration = M; }

  /// Instance ids of RDDs dynamic migration has moved; Table 5 reports
  /// these mapped back to driver variables.
  const std::unordered_set<uint32_t> &migratedRddIds() const {
    return MigratedRddIds;
  }

  /// Per-collection event log (every minor and major GC, in order).
  const std::vector<GcEvent> &eventLog() const { return Events; }

private:
  //===--- minor GC -------------------------------------------------------===
  bool scavengeHeadroomOk() const;
  void maybeTriggerMajor();

  /// The scavenge (discover / plan / copy / fixup phases). Fills the
  /// Event phase fields.
  void scavenge(GcEvent &Event);

  //===--- major GC -------------------------------------------------------===
  /// Stop-the-world mark: sets the mark bit of everything reachable from
  /// the roots and charges the traversal as one bulk tally.
  void markFromRoots();
  /// Publishes one finished collection's telemetry (histograms, occupancy
  /// gauges, trace spans). Runs at the Events.push_back point.
  void emitTelemetry(const GcEvent &Event);
  void planMigrations();
  void propagateMigrationTag(uint64_t ArrayAddr, MemTag Target);
  MemTag majorTargetTag(uint64_t Addr, bool WasYoung);
  void compactHeap();

  //===--- incremental marking (docs/gc_pause.md) -------------------------===
  /// Starts a cycle: snapshots the roots, arms the heap's SATB and
  /// allocate-black hooks. Recorded as its own step event.
  void startIncrementalCycle(const char *Reason);
  /// One bounded mark step: drains the SATB log, then scans gray old
  /// objects until Tuning.MaxPauseUs of simulated GC time has elapsed.
  /// Triggers the final stop-the-world remark + compaction when both the
  /// gray stack and the SATB log are empty.
  void incrementalMarkStep(const char *Reason);
  /// Unbounded SATB drain at minor-GC entry: logged young addresses must
  /// be traced before evacuation invalidates them.
  void satbDrainStep();
  /// Remark entry: finishes the snapshot trace serially and disarms the
  /// cycle; runs at the top of collectMajor's mark phase.
  void finishIncrementalMark();
  /// Marks \p Addr gray. Old objects go on the gray stack; young objects
  /// are closed over immediately (their addresses do not survive minor
  /// GCs), pushing only their old children.
  void incMarkRef(uint64_t Addr);
  /// Scans one marked object's slots, charging like the stop-the-world
  /// mark: one header read plus one read per reference slot.
  void scanForMark(uint64_t Addr);

  heap::Heap &H;
  PolicyKind Policy;
  AccessMonitor *Monitor;
  support::MetricsRegistry *Metrics = nullptr;
  support::TraceLog *TraceSink = nullptr;
  memsim::MigrationEngine *Migration = nullptr;
  GcStats Stats;
  std::unordered_set<uint32_t> MigratedRddIds;
  /// Minor-GC count at the last major GC (re-trigger guard).
  uint64_t MinorsAtLastMajor = 0;
  std::vector<GcEvent> Events;
  // Incremental-cycle state. The gray stack holds only old-generation
  // addresses (stable across minor GCs).
  bool IncActive = false;
  std::vector<uint64_t> IncStack;
  uint64_t AllocsSinceStep = 0;
};

} // namespace gc
} // namespace panthera

#endif // PANTHERA_GC_COLLECTOR_H
