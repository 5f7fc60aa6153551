//===- core/Runtime.h - The Panthera runtime facade -------------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level facade a user (and every benchmark) interacts with: a
/// Runtime assembles the hybrid-memory simulator, the managed heap, the
/// Panthera collector, the access monitor, and the Spark-like engine for a
/// chosen policy/heap/DRAM-ratio configuration; runs the §3 static analysis
/// on a driver program; and reports simulated time, device traffic, and
/// energy for the run.
///
/// Typical use:
/// \code
///   core::RuntimeConfig Config;
///   Config.Policy = gc::PolicyKind::Panthera;
///   core::Runtime RT(Config);
///   RT.analyzeAndInstall(PageRankDsl);
///   ... build RDDs through RT.ctx(), run actions ...
///   core::RunReport Report = RT.report();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_CORE_RUNTIME_H
#define PANTHERA_CORE_RUNTIME_H

#include "analysis/TagInference.h"
#include "cluster/Cluster.h"
#include "gc/Collector.h"
#include "offheap/OffHeapCache.h"
#include "gc/GcPolicy.h"
#include "memsim/HotnessTracker.h"
#include "memsim/HybridMemory.h"
#include "memsim/Migration.h"
#include "rdd/Rdd.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"
#include "support/TraceLog.h"

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace panthera {
namespace core {

/// Everything needed to stand up one experiment configuration.
struct RuntimeConfig {
  gc::PolicyKind Policy = gc::PolicyKind::Panthera;
  /// Heap size in paper gigabytes (64 and 120 in the evaluation).
  unsigned HeapPaperGB = 64;
  /// DRAM : total memory (the paper's 1/4 and 1/3; ignored for DRAM-only).
  double DramRatio = 1.0 / 3.0;
  /// Nursery fraction of the heap (§5.2 settles on 1/6).
  double NurseryFraction = 1.0 / 6.0;
  rdd::EngineConfig Engine;
  memsim::MemoryTechnology Technology;
  memsim::CacheConfig Cache;
  memsim::EnergyParams Energy;
  /// Fig 8 bandwidth-trace bucket, in simulated nanoseconds.
  double EpochNs = 100.0e3;
  /// GC tuning overrides (ablations flip these).
  bool EagerPromotion = true;
  bool CardPadding = true;
  /// Debugging: verify the heap after every collection.
  bool VerifyHeap = false;
  /// Off-heap serialized cache tier budget (--offheap-mb), in paper MB,
  /// carved out of the native region by the first OFF_HEAP persist
  /// (docs/offheap.md). The default claims the whole default native
  /// region; partitions beyond the budget spill to executor disk, so 0
  /// spills every OFF_HEAP partition.
  unsigned OffHeapMB = 16384;
  /// Deterministic fault-injection plan (all sites disabled by default).
  FaultPlan Faults;
  /// Verify the heap after every recovery path: emergency GC, pressure
  /// eviction, task retry. Tests default this on.
  bool VerifyHeapAfterRecovery = false;
  /// Ignored: the runtime starts no threads, and the collector runs
  /// serially. Kept only because bench/ledger/e2e_ledger.cpp still sets it;
  /// delete the two together.
  unsigned NumThreads = 0;
  /// Cluster simulation knobs (docs/cluster.md). NumExecutors == 1 (the
  /// default) constructs no cluster at all: the engine runs the seed
  /// single-heap path byte-identically. With N > 1, each executor carves
  /// HeapPaperGB/N of heap and 1/N of the native region, tasks
  /// place by locality, and remote shuffle fetches ride the fabric.
  cluster::ClusterOptions Cluster;
  /// Online hotness profiling + between-GC migration; consulted only when
  /// Policy == PantheraDynamic (docs/memsim.md). Sampling stride in
  /// accounted cache lines (--hotness-sample); 0 disables the profiler
  /// and the engine entirely, making the dynamic policy byte-identical to
  /// static Panthera.
  uint64_t HotnessSampleEvery = 64;
  /// Samples-per-page density at which a region counts as migration-hot
  /// (--migrate-threshold).
  double MigrateHotThreshold = 2.0;
  /// Incremental old-generation marking pause budget in microseconds
  /// (--max-pause-us, docs/gc_pause.md). 0 (the default) keeps the
  /// stop-the-world collector byte-identical, including the metrics-JSON
  /// key set.
  uint32_t MaxPauseUs = 0;
  /// Allocations between incremental mark steps (--inc-step-allocs):
  /// smaller paces the cycle harder, finishing the trace sooner at the
  /// cost of more (still budget-bounded) pauses. Ignored at MaxPauseUs=0.
  uint32_t IncStepAllocs = 64;
};

/// Summary of one finished run.
struct RunReport {
  double MutatorNs = 0.0;
  double GcNs = 0.0;
  double TotalNs = 0.0;
  memsim::TrafficCounters DramTraffic;
  memsim::TrafficCounters NvmTraffic;
  memsim::EnergyBreakdown Energy;
  double TotalJoules = 0.0;
  double DramGB = 0.0; ///< Provisioned DRAM (paper GB) used for energy.
  double NvmGB = 0.0;
  gc::GcStats Gc;
  rdd::EngineStats Engine;
  uint64_t MonitoredCalls = 0;
  /// Per-task attempt ledger (stage, partition, attempts, outcome).
  TaskLedger Tasks;
};

/// Assembles and owns one full system instance.
class Runtime {
public:
  explicit Runtime(const RuntimeConfig &Config);

  const RuntimeConfig &config() const { return Config; }
  memsim::HybridMemory &memory() { return *Mem; }
  heap::Heap &heap() { return *TheHeap; }
  gc::Collector &collector() { return *TheCollector; }
  gc::AccessMonitor &monitor() { return Monitor; }
  rdd::SparkContext &ctx() { return *Context; }
  /// Nonnull only when Config.Faults enables at least one site.
  FaultInjector *faults() { return Injector.get(); }
  /// Nonnull only under --policy=dynamic with a nonzero sampling stride.
  memsim::HotnessTracker *hotnessTracker() { return Hot.get(); }
  memsim::MigrationEngine *migrationEngine() { return Migration.get(); }
  /// Nonnull only when Config.Cluster.NumExecutors > 1.
  cluster::Cluster *clusterSim() { return TheCluster.get(); }
  /// Nonnull once an OFF_HEAP persist has materialized.
  offheap::OffHeapCache *offHeapCache() { return Context->offHeapCache(); }

  /// Parses \p DslSource, runs the §3 inference (plus any enabled
  /// extensions), and installs the result on the engine (only Panthera
  /// consumes the tags). Aborts on parse errors -- driver programs ship
  /// with the workloads and must be valid.
  const analysis::AnalysisResult &analyzeAndInstall(
      std::string_view DslSource,
      const analysis::AnalysisOptions &Options = {});

  const analysis::AnalysisResult &analysis() const { return Tags; }

  /// Snapshot of simulated time / traffic / energy / GC counters.
  RunReport report() const;

  //===--------------------------------------------------------------------===
  // Observability (docs/observability.md)
  //===--------------------------------------------------------------------===

  /// The process-wide metrics registry. Live instrumentation (GC pause
  /// histograms, occupancy gauges, bandwidth series) lands here as the run
  /// progresses; scalar totals are synced by publishMetrics().
  support::MetricsRegistry &metrics() { return Metrics; }
  const support::MetricsRegistry &metrics() const { return Metrics; }

  /// The simulated-clock span/event trace (chrome://tracing exportable).
  support::TraceLog &trace() { return Trace; }
  const support::TraceLog &trace() const { return Trace; }

  /// Syncs every scalar counter/gauge (time.*, energy.*, gc.*, engine.*,
  /// heap.*, memsim.* totals) from the authoritative stats structs into
  /// the registry. Idempotent -- call any time, typically once after the
  /// workload finishes and before exporting.
  void publishMetrics();

  /// publishMetrics() + flat-JSON serialization of the registry.
  std::string metricsJson();
  void writeMetricsJson(std::FILE *F);

  /// chrome://tracing JSON serialization of the trace log.
  std::string traceJson() const { return Trace.toJson(); }
  void writeTraceJson(std::FILE *F) const { Trace.writeJson(F); }

private:
  RuntimeConfig Config;
  /// Declared before Mem/TheHeap/...: the subsystems hold pointers into
  /// these for live instrumentation, so they must outlive them.
  support::MetricsRegistry Metrics;
  support::TraceLog Trace;
  std::unique_ptr<memsim::HybridMemory> Mem;
  std::unique_ptr<heap::Heap> TheHeap;
  gc::AccessMonitor Monitor;
  std::unique_ptr<gc::Collector> TheCollector;
  std::unique_ptr<rdd::SparkContext> Context;
  std::unique_ptr<cluster::Cluster> TheCluster;
  std::unique_ptr<FaultInjector> Injector;
  /// Online profiler + migration engine; non-null only for the dynamic
  /// policy with sampling on. Profiling covers the driver heap: executor
  /// heaps (cluster runs) never collect, so their placement is static and
  /// checksums stay invariant across --executors counts.
  std::unique_ptr<memsim::HotnessTracker> Hot;
  std::unique_ptr<memsim::MigrationEngine> Migration;
  analysis::AnalysisResult Tags;
};

} // namespace core
} // namespace panthera

#endif // PANTHERA_CORE_RUNTIME_H
