//===- rdd/Rdd.h - RDD lineage graph and the driver-facing API --*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Spark-like data-parallel engine: lazy RDD lineage nodes, the typed
/// driver-facing Rdd handle (map/filter/flatMap/mapValues/groupByKey/
/// reduceByKey/distinct/join/union + persist and actions), and the
/// SparkContext that schedules execution.
///
/// Execution model (mirroring §2):
///  * Narrow transformations stream: each record is a short-lived tuple
///    object allocated in the young generation and passed through the
///    function chain (the paper's "intermediate RDDs die young").
///  * Wide transformations cut stages: the map side streams parent
///    partitions into hash-partitioned native shuffle buckets ("disk");
///    the reduce side materializes a ShuffledRDD -- real heap arrays of
///    tuples -- as the next stage's input.
///  * persist() materializes a variable's partitions in the heap and roots
///    them; the §3 static tag is applied through the rdd_alloc pathway at
///    each partition-array allocation (§4.2.1).
///  * Memory tags propagate backward through the lineage when stages are
///    scheduled: an untagged ShuffledRDD inherits the tag of the closest
///    downstream tagged RDD, DRAM winning conflicts (§3).
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_RDD_RDD_H
#define PANTHERA_RDD_RDD_H

#include "analysis/TagInference.h"
#include "gc/AccessMonitor.h"
#include "heap/Heap.h"
#include "rdd/StorageLevel.h"
#include "rdd/Tuple.h"
#include "support/Errors.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace panthera {

namespace support {
class MetricsRegistry;
class TraceLog;
} // namespace support

namespace cluster {
class Cluster;
} // namespace cluster

namespace offheap {
class OffHeapCache;
} // namespace offheap

namespace rdd {

/// Operator of a lineage node.
enum class OpKind : uint8_t {
  Source,
  Map,
  Filter,
  FlatMap,
  MapValues,
  Union,
  GroupByKey,
  ReduceByKey,
  Distinct,
  Join,
  Repartition, ///< Implicit hash-repartition inserted before joins whose
               ///< left input is not hash-partitioned.
  SortByKey,   ///< Range-partitioned total sort (sampled splitters).
};

/// How a node's output records are distributed across partitions.
enum class Partitioning : uint8_t {
  None, ///< Arbitrary (source splits, key-changing maps).
  Hash, ///< Hash of the key mod partitions (shuffle outputs).
  Range ///< Sorted, range-partitioned (sortByKey outputs).
};

/// True for operators that introduce a wide (shuffle) dependency. Join is
/// narrow here: both inputs are key-partitioned (the engine inserts an
/// implicit Repartition otherwise), which is exactly Spark's co-partitioned
/// join optimization.
inline bool isWideOp(OpKind K) {
  return K == OpKind::GroupByKey || K == OpKind::ReduceByKey ||
         K == OpKind::Distinct || K == OpKind::Repartition ||
         K == OpKind::SortByKey;
}

const char *opKindName(OpKind K);

/// One record of source ("text file") data.
struct SourceRecord {
  int64_t Key;
  double Val;
};

/// Per-partition source data, generated natively by the workloads.
using SourceData = std::vector<std::vector<SourceRecord>>;

/// Receives streamed tuples.
using TupleSink = std::function<void(heap::ObjRef)>;

/// User functions. They receive heap tuples; any tuple held across an
/// allocation must be protected with heap::GcRoot (see rdd/Tuple.h).
using MapFn = std::function<heap::ObjRef(RddContext &, heap::ObjRef)>;
using FilterFn = std::function<bool(RddContext &, heap::ObjRef)>;
using FlatMapFn =
    std::function<void(RddContext &, heap::ObjRef, const TupleSink &)>;
using ValueFn = std::function<double(double)>;
/// mapValuesWithKey's function: receives (key, value), returns new value.
using ValueKeyFn = std::function<double(int64_t, double)>;
using CombineFn = std::function<double(double, double)>;
/// Join combiner: left tuple (with payload) plus the matching right-side
/// value (shuffles carry (int64, double) records).
using JoinFn =
    std::function<heap::ObjRef(RddContext &, heap::ObjRef, double)>;

class SparkContext;

/// A lineage node. Driver code uses the Rdd handle below instead.
struct RddNode {
  uint32_t Id = 0;
  std::string VarName; ///< Driver variable name; "" for intermediates.
  OpKind Op = OpKind::Source;
  std::vector<std::shared_ptr<RddNode>> Parents;

  MapFn Map;
  FilterFn Filter;
  FlatMapFn FlatMap;
  ValueFn MapValue;
  ValueKeyFn MapValueKey;
  CombineFn Combine;
  JoinFn Join;
  const SourceData *Source = nullptr;

  bool PersistRequested = false;
  StorageLevel Level = StorageLevel::MemoryOnly;
  /// Tag from the §3 static analysis (applied at persist/action sites).
  MemTag StaticTag = MemTag::None;
  /// Tag after lineage back-propagation (set during scheduling).
  MemTag EffectiveTag = MemTag::None;

  /// How this node's output is partitioned by key.
  Partitioning PartitionedBy = Partitioning::None;

  // Materialization state.
  bool Materialized = false;
  /// True when partitions are stored serialized: one primitive array of
  /// (key, value-bits) pairs per partition instead of tuple object graphs
  /// (the _SER storage levels). GC-cheap; reads pay deserialization.
  bool SerializedInMemory = false;
  /// True when partitions live in the off-heap region tier behind
  /// GC-leaf stub objects (OFF_HEAP). The top/dir structure holds one
  /// OffHeapStub per partition; a stub whose native address is
  /// offheap::NoAddress was spilled to DiskParts.
  bool OffHeapStubs = false;
  size_t TopRootId = SIZE_MAX; ///< Persistent root of the top object.
  /// LRU clock for storage eviction (bumped on every materialized read).
  uint64_t LastUse = 0;
  /// DISK_ONLY rows, evicted MEMORY_AND_DISK rows, and spilled OFF_HEAP
  /// partitions.
  std::vector<std::vector<SourceRecord>> DiskParts;
};

using RddRef = std::shared_ptr<RddNode>;

/// Driver-facing RDD handle: a thin typed wrapper over a lineage node.
class Rdd {
public:
  Rdd() = default;
  Rdd(SparkContext *Ctx, RddRef Node) : Ctx(Ctx), Node(std::move(Node)) {}

  bool valid() const { return Node != nullptr; }
  RddRef node() const { return Node; }
  SparkContext *context() const { return Ctx; }
  uint32_t id() const { return Node->Id; }
  const std::string &varName() const { return Node->VarName; }

  //===--- transformations (lazy) -----------------------------------------===
  Rdd map(MapFn Fn) const;
  Rdd filter(FilterFn Fn) const;
  Rdd flatMap(FlatMapFn Fn) const;
  Rdd mapValues(ValueFn Fn) const;
  /// Like mapValues but the function also sees the key. Keys are unchanged
  /// so partitioning is preserved.
  Rdd mapValuesWithKey(ValueKeyFn Fn) const;
  Rdd groupByKey() const;
  Rdd reduceByKey(CombineFn Fn) const;
  Rdd distinct() const;
  /// Globally sorts by key via sampled range partitioning (TeraSort-style
  /// total order: partition i's keys all precede partition i+1's).
  Rdd sortByKey() const;
  /// Keeps each record with probability \p Fraction (deterministic per
  /// key and \p Seed); a narrow Bernoulli sample.
  Rdd sample(double Fraction, uint64_t Seed) const;
  /// Joins this RDD (left, payloads preserved) with \p Right's values.
  Rdd join(const Rdd &Right, JoinFn Fn) const;
  Rdd unionWith(const Rdd &Other) const;

  //===--- persistence ----------------------------------------------------===
  /// Names this RDD after driver variable \p Var (the analysis key) and
  /// requests persistence at \p Level.
  Rdd persistAs(const std::string &Var, StorageLevel Level) const;
  /// Names the RDD without persisting (action-materialized variables).
  Rdd named(const std::string &Var) const;
  void unpersist() const;
  /// Eagerly writes this RDD to reliable storage ("disk") and truncates
  /// its lineage: later reads deserialize the checkpoint instead of
  /// recomputing upstream stages (Spark's RDD.checkpoint()).
  void checkpoint() const;

  //===--- actions (eager) ------------------------------------------------===
  int64_t count() const;
  double reduce(CombineFn Fn) const;
  /// Collects (key, value) pairs; payload refs are not collected.
  std::vector<SourceRecord> collect() const;

private:
  SparkContext *Ctx = nullptr;
  RddRef Node;
};

/// Engine configuration.
struct EngineConfig {
  uint32_t NumPartitions = 4;
  /// Whether §3 static tags flow into rdd_alloc (Panthera policy only).
  bool UseStaticTags = true;
  /// CPU nanoseconds charged per record per operator application.
  double PerRecordCpuNs = 20.0;
  /// CPU nanoseconds per record of shuffle serialization ("disk" I/O).
  double ShuffleRecordCpuNs = 15.0;
  /// Records a map-side shuffle buffer holds before spilling to "disk"
  /// (Spark's ExternalSorter spill threshold, scaled).
  uint32_t ShuffleSpillRecords = 16384;
  /// CPU nanoseconds per record read back from or written to "disk"
  /// (eviction and DISK_ONLY I/O; the device itself is unaccounted).
  double DiskRecordCpuNs = 60.0;
  /// Old-generation occupancy at which MEMORY_AND_DISK blocks evict.
  double EvictionOccupancy = 0.80;
  /// Total attempts a per-partition task gets before its stage fails
  /// (Spark's spark.task.maxFailures, default 4).
  uint32_t MaxTaskAttempts = 4;
  /// Retry backoff, charged as simulated CPU time: attempt k waits
  /// min(RetryBackoffBaseNs * 2^(k-1), RetryBackoffMaxNs). Deterministic --
  /// attempt-count based, no wall clock.
  double RetryBackoffBaseNs = 1000.0;
  double RetryBackoffMaxNs = 64000.0;
};

/// Engine statistics (Table 5 and general sanity checks).
struct EngineStats {
  uint64_t StagesRun = 0;
  uint64_t ShuffleRecords = 0;
  uint64_t ShuffleSpills = 0;
  uint64_t RddsMaterialized = 0;
  uint64_t RddsEvictedToDisk = 0;
  uint64_t RecordsStreamed = 0;
  // Fault-tolerance counters.
  uint64_t TasksLaunched = 0;
  uint64_t TaskRetries = 0;          ///< Attempts beyond each task's first.
  uint64_t InjectedTaskFailures = 0; ///< TaskExecution-site fires.
  uint64_t CacheLossEvents = 0;      ///< Materialized caches dropped.
  uint64_t LineageRecomputations = 0;///< Lost caches rebuilt from lineage.
  uint64_t OomTaskFailures = 0;      ///< Task attempts that hit OOM.
};

/// The executor + scheduler. One per Runtime.
class SparkContext {
public:
  SparkContext(heap::Heap &H, gc::AccessMonitor *Monitor,
               const EngineConfig &Config);
  ~SparkContext();

  heap::Heap &heapRef() { return H; }
  const EngineConfig &config() const { return Config; }
  EngineStats &stats() { return Stats; }
  const TaskLedger &taskLedger() const { return Ledger; }

  /// Installs the (optional) deterministic fault injector.
  void setFaultInjector(FaultInjector *F) { Faults = F; }
  /// Installs the multi-executor cluster simulation (docs/cluster.md).
  /// Null (the default) runs the seed single-heap engine; with a cluster,
  /// tasks are placed by locality, map outputs register per executor, and
  /// reducers fetch remote blocks through the simulated fabric. The data
  /// plane (bucket contents and order) is identical either way.
  void setCluster(cluster::Cluster *C) { Clstr = C; }
  /// Sets the off-heap region tier's budget (--offheap-mb, docs/offheap.md).
  /// The tier is built on the first OFF_HEAP materialization and claims
  /// its budget from the heap's native region then; partitions that do
  /// not fit spill to executor "disk" behind NoAddress stubs, so a zero
  /// budget spills every partition.
  void setOffHeapBudget(uint64_t Bytes) { OffHeapBudgetBytes = Bytes; }
  /// The off-heap tier; null until an OFF_HEAP persist materializes, so a
  /// run without one exports no offheap.* metrics.
  offheap::OffHeapCache *offHeapCache() { return OffHeap.get(); }
  /// Installs the observability sinks (docs/observability.md): stage and
  /// per-partition task spans on the engine track, stamped with the
  /// simulated clock. Either may be null. Scalar engine.* counters are
  /// synced from EngineStats by Runtime::publishMetrics.
  void setTelemetry(support::MetricsRegistry *M, support::TraceLog *T) {
    Metrics = M;
    TraceSink = T;
  }
  /// Installs the post-recovery heap verification hook (runs after every
  /// successful task retry when RuntimeConfig::VerifyHeapAfterRecovery).
  void setRecoveryVerifier(std::function<void(const char *)> Fn) {
    RecoveryVerifier = std::move(Fn);
  }

  /// Heap pressure callback target: evicts the single least-recently-used
  /// resident MEMORY_AND_DISK cache to disk. Returns false when nothing is
  /// left to shed (the heap then raises OutOfMemoryError).
  bool evictOneUnderPressure();

  /// Installs the static-analysis result; persistAs/named consult it.
  void setAnalysis(const analysis::AnalysisResult *Result) {
    Analysis = Result;
  }

  /// Creates a source RDD over \p Data (whose lifetime the caller owns).
  Rdd source(const SourceData *Data, const std::string &Name = "");

  /// Maps an RDD instance id to its driver variable name ("" if none).
  std::string varNameOf(uint32_t RddId) const;

  // Internal API used by the Rdd handle.
  Rdd derive(OpKind Op, std::vector<RddRef> Parents);
  void persist(const RddRef &R, StorageLevel Level, const std::string &Var);
  void unpersist(const RddRef &R);
  int64_t runCount(const RddRef &R);
  double runReduce(const RddRef &R, const CombineFn &Fn);
  std::vector<SourceRecord> runCollect(const RddRef &R);
  void recordCall(const RddRef &R);

  /// Drops the in-heap copy of a materialized MEMORY_AND_DISK RDD to
  /// "disk" (the BlockManager eviction path); later reads deserialize
  /// from the disk copy instead of recomputing the lineage.
  void evictToDisk(const RddRef &R);

private:
  //===--- scheduling -----------------------------------------------------===
  /// Prepares \p R for streaming: back-propagates \p DownstreamTag,
  /// materializes persisted RDDs and wide dependencies. With
  /// \p DeferMaterialize, R's own materialization is left to the caller
  /// (shuffle fusion: the consuming wide op materializes it in the same
  /// streaming pass that writes the shuffle, as Spark does).
  void prepare(const RddRef &R, MemTag DownstreamTag,
               bool DeferMaterialize = false);
  /// Streams partition \p P of a prepared narrow chain into \p Sink.
  void streamPartition(const RddRef &R, uint32_t P, const TupleSink &Sink);
  void streamMaterialized(const RddRef &R, uint32_t P,
                          const TupleSink &Sink);
  /// Shuffle-fusion hooks threaded into materializeNarrow: \p Tee receives
  /// every streamed tuple; Begin/End/Rollback bracket each per-partition
  /// task so a failed map task can undo its partially-routed records.
  struct ShuffleFusion {
    const TupleSink *Tee = nullptr;
    std::function<void()> BeginTask; ///< Snapshot the shuffle output state.
    std::function<void()> EndTask;   ///< Flush route buffers to the output.
    std::function<void()> Rollback;  ///< Restore the BeginTask snapshot.
    /// Cluster mode: place the map task / register its outputs. Invoked
    /// around each fused per-partition task (outside the retry body).
    std::function<void(uint32_t)> BeforeTask;
    std::function<void(uint32_t)> AfterTask;
    /// Cluster mode: where BeforeTask recorded partition I's executor --
    /// runTask reads it for straggler accounting and rewrites it when a
    /// speculative copy wins, before AfterTask registers the outputs.
    std::function<unsigned *(uint32_t)> ExecSlot;
  };

  /// Materializes a narrow persisted RDD, one retryable task per partition;
  /// \p Fusion carries the consuming shuffle's sink and rollback hooks.
  void materializeNarrow(const RddRef &R,
                         const ShuffleFusion *Fusion = nullptr);
  void materializeWide(const RddRef &R);
  void finishAction();

  //===--- task-level fault tolerance -------------------------------------===
  /// Runs one per-partition task with retry. \p Body does the work;
  /// \p Rollback undoes its partial effects after a failed attempt (may be
  /// null when the body's effects are all-or-nothing). TaskFailure and
  /// OutOfMemoryError are caught and retried with capped exponential
  /// backoff up to EngineConfig::MaxTaskAttempts; lost caches recorded by
  /// the failure are recomputed from lineage before the next attempt.
  /// \p PlacedExec (cluster mode only) points at the executor the task was
  /// placed on: a successful attempt feeds straggler detection, and when a
  /// speculative copy wins, the original attempt is rolled back, the body
  /// re-runs as the copy, and *PlacedExec is rewritten to the winner.
  void runTask(const std::string &Stage, uint32_t RddId, uint32_t Partition,
               const std::function<void()> &Body,
               const std::function<void()> &Rollback = {},
               unsigned *PlacedExec = nullptr);
  /// Charges the deterministic attempt-count-based backoff delay.
  void chargeBackoff(uint32_t Attempt);
  /// Same capped exponential schedule for a failed transient block fetch,
  /// with a `backoff` trace span and cluster.fetch_retry.* accounting.
  void chargeFetchBackoff(uint32_t Attempt, uint32_t Map, uint32_t Reduce);
  /// Cluster mode: opens a scheduler stage (loads reset) and draws the
  /// slow-executor fault site once per live healthy executor -- a fire
  /// degrades that executor for the rest of the run.
  void clusterBeginStage();
  /// Re-materializes every cache recorded in LostCaches (injection
  /// suppressed while recovering).
  void recoverLostCaches();
  /// Drops \p R's materialized state (cache loss) so the next prepare or
  /// recovery pass recomputes it from lineage.
  void dropMaterialized(const RddRef &R);
  /// True when a lost cache can be rebuilt (lineage intact or source data
  /// still attached); checkpointed RDDs with truncated lineage cannot.
  static bool canRecompute(const RddRef &R);
  /// True when the shuffle feeding a wide op can materialize \p Parent in
  /// the same pass instead of re-reading it afterwards.
  bool canFuseIntoShuffle(const RddRef &Parent) const;

  /// RAII stage span: records the simulated clock at construction and
  /// emits a trace span on scope exit (also when an exception unwinds the
  /// stage). No-op without an installed TraceLog.
  class StageScope {
  public:
    StageScope(SparkContext &Ctx, std::string Name);
    ~StageScope();
    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

  private:
    SparkContext &Ctx;
    std::string Name;
    double StartNs;
  };

  /// Under old-generation pressure, drops the in-heap copy of the
  /// least-recently-used MEMORY_AND_DISK(_SER) RDDs to "disk" (Spark's
  /// BlockManager eviction) until occupancy falls below the threshold.
  void maybeEvictStorage();

  /// Off-heap budget pressure: spills the tier's eviction pick (untouched
  /// regions first) to executor "disk", retargets its stub to
  /// offheap::NoAddress, and releases the region. Returns false when
  /// nothing cacheable is left to shed. \p Current / \p CurrentDir let the
  /// materializer hand in the not-yet-rooted RDD it is building, whose
  /// already-cached partitions are themselves eviction candidates.
  bool spillOffHeapVictim(const RddRef &Current = nullptr,
                          heap::ObjRef CurrentDir = heap::ObjRef());

  /// Runs the map side of a shuffle of \p Parent into Buckets, routing by
  /// \p Partitioner (hash of the key when empty; sortByKey passes a range
  /// partitioner built from sampled splitters).
  using Buckets = std::vector<std::vector<SourceRecord>>;
  Buckets shuffle(const RddRef &Parent,
                  const std::function<uint32_t(int64_t)> &Partitioner = {});

  heap::ObjRef buildPartitionArray(const RddRef &R, uint32_t P,
                                   const std::vector<heap::ObjRef> &) =
      delete; // tuples cannot live in native vectors across GC

  void installMaterialized(const RddRef &R, heap::ObjRef Top);

  //===--- cluster mode (docs/cluster.md) ---------------------------------===
  /// Control-plane state of the shuffle currently tracked by the cluster:
  /// what a lost map output needs for a lineage re-run. The data plane
  /// (the driver-side buckets) is untouched by executor loss.
  struct ActiveClusterShuffle {
    bool Active = false;
    RddRef Parent;
    std::function<uint32_t(int64_t)> Partitioner;
    std::vector<unsigned> MapExec; ///< Executor that ran each map task.
    /// Map tasks whose registered outputs died with an executor; the next
    /// reduce attempt re-runs them before fetching.
    std::vector<uint32_t> PendingRecompute;
  };
  /// Accounts the block fetches feeding reduce task \p Reduce running on
  /// executor \p Exec: drains pending lineage recomputations, draws the
  /// executor-loss fault site per block, throws TaskFailure on a lost
  /// block (the task retry finds the recomputed output), and charges the
  /// fabric for remote blocks.
  void fetchShuffleInputs(Buckets &In, uint32_t Reduce, unsigned Exec);
  /// Re-runs the map tasks in PendingRecompute under fault suppression,
  /// verifying the recomputed records against the intact buckets and
  /// re-registering their blocks on live executors.
  void recomputeLostMapOutputs(Buckets &In);

  friend class Rdd; // checkpoint() drives prepare/stream directly

  heap::Heap &H;
  gc::AccessMonitor *Monitor;
  EngineConfig Config;
  EngineStats Stats;
  TaskLedger Ledger;
  FaultInjector *Faults = nullptr;
  cluster::Cluster *Clstr = nullptr;
  ActiveClusterShuffle ClusterShuffle;
  support::MetricsRegistry *Metrics = nullptr;
  support::TraceLog *TraceSink = nullptr;
  std::function<void(const char *)> RecoveryVerifier;
  /// Caches dropped by an injected (or real) loss, pending recomputation.
  std::vector<RddRef> LostCaches;
  const analysis::AnalysisResult *Analysis = nullptr;
  uint32_t NextRddId = 1;
  uint64_t UseClock = 0;
  std::vector<RddRef> TempMaterialized;
  /// Heap-materialized MEMORY_AND_DISK(_SER) RDDs, eligible for eviction.
  std::vector<RddRef> EvictableStore;
  uint64_t OffHeapBudgetBytes = 0;
  std::unique_ptr<offheap::OffHeapCache> OffHeap;
  /// RDDs whose partitions live in the off-heap tier; spillOffHeapVictim
  /// maps the tier's (rdd, partition) eviction pick back to its node.
  std::vector<RddRef> OffHeapStore;
  std::vector<std::pair<uint32_t, std::string>> IdToVar;
};

} // namespace rdd
} // namespace panthera

#endif // PANTHERA_RDD_RDD_H
