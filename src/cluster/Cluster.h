//===- cluster/Cluster.h - Multi-executor cluster simulation ----*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic multi-executor cluster simulation (docs/cluster.md).
///
/// Panthera's evaluation runs on Spark clusters: executors with independent
/// hybrid heaps exchange shuffle blocks over a network. This layer models
/// that on top of the single-driver engine:
///
///  - Executor: one simulated machine owning a private Heap + HybridMemory
///    whose DRAM/NVM budgets are carved from the cluster config, plus a
///    native-region arena holding its serialized shuffle blocks.
///  - NetworkFabric: charges serialization CPU plus bandwidth/latency on
///    the driver's simulated clock for every remote block transfer.
///  - MapOutputTracker (folded into Cluster): map outputs register
///    per-(executor, partition); reducers fetch local blocks free and
///    remote blocks through the fabric.
///  - ClusterScheduler (folded into Cluster): places tasks by
///    cached-partition / shuffle-output locality, PROCESS_LOCAL -> ANY
///    with a delay-scheduling slack knob, and survives executor loss.
///
/// Determinism contract: every Cluster call happens on the serial driver
/// scheduling path (the thread pool only runs GC phases), so
/// placement decisions, fabric charges, and fault draws are bit-identical
/// at every --threads value. The shuffle *data plane* is untouched -- the
/// driver-side buckets carry the records exactly as in the single-heap
/// engine -- so record contents and order are identical at every executor
/// count; the cluster adds accounting (executor clocks, network time on
/// the driver clock) and the loss/recovery control flow. The Runtime only
/// constructs a Cluster when NumExecutors > 1, which keeps --executors=1
/// byte-identical to the pre-cluster engine.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_CLUSTER_CLUSTER_H
#define PANTHERA_CLUSTER_CLUSTER_H

#include "heap/Heap.h"
#include "heap/HeapConfig.h"
#include "memsim/HybridMemory.h"
#include "offheap/RegionAllocator.h"
#include "support/Metrics.h"
#include "support/TraceLog.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace panthera {
namespace cluster {

/// One scheduled elastic-cluster event (panthera_sim: --decommission=E@K,
/// --join-at=K). AtStage counts cluster stages 1-based: the event fires
/// when the driver opens that stage (beginStage), before any placement.
struct ElasticEvent {
  bool Join = false;    ///< true: add an executor; false: decommission.
  unsigned Exec = 0;    ///< Decommission target (ignored for joins).
  uint64_t AtStage = 0; ///< 1-based cluster stage index.
};

/// User-facing cluster knobs (panthera_sim: --executors, --net-bw,
/// --net-lat-us). NumExecutors == 1 means "no cluster": the Runtime skips
/// construction entirely and the engine runs its seed single-heap path.
struct ClusterOptions {
  unsigned NumExecutors = 1;
  /// Fabric bandwidth in GB/s (1 GB = 1e9 bytes, so 1 GB/s = 1 byte/ns).
  double NetBandwidthGBps = 10.0;
  /// One-way latency charged per remote block fetch.
  double NetLatencyUs = 200.0;
  /// Serialization + deserialization CPU per shuffle record crossing the
  /// fabric (matches the engine's ShuffleRecordCpuNs scale).
  double NetSerNsPerRecord = 15.0;
  /// Delay scheduling (Zaharia et al., EuroSys'10): accept a non-preferred
  /// executor only when the preferred one is more than this many tasks
  /// ahead of the least-loaded one in the current stage.
  uint32_t DelaySchedulingSlack = 1;
  /// Speculative execution (docs/cluster.md "degraded executors"): the
  /// driver compares each completed task's executor-scaled cost against
  /// the stage's running median of base task costs and launches a
  /// speculative copy past the multiplier. Off = stragglers run to
  /// completion (checksums are identical either way).
  bool SpeculationEnabled = true;
  /// A task is a straggler when its scaled cost exceeds this multiple of
  /// the stage's running median task cost (spark.speculation.multiplier).
  double SpeculationMultiplier = 1.5;
  /// Simulated cost multiplier applied to an executor degraded by the
  /// slow-executor fault site.
  double SlowExecutorFactor = 4.0;
  /// Transient-fetch attempts per block before the driver gives up and
  /// escalates to executor-loss recovery (lineage recompute).
  uint32_t FetchRetryLimit = 3;
  /// Physical hosts the executors are packed onto (host of executor E is
  /// E % NumHosts). 0 means one host per executor — no co-location, so
  /// the zero-copy path below never triggers and the fabric charging is
  /// byte-identical to the pre-hosts engine.
  unsigned NumHosts = 0;
  /// Sparkle-style zero-copy shared-memory shuffle (PAPERS.md): a fetch
  /// whose mapper and reducer executors share a host skips the fabric
  /// entirely — no serialization CPU, no latency, no bandwidth charge —
  /// because the reducer maps the mapper's block directly. Blocks that
  /// overflowed onto executor disk still pay their deserialization CPU.
  /// Only meaningful when NumHosts packs several executors per host.
  bool ZeroCopyShuffle = true;
  /// Scheduled mid-job decommission/join events, applied at stage opens.
  std::vector<ElasticEvent> Elastic;
};

/// Full construction-time configuration; the Runtime fills the per-executor
/// heap carve and copies the memory technology from its own config.
struct ClusterConfig {
  ClusterOptions Options;
  /// Per-executor heap layout (already divided by NumExecutors).
  heap::HeapConfig ExecutorHeap;
  memsim::MemoryTechnology Technology;
  memsim::CacheConfig Cache;
  double EpochNs = 1.0e6;
  /// Deserialization CPU per record for blocks that overflowed an
  /// executor's native arena onto its local disk (EngineConfig's
  /// DiskRecordCpuNs).
  double DiskNsPerRecord = 60.0;
};

/// Counters mirrored into the metrics registry by publishMetrics. All are
/// driven from the serial driver path.
struct ClusterStats {
  uint64_t ProcessLocalTasks = 0; ///< Placed on the preferred executor.
  uint64_t AnyTasks = 0;          ///< No (live) preference; least-loaded.
  uint64_t DelayedFallbacks = 0;  ///< Preference alive but over slack.
  uint64_t BlocksStored = 0;      ///< Map-output blocks registered.
  uint64_t BytesStored = 0;
  uint64_t ExecutorDiskBlocks = 0; ///< Blocks spilled past the arena.
  uint64_t LocalBlocksFetched = 0;
  uint64_t LocalBytesFetched = 0;
  uint64_t RemoteBlocksFetched = 0;
  uint64_t RemoteBytesFetched = 0;
  /// Same-host cross-executor fetches served through shared memory
  /// (--zero-copy-shuffle with --hosts packing > 1 executor per host).
  uint64_t ZeroCopyBlocksFetched = 0;
  uint64_t ZeroCopyBytesFetched = 0;
  double NetworkNs = 0.0; ///< Fabric time charged on the driver clock.
  uint64_t ExecutorsLost = 0;
  uint64_t MapOutputsLost = 0;       ///< Blocks on lost executors.
  uint64_t MapOutputsRecomputed = 0; ///< Lineage re-runs of map tasks.
  // Degraded-executor robustness (docs/cluster.md "degraded executors").
  uint64_t SpeculativeLaunches = 0; ///< Copies launched for stragglers.
  uint64_t SpeculativeWins = 0;     ///< Copies that finished first.
  double SpeculativeWastedNs = 0.0; ///< Loser-attempt executor time.
  uint64_t StragglersFlagged = 0;   ///< Executors flagged by detection.
  uint64_t StragglerAvoidedPlacements = 0; ///< Placements steered away.
  uint64_t FetchRetries = 0;     ///< Failed transient fetches retried.
  uint64_t FetchDrops = 0;       ///< Fetches dropped in flight.
  uint64_t FetchCorruptions = 0; ///< Fetches failing byte-verification.
  double FetchBackoffNs = 0.0;   ///< Backoff charged between attempts.
  uint64_t FetchEscalations = 0; ///< Retry budgets exhausted -> lineage.
  uint64_t ExecutorsDecommissioned = 0;
  uint64_t ExecutorsJoined = 0;
  uint64_t BlocksMigrated = 0; ///< Blocks re-registered at decommission.
  uint64_t BytesMigrated = 0;
};

/// One simulated executor: a private hybrid memory + heap. Shuffle blocks
/// live in one region of a RegionAllocator carved from the heap's native
/// budget and recycled when a shuffle's blocks are released (the engine
/// runs at most one shuffle at a time). The executor's clocks advance
/// independently of the driver's; only fabric charges land on the driver
/// clock.
class Executor {
public:
  Executor(unsigned Id, const ClusterConfig &Config);

  unsigned id() const { return Id; }
  bool alive() const { return Alive; }
  void kill() { Alive = false; }

  heap::Heap &heap() { return *H; }
  memsim::HybridMemory &memory() { return *Mem; }
  const memsim::HybridMemory &memory() const { return *Mem; }

  /// Bump-allocates \p Bytes from the shuffle arena region;
  /// offheap::NoAddress when the arena cannot hold the block (the caller
  /// spills to executor disk).
  uint64_t arenaAlloc(uint64_t Bytes) {
    return Arena->regionAlloc(ArenaRegion, Bytes);
  }
  /// Recycles the arena once every block of the finished shuffle is dead.
  void arenaReset() { Arena->resetRegion(ArenaRegion); }
  uint64_t arenaCapacity() const { return Arena->claimBytes(); }
  offheap::RegionAllocator &arena() { return *Arena; }

private:
  unsigned Id;
  bool Alive = true;
  std::unique_ptr<memsim::HybridMemory> Mem;
  std::unique_ptr<heap::Heap> H;
  std::unique_ptr<offheap::RegionAllocator> Arena;
  uint32_t ArenaRegion = offheap::NoRegion;
};

/// One registered map-output block: the records map task \p Map routed to
/// reduce partition \p Reduce, serialized into the owning executor.
struct BlockInfo {
  unsigned Exec = 0; ///< Owning executor.
  /// Executor-native address; offheap::NoAddress = spilled to disk.
  uint64_t Addr = offheap::NoAddress;
  uint64_t Bytes = 0;
  uint64_t Records = 0;
  /// Record offset of this block inside the driver-side bucket for
  /// \p Reduce (the data plane the reduce task actually consumes).
  uint64_t BucketOffset = 0;
  bool Lost = false; ///< Owner died; must be recomputed from lineage.
  /// Host copy for blocks that overflowed the arena onto executor disk.
  std::vector<uint8_t> DiskCopy;
};

class Cluster {
public:
  /// \p DriverMem is the engine's simulated memory: fabric time is charged
  /// there so remote fetches lengthen the run like any other engine work.
  /// \p Trace may be null; network spans are emitted on TraceTrack::Network.
  Cluster(const ClusterConfig &Config, memsim::HybridMemory &DriverMem,
          support::TraceLog *Trace);

  const ClusterConfig &config() const { return Config; }
  ClusterStats &stats() { return Stats; }
  const ClusterStats &stats() const { return Stats; }
  unsigned numExecutors() const {
    return static_cast<unsigned>(Executors.size());
  }
  unsigned numAlive() const;
  Executor &executor(unsigned Id) { return *Executors[Id]; }
  bool executorAlive(unsigned Id) const { return Executors[Id]->alive(); }
  /// Physical host of executor \p Id: Id % NumHosts, or Id itself when
  /// NumHosts == 0 (one host per executor, the default).
  unsigned hostOf(unsigned Id) const {
    return Config.Options.NumHosts == 0 ? Id : Id % Config.Options.NumHosts;
  }

  //===--- scheduler ------------------------------------------------------===
  /// Opens a new stage: folds the finished stage's makespan, applies any
  /// elastic events scheduled for the new stage index, and resets the
  /// per-executor load/cost counters. Stages count 1-based; the count is
  /// what --decommission=E@K / --join-at=K schedules against.
  void beginStage();
  uint64_t stageIndex() const { return StageCounter; }
  /// Places one task. \p Preferred < 0 means no locality preference. The
  /// preferred executor wins (PROCESS_LOCAL) while it is alive, not
  /// flagged as a straggler, and within DelaySchedulingSlack tasks of the
  /// least-loaded executor; otherwise the least-loaded live unflagged
  /// executor (lowest id on ties) runs it as ANY. Flagged executors are
  /// used only when every live executor is flagged.
  unsigned placeTask(int Preferred);
  /// Records / looks up which executor caches a materialized partition.
  /// Locations die with their executor.
  void recordPartitionLocation(uint32_t RddId, uint32_t Part, unsigned Exec);
  int partitionLocation(uint32_t RddId, uint32_t Part) const;
  /// Default owner of source split \p Part (round-robin sharding); -1 only
  /// when that executor is dead.
  int splitOwner(uint32_t Part) const;

  //===--- map output tracker + shuffle fabric ----------------------------===
  /// Opens shuffle tracking for a MapCount x ReduceCount block matrix.
  /// The engine runs shuffles strictly one at a time; any previous
  /// shuffle's blocks are released first.
  void beginShuffle(uint32_t MapCount, uint32_t ReduceCount);
  /// Registers map task \p Map's block for reduce partition \p Reduce on
  /// executor \p Exec: serializes \p Bytes of records into the executor's
  /// arena (charging the executor's clock), falling back to executor disk
  /// when the arena is full.
  void registerMapOutput(uint32_t Map, uint32_t Reduce, unsigned Exec,
                         const void *Data, uint64_t Bytes, uint64_t Records,
                         uint64_t BucketOffset);
  const BlockInfo &mapOutput(uint32_t Map, uint32_t Reduce) const;
  /// Executor holding the most shuffle bytes for \p Reduce (its preferred
  /// reduce location); -1 when the shuffle is empty.
  int preferredReducer(uint32_t Reduce) const;
  /// Accounts one block fetch by the reduce task running on \p DstExec:
  /// local blocks cost nothing on the driver clock (the bucket read is
  /// already charged by the engine); remote blocks ride the fabric
  /// (serialization + latency + bytes/bandwidth on the driver clock, plus
  /// a network trace span); a slow owner serves its serialization at its
  /// degraded rate. The executor-held bytes are byte-compared against
  /// \p Expect -- the replica must match the data plane. Returns false
  /// (instead of failing the check) when \p InjectCorrupt asked for a
  /// transient corruption: the delivered bytes were flipped before the
  /// verification, so the fetch failed and must be retried.
  bool fetchBlock(uint32_t Map, uint32_t Reduce, unsigned DstExec,
                  const void *Expect, bool InjectCorrupt = false);
  /// Accounts a remote fetch request dropped in flight (the fetch
  /// transient-fault site): one fabric latency on the driver clock, no
  /// payload delivered.
  void chargeDroppedFetch(uint32_t Map, uint32_t Reduce, unsigned DstExec);
  /// Releases the active shuffle's blocks and recycles executor arenas.
  void endShuffle();

  //===--- failure + degraded executors -----------------------------------===
  /// Kills \p Id: marks its active-shuffle blocks lost, drops its cached
  /// partition locations, bumps loss counters. Returns the map-task ids
  /// whose outputs were lost (the lineage the caller must re-run).
  std::vector<uint32_t> killExecutor(unsigned Id);
  /// Marks every block of map task \p Map lost (fetch-retry escalation:
  /// the owner executor survives, but its copy of this output is treated
  /// as unusable and must be recomputed from lineage).
  void markMapOutputLost(uint32_t Map);
  /// Degrades \p Id (slow-executor fault site): its simulated task and
  /// fetch costs are multiplied by SlowExecutorFactor from now on.
  void degradeExecutor(unsigned Id);
  double slowdown(unsigned Id) const { return Slowdown[Id]; }
  bool flaggedStraggler(unsigned Id) const { return Flagged[Id] != 0; }

  /// What accountTask decided for one completed task.
  struct SpeculationOutcome {
    bool Launched = false; ///< A speculative copy was launched.
    bool CopyWon = false;  ///< The copy finished first; the caller must
                           ///< roll the original attempt back and re-run.
    unsigned CopyExec = 0; ///< Executor the copy ran on.
  };
  /// Accounts one completed task with driver-measured base cost \p BaseNs
  /// placed on \p Exec. The executor-scaled cost joins the stage cost
  /// model (the per-stage makespan below); when it exceeds
  /// SpeculationMultiplier x the stage's running median of base costs,
  /// the driver launches a speculative copy on the least-loaded other
  /// executor and the first finisher (on the simulated cost model) wins.
  /// The loser's occupancy is charged to its executor as wasted time, and
  /// the straggler is flagged so later placements steer around it.
  SpeculationOutcome accountTask(unsigned Exec, double BaseNs);

  /// Cumulative simulated parallel stage time: for every stage, the
  /// maximum over executors of the task cost assigned to it. This is the
  /// "wall time" of the simulated cluster (the serial driver clock is the
  /// total work); a straggler stretches it, speculation recovers it.
  double makespanNs() const;

  //===--- elastic membership ---------------------------------------------===
  /// Gracefully removes \p Id mid-job: its active-shuffle blocks are
  /// re-registered on the surviving executors over the fabric, its cached
  /// partition locations drop (stale PROCESS_LOCAL hints fall back to
  /// ANY), and it stops receiving tasks. Refuses to remove the last live
  /// executor.
  void decommissionExecutor(unsigned Id);
  /// Adds a fresh executor (a new heap carved on a private clock, same
  /// per-executor config); delay scheduling starts placing on it
  /// immediately. Returns the new executor id.
  unsigned addExecutor();

  /// Mirrors ClusterStats and per-executor clocks into \p M under
  /// cluster.* keys. Only called when a cluster exists, so --executors=1
  /// exports stay byte-identical to the seed engine.
  void publishMetrics(support::MetricsRegistry &M) const;

private:
  BlockInfo &block(uint32_t Map, uint32_t Reduce) {
    return Blocks[static_cast<size_t>(Map) * ReduceCount + Reduce];
  }
  const BlockInfo &block(uint32_t Map, uint32_t Reduce) const {
    return Blocks[static_cast<size_t>(Map) * ReduceCount + Reduce];
  }
  /// Serializes \p Data into \p Exec's arena (disk fallback); shared by
  /// registerMapOutput and decommission migration.
  void storeBlock(BlockInfo &B, unsigned Exec, const void *Data);
  /// Applies the elastic events scheduled for the just-opened stage.
  void applyElasticEvents();
  double currentStageMaxNs() const;

  ClusterConfig Config;
  memsim::HybridMemory &DriverMem;
  support::TraceLog *Trace;
  ClusterStats Stats;
  std::vector<std::unique_ptr<Executor>> Executors;
  std::vector<uint64_t> StageLoad; ///< Tasks placed per executor.
  std::vector<double> StageCost;   ///< Scaled task cost per executor.
  std::vector<double> Slowdown;    ///< Cost multiplier (1.0 = healthy).
  std::vector<uint8_t> Flagged;    ///< Straggler-flagged executors.
  std::vector<double> StageBaseCosts; ///< Completed base costs, this stage.
  double FoldedMakespanNs = 0.0; ///< Makespan of all finished stages.
  uint64_t StageCounter = 0;     ///< 1-based; see beginStage().
  /// (RddId, Part) -> executor, kept sorted for deterministic iteration.
  std::vector<std::pair<uint64_t, unsigned>> Locations;
  /// Active shuffle: MapCount x ReduceCount row-major block matrix.
  uint32_t MapCount = 0;
  uint32_t ReduceCount = 0;
  std::vector<BlockInfo> Blocks;
  std::vector<uint8_t> Scratch; ///< Fetch read-back / verify buffer.
};

} // namespace cluster
} // namespace panthera

#endif // PANTHERA_CLUSTER_CLUSTER_H
