//===- rdd/SparkContext.cpp - RDD scheduler and executor ------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rdd/Rdd.h"

#include "cluster/Cluster.h"
#include "offheap/OffHeapCache.h"
#include "rdd/KeyIndex.h"
#include "rdd/PartitionBuilder.h"
#include "support/Errors.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"
#include "support/TraceLog.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_map>

using namespace panthera;
using namespace panthera::rdd;
using heap::GcRoot;
using heap::ObjRef;

const char *panthera::rdd::opKindName(OpKind K) {
  switch (K) {
  case OpKind::Source:
    return "source";
  case OpKind::Map:
    return "map";
  case OpKind::Filter:
    return "filter";
  case OpKind::FlatMap:
    return "flatMap";
  case OpKind::MapValues:
    return "mapValues";
  case OpKind::Union:
    return "union";
  case OpKind::GroupByKey:
    return "groupByKey";
  case OpKind::ReduceByKey:
    return "reduceByKey";
  case OpKind::Distinct:
    return "distinct";
  case OpKind::Join:
    return "join";
  case OpKind::Repartition:
    return "repartition";
  case OpKind::SortByKey:
    return "sortByKey";
  }
  return "?";
}

/// Shuffle partitioner: SplitMix64 finalizer over the key, mod partitions.
static uint32_t partitionOf(int64_t Key, uint32_t NumPartitions) {
  uint64_t Z = static_cast<uint64_t>(Key) + 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<uint32_t>((Z ^ (Z >> 31)) % NumPartitions);
}

//===----------------------------------------------------------------------===
// Rdd handle methods
//===----------------------------------------------------------------------===

Rdd Rdd::map(MapFn Fn) const {
  Ctx->recordCall(Node);
  Rdd R = Ctx->derive(OpKind::Map, {Node});
  R.node()->Map = std::move(Fn);
  return R;
}

Rdd Rdd::filter(FilterFn Fn) const {
  Ctx->recordCall(Node);
  Rdd R = Ctx->derive(OpKind::Filter, {Node});
  R.node()->Filter = std::move(Fn);
  return R;
}

Rdd Rdd::flatMap(FlatMapFn Fn) const {
  Ctx->recordCall(Node);
  Rdd R = Ctx->derive(OpKind::FlatMap, {Node});
  R.node()->FlatMap = std::move(Fn);
  return R;
}

Rdd Rdd::mapValues(ValueFn Fn) const {
  Ctx->recordCall(Node);
  Rdd R = Ctx->derive(OpKind::MapValues, {Node});
  R.node()->MapValue = std::move(Fn);
  return R;
}

Rdd Rdd::mapValuesWithKey(ValueKeyFn Fn) const {
  Ctx->recordCall(Node);
  Rdd R = Ctx->derive(OpKind::MapValues, {Node});
  R.node()->MapValueKey = std::move(Fn);
  return R;
}

Rdd Rdd::groupByKey() const {
  Ctx->recordCall(Node);
  return Ctx->derive(OpKind::GroupByKey, {Node});
}

Rdd Rdd::reduceByKey(CombineFn Fn) const {
  Ctx->recordCall(Node);
  Rdd R = Ctx->derive(OpKind::ReduceByKey, {Node});
  R.node()->Combine = std::move(Fn);
  return R;
}

Rdd Rdd::distinct() const {
  Ctx->recordCall(Node);
  return Ctx->derive(OpKind::Distinct, {Node});
}

Rdd Rdd::sortByKey() const {
  Ctx->recordCall(Node);
  return Ctx->derive(OpKind::SortByKey, {Node});
}

Rdd Rdd::sample(double Fraction, uint64_t Seed) const {
  Ctx->recordCall(Node);
  Rdd R = Ctx->derive(OpKind::Filter, {Node});
  R.node()->Filter = [Fraction, Seed](RddContext &C, ObjRef T) {
    // Deterministic Bernoulli draw from (key, seed).
    uint64_t Z = static_cast<uint64_t>(C.key(T)) * 0x9e3779b97f4a7c15ull +
                 Seed;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Z ^= Z >> 31;
    return static_cast<double>(Z >> 11) * 0x1.0p-53 < Fraction;
  };
  return R;
}

Rdd Rdd::join(const Rdd &Right, JoinFn Fn) const {
  Ctx->recordCall(Node);
  Ctx->recordCall(Right.Node);
  RddRef Left = Node;
  // Joins match records per partition; both inputs must be co-partitioned
  // by hash, so anything else (arbitrary or range) gets an implicit
  // repartition stage.
  if (Left->PartitionedBy != Partitioning::Hash)
    Left = Ctx->derive(OpKind::Repartition, {Left}).node();
  RddRef R = Right.Node;
  if (R->PartitionedBy != Partitioning::Hash)
    R = Ctx->derive(OpKind::Repartition, {R}).node();
  Rdd J = Ctx->derive(OpKind::Join, {Left, R});
  J.node()->Join = std::move(Fn);
  return J;
}

Rdd Rdd::unionWith(const Rdd &Other) const {
  Ctx->recordCall(Node);
  Ctx->recordCall(Other.Node);
  return Ctx->derive(OpKind::Union, {Node, Other.Node});
}

Rdd Rdd::persistAs(const std::string &Var, StorageLevel Level) const {
  Ctx->persist(Node, Level, Var);
  return *this;
}

Rdd Rdd::named(const std::string &Var) const {
  Ctx->persist(Node, Node->Level, Var);
  Node->PersistRequested = false; // named-only: action materialization
  return *this;
}

void Rdd::unpersist() const { Ctx->unpersist(Node); }

void Rdd::checkpoint() const {
  Ctx->recordCall(Node);
  if (Node->Materialized && !Node->DiskParts.empty())
    return; // already checkpointed
  // Compute (or reuse) the data, write it to disk, then truncate the
  // lineage so upstream stages can never be re-run for this RDD.
  rdd::RddContext C(Ctx->heapRef());
  std::vector<std::vector<SourceRecord>> Parts(
      Ctx->config().NumPartitions);
  Ctx->prepare(Node, MemTag::None);
  for (uint32_t P = 0; P != Ctx->config().NumPartitions; ++P)
    Ctx->runTask("checkpoint", Node->Id, P,
                 [&] {
                   Ctx->streamPartition(Node, P, [&](heap::ObjRef T) {
                     Parts[P].push_back({C.key(T), C.value(T)});
                   });
                 },
                 [&] { Parts[P].clear(); });
  Ctx->finishAction();
  // Drop any heap materialization; the disk copy is authoritative.
  if (Node->TopRootId != SIZE_MAX) {
    Ctx->heapRef().removePersistentRoot(Node->TopRootId);
    Node->TopRootId = SIZE_MAX;
  }
  Node->SerializedInMemory = false;
  Node->DiskParts = std::move(Parts);
  Node->Materialized = true;
  Node->Parents.clear(); // lineage truncation
}

int64_t Rdd::count() const { return Ctx->runCount(Node); }

double Rdd::reduce(CombineFn Fn) const { return Ctx->runReduce(Node, Fn); }

std::vector<SourceRecord> Rdd::collect() const {
  return Ctx->runCollect(Node);
}

//===----------------------------------------------------------------------===
// SparkContext: construction and lineage building
//===----------------------------------------------------------------------===

SparkContext::SparkContext(heap::Heap &H, gc::AccessMonitor *Monitor,
                           const EngineConfig &Config)
    : H(H), Monitor(Monitor), Config(Config) {}

SparkContext::~SparkContext() = default;

Rdd SparkContext::source(const SourceData *Data, const std::string &Name) {
  PANTHERA_CHECK(Data && Data->size() == Config.NumPartitions,
                 "source data must have one vector per partition");
  Rdd R = derive(OpKind::Source, {});
  R.node()->Source = Data;
  if (!Name.empty())
    R.node()->VarName = Name;
  return R;
}

Rdd SparkContext::derive(OpKind Op, std::vector<RddRef> Parents) {
  auto Node = std::make_shared<RddNode>();
  Node->Id = NextRddId++;
  Node->Op = Op;
  Node->Parents = std::move(Parents);
  switch (Op) {
  case OpKind::Source:
  case OpKind::Map:
  case OpKind::FlatMap:
    Node->PartitionedBy = Partitioning::None;
    break;
  case OpKind::Filter:
  case OpKind::MapValues:
    Node->PartitionedBy = Node->Parents[0]->PartitionedBy;
    break;
  case OpKind::Union:
    Node->PartitionedBy =
        Node->Parents[0]->PartitionedBy == Node->Parents[1]->PartitionedBy
            ? Node->Parents[0]->PartitionedBy
            : Partitioning::None;
    break;
  case OpKind::GroupByKey:
  case OpKind::ReduceByKey:
  case OpKind::Distinct:
  case OpKind::Repartition:
    Node->PartitionedBy = Partitioning::Hash;
    break;
  case OpKind::Join:
    // Join preserves the (hash) partitioning of its co-partitioned inputs.
    Node->PartitionedBy = Partitioning::Hash;
    break;
  case OpKind::SortByKey:
    Node->PartitionedBy = Partitioning::Range;
    break;
  }
  return Rdd(this, Node);
}

void SparkContext::persist(const RddRef &R, StorageLevel Level,
                           const std::string &Var) {
  R->PersistRequested = true;
  R->Level = Level;
  R->VarName = Var;
  IdToVar.emplace_back(R->Id, Var);
  if (Analysis)
    R->StaticTag = Analysis->tagFor(Var);
  recordCall(R);
}

void SparkContext::unpersist(const RddRef &R) {
  recordCall(R);
  if (!R->Materialized)
    return;
  dropMaterialized(R);
}

void SparkContext::dropMaterialized(const RddRef &R) {
  if (R->OffHeapStubs && OffHeap && R->TopRootId != SIZE_MAX) {
    // Release every region the RDD's stubs still hold before the stubs
    // become unreachable. Raw (unaccounted) reads: the stub walk is driver
    // bookkeeping, not simulated mutator traffic.
    ObjRef Top = H.persistentRoot(R->TopRootId);
    ObjRef Dir = H.rawLoadRef(Top.addr(), 0);
    uint32_t P = H.arrayLength(Dir);
    for (uint32_t I = 0; I != P; ++I) {
      ObjRef Stub = H.rawLoadRef(Dir.addr(), I);
      if (!Stub)
        continue;
      uint64_t Payload = Stub.addr() + sizeof(heap::ObjectHeader);
      uint64_t Addr;
      uint32_t Region;
      std::memcpy(&Addr, H.rawBytes(Payload), sizeof(Addr));
      std::memcpy(&Region, H.rawBytes(Payload + 8), sizeof(Region));
      if (Region != offheap::NoRegion && Addr != offheap::NoAddress)
        OffHeap->release(Region, /*Evicted=*/false);
    }
    OffHeapStore.erase(
        std::remove(OffHeapStore.begin(), OffHeapStore.end(), R),
        OffHeapStore.end());
  }
  if (R->TopRootId != SIZE_MAX) {
    H.removePersistentRoot(R->TopRootId);
    R->TopRootId = SIZE_MAX;
  }
  R->DiskParts.clear();
  R->SerializedInMemory = false;
  R->OffHeapStubs = false;
  R->Materialized = false;
}

std::string SparkContext::varNameOf(uint32_t RddId) const {
  for (const auto &[Id, Var] : IdToVar)
    if (Id == RddId)
      return Var;
  return "";
}

void SparkContext::recordCall(const RddRef &R) {
  if (Monitor && !R->VarName.empty())
    Monitor->recordCall(R->Id);
}

//===----------------------------------------------------------------------===
// Task-level fault tolerance
//===----------------------------------------------------------------------===

bool SparkContext::canRecompute(const RddRef &R) {
  // Checkpointed RDDs truncate their lineage; their disk copy is the only
  // authority, so a loss there is unrecoverable and never injected.
  return !R->Parents.empty() || (R->Op == OpKind::Source && R->Source);
}

void SparkContext::chargeBackoff(uint32_t Attempt) {
  // Deterministic capped exponential backoff: no wall clock, just
  // attempt-count-scaled simulated CPU time.
  double Delay = Config.RetryBackoffBaseNs;
  for (uint32_t I = 1; I < Attempt && Delay < Config.RetryBackoffMaxNs; ++I)
    Delay *= 2.0;
  if (Delay > Config.RetryBackoffMaxNs)
    Delay = Config.RetryBackoffMaxNs;
  H.memory().addCpuWorkNs(Delay);
}

void SparkContext::chargeFetchBackoff(uint32_t Attempt, uint32_t Map,
                                      uint32_t Reduce) {
  // Same capped exponential schedule as task retries, but charged against
  // the fetch path and surfaced as its own trace span so degraded-network
  // runs show where the simulated time went.
  double Delay = Config.RetryBackoffBaseNs;
  for (uint32_t I = 1; I < Attempt && Delay < Config.RetryBackoffMaxNs; ++I)
    Delay *= 2.0;
  if (Delay > Config.RetryBackoffMaxNs)
    Delay = Config.RetryBackoffMaxNs;
  double StartNs = H.memory().totalTimeNs();
  H.memory().addCpuWorkNs(Delay);
  if (Clstr)
    Clstr->stats().FetchBackoffNs += Delay;
  if (TraceSink)
    TraceSink
        ->span(support::TraceTrack::Network, "backoff", "fetch", StartNs,
               Delay)
        .arg("map", static_cast<uint64_t>(Map))
        .arg("reduce", static_cast<uint64_t>(Reduce))
        .arg("attempt", static_cast<uint64_t>(Attempt));
}

void SparkContext::clusterBeginStage() {
  // Stage boundary on the cluster sim: fold the previous stage into the
  // makespan, then give the slow-executor fault site one draw per live,
  // still-healthy executor. The draw order is the executor index order,
  // so the schedule is a pure function of the fault seed and the stage
  // sequence.
  Clstr->beginStage();
  if (!Faults)
    return;
  for (unsigned E = 0; E != Clstr->numExecutors(); ++E)
    if (Clstr->executorAlive(E) && Clstr->slowdown(E) == 1.0 &&
        Faults->shouldFail(FaultSite::SlowExecutor))
      Clstr->degradeExecutor(E);
}

void SparkContext::recoverLostCaches() {
  while (!LostCaches.empty()) {
    RddRef R = LostCaches.back();
    LostCaches.pop_back();
    if (R->Materialized)
      continue; // already rebuilt by an earlier recovery
    // Recovery must not itself be injected, or a pathological plan could
    // make the retry loop nonterminating.
    FaultSuppressionScope Scope(Faults);
    // Rebuild through prepare(), not materialize*() directly: the lost
    // RDD's wide ancestors may have been temp-materialized and released
    // when their stage ended, and prepare() is what knows how to
    // reconstruct (and afterwards re-release) that chain.
    prepare(R, R->EffectiveTag);
    ++Stats.LineageRecomputations;
  }
}

SparkContext::StageScope::StageScope(SparkContext &Ctx, std::string Name)
    : Ctx(Ctx), Name(std::move(Name)),
      StartNs(Ctx.H.memory().totalTimeNs()) {}

SparkContext::StageScope::~StageScope() {
  if (!Ctx.TraceSink)
    return;
  double Now = Ctx.H.memory().totalTimeNs();
  Ctx.TraceSink->span(support::TraceTrack::Engine, Name, "stage", StartNs,
                      Now - StartNs);
}

void SparkContext::runTask(const std::string &Stage, uint32_t RddId,
                           uint32_t Partition,
                           const std::function<void()> &Body,
                           const std::function<void()> &Rollback,
                           unsigned *PlacedExec) {
  ++Stats.TasksLaunched;
  double TaskStartNs = H.memory().totalTimeNs();
  // Emits the task's trace span; runs at every task exit (success or
  // terminal failure), always on the serial scheduling path.
  auto EmitTaskSpan = [&](uint32_t Attempts, bool Ok) {
    if (!TraceSink)
      return;
    TraceSink
        ->span(support::TraceTrack::Engine, Stage, "task", TaskStartNs,
               H.memory().totalTimeNs() - TaskStartNs)
        .arg("rdd", static_cast<uint64_t>(RddId))
        .arg("partition", static_cast<uint64_t>(Partition))
        .arg("attempts", static_cast<uint64_t>(Attempts))
        .arg("ok", std::string(Ok ? "true" : "false"));
  };
  TaskAttemptRecord Rec;
  Rec.Stage = Stage;
  Rec.RddId = RddId;
  Rec.Partition = Partition;

  // Undo a failed attempt's partial effects. The pending rdd_alloc tag is
  // cleared unconditionally: an exception can unwind between arming it and
  // the allocation that would consume it.
  auto Cleanup = [&] {
    H.setPendingArrayTag(MemTag::None, 0);
    if (Rollback)
      Rollback();
  };

  for (uint32_t Attempt = 1;; ++Attempt) {
    Rec.Attempts = Attempt;
    // Debugging aid for fault plans: per-attempt task log on stderr.
    if (std::getenv("PANTHERA_TRACE_TASKS"))
      std::fprintf(stderr, "[task] %s p%u attempt %u\n", Stage.c_str(),
                   Partition, Attempt);
    try {
      if (Faults && Faults->shouldFail(FaultSite::TaskExecution)) {
        ++Stats.InjectedTaskFailures;
        throw TaskFailure("injected task failure in stage '" + Stage +
                          "', partition " + std::to_string(Partition));
      }
      double BodyStartNs = H.memory().totalTimeNs();
      Body();
      if (PlacedExec && Clstr) {
        // Feed the driver-measured base cost into straggler detection. If
        // a speculative copy on another executor finishes first, the
        // original attempt is rolled back and the body re-runs as the
        // winning copy -- same inputs, same bytes, so checksums are
        // invariant under speculation on/off.
        double BaseNs = H.memory().totalTimeNs() - BodyStartNs;
        cluster::Cluster::SpeculationOutcome O =
            Clstr->accountTask(*PlacedExec, BaseNs);
        if (O.CopyWon) {
          if (std::getenv("PANTHERA_TRACE_TASKS"))
            std::fprintf(stderr, "[spec] %s p%u copy won on exec %u\n",
                         Stage.c_str(), Partition, O.CopyExec);
          *PlacedExec = O.CopyExec;
          Cleanup();
          FaultSuppressionScope Scope(Faults);
          Body();
        }
      }
      Rec.Succeeded = true;
      EmitTaskSpan(Rec.Attempts, /*Ok=*/true);
      Ledger.Records.push_back(std::move(Rec));
      return;
    } catch (TaskFailure &F) {
      Rec.LastError = F.what();
    } catch (OutOfMemoryError &F) {
      Rec.LastError = F.what();
      ++Stats.OomTaskFailures;
      if (Attempt >= Config.MaxTaskAttempts) {
        // Retries exhausted on memory pressure: report the typed OOM to
        // the caller instead of wrapping it (the process still survives).
        Cleanup();
        Rec.Succeeded = false;
        EmitTaskSpan(Rec.Attempts, /*Ok=*/false);
        Ledger.Records.push_back(std::move(Rec));
        throw;
      }
    }
    Cleanup();
    if (Attempt >= Config.MaxTaskAttempts) {
      Rec.Succeeded = false;
      std::string Msg = "stage '" + Stage + "' failed: partition " +
                        std::to_string(Partition) + " of RDD " +
                        std::to_string(RddId) + " exhausted " +
                        std::to_string(Config.MaxTaskAttempts) +
                        " attempts; last error: " + Rec.LastError;
      EmitTaskSpan(Rec.Attempts, /*Ok=*/false);
      Ledger.Records.push_back(std::move(Rec));
      throw EngineError(Msg);
    }
    ++Stats.TaskRetries;
    chargeBackoff(Attempt);
    // A failure that dropped a persisted cache recorded it in LostCaches;
    // rebuild from lineage before re-attempting (the generalization of
    // what examples/fault_tolerance.cpp demonstrates by hand).
    recoverLostCaches();
    if (RecoveryVerifier)
      RecoveryVerifier("task retry");
  }
}

bool SparkContext::evictOneUnderPressure() {
  // Least-recently-used resident MEMORY_AND_DISK(_SER) block.
  RddRef Victim;
  for (const RddRef &R : EvictableStore)
    if (R->Materialized && R->TopRootId != SIZE_MAX &&
        (!Victim || R->LastUse < Victim->LastUse))
      Victim = R;
  if (!Victim)
    return false;
  // Eviction streams the victim through the heap; injecting faults into
  // the recovery machinery itself would corrupt the eviction.
  FaultSuppressionScope Scope(Faults);
  evictToDisk(Victim);
  return true;
}

//===----------------------------------------------------------------------===
// Scheduling
//===----------------------------------------------------------------------===

bool SparkContext::canFuseIntoShuffle(const RddRef &Parent) const {
  return Parent->PersistRequested && !Parent->Materialized &&
         !isWideOp(Parent->Op) && Parent->Op != OpKind::Source &&
         isHeapLevel(Parent->Level);
}

void SparkContext::prepare(const RddRef &R, MemTag DownstreamTag,
                           bool DeferMaterialize) {
  MemTag Own = Config.UseStaticTags ? R->StaticTag : MemTag::None;
  MemTag Effective = Own != MemTag::None ? Own : DownstreamTag;
  // Lineage back-propagation with DRAM-wins conflict resolution (§3).
  R->EffectiveTag = mergeTags(R->EffectiveTag, Effective);

  if (R->Materialized || R->Op == OpKind::Source)
    return;

  bool Materializes =
      (isWideOp(R->Op) || R->PersistRequested) && !DeferMaterialize;
  size_t TempSnapshot = TempMaterialized.size();
  if (isWideOp(R->Op)) {
    // Shuffle fusion (Spark behavior): a persist-pending narrow parent is
    // materialized by the shuffle's own map pass rather than beforehand,
    // so its data is written once and never re-read from its cache.
    const RddRef &Parent = R->Parents[0];
    prepare(Parent, R->EffectiveTag,
            /*DeferMaterialize=*/canFuseIntoShuffle(Parent));
  } else {
    for (const RddRef &Parent : R->Parents)
      prepare(Parent, R->EffectiveTag);
  }

  if (isWideOp(R->Op)) {
    materializeWide(R);
    if (!R->PersistRequested)
      TempMaterialized.push_back(R);
  } else if (R->PersistRequested && !DeferMaterialize) {
    materializeNarrow(R);
  }
  // A completed materialization ends the stage that computed it; shuffle
  // outputs consumed by that stage are released (collected at next GC).
  // R itself stays: its consumer has not streamed it yet.
  if (Materializes) {
    std::vector<RddRef> Kept;
    while (TempMaterialized.size() > TempSnapshot) {
      RddRef Temp = TempMaterialized.back();
      TempMaterialized.pop_back();
      if (Temp == R)
        Kept.push_back(Temp);
      else
        unpersist(Temp);
    }
    for (auto It = Kept.rbegin(); It != Kept.rend(); ++It)
      TempMaterialized.push_back(*It);
  }
}

void SparkContext::streamPartition(const RddRef &R, uint32_t P,
                                   const TupleSink &Sink) {
  if (R->Materialized) {
    streamMaterialized(R, P, Sink);
    return;
  }
  RddContext Ctx(H);
  memsim::HybridMemory &Mem = H.memory();
  switch (R->Op) {
  case OpKind::Source: {
    const std::vector<SourceRecord> &Rows = (*R->Source)[P];
    for (const SourceRecord &Row : Rows) {
      Mem.addCpuWorkNs(Config.PerRecordCpuNs);
      ++Stats.RecordsStreamed;
      Sink(Ctx.makeTuple(Row.Key, Row.Val));
    }
    return;
  }
  case OpKind::Map:
    streamPartition(R->Parents[0], P, [&](ObjRef T) {
      Mem.addCpuWorkNs(Config.PerRecordCpuNs);
      Sink(R->Map(Ctx, T));
    });
    return;
  case OpKind::Filter:
    streamPartition(R->Parents[0], P, [&](ObjRef T) {
      Mem.addCpuWorkNs(Config.PerRecordCpuNs);
      if (R->Filter(Ctx, T))
        Sink(T);
    });
    return;
  case OpKind::FlatMap:
    streamPartition(R->Parents[0], P, [&](ObjRef T) {
      Mem.addCpuWorkNs(Config.PerRecordCpuNs);
      R->FlatMap(Ctx, T, Sink);
    });
    return;
  case OpKind::MapValues:
    streamPartition(R->Parents[0], P, [&](ObjRef T) {
      Mem.addCpuWorkNs(Config.PerRecordCpuNs);
      int64_t K = Ctx.key(T);
      double V = R->MapValueKey ? R->MapValueKey(K, Ctx.value(T))
                                : R->MapValue(Ctx.value(T));
      Sink(Ctx.makeTuple(K, V));
    });
    return;
  case OpKind::Union:
    streamPartition(R->Parents[0], P, Sink);
    streamPartition(R->Parents[1], P, Sink);
    return;
  case OpKind::Join: {
    // Both sides are key-partitioned; build a native value index over the
    // right side's partition, then probe while streaming the left side.
    std::unordered_map<int64_t, std::vector<double>> Index;
    streamPartition(R->Parents[1], P, [&](ObjRef T) {
      Index[Ctx.key(T)].push_back(Ctx.value(T));
    });
    streamPartition(R->Parents[0], P, [&](ObjRef T) {
      auto It = Index.find(Ctx.key(T));
      if (It == Index.end())
        return;
      // One output per matching right value. The left tuple must be
      // re-rooted across emissions: the join function allocates.
      GcRoot Left(H, T);
      for (double V : It->second) {
        Mem.addCpuWorkNs(Config.PerRecordCpuNs);
        Sink(R->Join(Ctx, Left.get(), V));
      }
    });
    return;
  }
  case OpKind::GroupByKey:
  case OpKind::ReduceByKey:
  case OpKind::Distinct:
  case OpKind::Repartition:
  case OpKind::SortByKey:
    PANTHERA_CHECK(false, "wide RDD streamed before materialization");
    return;
  }
}

void SparkContext::streamMaterialized(const RddRef &R, uint32_t P,
                                      const TupleSink &Sink) {
  // Cache-loss injection: the materialized copy vanishes (executor
  // failure) before this read. The cache is dropped, queued for lineage
  // recomputation, and the consuming task fails -- its retry finds the
  // rebuilt cache.
  if (Faults && canRecompute(R) &&
      Faults->shouldFail(FaultSite::CacheRead)) {
    ++Stats.CacheLossEvents;
    dropMaterialized(R);
    LostCaches.push_back(R);
    throw TaskFailure("injected cache loss: RDD " + std::to_string(R->Id) +
                      (R->VarName.empty() ? "" : " (" + R->VarName + ")") +
                      " partition " + std::to_string(P) +
                      " lost its materialized copy");
  }
  RddContext Ctx(H);
  memsim::HybridMemory &Mem = H.memory();
  R->LastUse = ++UseClock;
  // Each per-partition read is a task invoking iterator() on the RDD
  // object -- one monitored call (the Table 5 counts scale with tasks).
  recordCall(R);
  if (R->OffHeapStubs) {
    // Off-heap region tier: the on-heap stub is the only object the read
    // touches before the serialized bytes stream out of the region. A
    // stub retargeted to NoAddress was spilled to executor "disk".
    PANTHERA_CHECK(OffHeap && R->TopRootId != SIZE_MAX,
                   "off-heap RDD lost its tier or root");
    GcRoot Top(H, H.persistentRoot(R->TopRootId));
    GcRoot Dir(H, H.loadRef(Top.get(), 0));
    GcRoot Stub(H, H.loadRef(Dir.get(), P));
    uint64_t Addr = H.stubNativeAddr(Stub.get());
    uint32_t Count = H.stubRecordCount(Stub.get());
    if (Addr == offheap::NoAddress) {
      PANTHERA_CHECK(P < R->DiskParts.size(), "spilled stub lost its rows");
      for (const SourceRecord &Row : R->DiskParts[P]) {
        Mem.addCpuWorkNs(Config.PerRecordCpuNs + Config.DiskRecordCpuNs);
        Sink(Ctx.makeTuple(Row.Key, Row.Val));
      }
      return;
    }
    uint32_t Region = H.stubRegion(Stub.get());
    // Bulk record-granular read of the whole partition (regions never
    // move, so hoisting ahead of the allocating sink is safe), then the
    // same per-record deserialization CPU as the on-heap _SER levels.
    std::vector<SourceRecord> Rows(Count);
    OffHeap->readPartition(Region, Addr, Rows.data(), Count,
                           sizeof(SourceRecord));
    for (const SourceRecord &Row : Rows) {
      Mem.addCpuWorkNs(Config.PerRecordCpuNs + Config.ShuffleRecordCpuNs);
      Sink(Ctx.makeTuple(Row.Key, Row.Val));
    }
    return;
  }
  if (!R->DiskParts.empty()) {
    // DISK_ONLY or evicted MEMORY_AND_DISK: re-read from "disk"
    // (unaccounted device; deserialization CPU cost only).
    for (const SourceRecord &Row : R->DiskParts[P]) {
      Mem.addCpuWorkNs(Config.PerRecordCpuNs + Config.DiskRecordCpuNs);
      Sink(Ctx.makeTuple(Row.Key, Row.Val));
    }
    return;
  }
  PANTHERA_CHECK(R->TopRootId != SIZE_MAX,
                 "materialized RDD lost its root");
  GcRoot Top(H, H.persistentRoot(R->TopRootId));
  GcRoot Dir(H, H.loadRef(Top.get(), 0));
  GcRoot Arr(H, H.loadRef(Dir.get(), P));
  if (R->SerializedInMemory) {
    // Deserialize: one bulk element-granular read of the byte buffer
    // (reading ahead of the allocating sink also means a GC triggered by
    // tuple allocation can no longer move the array mid-scan), then one
    // young tuple allocated per record.
    uint32_t Pairs = H.arrayLength(Arr.get()) / 2;
    std::vector<int64_t> Bits(2ull * Pairs);
    H.loadElemsI64(Arr.get(), 0, 2 * Pairs, Bits.data());
    for (uint32_t I = 0; I != Pairs; ++I) {
      int64_t Key = Bits[2 * I];
      double Val;
      std::memcpy(&Val, &Bits[2 * I + 1], sizeof(Val));
      Mem.addCpuWorkNs(Config.PerRecordCpuNs + Config.ShuffleRecordCpuNs);
      Sink(Ctx.makeTuple(Key, Val));
    }
    return;
  }
  uint32_t Len = H.arrayLength(Arr.get());
  for (uint32_t I = 0; I != Len; ++I) {
    Mem.addCpuWorkNs(Config.PerRecordCpuNs);
    Sink(H.loadRef(Arr.get(), I));
  }
}

//===----------------------------------------------------------------------===
// Materialization
//===----------------------------------------------------------------------===

void SparkContext::installMaterialized(const RddRef &R, ObjRef Top) {
  R->TopRootId = H.addPersistentRoot(Top);
  R->Materialized = true;
  R->LastUse = ++UseClock;
  ++Stats.RddsMaterialized;
  // Only disk-backed heap levels may fall back to disk under pressure, and
  // only flat (payload-free) tuples serialize; grouped RDDs stay pinned.
  if (R->PersistRequested && isHeapLevel(R->Level) &&
      levelProps(R->Level).DiskBacked && R->Op != OpKind::GroupByKey &&
      std::find(EvictableStore.begin(), EvictableStore.end(), R) ==
          EvictableStore.end())
    EvictableStore.push_back(R);
}

void SparkContext::evictToDisk(const RddRef &R) {
  PANTHERA_CHECK(R->Materialized && R->TopRootId != SIZE_MAX,
                 "nothing to evict");
  // Eviction reads the cache it is about to drop; a cache-loss injection
  // in the middle of that read would corrupt the transfer.
  FaultSuppressionScope Suppress(Faults);
  memsim::HybridMemory &Mem = H.memory();
  RddContext Ctx(H);
  uint32_t P = Config.NumPartitions;
  // Collect into a staging structure first: streamMaterialized dispatches
  // on DiskParts, which must stay empty until the read-back completes.
  std::vector<std::vector<SourceRecord>> Collected(P);
  for (uint32_t I = 0; I != P; ++I)
    streamMaterialized(R, I, [&](ObjRef T) {
      Mem.addCpuWorkNs(Config.DiskRecordCpuNs);
      Collected[I].push_back({Ctx.key(T), Ctx.value(T)});
    });
  R->DiskParts = std::move(Collected);
  // Drop the heap copy; the next full GC reclaims it.
  H.removePersistentRoot(R->TopRootId);
  R->TopRootId = SIZE_MAX;
  R->SerializedInMemory = false;
  ++Stats.RddsEvictedToDisk;
}

void SparkContext::maybeEvictStorage() {
  auto Occupancy = [this] {
    uint64_t Used = 0, Size = 0;
    for (heap::Space *S : H.oldSpaces()) {
      Used += S->usedBytes();
      Size += S->sizeBytes();
    }
    return Size ? static_cast<double>(Used) / static_cast<double>(Size)
                : 0.0;
  };
  if (Occupancy() < Config.EvictionOccupancy)
    return;
  while (true) {
    // Pick the least-recently-used still-resident evictable block.
    RddRef Victim;
    for (const RddRef &R : EvictableStore)
      if (R->Materialized && R->TopRootId != SIZE_MAX &&
          (!Victim || R->LastUse < Victim->LastUse))
        Victim = R;
    if (!Victim)
      return;
    evictToDisk(Victim);
    H.requestMajorGc("storage eviction");
    if (Occupancy() < Config.EvictionOccupancy)
      return;
  }
}

bool SparkContext::spillOffHeapVictim(const RddRef &Current,
                                      ObjRef CurrentDir) {
  offheap::OffHeapCache::Victim V = OffHeap->pickVictim();
  if (V.Region == offheap::NoRegion)
    return false;
  // The pick can be a partition of the RDD being materialized right now --
  // its directory is still a caller-held stack root, not an installed
  // persistent root, so the caller passes it in.
  RddRef Victim;
  GcRoot Dir(H);
  if (Current && V.RddId == Current->Id) {
    Victim = Current;
    Dir.set(CurrentDir);
  } else {
    for (const RddRef &R : OffHeapStore)
      if (R->Id == V.RddId) {
        Victim = R;
        break;
      }
    PANTHERA_CHECK(Victim && Victim->Materialized &&
                       Victim->TopRootId != SIZE_MAX,
                   "off-heap eviction pick lost its RDD");
    Dir.set(H.loadRef(H.persistentRoot(Victim->TopRootId), 0));
  }
  // Read the serialized partition back out of its region, stage it on
  // executor "disk" (same CPU charge as BlockManager eviction), retarget
  // the stub, and release the region for recycling.
  GcRoot Stub(H, H.loadRef(Dir.get(), V.Part));
  uint64_t Addr = H.stubNativeAddr(Stub.get());
  uint32_t Count = H.stubRecordCount(Stub.get());
  PANTHERA_CHECK(Addr != offheap::NoAddress, "victim already spilled");
  std::vector<SourceRecord> Rows(Count);
  OffHeap->readPartition(V.Region, Addr, Rows.data(), Count,
                         sizeof(SourceRecord));
  H.memory().addCpuWorkNs(static_cast<double>(Count) *
                          Config.DiskRecordCpuNs);
  if (Victim->DiskParts.empty())
    Victim->DiskParts.assign(Config.NumPartitions, {});
  Victim->DiskParts[V.Part] = std::move(Rows);
  H.setStubNativeAddr(Stub.get(), offheap::NoAddress);
  OffHeap->release(V.Region, /*Evicted=*/true);
  return true;
}

void SparkContext::materializeNarrow(const RddRef &R,
                                     const ShuffleFusion *Fusion) {
  uint32_t P = Config.NumPartitions;
  MemTag Tag = Config.UseStaticTags ? R->EffectiveTag : MemTag::None;
  const TupleSink *Tee = Fusion ? Fusion->Tee : nullptr;
  PANTHERA_CHECK(!Tee || isHeapLevel(R->Level),
                 "shuffle fusion applies to heap-materialized RDDs only");
  maybeEvictStorage();
  std::string Stage =
      std::string("materialize ") + opKindName(R->Op) +
      (R->VarName.empty() ? std::string() : " '" + R->VarName + "'");
  StageScope Span(*this, Stage);
  // Cluster mode, standalone materialization: place each per-partition
  // task by its parent's locality and record where the result lives. A
  // fused materialization is placed by the consuming shuffle's hooks.
  std::vector<unsigned> TaskExec;
  if (Clstr && !Fusion) {
    clusterBeginStage();
    TaskExec.assign(P, 0);
  }
  // Pointer handed to runTask for straggler detection: the standalone
  // cluster path owns TaskExec; a fused map task's slot belongs to the
  // consuming shuffle.
  auto ExecPtr = [&](uint32_t I) -> unsigned * {
    if (Clstr && !Fusion)
      return &TaskExec[I];
    if (Fusion && Fusion->ExecSlot)
      return Fusion->ExecSlot(I);
    return nullptr;
  };
  auto Place = [&](uint32_t I) {
    if (!Clstr || Fusion)
      return;
    int Pref = R->Parents.empty()
                   ? -1
                   : Clstr->partitionLocation(R->Parents[0]->Id, I);
    if (Pref < 0)
      Pref = Clstr->splitOwner(I);
    TaskExec[I] = Clstr->placeTask(Pref);
  };
  auto Placed = [&](uint32_t I) {
    if (Clstr && !Fusion)
      Clstr->recordPartitionLocation(R->Id, I, TaskExec[I]);
  };
  // Bracket each per-partition task with the consuming shuffle's
  // snapshot/flush/rollback hooks so a failed fused map task can undo the
  // records it already routed.
  auto FusionBegin = [&](uint32_t I) {
    if (Fusion && Fusion->BeforeTask)
      Fusion->BeforeTask(I);
    if (Fusion && Fusion->BeginTask)
      Fusion->BeginTask();
  };
  auto FusionAfter = [&](uint32_t I) {
    if (Fusion && Fusion->AfterTask)
      Fusion->AfterTask(I);
  };
  auto FusionEnd = [&] {
    if (Fusion && Fusion->EndTask)
      Fusion->EndTask();
  };
  std::function<void()> FusionRollback;
  if (Fusion && Fusion->Rollback)
    FusionRollback = Fusion->Rollback;

  if (R->Level == StorageLevel::OffHeapSer && R->PersistRequested) {
    // Off-heap region tier (docs/offheap.md): serialize each partition
    // once into a region, then root one GC-leaf stub per partition. The
    // serialized bytes never appear in trace or compaction work; only the
    // 48-byte stubs do. The paper places all off-heap native memory in
    // NVM (§4.1); the tier claims its budget there on first use.
    if (!OffHeap)
      OffHeap = std::make_unique<offheap::OffHeapCache>(
          H, OffHeapBudgetBytes, Metrics, TraceSink);
    R->OffHeapStubs = true;
    GcRoot Dir(H, H.allocRefArray(P));
    RddContext Ctx(H);
    for (uint32_t I = 0; I != P; ++I) {
      Place(I);
      uint32_t PlacedRegion = offheap::NoRegion;
      runTask(
          Stage, R->Id, I,
          [&] {
            PlacedRegion = offheap::NoRegion;
            std::vector<SourceRecord> Rows;
            streamPartition(R, I, [&](ObjRef T) {
              Rows.push_back({Ctx.key(T), Ctx.value(T)});
              H.memory().addCpuWorkNs(Config.ShuffleRecordCpuNs);
            });
            // Budget pressure sheds untouched regions first; when nothing
            // is left to shed, this partition falls back to executor
            // "disk" behind a NoAddress stub (the staged-OOM spill path).
            offheap::OffHeapCache::Placement Pl;
            while (true) {
              Pl = OffHeap->cachePartition(Rows.data(), Rows.size(),
                                           sizeof(SourceRecord), R->Id, I);
              if (Pl.Region != offheap::NoRegion ||
                  !spillOffHeapVictim(R, Dir.get()))
                break;
            }
            PlacedRegion = Pl.Region;
            if (Pl.Region == offheap::NoRegion) {
              if (R->DiskParts.empty())
                R->DiskParts.assign(P, {});
              H.memory().addCpuWorkNs(static_cast<double>(Rows.size()) *
                                      Config.DiskRecordCpuNs);
              R->DiskParts[I] = std::move(Rows);
              Pl.Addr = offheap::NoAddress;
            }
            ObjRef Stub = H.allocOffHeapStub(
                Pl.Addr, Pl.Region, static_cast<uint32_t>(Rows.size()),
                R->Id);
            H.storeRef(Dir.get(), I, Stub);
          },
          [&] {
            // A failed attempt may have placed a region (e.g. OOM while
            // allocating the stub) or spilled rows; undo both.
            if (PlacedRegion != offheap::NoRegion) {
              OffHeap->release(PlacedRegion, /*Evicted=*/false);
              PlacedRegion = offheap::NoRegion;
            }
            if (!R->DiskParts.empty())
              R->DiskParts[I].clear();
          },
          ExecPtr(I));
      Placed(I);
    }
    ObjRef Top = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/0);
    H.header(Top.addr())->RddId = R->Id;
    H.storeRef(Top, 0, Dir.get());
    installMaterialized(R, Top);
    if (std::find(OffHeapStore.begin(), OffHeapStore.end(), R) ==
        OffHeapStore.end())
      OffHeapStore.push_back(R);
    return;
  }
  if (R->Level == StorageLevel::DiskOnly && R->PersistRequested) {
    R->DiskParts.assign(P, {});
    for (uint32_t I = 0; I != P; ++I) {
      Place(I);
      runTask(
          Stage, R->Id, I,
          [&] {
            RddContext Ctx(H);
            streamPartition(R, I, [&](ObjRef T) {
              R->DiskParts[I].push_back({Ctx.key(T), Ctx.value(T)});
            });
          },
          [&] { R->DiskParts[I].clear(); }, ExecPtr(I));
      Placed(I);
    }
    R->Materialized = true;
    ++Stats.RddsMaterialized;
    return;
  }

  if (isHeapLevel(R->Level) && isSerializedLevel(R->Level)) {
    // Serialized in-memory storage: each partition is ONE primitive array
    // of (key, value-bits) pairs. No tuple objects survive, so the cache
    // is nearly invisible to the GC -- which is why the paper persists
    // its fault-tolerance caches (e.g. PageRank's contribs) this way.
    GcRoot Dir(H, H.allocRefArray(P));
    RddContext Ctx(H);
    for (uint32_t I = 0; I != P; ++I) {
      Place(I);
      FusionBegin(I);
      runTask(
          Stage, R->Id, I,
          [&] {
            std::vector<SourceRecord> Rows;
            streamPartition(R, I, [&](ObjRef T) {
              if (Tee) {
                GcRoot Saved(H, T);
                (*Tee)(T);
                T = Saved.get();
              }
              Rows.push_back({Ctx.key(T), Ctx.value(T)});
              H.memory().addCpuWorkNs(Config.ShuffleRecordCpuNs);
            });
            if (Tag != MemTag::None)
              H.setPendingArrayTag(Tag, R->Id);
            ObjRef Buf =
                H.allocPrimArray(static_cast<uint32_t>(Rows.size()) * 2, 8);
            H.setPendingArrayTag(MemTag::None, 0);
            H.header(Buf.addr())->RddId = R->Id;
            {
              // Serialize through one bulk element-granular store: the
              // interleaved (key, value-bits) image is staged host-side,
              // then written as a single range — no allocation intervenes,
              // so the store sequence is exactly the old per-element loop.
              GcRoot BufRoot(H, Buf);
              std::vector<int64_t> Bits(Rows.size() * 2);
              for (uint32_t J = 0; J != Rows.size(); ++J) {
                Bits[2 * J] = Rows[J].Key;
                std::memcpy(&Bits[2 * J + 1], &Rows[J].Val,
                            sizeof(int64_t));
              }
              H.storeElemsI64(BufRoot.get(), 0,
                              static_cast<uint32_t>(Bits.size()),
                              Bits.data());
              H.storeRef(Dir.get(), I, BufRoot.get());
            }
            FusionEnd();
          },
          FusionRollback, ExecPtr(I));
      FusionAfter(I);
      Placed(I);
    }
    ObjRef Top = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/0);
    heap::ObjectHeader *TopHdr = H.header(Top.addr());
    TopHdr->RddId = R->Id;
    if (Tag != MemTag::None)
      TopHdr->setMemTag(Tag);
    H.storeRef(Top, 0, Dir.get());
    R->SerializedInMemory = true;
    installMaterialized(R, Top);
    return;
  }

  // Heap materialization: directory -> per-partition arrays of tuples.
  GcRoot Dir(H, H.allocRefArray(P));
  for (uint32_t I = 0; I != P; ++I) {
    Place(I);
    FusionBegin(I);
    runTask(
        Stage, R->Id, I,
        [&] {
          PartitionBuilder Builder(H);
          streamPartition(R, I, [&](ObjRef T) {
            if (Tee) {
              // Shuffle fusion: feed the consuming shuffle in the same
              // pass. The tee may allocate (spill buffers), so re-root
              // the tuple.
              GcRoot Saved(H, T);
              (*Tee)(T);
              T = Saved.get();
            }
            Builder.append(T);
          });
          ObjRef Arr = Builder.finish(Tag, R->Id);
          H.storeRef(Dir.get(), I, Arr);
          FusionEnd();
        },
        FusionRollback, ExecPtr(I));
    FusionAfter(I);
    Placed(I);
  }
  // rdd_alloc also stamps the *top* object's MEMORY_BITS so the root task
  // promotes it to the right space (§4.2.1).
  ObjRef Top = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/0);
  heap::ObjectHeader *TopHdr = H.header(Top.addr());
  TopHdr->RddId = R->Id;
  if (Tag != MemTag::None)
    TopHdr->setMemTag(Tag);
  H.storeRef(Top, 0, Dir.get());
  installMaterialized(R, Top);
}

SparkContext::Buckets
SparkContext::shuffle(const RddRef &Parent,
                      const std::function<uint32_t(int64_t)> &Partitioner) {
  uint32_t P = Config.NumPartitions;
  RddContext Ctx(H);
  memsim::HybridMemory &Mem = H.memory();
  ++Stats.StagesRun;
  StageScope Span(*this,
                  std::string("shuffle ") + opKindName(Parent->Op) +
                      (Parent->VarName.empty()
                           ? std::string()
                           : " '" + Parent->VarName + "'"));

  // Map side. As in Spark, the shuffle's write buffers are heap data: the
  // routed records accumulate in per-target-partition buffers that stay
  // live for the whole map pass -- this transient bulk is precisely the
  // "large amounts of intermediate data" whose collection dominates the
  // paper's GC costs. Builders must be destroyed in reverse construction
  // order (GC root discipline is LIFO) even when an exception unwinds this
  // frame, so a plain vector (forward element destruction) won't do.
  struct BuilderStack {
    std::vector<std::unique_ptr<PartitionBuilder>> V;
    ~BuilderStack() {
      while (!V.empty())
        V.pop_back();
    }
    PartitionBuilder &operator[](uint32_t I) { return *V[I]; }
  } Buffers;
  Buffers.V.reserve(P);
  for (uint32_t I = 0; I != P; ++I)
    Buffers.V.emplace_back(std::make_unique<PartitionBuilder>(H));
  Buckets Out(P);
  // Spills a buffer to "disk" (native memory, unaccounted like the
  // paper's disk I/O) and recycles it.
  auto Spill = [&](uint32_t Target) {
    PartitionBuilder &B = Buffers[Target];
    Out[Target].reserve(Out[Target].size() + B.size());
    B.forEach([&](ObjRef T) {
      Mem.addCpuWorkNs(Config.ShuffleRecordCpuNs);
      Out[Target].push_back({Ctx.key(T), Ctx.value(T)});
    });
    B.clear();
  };
  TupleSink Route = [&](ObjRef T) {
    Mem.addCpuWorkNs(Config.ShuffleRecordCpuNs);
    ++Stats.ShuffleRecords;
    int64_t K = Ctx.key(T);
    uint32_t Target = Partitioner ? Partitioner(K) : partitionOf(K, P);
    Buffers[Target].append(T);
    if (Buffers[Target].size() >= Config.ShuffleSpillRecords) {
      ++Stats.ShuffleSpills;
      Spill(Target);
    }
  };

  // Task bracketing: every map task ends by flushing all route buffers
  // into Out, so a failed attempt can restore Out to its task-start
  // snapshot and clear the buffers without disturbing earlier tasks'
  // records. Each record is still written exactly once.
  std::vector<size_t> OutSnapshot(P, 0);
  uint64_t RecordsSnapshot = 0, SpillsSnapshot = 0;
  auto BeginTask = [&] {
    for (uint32_t I = 0; I != P; ++I)
      OutSnapshot[I] = Out[I].size();
    RecordsSnapshot = Stats.ShuffleRecords;
    SpillsSnapshot = Stats.ShuffleSpills;
  };
  auto EndTask = [&] {
    for (uint32_t I = 0; I != P; ++I)
      Spill(I);
  };
  auto Rollback = [&] {
    for (uint32_t I = 0; I != P; ++I) {
      Buffers[I].clear();
      Out[I].resize(OutSnapshot[I]);
    }
    Stats.ShuffleRecords = RecordsSnapshot;
    Stats.ShuffleSpills = SpillsSnapshot;
  };

  // Cluster mode (docs/cluster.md): this stage is the map side of a
  // distributed shuffle. Each map task is placed by its parent
  // partition's locality; after it succeeds, the records it routed to
  // each target partition register as per-executor blocks with the map
  // output tracker. The buckets in Out remain the data plane either way.
  std::function<void(uint32_t)> PlaceMap, RegisterMapOutputs;
  if (Clstr) {
    ClusterShuffle.Active = true;
    ClusterShuffle.Parent = Parent;
    ClusterShuffle.Partitioner = Partitioner;
    ClusterShuffle.MapExec.assign(P, 0);
    ClusterShuffle.PendingRecompute.clear();
    Clstr->beginShuffle(P, P);
    clusterBeginStage();
    PlaceMap = [&](uint32_t M) {
      int Pref = Clstr->partitionLocation(Parent->Id, M);
      if (Pref < 0)
        Pref = Clstr->splitOwner(M);
      ClusterShuffle.MapExec[M] = Clstr->placeTask(Pref);
    };
    RegisterMapOutputs = [&](uint32_t M) {
      unsigned E = ClusterShuffle.MapExec[M];
      for (uint32_t T = 0; T != P; ++T) {
        uint64_t Count = Out[T].size() - OutSnapshot[T];
        Clstr->registerMapOutput(M, T, E, Out[T].data() + OutSnapshot[T],
                                 Count * sizeof(SourceRecord), Count,
                                 OutSnapshot[T]);
      }
      // The computed parent partition now lives on E; later stages over
      // the same parent prefer it.
      Clstr->recordPartitionLocation(Parent->Id, M, E);
    };
  }

  if (canFuseIntoShuffle(Parent)) {
    // Materialize the persist-pending parent and write the shuffle in one
    // streaming pass: its cached partitions are written once, not re-read.
    ShuffleFusion Fusion;
    Fusion.Tee = &Route;
    Fusion.BeginTask = BeginTask;
    Fusion.EndTask = EndTask;
    Fusion.Rollback = Rollback;
    Fusion.BeforeTask = PlaceMap;
    Fusion.AfterTask = RegisterMapOutputs;
    if (Clstr)
      Fusion.ExecSlot = [this](uint32_t M) {
        return &ClusterShuffle.MapExec[M];
      };
    materializeNarrow(Parent, &Fusion);
  } else {
    std::string Stage =
        std::string("shuffle map ") + opKindName(Parent->Op) +
        (Parent->VarName.empty() ? std::string()
                                 : " '" + Parent->VarName + "'");
    for (uint32_t I = 0; I != P; ++I) {
      if (PlaceMap)
        PlaceMap(I);
      BeginTask();
      runTask(
          Stage, Parent->Id, I,
          [&] {
            streamPartition(Parent, I, Route);
            EndTask();
          },
          Rollback, Clstr ? &ClusterShuffle.MapExec[I] : nullptr);
      if (RegisterMapOutputs)
        RegisterMapOutputs(I);
    }
  }
  return Out;
}

void SparkContext::materializeWide(const RddRef &R) {
  uint32_t P = Config.NumPartitions;
  MemTag Tag = Config.UseStaticTags ? R->EffectiveTag : MemTag::None;
  maybeEvictStorage();
  RddContext Ctx(H);
  StageScope Span(*this, std::string("reduce ") + opKindName(R->Op) +
                             (R->VarName.empty()
                                  ? std::string()
                                  : " '" + R->VarName + "'"));

  // sortByKey first runs a sampling pass over its parent to choose range
  // splitters (Spark's RangePartitioner does the same extra job).
  std::function<uint32_t(int64_t)> Partitioner;
  if (R->Op == OpKind::SortByKey) {
    std::vector<int64_t> Sample;
    uint64_t Counter = 0;
    for (uint32_t I = 0; I != P; ++I) {
      size_t SampleSnapshot = Sample.size();
      uint64_t CounterSnapshot = Counter;
      runTask(
          "sortByKey sampling", R->Id, I,
          [&] {
            streamPartition(R->Parents[0], I, [&](ObjRef T) {
              if ((Counter++ & 15) == 0)
                Sample.push_back(Ctx.key(T));
            });
          },
          [&] {
            Sample.resize(SampleSnapshot);
            Counter = CounterSnapshot;
          });
    }
    std::sort(Sample.begin(), Sample.end());
    std::vector<int64_t> Splitters;
    for (uint32_t I = 1; I < P; ++I)
      Splitters.push_back(
          Sample.empty() ? 0 : Sample[I * Sample.size() / P]);
    Partitioner = [Splitters](int64_t K) {
      return static_cast<uint32_t>(
          std::upper_bound(Splitters.begin(), Splitters.end(), K) -
          Splitters.begin());
    };
  }

  Buckets In = shuffle(R->Parents[0], Partitioner);

  // Cluster mode: place each reduce task where most of its shuffle bytes
  // already sit, then account its block fetches (local free, remote over
  // the fabric) inside the retryable task body -- an injected executor
  // loss surfaces there as a lost-block fetch failure, and the retry
  // re-runs the lost map tasks from lineage first.
  std::vector<unsigned> ReduceExec;
  if (Clstr) {
    clusterBeginStage();
    ReduceExec.assign(P, 0);
  }

  GcRoot Dir(H, H.allocRefArray(P));
  std::string Stage =
      std::string("reduce ") + opKindName(R->Op) +
      (R->VarName.empty() ? std::string() : " '" + R->VarName + "'");
  // One retryable reduce task per partition. The shuffle buckets in `In`
  // stay intact across attempts, so a retry re-fetches the same input; all
  // heap effects before the final directory store are discarded garbage.
  for (uint32_t I = 0; I != P; ++I) {
    // Placement is lazy -- immediately before each task, not up front for
    // the whole stage -- so a straggler flagged by an earlier reduce task
    // is already steered around when the later ones place.
    if (Clstr)
      ReduceExec[I] = Clstr->placeTask(Clstr->preferredReducer(I));
    runTask(Stage, R->Id, I, [&] {
    if (Faults && Faults->shouldFail(FaultSite::ShuffleFetch))
      throw TaskFailure("injected shuffle fetch failure in stage '" + Stage +
                        "', partition " + std::to_string(I));
    if (Clstr)
      fetchShuffleInputs(In, I, ReduceExec[I]);
    std::vector<SourceRecord> &Rows = In[I];
    switch (R->Op) {
    case OpKind::ReduceByKey: {
      // Combine folds each key's values in row order, and the output is
      // in ascending key order.
      KeyIndex<int64_t> Keys;
      std::vector<double> Agg;
      for (const SourceRecord &Row : Rows) {
        bool New;
        uint32_t Slot = Keys.insert(Row.Key, New);
        if (New)
          Agg.push_back(Row.Val);
        else
          Agg[Slot] = R->Combine(Agg[Slot], Row.Val);
      }
      if (Tag != MemTag::None)
        H.setPendingArrayTag(Tag, R->Id);
      ObjRef ArrRaw = H.allocRefArray(static_cast<uint32_t>(Keys.size()));
      H.setPendingArrayTag(MemTag::None, 0);
      H.header(ArrRaw.addr())->RddId = R->Id;
      GcRoot Arr(H, ArrRaw);
      uint32_t Index = 0;
      for (const auto &[K, Slot] : Keys.sorted()) {
        ObjRef T = Ctx.makeTuple(K, Agg[Slot]);
        H.storeRef(Arr.get(), Index++, T);
      }
      H.storeRef(Dir.get(), I, Arr.get());
      break;
    }
    case OpKind::GroupByKey: {
      // Each group keeps its values in row order; groups are in ascending
      // key order.
      KeyIndex<int64_t> Keys;
      std::vector<std::vector<double>> Groups;
      for (const SourceRecord &Row : Rows) {
        bool New;
        uint32_t Slot = Keys.insert(Row.Key, New);
        if (New)
          Groups.emplace_back();
        Groups[Slot].push_back(Row.Val);
      }
      if (Tag != MemTag::None)
        H.setPendingArrayTag(Tag, R->Id);
      ObjRef ArrRaw = H.allocRefArray(static_cast<uint32_t>(Keys.size()));
      H.setPendingArrayTag(MemTag::None, 0);
      H.header(ArrRaw.addr())->RddId = R->Id;
      GcRoot Arr(H, ArrRaw);
      uint32_t Index = 0;
      for (const auto &[K, Slot] : Keys.sorted()) {
        const std::vector<double> &Values = Groups[Slot];
        // CompactBuffer (Fig 1): tuple -> reference array -> boxed value
        // objects. The indirection is load-bearing: reading a cached
        // grouped RDD is a pointer chase, exactly like the paper's
        // String-element buffers.
        ObjRef Buf =
            H.allocRefArray(static_cast<uint32_t>(Values.size()));
        {
          GcRoot BufRoot(H, Buf);
          for (uint32_t J = 0; J != Values.size(); ++J) {
            ObjRef Box = Ctx.makeBox(Values[J]);
            H.storeRef(BufRoot.get(), J, Box);
          }
          ObjRef T = Ctx.makeTupleWithRef(K, 0.0, BufRoot.get());
          H.storeRef(Arr.get(), Index++, T);
        }
      }
      H.storeRef(Dir.get(), I, Arr.get());
      break;
    }
    case OpKind::Distinct: {
      // The first occurrence of each (key, value bit pattern), in input
      // order: -0.0 and +0.0 differ, and so do NaN payloads.
      KeyIndex<std::pair<int64_t, int64_t>> Seen;
      std::vector<SourceRecord> Unique;
      for (const SourceRecord &Row : Rows) {
        int64_t Bits;
        std::memcpy(&Bits, &Row.Val, sizeof(Bits));
        bool New;
        Seen.insert({Row.Key, Bits}, New);
        if (New)
          Unique.push_back(Row);
      }
      if (Tag != MemTag::None)
        H.setPendingArrayTag(Tag, R->Id);
      ObjRef ArrRaw = H.allocRefArray(static_cast<uint32_t>(Unique.size()));
      H.setPendingArrayTag(MemTag::None, 0);
      H.header(ArrRaw.addr())->RddId = R->Id;
      GcRoot Arr(H, ArrRaw);
      for (uint32_t J = 0; J != Unique.size(); ++J) {
        ObjRef T = Ctx.makeTuple(Unique[J].Key, Unique[J].Val);
        H.storeRef(Arr.get(), J, T);
      }
      H.storeRef(Dir.get(), I, Arr.get());
      break;
    }
    case OpKind::SortByKey:
    case OpKind::Repartition: {
      // Sort a copy, never In[I] itself: the buckets are the shuffle's
      // data plane, which replica byte-verification (and any retry or
      // speculative re-run that re-fetches) checks against -- the reduce
      // body must leave it exactly as the map side wrote it.
      std::vector<SourceRecord> Output = Rows;
      if (R->Op == OpKind::SortByKey)
        std::sort(Output.begin(), Output.end(),
                  [](const SourceRecord &A, const SourceRecord &B) {
                    return A.Key != B.Key ? A.Key < B.Key : A.Val < B.Val;
                  });
      if (Tag != MemTag::None)
        H.setPendingArrayTag(Tag, R->Id);
      ObjRef ArrRaw = H.allocRefArray(static_cast<uint32_t>(Output.size()));
      H.setPendingArrayTag(MemTag::None, 0);
      H.header(ArrRaw.addr())->RddId = R->Id;
      GcRoot Arr(H, ArrRaw);
      for (uint32_t J = 0; J != Output.size(); ++J) {
        ObjRef T = Ctx.makeTuple(Output[J].Key, Output[J].Val);
        H.storeRef(Arr.get(), J, T);
      }
      H.storeRef(Dir.get(), I, Arr.get());
      break;
    }
    default:
      PANTHERA_CHECK(false, "not a materializing wide op");
    }
    }, nullptr, Clstr ? &ReduceExec[I] : nullptr);
    if (Clstr)
      Clstr->recordPartitionLocation(R->Id, I, ReduceExec[I]);
  }
  if (Clstr) {
    Clstr->endShuffle();
    ClusterShuffle = ActiveClusterShuffle();
  }

  ObjRef Top = H.allocPlain(/*NumRefs=*/1, /*PayloadBytes=*/0);
  heap::ObjectHeader *TopHdr = H.header(Top.addr());
  TopHdr->RddId = R->Id;
  if (Tag != MemTag::None)
    TopHdr->setMemTag(Tag);
  H.storeRef(Top, 0, Dir.get());
  installMaterialized(R, Top);
}

//===----------------------------------------------------------------------===
// Cluster mode: distributed shuffle fetch + lineage recovery
//===----------------------------------------------------------------------===

void SparkContext::fetchShuffleInputs(Buckets &In, uint32_t Reduce,
                                      unsigned Exec) {
  // A previous attempt (of this or an earlier reduce task) saw blocks die
  // with their executor: re-run those map tasks from lineage before
  // fetching, so this attempt finds every block live again.
  if (!ClusterShuffle.PendingRecompute.empty())
    recomputeLostMapOutputs(In);
  uint32_t P = Config.NumPartitions;
  for (uint32_t M = 0; M != P; ++M) {
    // Executor-loss injection rides the per-block fetch: a firing draw
    // kills the executor owning the block about to be fetched (never the
    // last live one).
    if (Faults && Clstr->numAlive() > 1 &&
        Faults->shouldFail(FaultSite::ExecutorLoss)) {
      unsigned Victim = Clstr->mapOutput(M, Reduce).Exec;
      if (Clstr->executorAlive(Victim)) {
        if (TraceSink)
          TraceSink->instant(support::TraceTrack::Engine, "executor lost",
                             "cluster", H.memory().totalTimeNs())
              .arg("executor", static_cast<uint64_t>(Victim));
        std::vector<uint32_t> LostMaps = Clstr->killExecutor(Victim);
        ClusterShuffle.PendingRecompute.insert(
            ClusterShuffle.PendingRecompute.end(), LostMaps.begin(),
            LostMaps.end());
      }
    }
    const cluster::BlockInfo &B = Clstr->mapOutput(M, Reduce);
    if (B.Lost) {
      // Queue the map task (again -- recomputeLostMapOutputs dedups) so
      // the retry repairs it even if an earlier recovery pass was itself
      // interrupted, then fail the task like Spark's FetchFailed.
      ClusterShuffle.PendingRecompute.push_back(M);
      throw TaskFailure("shuffle fetch failed: map output " +
                        std::to_string(M) + "/" + std::to_string(Reduce) +
                        " was lost with executor " + std::to_string(B.Exec));
    }
    // Transient fetch faults: a firing draw either drops the response on
    // the simulated wire (latency charged, no bytes) or delivers bytes
    // that fail the replica byte-verification. Either way the fetch
    // retries under capped exponential backoff; once the retry budget is
    // spent, the block is declared lost and the task fails over to the
    // lineage-recompute path, exactly like a real executor loss.
    uint32_t RetryLimit = std::max(1u, Clstr->config().Options.FetchRetryLimit);
    for (uint32_t Attempt = 1;; ++Attempt) {
      bool Ok;
      if (Faults && Faults->shouldFail(FaultSite::FetchTransient)) {
        // Alternate the failure mode on the site's fire count so one
        // probability knob exercises both drop and corruption.
        if (Faults->fired(FaultSite::FetchTransient) % 2 == 0) {
          Clstr->chargeDroppedFetch(M, Reduce, Exec);
          Ok = false;
        } else {
          Ok = Clstr->fetchBlock(M, Reduce, Exec,
                                 In[Reduce].data() + B.BucketOffset,
                                 /*InjectCorrupt=*/true);
        }
      } else {
        Ok = Clstr->fetchBlock(M, Reduce, Exec,
                               In[Reduce].data() + B.BucketOffset);
      }
      if (Ok)
        break;
      if (Attempt >= RetryLimit) {
        Clstr->markMapOutputLost(M);
        ClusterShuffle.PendingRecompute.push_back(M);
        throw TaskFailure("shuffle fetch failed: map output " +
                          std::to_string(M) + "/" + std::to_string(Reduce) +
                          " still unfetchable after " +
                          std::to_string(Attempt) + " attempts");
      }
      ++Clstr->stats().FetchRetries;
      chargeFetchBackoff(Attempt, M, Reduce);
    }
  }
}

void SparkContext::recomputeLostMapOutputs(Buckets &In) {
  // Lineage recovery is repair machinery: further injections are
  // suppressed while it runs, like recoverLostCaches.
  FaultSuppressionScope Suppress(Faults);
  std::vector<uint32_t> Maps = std::move(ClusterShuffle.PendingRecompute);
  ClusterShuffle.PendingRecompute.clear();
  std::sort(Maps.begin(), Maps.end());
  Maps.erase(std::unique(Maps.begin(), Maps.end()), Maps.end());
  uint32_t P = Config.NumPartitions;
  RddContext Ctx(H);
  memsim::HybridMemory &Mem = H.memory();
  for (uint32_t M : Maps) {
    double Start = Mem.totalTimeNs();
    // Deterministic re-execution of the lost map task: stream the parent
    // partition through the same per-record route + spill cost structure
    // and the same partitioner the original run used.
    std::vector<std::vector<SourceRecord>> Staged(P);
    streamPartition(ClusterShuffle.Parent, M, [&](ObjRef T) {
      Mem.addCpuWorkNs(2 * Config.ShuffleRecordCpuNs);
      int64_t K = Ctx.key(T);
      uint32_t Target = ClusterShuffle.Partitioner
                            ? ClusterShuffle.Partitioner(K)
                            : partitionOf(K, P);
      Staged[Target].push_back({K, Ctx.value(T)});
    });
    // Re-register on a live executor, checking the recomputation against
    // the intact data plane: lineage must reproduce the records exactly.
    unsigned E = Clstr->placeTask(Clstr->splitOwner(M));
    ClusterShuffle.MapExec[M] = E;
    for (uint32_t T = 0; T != P; ++T) {
      const cluster::BlockInfo &B = Clstr->mapOutput(M, T);
      PANTHERA_CHECK(B.Records == Staged[T].size(),
                     "lineage recomputation changed a block's size");
      PANTHERA_CHECK(B.Records == 0 ||
                         std::memcmp(In[T].data() + B.BucketOffset,
                                     Staged[T].data(), B.Bytes) == 0,
                     "lineage recomputation diverged from the data plane");
      Clstr->registerMapOutput(M, T, E, Staged[T].data(), B.Bytes, B.Records,
                               B.BucketOffset);
    }
    ++Clstr->stats().MapOutputsRecomputed;
    ++Stats.LineageRecomputations;
    if (TraceSink)
      TraceSink->span(support::TraceTrack::Engine, "recompute map output",
                      "cluster", Start, Mem.totalTimeNs() - Start)
          .arg("map", static_cast<uint64_t>(M))
          .arg("executor", static_cast<uint64_t>(E));
  }
}

//===----------------------------------------------------------------------===
// Actions
//===----------------------------------------------------------------------===

void SparkContext::finishAction() {
  while (!TempMaterialized.empty()) {
    RddRef Temp = TempMaterialized.back();
    TempMaterialized.pop_back();
    unpersist(Temp);
  }
}

int64_t SparkContext::runCount(const RddRef &R) {
  recordCall(R);
  prepare(R, MemTag::None);
  StageScope Span(*this, "count action");
  int64_t Total = 0;
  for (uint32_t P = 0; P != Config.NumPartitions; ++P) {
    int64_t Snapshot = Total;
    runTask(
        "count action", R->Id, P,
        [&] { streamPartition(R, P, [&](ObjRef) { ++Total; }); },
        [&] { Total = Snapshot; });
  }
  finishAction();
  return Total;
}

double SparkContext::runReduce(const RddRef &R, const CombineFn &Fn) {
  recordCall(R);
  prepare(R, MemTag::None);
  StageScope Span(*this, "reduce action");
  RddContext Ctx(H);
  bool Seeded = false;
  double Acc = 0.0;
  for (uint32_t P = 0; P != Config.NumPartitions; ++P) {
    double AccSnapshot = Acc;
    bool SeededSnapshot = Seeded;
    runTask(
        "reduce action", R->Id, P,
        [&] {
          streamPartition(R, P, [&](ObjRef T) {
            double V = Ctx.value(T);
            Acc = Seeded ? Fn(Acc, V) : V;
            Seeded = true;
          });
        },
        [&] {
          Acc = AccSnapshot;
          Seeded = SeededSnapshot;
        });
  }
  finishAction();
  return Acc;
}

std::vector<SourceRecord> SparkContext::runCollect(const RddRef &R) {
  recordCall(R);
  prepare(R, MemTag::None);
  StageScope Span(*this, "collect action");
  RddContext Ctx(H);
  std::vector<SourceRecord> Out;
  for (uint32_t P = 0; P != Config.NumPartitions; ++P) {
    size_t Snapshot = Out.size();
    runTask(
        "collect action", R->Id, P,
        [&] {
          streamPartition(R, P, [&](ObjRef T) {
            Out.push_back({Ctx.key(T), Ctx.value(T)});
          });
        },
        [&] { Out.resize(Snapshot); });
  }
  finishAction();
  return Out;
}
