//===- cluster/Cluster.cpp - Multi-executor cluster simulation ------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "support/Errors.h"

#include <algorithm>
#include <cstring>

namespace panthera {
namespace cluster {

//===----------------------------------------------------------------------===
// Executor
//===----------------------------------------------------------------------===

Executor::Executor(unsigned Id, const ClusterConfig &Config) : Id(Id) {
  const heap::HeapConfig &HC = Config.ExecutorHeap;
  uint64_t Total =
      heap::HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes);
  // Null registry: each executor owns a private bandwidth-trace registry so
  // the driver's memsim.* series stay untouched.
  Mem = std::make_unique<memsim::HybridMemory>(Total, Config.Technology,
                                               Config.Cache, Config.EpochNs,
                                               /*Registry=*/nullptr);
  H = std::make_unique<heap::Heap>(HC, *Mem);
  // Claim the shuffle arena up front: the native region is never collected,
  // so per-shuffle reuse needs region recycling over one big claim. The
  // whole claim is one region, reset between shuffles.
  Arena = std::make_unique<offheap::RegionAllocator>(
      *H, HC.NativeBytes, /*MinClaimBytes=*/1ull << 20);
  if (Arena->claimed())
    ArenaRegion = Arena->allocRegion(Arena->claimBytes());
}

//===----------------------------------------------------------------------===
// Cluster
//===----------------------------------------------------------------------===

Cluster::Cluster(const ClusterConfig &Config,
                 memsim::HybridMemory &DriverMem, support::TraceLog *Trace)
    : Config(Config), DriverMem(DriverMem), Trace(Trace) {
  PANTHERA_CHECK(Config.Options.NumExecutors >= 1,
                 "cluster needs at least one executor");
  for (unsigned I = 0; I != Config.Options.NumExecutors; ++I)
    Executors.push_back(std::make_unique<Executor>(I, Config));
  StageLoad.assign(Executors.size(), 0);
  StageCost.assign(Executors.size(), 0.0);
  Slowdown.assign(Executors.size(), 1.0);
  Flagged.assign(Executors.size(), 0);
}

unsigned Cluster::numAlive() const {
  unsigned N = 0;
  for (const auto &E : Executors)
    N += E->alive() ? 1 : 0;
  return N;
}

void Cluster::beginStage() {
  FoldedMakespanNs += currentStageMaxNs();
  std::fill(StageLoad.begin(), StageLoad.end(), 0);
  std::fill(StageCost.begin(), StageCost.end(), 0.0);
  StageBaseCosts.clear();
  ++StageCounter;
  applyElasticEvents();
}

unsigned Cluster::placeTask(int Preferred) {
  // Least-loaded live executor, lowest id on ties: the ANY fallback.
  // Straggler-flagged executors are candidates only when every live
  // executor is flagged (otherwise the scheduler steers around them).
  bool AllFlagged = true;
  for (unsigned I = 0; I != Executors.size(); ++I)
    if (Executors[I]->alive() && !Flagged[I])
      AllFlagged = false;
  unsigned Fallback = 0;
  uint64_t MinLoad = UINT64_MAX;
  for (unsigned I = 0; I != Executors.size(); ++I) {
    if (!Executors[I]->alive() || (Flagged[I] && !AllFlagged))
      continue;
    if (StageLoad[I] < MinLoad) {
      MinLoad = StageLoad[I];
      Fallback = I;
    }
  }
  PANTHERA_CHECK(MinLoad != UINT64_MAX, "no live executor to place a task");
  if (Preferred >= 0 &&
      static_cast<unsigned>(Preferred) < Executors.size() &&
      Executors[Preferred]->alive()) {
    if (Flagged[Preferred] && !AllFlagged) {
      // The data lives on a flagged straggler: give up the PROCESS_LOCAL
      // hint rather than queue behind a degraded machine.
      ++Stats.StragglerAvoidedPlacements;
    } else if (StageLoad[Preferred] <=
               MinLoad + Config.Options.DelaySchedulingSlack) {
      ++Stats.ProcessLocalTasks;
      ++StageLoad[Preferred];
      return static_cast<unsigned>(Preferred);
    } else {
      // The preferred executor exists but is too far behind the pack;
      // delay scheduling gives up and takes the least-loaded one.
      ++Stats.DelayedFallbacks;
    }
  }
  ++Stats.AnyTasks;
  ++StageLoad[Fallback];
  return Fallback;
}

void Cluster::degradeExecutor(unsigned Id) {
  Slowdown[Id] = Config.Options.SlowExecutorFactor;
  if (Trace)
    Trace->instant(support::TraceTrack::Engine, "executor slowed", "cluster",
                   DriverMem.totalTimeNs())
        .arg("executor", static_cast<uint64_t>(Id))
        .arg("factor", Config.Options.SlowExecutorFactor);
}

double Cluster::currentStageMaxNs() const {
  double Max = 0.0;
  for (double C : StageCost)
    Max = std::max(Max, C);
  return Max;
}

double Cluster::makespanNs() const {
  return FoldedMakespanNs + currentStageMaxNs();
}

Cluster::SpeculationOutcome Cluster::accountTask(unsigned Exec,
                                                 double BaseNs) {
  SpeculationOutcome O;
  const ClusterOptions &Opt = Config.Options;
  double Scaled = BaseNs * Slowdown[Exec];
  // Running median of the driver-measured *base* costs this stage,
  // including the task at hand -- the driver's picture of what a healthy
  // run of this stage's tasks costs. Scaled vs base keeps the detector
  // meaningful from the very first task of a stage: a straggler's copy
  // stands out against its own base cost even before peers complete.
  StageBaseCosts.push_back(BaseNs);
  std::vector<double> Sorted = StageBaseCosts;
  std::sort(Sorted.begin(), Sorted.end());
  double Median = Sorted[Sorted.size() / 2];
  bool Straggling = Opt.SpeculationEnabled && Median > 0.0 &&
                    Scaled > Opt.SpeculationMultiplier * Median &&
                    numAlive() > 1;
  if (!Straggling) {
    StageCost[Exec] += Scaled;
    return O;
  }
  // Least-loaded (by stage cost) live executor other than the straggler;
  // unflagged executors win over flagged ones, lowest id on ties.
  int Alt = -1;
  for (unsigned I = 0; I != Executors.size(); ++I) {
    if (I == Exec || !Executors[I]->alive())
      continue;
    if (Alt < 0 ||
        std::make_pair(Flagged[I] != 0, StageCost[I]) <
            std::make_pair(Flagged[Alt] != 0, StageCost[Alt]))
      Alt = static_cast<int>(I);
  }
  if (Alt < 0) {
    StageCost[Exec] += Scaled;
    return O;
  }
  // Cost model on the simulated clock: the driver notices the task is
  // past the threshold at Detect, launches the copy then, and the first
  // finisher wins; the loser runs until the winner completes and is
  // killed, its occupancy wasted.
  double Detect = std::min(Scaled, Opt.SpeculationMultiplier * Median);
  double CopyDone = Detect + BaseNs * Slowdown[Alt];
  double Eff = std::min(Scaled, CopyDone);
  StageCost[Exec] += Eff;
  StageCost[Alt] += Eff - Detect;
  ++Stats.SpeculativeLaunches;
  if (!Flagged[Exec]) {
    Flagged[Exec] = 1;
    ++Stats.StragglersFlagged;
  }
  O.Launched = true;
  O.CopyExec = static_cast<unsigned>(Alt);
  O.CopyWon = CopyDone < Scaled;
  if (O.CopyWon)
    ++Stats.SpeculativeWins;
  Stats.SpeculativeWastedNs += O.CopyWon ? Eff : Eff - Detect;
  if (Trace)
    Trace->instant(support::TraceTrack::Engine, "speculative", "cluster",
                   DriverMem.totalTimeNs())
        .arg("straggler", static_cast<uint64_t>(Exec))
        .arg("copy", static_cast<uint64_t>(Alt))
        .arg("won", std::string(O.CopyWon ? "copy" : "original"))
        .arg("base_ns", BaseNs)
        .arg("scaled_ns", Scaled);
  return O;
}

static uint64_t locationKey(uint32_t RddId, uint32_t Part) {
  return (static_cast<uint64_t>(RddId) << 32) | Part;
}

void Cluster::recordPartitionLocation(uint32_t RddId, uint32_t Part,
                                      unsigned Exec) {
  uint64_t Key = locationKey(RddId, Part);
  auto It = std::lower_bound(
      Locations.begin(), Locations.end(), Key,
      [](const std::pair<uint64_t, unsigned> &L, uint64_t K) {
        return L.first < K;
      });
  if (It != Locations.end() && It->first == Key)
    It->second = Exec;
  else
    Locations.insert(It, {Key, Exec});
}

int Cluster::partitionLocation(uint32_t RddId, uint32_t Part) const {
  uint64_t Key = locationKey(RddId, Part);
  auto It = std::lower_bound(
      Locations.begin(), Locations.end(), Key,
      [](const std::pair<uint64_t, unsigned> &L, uint64_t K) {
        return L.first < K;
      });
  if (It == Locations.end() || It->first != Key)
    return -1;
  return Executors[It->second]->alive() ? static_cast<int>(It->second) : -1;
}

int Cluster::splitOwner(uint32_t Part) const {
  unsigned E = Part % static_cast<unsigned>(Executors.size());
  return Executors[E]->alive() ? static_cast<int>(E) : -1;
}

void Cluster::beginShuffle(uint32_t NewMapCount, uint32_t NewReduceCount) {
  endShuffle();
  MapCount = NewMapCount;
  ReduceCount = NewReduceCount;
  Blocks.assign(static_cast<size_t>(MapCount) * ReduceCount, BlockInfo());
}

void Cluster::registerMapOutput(uint32_t Map, uint32_t Reduce, unsigned Exec,
                                const void *Data, uint64_t Bytes,
                                uint64_t Records, uint64_t BucketOffset) {
  BlockInfo &B = block(Map, Reduce);
  B.Exec = Exec;
  B.Bytes = Bytes;
  B.Records = Records;
  B.BucketOffset = BucketOffset;
  B.Lost = false;
  B.DiskCopy.clear();
  B.Addr = offheap::NoAddress;
  ++Stats.BlocksStored;
  Stats.BytesStored += Bytes;
  if (Records == 0)
    return;
  storeBlock(B, Exec, Data);
}

void Cluster::storeBlock(BlockInfo &B, unsigned Exec, const void *Data) {
  B.Exec = Exec;
  B.Lost = false;
  B.DiskCopy.clear();
  Executor &E = *Executors[Exec];
  // Serializing the block is executor-side work: CPU plus the native-region
  // write traffic land on the executor's private clock, never the driver's.
  // A degraded executor serializes at its slowed rate.
  E.memory().addCpuWorkNs(Config.Options.NetSerNsPerRecord *
                          static_cast<double>(B.Records) * Slowdown[Exec]);
  B.Addr = E.arenaAlloc(B.Bytes);
  if (B.Addr != offheap::NoAddress) {
    E.heap().nativeWrite(B.Addr, Data, B.Bytes);
    return;
  }
  // Arena full: the block overflows to the executor's local disk (held as
  // a host-side copy; fetching it later pays the disk deserialization).
  ++Stats.ExecutorDiskBlocks;
  const uint8_t *Src = static_cast<const uint8_t *>(Data);
  B.DiskCopy.assign(Src, Src + B.Bytes);
}

const BlockInfo &Cluster::mapOutput(uint32_t Map, uint32_t Reduce) const {
  PANTHERA_CHECK(Map < MapCount && Reduce < ReduceCount,
                 "map-output lookup outside the active shuffle");
  return block(Map, Reduce);
}

int Cluster::preferredReducer(uint32_t Reduce) const {
  // The executor holding the most map-output bytes for this partition
  // fetches the least remotely; ties go to the lowest id.
  std::vector<uint64_t> BytesAt(Executors.size(), 0);
  for (uint32_t M = 0; M != MapCount; ++M) {
    const BlockInfo &B = block(M, Reduce);
    if (!B.Lost)
      BytesAt[B.Exec] += B.Bytes;
  }
  int Best = -1;
  uint64_t BestBytes = 0;
  for (unsigned E = 0; E != Executors.size(); ++E)
    if (Executors[E]->alive() && BytesAt[E] > BestBytes) {
      BestBytes = BytesAt[E];
      Best = static_cast<int>(E);
    }
  return Best;
}

bool Cluster::fetchBlock(uint32_t Map, uint32_t Reduce, unsigned DstExec,
                         const void *Expect, bool InjectCorrupt) {
  BlockInfo &B = block(Map, Reduce);
  PANTHERA_CHECK(!B.Lost, "fetch of a lost map output");
  if (B.Records == 0)
    return true;
  // Read the executor-held replica back and verify it against the data
  // plane (the driver-side bucket slice the reduce task consumes).
  Scratch.resize(B.Bytes);
  if (B.Addr != offheap::NoAddress) {
    Executor &Owner = *Executors[B.Exec];
    Owner.heap().nativeRead(B.Addr, Scratch.data(), B.Bytes);
  } else {
    std::memcpy(Scratch.data(), B.DiskCopy.data(), B.Bytes);
    // Executor-disk blocks pay deserialization on the fetching side.
    DriverMem.addCpuWorkNs(Config.DiskNsPerRecord *
                           static_cast<double>(B.Records));
  }
  if (InjectCorrupt) {
    // Transient corruption in flight: flip one payload bit so the
    // delivered bytes fail the same verification a real divergence would.
    Scratch[0] ^= 0x01;
  }
  if (std::memcmp(Scratch.data(), Expect, B.Bytes) != 0) {
    PANTHERA_CHECK(InjectCorrupt,
                   "shuffle block replica diverged from the data plane");
    ++Stats.FetchCorruptions;
    // The corrupt bytes still crossed the wire (or the local bus); the
    // fabric charge below is paid before the receiver can notice.
  }
  bool Delivered = !InjectCorrupt;
  if (DstExec == B.Exec) {
    ++Stats.LocalBlocksFetched;
    Stats.LocalBytesFetched += B.Bytes;
    return Delivered;
  }
  const ClusterOptions &O = Config.Options;
  if (O.ZeroCopyShuffle && hostOf(DstExec) == hostOf(B.Exec)) {
    // Sparkle-style zero-copy shared-memory shuffle: co-located executors
    // exchange blocks by mapping the mapper's pages into the reducer, so
    // no serialization CPU, latency, or fabric bandwidth is charged. The
    // replica read above already paid the memory traffic through the
    // owner's simulated memory (and disk-spilled blocks their
    // deserialization CPU); nothing else crosses any wire. Dropped
    // fetches and decommission migration still ride the fabric: a drop
    // models a request that left the host, and migration copies to
    // executors on other hosts.
    ++Stats.ZeroCopyBlocksFetched;
    Stats.ZeroCopyBytesFetched += B.Bytes;
    if (Trace)
      Trace->span(support::TraceTrack::Network, "zero-copy fetch", "net",
                  DriverMem.totalTimeNs(), 0.0)
          .arg("from", static_cast<uint64_t>(B.Exec))
          .arg("to", static_cast<uint64_t>(DstExec))
          .arg("map", static_cast<uint64_t>(Map))
          .arg("reduce", static_cast<uint64_t>(Reduce))
          .arg("bytes", B.Bytes)
          .arg("records", B.Records);
    return Delivered;
  }
  // Remote: serialization CPU plus latency plus bytes over the pipe, all
  // on the driver's simulated clock (1 GB/s == 1 byte/ns). A degraded
  // owner serves its serialization at the slowed rate.
  double Ns =
      O.NetSerNsPerRecord * static_cast<double>(B.Records) *
          Slowdown[B.Exec] +
      O.NetLatencyUs * 1000.0 +
      static_cast<double>(B.Bytes) / O.NetBandwidthGBps;
  double Start = DriverMem.totalTimeNs();
  DriverMem.addCpuWorkNs(Ns);
  Stats.NetworkNs += Ns;
  ++Stats.RemoteBlocksFetched;
  Stats.RemoteBytesFetched += B.Bytes;
  if (Trace)
    Trace->span(support::TraceTrack::Network, "remote fetch", "net", Start,
                Ns)
        .arg("from", static_cast<uint64_t>(B.Exec))
        .arg("to", static_cast<uint64_t>(DstExec))
        .arg("map", static_cast<uint64_t>(Map))
        .arg("reduce", static_cast<uint64_t>(Reduce))
        .arg("bytes", B.Bytes)
        .arg("records", B.Records);
  return Delivered;
}

void Cluster::chargeDroppedFetch(uint32_t Map, uint32_t Reduce,
                                 unsigned DstExec) {
  const BlockInfo &B = block(Map, Reduce);
  ++Stats.FetchDrops;
  // The request round-trips the fabric and vanishes: one latency on the
  // driver clock, no payload.
  double Ns = Config.Options.NetLatencyUs * 1000.0;
  double Start = DriverMem.totalTimeNs();
  DriverMem.addCpuWorkNs(Ns);
  Stats.NetworkNs += Ns;
  if (Trace)
    Trace->span(support::TraceTrack::Network, "dropped fetch", "net", Start,
                Ns)
        .arg("from", static_cast<uint64_t>(B.Exec))
        .arg("to", static_cast<uint64_t>(DstExec))
        .arg("map", static_cast<uint64_t>(Map))
        .arg("reduce", static_cast<uint64_t>(Reduce));
}

void Cluster::endShuffle() {
  MapCount = ReduceCount = 0;
  Blocks.clear();
  for (auto &E : Executors)
    E->arenaReset();
}

std::vector<uint32_t> Cluster::killExecutor(unsigned Id) {
  Executor &E = *Executors[Id];
  PANTHERA_CHECK(E.alive(), "executor killed twice");
  PANTHERA_CHECK(numAlive() > 1, "cannot kill the last live executor");
  E.kill();
  ++Stats.ExecutorsLost;
  // Its cached partitions are gone.
  Locations.erase(std::remove_if(Locations.begin(), Locations.end(),
                                 [Id](const std::pair<uint64_t, unsigned> &L) {
                                   return L.second == Id;
                                 }),
                  Locations.end());
  // Its active-shuffle blocks are lost; report which map tasks must re-run.
  std::vector<uint32_t> LostMaps;
  for (uint32_t M = 0; M != MapCount; ++M) {
    bool Any = false;
    for (uint32_t R = 0; R != ReduceCount; ++R) {
      BlockInfo &B = block(M, R);
      if (B.Exec == Id && !B.Lost) {
        B.Lost = true;
        B.DiskCopy.clear();
        ++Stats.MapOutputsLost;
        Any = true;
      }
    }
    if (Any)
      LostMaps.push_back(M);
  }
  return LostMaps;
}

void Cluster::markMapOutputLost(uint32_t Map) {
  PANTHERA_CHECK(Map < MapCount, "escalation outside the active shuffle");
  ++Stats.FetchEscalations;
  for (uint32_t R = 0; R != ReduceCount; ++R) {
    BlockInfo &B = block(Map, R);
    if (!B.Lost) {
      B.Lost = true;
      B.DiskCopy.clear();
      ++Stats.MapOutputsLost;
    }
  }
}

void Cluster::decommissionExecutor(unsigned Id) {
  PANTHERA_CHECK(Id < Executors.size(), "decommission of an unknown executor");
  Executor &E = *Executors[Id];
  PANTHERA_CHECK(E.alive(), "decommission of a dead executor");
  PANTHERA_CHECK(numAlive() > 1, "cannot decommission the last live executor");
  // Graceful exit: every active-shuffle block the executor holds is
  // re-registered on a surviving executor before the machine leaves, so
  // (unlike killExecutor) nothing needs lineage recomputation. Targets
  // are chosen greedily by migrated bytes so the blocks spread out.
  double Start = DriverMem.totalTimeNs();
  double FabricNs = 0.0;
  uint64_t MovedBlocks = 0, MovedBytes = 0;
  std::vector<uint64_t> TargetBytes(Executors.size(), 0);
  const ClusterOptions &O = Config.Options;
  for (uint32_t M = 0; M != MapCount; ++M) {
    for (uint32_t R = 0; R != ReduceCount; ++R) {
      BlockInfo &B = block(M, R);
      if (B.Exec != Id || B.Lost || B.Records == 0)
        continue;
      // Read the replica out of the leaving executor...
      Scratch.resize(B.Bytes);
      if (B.Addr != offheap::NoAddress)
        E.heap().nativeRead(B.Addr, Scratch.data(), B.Bytes);
      else
        std::memcpy(Scratch.data(), B.DiskCopy.data(), B.Bytes);
      // ...pick the surviving executor with the fewest migrated bytes
      // (lowest id on ties)...
      int Target = -1;
      for (unsigned T = 0; T != Executors.size(); ++T) {
        if (T == Id || !Executors[T]->alive())
          continue;
        if (Target < 0 || TargetBytes[T] < TargetBytes[Target])
          Target = static_cast<int>(T);
      }
      PANTHERA_CHECK(Target >= 0, "no live executor to migrate blocks to");
      TargetBytes[Target] += B.Bytes;
      // ...and push it over the fabric (driver clock, like any remote
      // transfer; the receiving side re-serializes into its arena).
      FabricNs += O.NetSerNsPerRecord * static_cast<double>(B.Records) *
                      Slowdown[Id] +
                  O.NetLatencyUs * 1000.0 +
                  static_cast<double>(B.Bytes) / O.NetBandwidthGBps;
      storeBlock(B, static_cast<unsigned>(Target), Scratch.data());
      ++MovedBlocks;
      MovedBytes += B.Bytes;
    }
  }
  if (FabricNs > 0.0) {
    DriverMem.addCpuWorkNs(FabricNs);
    Stats.NetworkNs += FabricNs;
  }
  Stats.BlocksMigrated += MovedBlocks;
  Stats.BytesMigrated += MovedBytes;
  ++Stats.ExecutorsDecommissioned;
  // Its cached partitions leave with it; stale PROCESS_LOCAL hints on
  // this executor now resolve to -1 and fall back to ANY placement.
  Locations.erase(std::remove_if(Locations.begin(), Locations.end(),
                                 [Id](const std::pair<uint64_t, unsigned> &L) {
                                   return L.second == Id;
                                 }),
                  Locations.end());
  E.kill();
  if (Trace)
    Trace->span(support::TraceTrack::Network, "decommission", "cluster",
                Start, DriverMem.totalTimeNs() - Start)
        .arg("executor", static_cast<uint64_t>(Id))
        .arg("blocks_migrated", MovedBlocks)
        .arg("bytes_migrated", MovedBytes);
}

unsigned Cluster::addExecutor() {
  unsigned Id = static_cast<unsigned>(Executors.size());
  Executors.push_back(std::make_unique<Executor>(Id, Config));
  StageLoad.push_back(0);
  StageCost.push_back(0.0);
  Slowdown.push_back(1.0);
  Flagged.push_back(0);
  ++Stats.ExecutorsJoined;
  if (Trace)
    Trace->instant(support::TraceTrack::Engine, "executor joined", "cluster",
                   DriverMem.totalTimeNs())
        .arg("executor", static_cast<uint64_t>(Id));
  return Id;
}

void Cluster::applyElasticEvents() {
  for (const ElasticEvent &Ev : Config.Options.Elastic) {
    if (Ev.AtStage != StageCounter)
      continue;
    if (Ev.Join)
      addExecutor();
    else
      decommissionExecutor(Ev.Exec);
  }
}

void Cluster::publishMetrics(support::MetricsRegistry &M) const {
  M.gauge("cluster.executors").set(static_cast<double>(Executors.size()));
  M.gauge("cluster.executors_alive").set(static_cast<double>(numAlive()));
  M.counter("cluster.tasks.process_local").set(Stats.ProcessLocalTasks);
  M.counter("cluster.tasks.any").set(Stats.AnyTasks);
  M.counter("cluster.tasks.delayed_fallbacks").set(Stats.DelayedFallbacks);
  M.counter("cluster.shuffle.blocks_stored").set(Stats.BlocksStored);
  M.counter("cluster.shuffle.bytes_stored").set(Stats.BytesStored);
  M.counter("cluster.shuffle.exec_disk_blocks").set(Stats.ExecutorDiskBlocks);
  M.counter("cluster.fetch.local_blocks").set(Stats.LocalBlocksFetched);
  M.counter("cluster.fetch.local_bytes").set(Stats.LocalBytesFetched);
  M.counter("cluster.fetch.remote_blocks").set(Stats.RemoteBlocksFetched);
  M.counter("cluster.fetch.remote_bytes").set(Stats.RemoteBytesFetched);
  M.counter("cluster.fetch.zero_copy_blocks").set(Stats.ZeroCopyBlocksFetched);
  M.counter("cluster.fetch.zero_copy_bytes").set(Stats.ZeroCopyBytesFetched);
  M.gauge("cluster.net.time_ns").set(Stats.NetworkNs);
  M.counter("cluster.executors_lost").set(Stats.ExecutorsLost);
  M.counter("cluster.map_outputs_lost").set(Stats.MapOutputsLost);
  M.counter("cluster.map_outputs_recomputed").set(Stats.MapOutputsRecomputed);
  M.gauge("cluster.stage.makespan_ns").set(makespanNs());
  M.counter("cluster.speculation.launched").set(Stats.SpeculativeLaunches);
  M.counter("cluster.speculation.wins").set(Stats.SpeculativeWins);
  M.gauge("cluster.speculation.wasted_ns").set(Stats.SpeculativeWastedNs);
  M.counter("cluster.speculation.flagged").set(Stats.StragglersFlagged);
  M.counter("cluster.speculation.avoided_placements")
      .set(Stats.StragglerAvoidedPlacements);
  M.counter("cluster.fetch_retry.attempts").set(Stats.FetchRetries);
  M.counter("cluster.fetch_retry.drops").set(Stats.FetchDrops);
  M.counter("cluster.fetch_retry.corrupt").set(Stats.FetchCorruptions);
  M.gauge("cluster.fetch_retry.backoff_ns").set(Stats.FetchBackoffNs);
  M.counter("cluster.fetch_retry.escalations").set(Stats.FetchEscalations);
  M.counter("cluster.elastic.decommissioned")
      .set(Stats.ExecutorsDecommissioned);
  M.counter("cluster.elastic.joined").set(Stats.ExecutorsJoined);
  M.counter("cluster.elastic.blocks_migrated").set(Stats.BlocksMigrated);
  M.counter("cluster.elastic.bytes_migrated").set(Stats.BytesMigrated);
  for (unsigned I = 0; I != Executors.size(); ++I) {
    const Executor &E = *Executors[I];
    std::string Prefix = "cluster.exec" + std::to_string(I) + ".";
    M.gauge(Prefix + "alive").set(E.alive() ? 1.0 : 0.0);
    const memsim::HybridMemory &Mem = E.memory();
    M.gauge(Prefix + "time_ns").set(Mem.totalTimeNs());
    const memsim::TrafficCounters &Dram = Mem.traffic(memsim::Device::DRAM);
    const memsim::TrafficCounters &Nvm = Mem.traffic(memsim::Device::NVM);
    M.counter(Prefix + "dram_line_reads").set(Dram.LineReads);
    M.counter(Prefix + "dram_line_writes").set(Dram.LineWrites);
    M.counter(Prefix + "nvm_line_reads").set(Nvm.LineReads);
    M.counter(Prefix + "nvm_line_writes").set(Nvm.LineWrites);
  }
}

} // namespace cluster
} // namespace panthera
