//===- core/Runtime.cpp - The Panthera runtime facade --------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "dsl/Parser.h"
#include "gc/HeapVerifier.h"
#include "support/Errors.h"
#include "support/Units.h"

#include <algorithm>
#include <string>

#include <cstdio>
#include <cstdlib>

using namespace panthera;
using namespace panthera::core;

/// Off-heap native region, paper GB: the shuffle arena and the off-heap
/// cache tier carve from it.
static constexpr uint64_t NativePaperGB = 16;

Runtime::Runtime(const RuntimeConfig &Config) : Config(Config) {
  heap::HeapConfig HC = gc::makeHeapConfig(Config.Policy, Config.HeapPaperGB,
                                           Config.DramRatio);
  HC.NurseryFraction = Config.NurseryFraction;
  HC.NativeBytes = NativePaperGB * PaperGB;
  // The EagerPromotion/CardPadding overrides drive the §5.3 ablations and
  // only make sense for the Panthera family; the baselines always run
  // without these optimizations (stock Parallel Scavenge).
  if (gc::isPantheraFamily(Config.Policy)) {
    HC.Tuning.EagerPromotion = Config.EagerPromotion;
    HC.Tuning.CardPadding = Config.CardPadding;
  }
  HC.Tuning.VerifyHeap = Config.VerifyHeap;
  HC.Tuning.MaxPauseUs = Config.MaxPauseUs;
  HC.Tuning.IncStepAllocs = Config.IncStepAllocs;

  uint64_t TotalBytes =
      heap::HeapConfig::alignPage(4096 + HC.HeapBytes + HC.NativeBytes);
  Mem = std::make_unique<memsim::HybridMemory>(TotalBytes, Config.Technology,
                                               Config.Cache, Config.EpochNs,
                                               &Metrics);
  TheHeap = std::make_unique<heap::Heap>(HC, *Mem);
  TheHeap->setTelemetry(&Metrics, &Trace);
  TheCollector =
      std::make_unique<gc::Collector>(*TheHeap, Config.Policy, &Monitor);
  TheCollector->setTelemetry(&Metrics, &Trace);

  // Online hotness profiling + between-GC migration (--policy=dynamic,
  // docs/memsim.md). A zero sampling stride constructs neither tracker
  // nor engine: the run (including the metrics-JSON key set) is then
  // byte-identical to static Panthera.
  if (Config.Policy == gc::PolicyKind::PantheraDynamic &&
      Config.HotnessSampleEvery > 0) {
    std::vector<heap::Heap::OldGenRegion> Old = TheHeap->oldGenRegions();
    if (!Old.empty()) {
      uint64_t Lo = Old.front().Base, Hi = Old.front().End;
      for (const heap::Heap::OldGenRegion &R : Old) {
        Lo = std::min(Lo, R.Base);
        Hi = std::max(Hi, R.End);
      }
      memsim::HotnessConfig HotCfg;
      HotCfg.SampleEveryLines = Config.HotnessSampleEvery;
      Hot = std::make_unique<memsim::HotnessTracker>(Lo, Hi, HotCfg);
      memsim::MigrationConfig MigCfg;
      MigCfg.HotSamplesPerPage = Config.MigrateHotThreshold;
      Migration =
          std::make_unique<memsim::MigrationEngine>(*Mem, *Hot, MigCfg);
      std::vector<memsim::CanonicalRange> Ranges;
      for (const heap::Heap::OldGenRegion &R : Old)
        Ranges.push_back({R.Base, R.End, R.Canonical});
      Migration->setEligibleRanges(std::move(Ranges));
      Mem->setHotnessTracker(Hot.get());
      TheCollector->setMigrationEngine(Migration.get());
    }
  }

  rdd::EngineConfig EC = Config.Engine;
  EC.UseStaticTags = gc::usesStaticTags(Config.Policy);
  Context = std::make_unique<rdd::SparkContext>(*TheHeap, &Monitor, EC);
  Context->setTelemetry(&Metrics, &Trace);
  Context->setOffHeapBudget(static_cast<uint64_t>(Config.OffHeapMB) *
                            PaperMB);

  if (Config.Cluster.NumExecutors > 1) {
    // Carve the paper heap and native region evenly across the executors;
    // each gets its own HybridMemory + Heap on a private clock. At
    // NumExecutors == 1 no cluster exists at all, so the seed single-heap
    // path (and its exports) stays byte-identical.
    cluster::ClusterConfig CC;
    CC.Options = Config.Cluster;
    unsigned N = Config.Cluster.NumExecutors;
    unsigned PerExecGB = Config.HeapPaperGB / N;
    if (PerExecGB == 0)
      PerExecGB = 1;
    CC.ExecutorHeap =
        gc::makeHeapConfig(Config.Policy, PerExecGB, Config.DramRatio);
    CC.ExecutorHeap.NurseryFraction = Config.NurseryFraction;
    uint64_t PerExecNative =
        heap::HeapConfig::alignPage(NativePaperGB * PaperGB / N);
    CC.ExecutorHeap.NativeBytes = std::max<uint64_t>(PerExecNative, PaperGB);
    CC.Technology = Config.Technology;
    CC.Cache = Config.Cache;
    CC.EpochNs = Config.EpochNs;
    CC.DiskNsPerRecord = Config.Engine.DiskRecordCpuNs;
    TheCluster = std::make_unique<cluster::Cluster>(CC, *Mem, &Trace);
    Context->setCluster(TheCluster.get());
  }

  if (Config.Faults.enabled()) {
    Injector = std::make_unique<FaultInjector>(Config.Faults);
    TheHeap->setFaultInjector(Injector.get());
    Context->setFaultInjector(Injector.get());
  }
  // Before declaring OOM the heap asks the engine to shed MEMORY_AND_DISK
  // cached partitions; the loop in Heap::oomFallback stops once this
  // returns false (nothing left to evict).
  TheHeap->setPressureHandler(
      [this](uint64_t) { return Context->evictOneUnderPressure(); });
  if (Config.VerifyHeapAfterRecovery) {
    auto Verify = [this](const char *What) {
      gc::VerifyResult VR = gc::verifyHeap(*TheHeap);
      if (!VR.Ok)
        throw EngineError(std::string("heap verification failed after ") +
                          What + ": " + VR.FirstProblem);
    };
    TheHeap->setRecoveryVerifier(Verify);
    Context->setRecoveryVerifier(Verify);
  }
}

const analysis::AnalysisResult &
Runtime::analyzeAndInstall(std::string_view DslSource,
                           const analysis::AnalysisOptions &Options) {
  std::vector<dsl::Diagnostic> Diags;
  dsl::Program P = dsl::parseDriverProgram(DslSource, Diags);
  if (!Diags.empty()) {
    for (const dsl::Diagnostic &D : Diags)
      std::fprintf(stderr, "driver dsl %u:%u: error: %s\n", D.Loc.Line,
                   D.Loc.Column, D.Message.c_str());
    std::abort();
  }
  Tags = analysis::inferMemoryTags(P, Options);
  Context->setAnalysis(&Tags);
  return Tags;
}

void Runtime::publishMetrics() {
  RunReport R = report();
  auto G = [&](const char *Name, double V) { Metrics.gauge(Name).set(V); };
  auto C = [&](const char *Name, uint64_t V) { Metrics.counter(Name).set(V); };

  // Simulated clocks and the energy model (Fig 5 / Fig 9 inputs).
  G("time.total_ns", R.TotalNs);
  G("time.mutator_ns", R.MutatorNs);
  G("time.gc_ns", R.GcNs);
  G("energy.total_joules", R.TotalJoules);
  G("energy.dram_static_joules", R.Energy.DramStaticJoules);
  G("energy.nvm_static_joules", R.Energy.NvmStaticJoules);
  G("energy.dram_dynamic_joules", R.Energy.DramDynamicJoules);
  G("energy.nvm_dynamic_joules", R.Energy.NvmDynamicJoules);
  G("energy.dram_provisioned_gb", R.DramGB);
  G("energy.nvm_provisioned_gb", R.NvmGB);

  // Device traffic and cache behavior (the VTune-uncore analogue).
  C("memsim.dram.line_reads", R.DramTraffic.LineReads);
  C("memsim.dram.line_writes", R.DramTraffic.LineWrites);
  C("memsim.nvm.line_reads", R.NvmTraffic.LineReads);
  C("memsim.nvm.line_writes", R.NvmTraffic.LineWrites);
  C("memsim.cache_hits", Mem->cacheHits());
  C("memsim.cache_misses", Mem->cacheMisses());
  C("memsim.prefetched_misses", Mem->prefetchedMisses());

  // Collector totals (Fig 5 phase data lives in the gc.* histograms).
  C("gc.minor_gcs", R.Gc.MinorGcs);
  C("gc.major_gcs", R.Gc.MajorGcs);
  C("gc.bytes_promoted", R.Gc.BytesPromoted);
  C("gc.bytes_copied_to_survivor", R.Gc.BytesCopiedToSurvivor);
  C("gc.eager_promotions", R.Gc.EagerPromotions);
  C("gc.cards_scanned", R.Gc.CardsScanned);
  C("gc.cards_cleaned", R.Gc.CardsCleaned);
  C("gc.shared_array_card_scans", R.Gc.SharedArrayCardScans);
  C("gc.migrated_rdd_arrays_to_dram", R.Gc.MigratedRddArraysToDram);
  C("gc.migrated_rdd_arrays_to_nvm", R.Gc.MigratedRddArraysToNvm);
  C("gc.rdds_migrated", R.Gc.RddsMigrated);

  // RDD engine totals, including the TaskLedger rollup.
  C("engine.stages_run", R.Engine.StagesRun);
  C("engine.shuffle_records", R.Engine.ShuffleRecords);
  C("engine.shuffle_bytes",
    R.Engine.ShuffleRecords * sizeof(rdd::SourceRecord));
  C("engine.shuffle_spills", R.Engine.ShuffleSpills);
  C("engine.rdds_materialized", R.Engine.RddsMaterialized);
  C("engine.rdds_evicted_to_disk", R.Engine.RddsEvictedToDisk);
  C("engine.records_streamed", R.Engine.RecordsStreamed);
  C("engine.tasks_launched", R.Engine.TasksLaunched);
  C("engine.task_retries", R.Engine.TaskRetries);
  C("engine.injected_task_failures", R.Engine.InjectedTaskFailures);
  C("engine.cache_loss_events", R.Engine.CacheLossEvents);
  C("engine.lineage_recomputations", R.Engine.LineageRecomputations);
  C("engine.oom_task_failures", R.Engine.OomTaskFailures);
  C("engine.tasks", R.Tasks.totalTasks());
  C("engine.task_attempts", R.Tasks.totalAttempts());
  C("engine.failed_tasks", R.Tasks.failedTasks());

  // Heap allocation / barrier / OOM-degradation totals.
  const heap::HeapStats &HS = TheHeap->stats();
  C("heap.objects_allocated", HS.ObjectsAllocated);
  C("heap.bytes_allocated", HS.BytesAllocated);
  C("heap.arrays_pretenured", HS.ArraysPretenured);
  C("heap.pretenure_dram_fallbacks", HS.PretenureDramFallbacks);
  C("heap.ref_stores", HS.RefStores);
  C("heap.card_padding_waste_bytes", HS.CardPaddingWasteBytes);
  C("heap.gc_plab_refills", HS.GcPlabRefills);
  C("heap.gc_plab_waste_bytes", HS.GcPlabWasteBytes);
  C("heap.emergency_gcs", HS.EmergencyGcs);
  C("heap.pressure_evictions", HS.PressureEvictions);
  C("heap.oom_errors_thrown", HS.OomErrorsThrown);

  C("analysis.monitored_calls", R.MonitoredCalls);

  // Incremental-marking totals (only with a pause budget set: the budget-0
  // configuration must export the exact seed key set).
  if (Config.MaxPauseUs > 0) {
    C("gc.incremental.cycles", R.Gc.IncCycles);
    C("gc.incremental.mark_steps", R.Gc.IncMarkSteps);
    C("gc.incremental.satb_drained", R.Gc.IncSatbDrained);
    C("gc.incremental.objects_marked", R.Gc.IncObjectsMarked);
  }

  // Hotness/migration totals (only under --policy=dynamic with sampling
  // on: every other configuration must export the exact seed key set).
  if (Hot) {
    const memsim::HotnessStats &HotS = Hot->stats();
    C("memsim.hotness.samples", HotS.Samples);
    C("memsim.hotness.epochs", HotS.Epochs);
    C("memsim.hotness.splits", HotS.Splits);
    C("memsim.hotness.merges", HotS.Merges);
    C("memsim.hotness.regions", Hot->regions().size());
    const memsim::MigrationStats &MigS = Migration->stats();
    C("memsim.migration.steps", MigS.Steps);
    C("memsim.migration.pages_to_dram", MigS.PagesToDram);
    C("memsim.migration.pages_to_nvm", MigS.PagesToNvm);
    C("memsim.migration.bytes_copied", MigS.BytesCopied);
    C("memsim.migration.resets", MigS.Resets);
    C("memsim.migration.pages_restored", MigS.PagesRestored);
  }

  // Off-heap tier totals (only once an OFF_HEAP persist built the tier:
  // a run without one exports the exact seed key set).
  if (offheap::OffHeapCache *OC = Context->offHeapCache())
    OC->publishMetrics(Metrics);

  // Cluster totals (only in cluster runs: --executors=1 must export the
  // exact seed key set).
  if (TheCluster)
    TheCluster->publishMetrics(Metrics);
}

std::string Runtime::metricsJson() {
  publishMetrics();
  return Metrics.toJson();
}

void Runtime::writeMetricsJson(std::FILE *F) {
  publishMetrics();
  Metrics.writeJson(F);
}

RunReport Runtime::report() const {
  RunReport R;
  R.MutatorNs = Mem->mutatorTimeNs();
  R.GcNs = Mem->gcTimeNs();
  R.TotalNs = Mem->totalTimeNs();
  R.DramTraffic = Mem->traffic(memsim::Device::DRAM);
  R.NvmTraffic = Mem->traffic(memsim::Device::NVM);

  // Provisioned capacities, in paper GB. DRAM-only provisions the whole
  // heap as DRAM; hybrid configurations split by the DRAM ratio.
  double HeapGB = static_cast<double>(Config.HeapPaperGB);
  if (Config.Policy == gc::PolicyKind::DramOnly) {
    R.DramGB = HeapGB;
    R.NvmGB = 0.0;
  } else {
    R.DramGB = HeapGB * Config.DramRatio;
    R.NvmGB = HeapGB - R.DramGB;
  }
  R.Energy = memsim::computeEnergy(Config.Energy, R.TotalNs, R.DramGB,
                                   R.NvmGB, R.DramTraffic, R.NvmTraffic);
  R.TotalJoules = R.Energy.totalJoules();
  R.Gc = TheCollector->stats();
  R.Engine = Context->stats();
  R.MonitoredCalls = Monitor.totalCalls();
  R.Tasks = Context->taskLedger();
  return R;
}
