//===- tests/test_observability.cpp - Metrics/trace + PR-3 regressions ----===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the metrics registry and the simulated-clock trace log,
/// the replay bit-identity contract of both JSON exports, and four
/// regression tests pinning fixed bugs: the stream-prefetcher OOB with
/// zero streams, silent-zero CLI parsing, empty Accumulator min/max, and
/// CardTable::clearRange on partial boundary cards.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "heap/CardTable.h"
#include "memsim/HybridMemory.h"
#include "support/CliParse.h"
#include "support/Metrics.h"
#include "support/Statistics.h"
#include "support/TraceLog.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

using namespace panthera;
using namespace panthera::support;

namespace {

//===----------------------------------------------------------------------===
// MetricsRegistry basics.
//===----------------------------------------------------------------------===

TEST(Metrics, CounterGaugeHistogramSeriesRoundTrip) {
  MetricsRegistry M;
  M.counter("a.events").add();
  M.counter("a.events").add(4);
  EXPECT_EQ(M.counter("a.events").value(), 5u);
  M.counter("a.events").set(7);
  EXPECT_EQ(M.counterValue("a.events"), 7u);
  EXPECT_EQ(M.counterValue("no.such"), 0u);

  M.gauge("b.level").set(2.5);
  EXPECT_EQ(M.gaugeValue("b.level"), 2.5);
  EXPECT_EQ(M.gaugeValue("no.such"), 0.0);

  Histogram &H = M.histogram("c.pause");
  H.observe(2.0);
  H.observe(6.0);
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.sum(), 8.0);
  EXPECT_EQ(H.mean(), 4.0);
  EXPECT_EQ(H.min(), 2.0);
  EXPECT_EQ(H.max(), 6.0);

  TimeSeries &S = M.series("d.bw");
  S.addAt(0, 10.0);
  S.addAt(2, 5.0);
  S.addAt(2, 5.0);
  EXPECT_EQ(S.size(), 3u);
  EXPECT_EQ(S.at(0), 10.0);
  EXPECT_EQ(S.at(1), 0.0);
  EXPECT_EQ(S.at(2), 10.0);
  EXPECT_EQ(S.at(99), 0.0) << "past-the-end reads as zero";
}

TEST(Metrics, RegistrationIsIdempotent) {
  MetricsRegistry M;
  Counter &A = M.counter("x");
  Counter &B = M.counter("x");
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(M.findCounter("x"), &A);
  EXPECT_EQ(M.findCounter("y"), nullptr);
  EXPECT_EQ(M.findSeries("y"), nullptr);
}

TEST(Metrics, JsonShapeAndDeterminism) {
  MetricsRegistry M;
  M.counter("z.count").set(3);
  M.counter("a.count").set(1);
  M.gauge("g").set(0.1);
  M.histogram("h").observe(1.5);
  M.series("s").addAt(1, 2.0);
  std::string J = M.toJson();
  // Sorted keys: "a.count" must precede "z.count".
  EXPECT_LT(J.find("\"a.count\""), J.find("\"z.count\""));
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"gauges\""), std::string::npos);
  EXPECT_NE(J.find("\"histograms\""), std::string::npos);
  EXPECT_NE(J.find("\"series\""), std::string::npos);
  EXPECT_NE(J.find("\"count\": 1"), std::string::npos);
  // Serialization is a pure function of the contents.
  EXPECT_EQ(J, M.toJson());
  // A copy exports identically (bench harnesses snapshot registries).
  MetricsRegistry Copy = M;
  EXPECT_EQ(Copy.toJson(), J);
}

TEST(Metrics, TimeSeriesRejectsUnboundedBucketIndex) {
  // addAt resizes to the bucket index; a wild index (e.g. a tiny epoch
  // knob against a long simulated run) must fail loudly with a typed
  // error instead of attempting a multi-gigabyte allocation.
  MetricsRegistry M;
  TimeSeries &S = M.series("cap");
  EXPECT_NO_THROW(S.addAt(TimeSeries::MaxBuckets - 1, 1.0));
  EXPECT_THROW(S.addAt(TimeSeries::MaxBuckets, 1.0), EngineError);
  EXPECT_THROW(S.addAt(~size_t(0), 1.0), EngineError);
  // The failed adds must not have corrupted the series.
  EXPECT_EQ(S.size(), TimeSeries::MaxBuckets);
  EXPECT_EQ(S.at(TimeSeries::MaxBuckets - 1), 1.0);
}

TEST(Metrics, JsonDoubleHelpers) {
  EXPECT_EQ(jsonDouble(1.0), "1");
  EXPECT_EQ(jsonDouble(0.5), "0.5");
  EXPECT_EQ(jsonDouble(std::nan("")), "null");
  EXPECT_EQ(jsonDouble(HUGE_VAL), "null");
  EXPECT_EQ(jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

//===----------------------------------------------------------------------===
// TraceLog.
//===----------------------------------------------------------------------===

TEST(TraceLog, SpansInstantsAndArgs) {
  TraceLog T;
  T.span(TraceTrack::Gc, "minor gc", "gc", 1000.0, 500.0)
      .arg("bytes_promoted", static_cast<uint64_t>(64))
      .arg("reason", std::string("eden full"));
  T.instant(TraceTrack::Heap, "nvm overflow", "heap", 2000.0)
      .arg("bytes", static_cast<uint64_t>(128));
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T.events()[0].Name, "minor gc");
  EXPECT_EQ(T.events()[0].DurationNs, 500.0);
  EXPECT_LT(T.events()[1].DurationNs, 0.0) << "instant marker";

  std::string J = T.toJson();
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  // Span: ph X, microsecond timestamps (1000 ns -> 1 us).
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ts\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"dur\": 0.5"), std::string::npos);
  // Instant: ph i, thread-scoped.
  EXPECT_NE(J.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(J.find("\"s\": \"t\""), std::string::npos);
  // Args: numbers bare, strings quoted.
  EXPECT_NE(J.find("\"bytes_promoted\": 64"), std::string::npos);
  EXPECT_NE(J.find("\"reason\": \"eden full\""), std::string::npos);
  // Track metadata names the simulated-clock threads.
  EXPECT_NE(J.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(J.find("\"gc\""), std::string::npos);
}

TEST(TraceLog, NegativeDurationClampsToZero) {
  TraceLog T;
  T.span(TraceTrack::Engine, "s", "stage", 100.0, -5.0);
  EXPECT_EQ(T.events()[0].DurationNs, 0.0);
}

//===----------------------------------------------------------------------===
// Runtime integration: instrumentation fires, exports are deterministic,
// and both JSON documents are byte-identical from run to run.
//===----------------------------------------------------------------------===

struct Exports {
  std::string Metrics;
  std::string Trace;
};

Exports runWorkload(const char *Name, memsim::AccessPathMode Path =
                                           memsim::AccessPathMode::Batched) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload(Name);
  EXPECT_NE(Spec, nullptr);
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  core::Runtime RT(Config);
  RT.memory().setAccessPath(Path);
  Spec->Run(RT, /*Scale=*/0.4);
  return {RT.metricsJson(), RT.traceJson()};
}

TEST(Observability, WorkloadPopulatesMetricsAndTrace) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("PR");
  ASSERT_NE(Spec, nullptr);
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.VerifyHeap = true; // any collection that corrupts the heap aborts
  core::Runtime RT(Config);
  Spec->Run(RT, /*Scale=*/0.4);
  RT.publishMetrics();
  const MetricsRegistry &M = RT.metrics();

  // Published scalars mirror the authoritative report.
  core::RunReport R = RT.report();
  EXPECT_GT(R.Gc.MinorGcs, 0u) << "the run must exercise the scavenge";
  EXPECT_EQ(M.gaugeValue("time.mutator_ns"), R.MutatorNs);
  EXPECT_EQ(M.gaugeValue("time.gc_ns"), R.GcNs);
  EXPECT_EQ(M.counterValue("gc.minor_gcs"), R.Gc.MinorGcs);
  EXPECT_EQ(M.counterValue("engine.stages_run"), R.Engine.StagesRun);
  EXPECT_GT(M.counterValue("heap.objects_allocated"), 0u);

  // Live instrumentation: pause histograms and bandwidth series.
  const Histogram *Pause = M.findHistogram("gc.minor.pause_ns");
  ASSERT_NE(Pause, nullptr);
  EXPECT_EQ(Pause->count(), R.Gc.MinorGcs);
  const TimeSeries *Bw = M.findSeries("memsim.bandwidth.dram_read_bytes");
  ASSERT_NE(Bw, nullptr);
  EXPECT_GT(Bw->size(), 0u);

  // Publishing twice must not double-count anything.
  std::string Once = RT.metricsJson();
  EXPECT_EQ(RT.metricsJson(), Once);

  // The trace carries stage and GC spans stamped on the simulated clock.
  const TraceLog &T = RT.trace();
  EXPECT_GT(T.size(), 0u);
  bool SawStage = false, SawGc = false;
  for (const TraceEvent &E : T.events()) {
    if (E.Cat == "stage")
      SawStage = true;
    if (E.Cat == "gc")
      SawGc = true;
    EXPECT_GE(E.StartNs, 0.0);
  }
  EXPECT_TRUE(SawStage);
  EXPECT_TRUE(SawGc);
}

TEST(Observability, ExportsAreByteIdenticalAcrossThreadCounts) {
  Exports Ref = runWorkload("PR");
  Exports Got = runWorkload("PR");
  EXPECT_EQ(Ref.Metrics, Got.Metrics);
  EXPECT_EQ(Ref.Trace, Got.Trace);
}

TEST(Observability, AccessPathExportsAreByteIdenticalAtEveryThreadCount) {
  // The batched access path's contract end-to-end: a full workload driven
  // through it must export metrics and trace JSON byte-identical to the
  // per-line reference path.
  Exports Batched = runWorkload("PR", memsim::AccessPathMode::Batched);
  Exports PerLine = runWorkload("PR", memsim::AccessPathMode::PerLine);
  EXPECT_EQ(Batched.Metrics, PerLine.Metrics);
  EXPECT_EQ(Batched.Trace, PerLine.Trace);
}

//===----------------------------------------------------------------------===
// Regression: stream prefetcher with zero streams (was an OOB write in
// HybridMemory::checkPrefetch when StreamPrefetcher was enabled but
// PrefetchStreams was 0).
//===----------------------------------------------------------------------===

TEST(Regression, PrefetcherWithZeroStreamsDoesNotCrash) {
  memsim::MemoryTechnology Tech;
  Tech.StreamPrefetcher = true;
  Tech.PrefetchStreams = 0;
  memsim::HybridMemory Mem(1 << 20, Tech, memsim::CacheConfig{});
  // Sequential misses exercise the stream table on every miss; with zero
  // streams the old code indexed Streams[0] of an empty vector.
  for (uint64_t A = 0; A < (1 << 16); A += 64)
    Mem.onAccess(A, 64, /*IsWrite=*/(A & 128) != 0);
  EXPECT_EQ(Mem.prefetchedMisses(), 0u)
      << "no streams means nothing can be prefetched";
  EXPECT_GT(Mem.totalTimeNs(), 0.0);
}

//===----------------------------------------------------------------------===
// Regression: strict CLI number parsing (atoi/atof silently returned 0 on
// garbage, turning e.g. --heap=64GB into a zero-sized heap).
//===----------------------------------------------------------------------===

TEST(Regression, ParseUnsignedRejectsGarbage) {
  uint64_t V = 99;
  EXPECT_TRUE(parseUnsigned("64", 1, 1024, V));
  EXPECT_EQ(V, 64u);
  EXPECT_TRUE(parseUnsigned("1", 1, 1024, V));
  EXPECT_TRUE(parseUnsigned("1024", 1, 1024, V));
  EXPECT_FALSE(parseUnsigned("", 1, 1024, V));
  EXPECT_FALSE(parseUnsigned("abc", 1, 1024, V));
  EXPECT_FALSE(parseUnsigned("64GB", 1, 1024, V)) << "trailing garbage";
  EXPECT_FALSE(parseUnsigned("-3", 1, 1024, V)) << "strtoull accepts signs";
  EXPECT_FALSE(parseUnsigned("+3", 1, 1024, V));
  EXPECT_FALSE(parseUnsigned(" 3", 1, 1024, V)) << "leading whitespace";
  EXPECT_FALSE(parseUnsigned("0", 1, 1024, V)) << "below Min";
  EXPECT_FALSE(parseUnsigned("1025", 1, 1024, V)) << "above Max";
  EXPECT_FALSE(parseUnsigned("99999999999999999999999", 1, ~0ull, V))
      << "out of range";
}

TEST(Regression, ParseF64RejectsGarbage) {
  double V = -1.0;
  EXPECT_TRUE(parseF64("0.25", 0.0, 1.0, V));
  EXPECT_EQ(V, 0.25);
  EXPECT_TRUE(parseF64("1e-3", 0.0, 1.0, V));
  EXPECT_FALSE(parseF64("", 0.0, 1.0, V));
  EXPECT_FALSE(parseF64("x", 0.0, 1.0, V));
  EXPECT_FALSE(parseF64("0.5x", 0.0, 1.0, V)) << "trailing garbage";
  EXPECT_FALSE(parseF64("nan", 0.0, 1.0, V));
  EXPECT_FALSE(parseF64("inf", 0.0, 1.0, V));
  EXPECT_FALSE(parseF64("-0.1", 0.0, 1.0, V)) << "below Min";
  EXPECT_FALSE(parseF64("1.5", 0.0, 1.0, V)) << "above Max";
  EXPECT_FALSE(parseF64("1e400", 0.0, HUGE_VAL, V)) << "overflow";
}

//===----------------------------------------------------------------------===
// Regression: empty Accumulator min()/max() fabricated 0.0 (an impossible
// observed value); they now report NaN and the JSON exporter emits null.
//===----------------------------------------------------------------------===

TEST(Regression, EmptyAccumulatorMinMaxAreNaN) {
  Accumulator A;
  EXPECT_TRUE(std::isnan(A.min()));
  EXPECT_TRUE(std::isnan(A.max()));
  A.add(-2.0);
  EXPECT_EQ(A.min(), -2.0);
  EXPECT_EQ(A.max(), -2.0);

  MetricsRegistry M;
  M.histogram("empty");
  std::string J = M.toJson();
  EXPECT_NE(J.find("\"min\": null"), std::string::npos);
  EXPECT_NE(J.find("\"max\": null"), std::string::npos);
  EXPECT_NE(J.find("\"count\": 0"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Regression: CardTable::clearRange on a range whose boundaries fall
// mid-card. The old code cleared every touched card outright, wiping the
// FirstObj entry of a neighboring space's object sharing the boundary
// card and un-dirtying addresses outside the range.
//===----------------------------------------------------------------------===

TEST(Regression, ClearRangePreservesBoundaryCardState) {
  heap::CardTable CT(1 << 20);
  // Neighbor object at 1800, inside card 3 (1536..2048) but BELOW the
  // cleared range [1900, 4096).
  CT.noteObjectStart(1800);
  CT.dirtyCardFor(1800);
  // In-range state on fully covered cards.
  CT.noteObjectStart(2100);
  CT.dirtyCardFor(2100);

  CT.clearRange(1900, 4096);

  size_t Boundary = CT.cardIndex(1900); // card 3, partially covered
  EXPECT_EQ(CT.firstObjectInCard(Boundary), 1800u)
      << "neighbor's object-start entry must survive";
  EXPECT_TRUE(CT.isDirty(Boundary))
      << "partial cards keep the dirty bit (conservative rescan is safe; "
         "losing a dirty out-of-range address is not)";
  EXPECT_FALSE(CT.isDirty(CT.cardIndex(2100)));
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(2100)),
            heap::CardTable::NoObject);
}

TEST(Regression, ClearRangeDropsInRangeStartOnPartialCard) {
  heap::CardTable CT(1 << 20);
  // Object start at 1950 is inside the cleared range even though its card
  // is only partially covered: the entry must go.
  CT.noteObjectStart(1950);
  CT.clearRange(1900, 4096);
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(1950)),
            heap::CardTable::NoObject);
}

TEST(Regression, ClearRangeUpperBoundaryPartialCard) {
  heap::CardTable CT(1 << 20);
  // Card 8 is 4096..4608. Range ends at 4200 mid-card; an object at 4300
  // (outside the range, same card) must keep its entry.
  CT.noteObjectStart(4300);
  CT.dirtyCardFor(4300);
  CT.noteObjectStart(4100); // inside the range, same card
  CT.clearRange(4096, 4200);
  // 4100 < 4300 so the per-card minimum was 4100; it lay in range, so the
  // slot is dropped -- conservative (a BOT walk restarts earlier), never
  // wrong. The dirty bit survives for the out-of-range 4300.
  EXPECT_TRUE(CT.isDirty(CT.cardIndex(4300)));
  CT.clearRange(0, 4096);
  EXPECT_TRUE(CT.isDirty(CT.cardIndex(4300)))
      << "range below the card leaves it untouched";
  EXPECT_EQ(CT.firstObjectInCard(CT.cardIndex(1000)),
            heap::CardTable::NoObject);
}

//===----------------------------------------------------------------------===
// Regression: GC pause accounting. Every nanosecond of simulated GC time
// must appear in exactly one event-log entry: the sum of all pause
// durations (minor, major, and incremental-step events alike) equals the
// report's GcNs. This pins two double-counting hazards at once -- the
// dynamic policy's between-GC migration copies (charged to GC time but
// deliberately outside the pause events) and incremental mark steps
// (their own events, never folded into the enclosing collection's pause).
//===----------------------------------------------------------------------===

double eventLogTotalNs(core::Runtime &RT) {
  double Sum = 0.0;
  for (const gc::GcEvent &E : RT.collector().eventLog())
    Sum += E.DurationNs;
  return Sum;
}

TEST(Regression, StopTheWorldPauseAccountingMatchesGcTime) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("PR");
  ASSERT_NE(Spec, nullptr);
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  core::Runtime RT(Config);
  Spec->Run(RT, /*Scale=*/0.4);
  core::RunReport R = RT.report();
  ASSERT_GT(R.Gc.MinorGcs, 0u);
  EXPECT_NEAR(eventLogTotalNs(RT), R.GcNs, 1e-6 * R.GcNs);

  // The pause histograms see each collection exactly once too.
  RT.publishMetrics();
  const Histogram *Minor = RT.metrics().findHistogram("gc.minor.pause_ns");
  ASSERT_NE(Minor, nullptr);
  EXPECT_EQ(Minor->count(), R.Gc.MinorGcs);
  double HistoSum = Minor->sum();
  if (const Histogram *Major = RT.metrics().findHistogram("gc.major.pause_ns"))
    HistoSum += Major->sum();
  EXPECT_NEAR(HistoSum, R.GcNs, 1e-6 * R.GcNs);
}

TEST(Regression, IncrementalPauseAccountingMatchesGcTime) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("PR");
  ASSERT_NE(Spec, nullptr);
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.HeapPaperGB = 12; // small enough to cross the occupancy trigger
  Config.MaxPauseUs = 100;
  core::Runtime RT(Config);
  Spec->Run(RT, /*Scale=*/0.4);
  core::RunReport R = RT.report();
  ASSERT_GT(R.Gc.IncCycles, 0u) << "test must actually exercise a cycle";
  ASSERT_GT(R.Gc.IncMarkSteps, 0u);
  EXPECT_NEAR(eventLogTotalNs(RT), R.GcNs, 1e-6 * R.GcNs);

  // Step events land in their own histogram, not the major-pause one, and
  // the three histograms together still cover GcNs exactly once.
  RT.publishMetrics();
  const Histogram *Step =
      RT.metrics().findHistogram("gc.incremental.step_ns");
  ASSERT_NE(Step, nullptr);
  // One event per cycle start and per mark step; SATB drains before minor
  // GCs add more on top.
  EXPECT_GE(Step->count(), R.Gc.IncMarkSteps + R.Gc.IncCycles);
  double HistoSum = Step->sum();
  if (const Histogram *Minor = RT.metrics().findHistogram("gc.minor.pause_ns"))
    HistoSum += Minor->sum();
  if (const Histogram *Major = RT.metrics().findHistogram("gc.major.pause_ns"))
    HistoSum += Major->sum();
  EXPECT_NEAR(HistoSum, R.GcNs, 1e-6 * R.GcNs);
}

TEST(Regression, IncrementalMarkingKeepsResultsAndThreadInvariance) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("PR");
  ASSERT_NE(Spec, nullptr);
  auto Run = [&](uint32_t MaxPauseUs) {
    core::RuntimeConfig Config;
    Config.Policy = gc::PolicyKind::Panthera;
    Config.HeapPaperGB = 12;
    Config.MaxPauseUs = MaxPauseUs;
    core::Runtime RT(Config);
    return Spec->Run(RT, /*Scale=*/0.4);
  };
  // Same answer with and without the pause budget.
  EXPECT_EQ(Run(0), Run(100));
}

TEST(Regression, ClearRangeEmptyAndSingleCardRanges) {
  heap::CardTable CT(1 << 20);
  CT.dirtyCardFor(512);
  CT.noteObjectStart(512);
  CT.clearRange(512, 512); // empty range: no-op
  EXPECT_TRUE(CT.isDirty(1));
  CT.clearRange(512, 1024); // exactly card 1
  EXPECT_FALSE(CT.isDirty(1));
  EXPECT_EQ(CT.firstObjectInCard(1), heap::CardTable::NoObject);
}

} // namespace
