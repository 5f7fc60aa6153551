//===- tests/test_rdd.cpp - RDD engine end-to-end tests -------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>

using namespace panthera;
using namespace panthera::rdd;
using heap::ObjRef;

namespace {

/// Fixture running a small Panthera-policy system.
class RddTest : public ::testing::Test {
protected:
  void SetUp() override { rebuild(gc::PolicyKind::Panthera); }

  void rebuild(gc::PolicyKind Policy) {
    core::RuntimeConfig Config;
    Config.Policy = Policy;
    Config.HeapPaperGB = 16;
    Config.Engine.NumPartitions = 4;
    RT = std::make_unique<core::Runtime>(Config);
  }

  /// Builds per-partition source data with keys 0..N-1, value = key * 2.
  SourceData makeData(int64_t N) {
    SourceData Data(RT->ctx().config().NumPartitions);
    for (int64_t I = 0; I != N; ++I)
      Data[static_cast<size_t>(I) % Data.size()].push_back(
          {I, static_cast<double>(I) * 2.0});
    return Data;
  }

  std::unique_ptr<core::Runtime> RT;
};

TEST_F(RddTest, CountStreamsSourceRecords) {
  SourceData Data = makeData(1000);
  Rdd R = RT->ctx().source(&Data);
  EXPECT_EQ(R.count(), 1000);
}

TEST_F(RddTest, MapTransformsValues) {
  SourceData Data = makeData(100);
  Rdd R = RT->ctx().source(&Data).map(
      [](RddContext &C, ObjRef T) {
        return C.makeTuple(C.key(T), C.value(T) + 1.0);
      });
  std::vector<SourceRecord> Out = R.collect();
  ASSERT_EQ(Out.size(), 100u);
  for (const SourceRecord &Rec : Out)
    EXPECT_DOUBLE_EQ(Rec.Val, Rec.Key * 2.0 + 1.0);
}

TEST_F(RddTest, FilterDropsRecords) {
  SourceData Data = makeData(100);
  Rdd R = RT->ctx().source(&Data).filter(
      [](RddContext &C, ObjRef T) { return C.key(T) % 2 == 0; });
  EXPECT_EQ(R.count(), 50);
}

TEST_F(RddTest, FlatMapExpandsRecords) {
  SourceData Data = makeData(10);
  Rdd R = RT->ctx().source(&Data).flatMap(
      [](RddContext &C, ObjRef T, const TupleSink &S) {
        int64_t K = C.key(T);
        double V = C.value(T);
        S(C.makeTuple(K, V));
        S(C.makeTuple(K + 1000, V));
      });
  EXPECT_EQ(R.count(), 20);
}

TEST_F(RddTest, ReduceByKeySumsPerKey) {
  SourceData Data(4);
  for (int I = 0; I != 400; ++I)
    Data[I % 4].push_back({I % 10, 1.0});
  Rdd R = RT->ctx().source(&Data).reduceByKey(
      [](double A, double B) { return A + B; });
  std::vector<SourceRecord> Out = R.collect();
  ASSERT_EQ(Out.size(), 10u);
  for (const SourceRecord &Rec : Out)
    EXPECT_DOUBLE_EQ(Rec.Val, 40.0);
}

TEST_F(RddTest, ReduceByKeyRepartitionsByKey) {
  // All instances of one key must land in one output partition: summing a
  // key spread over every input partition yields one record.
  SourceData Data(4);
  for (int P = 0; P != 4; ++P)
    Data[P].push_back({7, 1.0});
  Rdd R = RT->ctx().source(&Data).reduceByKey(
      [](double A, double B) { return A + B; });
  std::vector<SourceRecord> Out = R.collect();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Key, 7);
  EXPECT_DOUBLE_EQ(Out[0].Val, 4.0);
}

TEST_F(RddTest, GroupByKeyBuildsCompactBuffers) {
  SourceData Data(4);
  for (int I = 0; I != 12; ++I)
    Data[I % 4].push_back({I % 3, static_cast<double>(I)});
  Rdd G = RT->ctx().source(&Data).groupByKey();
  // Count buffer lengths by streaming a flatMap over the groups.
  Rdd Sizes = G.flatMap([](RddContext &C, ObjRef T, const TupleSink &S) {
    S(C.makeTuple(C.key(T), static_cast<double>(C.bufferLength(T))));
  });
  std::vector<SourceRecord> Out = Sizes.collect();
  ASSERT_EQ(Out.size(), 3u);
  for (const SourceRecord &Rec : Out)
    EXPECT_DOUBLE_EQ(Rec.Val, 4.0) << "each key has 4 values";
}

TEST_F(RddTest, DistinctRemovesDuplicates) {
  SourceData Data(4);
  for (int I = 0; I != 100; ++I)
    Data[I % 4].push_back({I % 5, 1.5});
  Rdd R = RT->ctx().source(&Data).distinct();
  EXPECT_EQ(R.count(), 5);
}

namespace {

/// 3000 rows over keys -100..100 plus the int64 extremes, values with
/// fractional bits, dealt round-robin over \p Partitions.
SourceData aggregationRows(uint32_t Partitions) {
  SourceData Data(Partitions);
  uint64_t State = 12345;
  for (int I = 0; I != 3000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t Key = static_cast<int64_t>((State >> 33) % 201) - 100;
    const double Val = static_cast<double>((State >> 13) % 1000) / 8.0 - 50.0;
    Data[I % Partitions].push_back({Key, Val});
  }
  Data[0].push_back({std::numeric_limits<int64_t>::min(), 1.0});
  Data[Partitions - 1].push_back({std::numeric_limits<int64_t>::max(), 2.0});
  Data[0].push_back({std::numeric_limits<int64_t>::min(), 3.0});
  return Data;
}

/// The rows in the order one key's reduce task receives them: source
/// partition by partition.
std::vector<SourceRecord> shuffleOrder(const SourceData &Data) {
  std::vector<SourceRecord> Rows;
  for (const std::vector<SourceRecord> &Part : Data)
    Rows.insert(Rows.end(), Part.begin(), Part.end());
  return Rows;
}

int64_t bitsOf(double V) {
  int64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

} // namespace

TEST_F(RddTest, ReduceByKeyMatchesAnOrderedMapReference) {
  // A non-commutative combine folds each key's values in row order, and
  // one reduce partition lists its keys in ascending signed order: exactly
  // a std::map fold. With four partitions, every key's value still matches
  // and the output is at most four ascending runs.
  const auto Combine = [](double A, double B) { return 2.0 * A + B; };
  for (uint32_t P : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << P << " partitions");
    core::RuntimeConfig Config;
    Config.HeapPaperGB = 16;
    Config.Engine.NumPartitions = P;
    RT = std::make_unique<core::Runtime>(Config);
    SourceData Data = aggregationRows(P);
    std::map<int64_t, double> Ref;
    for (const SourceRecord &Row : shuffleOrder(Data)) {
      auto [It, New] = Ref.emplace(Row.Key, Row.Val);
      if (!New)
        It->second = Combine(It->second, Row.Val);
    }
    std::vector<SourceRecord> Out =
        RT->ctx().source(&Data).reduceByKey(Combine).collect();
    ASSERT_EQ(Out.size(), Ref.size());
    size_t Descents = 0;
    for (size_t I = 0; I != Out.size(); ++I) {
      ASSERT_TRUE(Ref.count(Out[I].Key)) << Out[I].Key;
      EXPECT_EQ(bitsOf(Out[I].Val), bitsOf(Ref[Out[I].Key])) << Out[I].Key;
      Descents += I != 0 && Out[I].Key < Out[I - 1].Key;
    }
    EXPECT_LT(Descents, P);
    if (P == 1) {
      auto It = Ref.begin();
      for (const SourceRecord &Rec : Out)
        EXPECT_EQ(Rec.Key, (It++)->first);
    }
  }
}

TEST_F(RddTest, GroupByKeyKeepsRowOrderWithinEachGroup) {
  core::RuntimeConfig Config;
  Config.HeapPaperGB = 16;
  Config.Engine.NumPartitions = 1;
  RT = std::make_unique<core::Runtime>(Config);
  SourceData Data = aggregationRows(1);
  std::map<int64_t, std::vector<double>> Ref;
  for (const SourceRecord &Row : shuffleOrder(Data))
    Ref[Row.Key].push_back(Row.Val);
  // One output row per buffered value, in buffer order.
  std::vector<SourceRecord> Out =
      RT->ctx()
          .source(&Data)
          .groupByKey()
          .flatMap([](RddContext &C, ObjRef T, const TupleSink &S) {
            heap::GcRoot Buf(C.heap(), C.payload(T));
            const int64_t Key = C.key(T);
            for (uint32_t J = 0, N = C.heap().arrayLength(Buf.get()); J != N;
                 ++J)
              S(C.makeTuple(Key, C.bufferValue(Buf.get(), J)));
          })
          .collect();
  std::vector<SourceRecord> Expected;
  for (const auto &[Key, Values] : Ref)
    for (double V : Values)
      Expected.push_back({Key, V});
  ASSERT_EQ(Out.size(), Expected.size());
  for (size_t I = 0; I != Out.size(); ++I) {
    EXPECT_EQ(Out[I].Key, Expected[I].Key) << I;
    EXPECT_EQ(bitsOf(Out[I].Val), bitsOf(Expected[I].Val)) << I;
  }
}

TEST_F(RddTest, DistinctKeepsTheFirstRowOfEachBitPattern) {
  // Distinct compares values by bit pattern: -0.0 and +0.0 are two
  // values, and so are two NaN payloads. The first occurrence of each
  // (key, bits) survives, in input order.
  core::RuntimeConfig Config;
  Config.HeapPaperGB = 16;
  Config.Engine.NumPartitions = 1;
  RT = std::make_unique<core::Runtime>(Config);
  const double NanA = std::numeric_limits<double>::quiet_NaN();
  double NanB;
  const int64_t PayloadB = bitsOf(NanA) | 0x5;
  std::memcpy(&NanB, &PayloadB, sizeof(NanB));
  SourceData Data(1);
  Data[0] = {{1, 0.0},   {1, -0.0}, {1, 0.0},   {2, NanA}, {2, NanB},
             {2, NanA},  {-3, 1.5}, {1, -0.0},  {-3, 1.5}, {2, 0.0},
             {-3, -1.5}, {2, NanB}, {-1, -0.0}, {1, 1.0}};
  for (int64_t K = -50; K != 50; ++K)
    Data[0].push_back({K * 7919, static_cast<double>(K % 3)});
  std::map<std::pair<int64_t, int64_t>, bool> Seen;
  std::vector<SourceRecord> Expected;
  for (const SourceRecord &Row : Data[0])
    if (Seen.emplace(std::make_pair(Row.Key, bitsOf(Row.Val)), true).second)
      Expected.push_back(Row);
  std::vector<SourceRecord> Out = RT->ctx().source(&Data).distinct().collect();
  ASSERT_EQ(Out.size(), Expected.size());
  for (size_t I = 0; I != Out.size(); ++I) {
    EXPECT_EQ(Out[I].Key, Expected[I].Key) << I;
    EXPECT_EQ(bitsOf(Out[I].Val), bitsOf(Expected[I].Val)) << I;
  }
}

TEST_F(RddTest, UnionConcatenates) {
  SourceData A = makeData(30), B = makeData(20);
  Rdd U = RT->ctx().source(&A).unionWith(RT->ctx().source(&B));
  EXPECT_EQ(U.count(), 50);
}

TEST_F(RddTest, JoinMatchesByKey) {
  // Left: (k, k) grouped; Right: (k, 10k). Join emits left-val + right-val.
  SourceData L(4), R(4);
  for (int64_t K = 0; K != 40; ++K) {
    L[K % 4].push_back({K, static_cast<double>(K)});
    R[K % 4].push_back({K, static_cast<double>(K) * 10.0});
  }
  Rdd Left = RT->ctx().source(&L).reduceByKey(
      [](double A, double) { return A; }); // key-partition left
  Rdd Right = RT->ctx().source(&R).reduceByKey(
      [](double A, double) { return A; });
  Rdd J = Left.join(Right, [](RddContext &C, ObjRef LT, double RV) {
    return C.makeTuple(C.key(LT), C.value(LT) + RV);
  });
  std::vector<SourceRecord> Out = J.collect();
  ASSERT_EQ(Out.size(), 40u);
  std::map<int64_t, double> ByKey;
  for (const SourceRecord &Rec : Out)
    ByKey[Rec.Key] = Rec.Val;
  for (int64_t K = 0; K != 40; ++K)
    EXPECT_DOUBLE_EQ(ByKey[K], K + K * 10.0);
}

TEST_F(RddTest, JoinInsertsRepartitionForUnpartitionedLeft) {
  // An un-partitioned left side must still join correctly: keys were
  // scattered across input partitions arbitrarily.
  SourceData L(4), R(4);
  for (int64_t K = 0; K != 16; ++K) {
    L[(K + 3) % 4].push_back({K, 1.0}); // misaligned placement
    R[K % 4].push_back({K, 2.0});
  }
  Rdd Left = RT->ctx().source(&L); // not key-partitioned
  Rdd Right = RT->ctx().source(&R).reduceByKey(
      [](double A, double) { return A; });
  Rdd J = Left.join(Right, [](RddContext &C, ObjRef LT, double RV) {
    return C.makeTuple(C.key(LT), C.value(LT) + RV);
  });
  EXPECT_EQ(J.count(), 16);
}

TEST_F(RddTest, ReduceActionCombines) {
  SourceData Data(4);
  for (int I = 1; I <= 100; ++I)
    Data[I % 4].push_back({I, static_cast<double>(I)});
  double Sum = RT->ctx().source(&Data).reduce(
      [](double A, double B) { return A + B; });
  EXPECT_DOUBLE_EQ(Sum, 5050.0);
}

TEST_F(RddTest, PersistedRddIsReusedNotRecomputed) {
  SourceData Data = makeData(100);
  int Applications = 0;
  Rdd R = RT->ctx()
              .source(&Data)
              .map([&Applications](RddContext &C, ObjRef T) {
                ++Applications;
                return C.makeTuple(C.key(T), C.value(T));
              })
              .persistAs("cached", StorageLevel::MemoryOnly);
  EXPECT_EQ(R.count(), 100);
  int AfterFirst = Applications;
  EXPECT_EQ(R.count(), 100);
  EXPECT_EQ(Applications, AfterFirst)
      << "second action must stream the materialized partitions";
}

TEST_F(RddTest, UnpersistForcesRecompute) {
  SourceData Data = makeData(50);
  int Applications = 0;
  Rdd R = RT->ctx()
              .source(&Data)
              .map([&Applications](RddContext &C, ObjRef T) {
                ++Applications;
                return C.makeTuple(C.key(T), C.value(T));
              })
              .persistAs("cached", StorageLevel::MemoryOnly);
  R.count();
  R.unpersist();
  R.count();
  EXPECT_EQ(Applications, 100) << "recomputed after unpersist";
}

TEST_F(RddTest, PersistWithDramTagPretenuresPartitions) {
  // Install an analysis tagging "hot" DRAM, then persist under that name.
  RT->analyzeAndInstall(R"(
program t {
  hot = textFile("in").map().persist(MEMORY_ONLY);
  for (i in 1..n) { x = hot.map(); x.count(); }
}
)");
  SourceData Data = makeData(3000); // 750/partition: below threshold
  SourceData Big(4);
  for (int64_t I = 0; I != 8000; ++I)
    Big[I % 4].push_back({I, 1.0});
  Rdd R = RT->ctx()
              .source(&Big)
              .map([](RddContext &C, ObjRef T) {
                return C.makeTuple(C.key(T), C.value(T));
              })
              .persistAs("hot", StorageLevel::MemoryOnly);
  R.count();
  EXPECT_GE(RT->heap().stats().ArraysPretenured, 4u)
      << "each partition array (2000 elems) pretenures into old DRAM";
  EXPECT_GT(RT->heap().oldDram().usedBytes(), 0u);
}

TEST_F(RddTest, ShuffledRddInheritsDownstreamTagBackward) {
  // reduceByKey's ShuffledRDD is untagged statically; it must inherit the
  // NVM tag of the persisted RDD downstream (§3 lineage propagation).
  RT->analyzeAndInstall(R"(
program t {
  hot = textFile("h").map().persist(MEMORY_ONLY);
  cold = textFile("in").map().persist(MEMORY_ONLY);
  for (i in 1..n) {
    cold = cold.join(hot).reduceByKey().persist(MEMORY_ONLY);
  }
  cold.count();
}
)");
  ASSERT_EQ(RT->analysis().tagFor("cold"), MemTag::Nvm);
  SourceData Big(4);
  for (int64_t I = 0; I != 8000; ++I)
    Big[I % 4].push_back({I, 1.0}); // 8000 keys -> ~2000 per partition
  Rdd R = RT->ctx()
              .source(&Big)
              .reduceByKey([](double A, double B) { return A + B; })
              .persistAs("cold", StorageLevel::MemoryOnly);
  R.count();
  EXPECT_GT(RT->heap().oldNvm().usedBytes(), 0u);
  EXPECT_GE(RT->heap().stats().ArraysPretenured, 4u);
}

TEST_F(RddTest, OffHeapPersistStoresInNativeNvm) {
  RT->analyzeAndInstall(R"(
program t {
  raw = textFile("in").map().persist(OFF_HEAP);
  raw.count();
}
)");
  SourceData Data = makeData(2000);
  Rdd R = RT->ctx()
              .source(&Data)
              .map([](RddContext &C, ObjRef T) {
                return C.makeTuple(C.key(T), C.value(T));
              })
              .persistAs("raw", StorageLevel::OffHeapSer);
  EXPECT_EQ(R.count(), 2000);
  EXPECT_GT(RT->heap().native().usedBytes(), 0u);
  EXPECT_EQ(R.count(), 2000) << "re-streamed from native storage";
}

TEST_F(RddTest, DiskOnlyPersistRoundTrips) {
  SourceData Data = makeData(500);
  Rdd R = RT->ctx()
              .source(&Data)
              .map([](RddContext &C, ObjRef T) {
                return C.makeTuple(C.key(T), C.value(T) * 3.0);
              })
              .persistAs("spill", StorageLevel::DiskOnly);
  EXPECT_EQ(R.count(), 500);
  std::vector<SourceRecord> Out = R.collect();
  ASSERT_EQ(Out.size(), 500u);
  for (const SourceRecord &Rec : Out)
    EXPECT_DOUBLE_EQ(Rec.Val, Rec.Key * 2.0 * 3.0);
}

TEST_F(RddTest, MonitorCountsCallsOnNamedRdds) {
  SourceData Data = makeData(100);
  Rdd R = RT->ctx().source(&Data).persistAs("tracked",
                                            StorageLevel::MemoryOnly);
  uint64_t Before = RT->monitor().totalCalls();
  R.map([](RddContext &C, ObjRef T) {
     return C.makeTuple(C.key(T), C.value(T));
   }).count();
  EXPECT_GT(RT->monitor().totalCalls(), Before);
}

TEST_F(RddTest, UnnamedRddsAreNotMonitored) {
  SourceData Data = makeData(100);
  uint64_t Before = RT->monitor().totalCalls();
  RT->ctx().source(&Data).count();
  EXPECT_EQ(RT->monitor().totalCalls(), Before);
}

TEST_F(RddTest, TagsIgnoredUnderUnmanagedPolicy) {
  rebuild(gc::PolicyKind::Unmanaged);
  RT->analyzeAndInstall(R"(
program t {
  hot = textFile("in").map().persist(MEMORY_ONLY);
  for (i in 1..n) { x = hot.map(); x.count(); }
}
)");
  SourceData Big(4);
  for (int64_t I = 0; I != 8000; ++I)
    Big[I % 4].push_back({I, 1.0});
  Rdd R = RT->ctx()
              .source(&Big)
              .map([](RddContext &C, ObjRef T) {
                return C.makeTuple(C.key(T), C.value(T));
              })
              .persistAs("hot", StorageLevel::MemoryOnly);
  R.count();
  EXPECT_EQ(RT->heap().stats().ArraysPretenured, 0u)
      << "the unmanaged baseline never pretenures";
}

TEST_F(RddTest, PipelineSurvivesGcPressure) {
  // A long pipeline over a small heap: many minor GCs must not corrupt
  // results (end-to-end GC-safety of the streaming engine).
  core::RuntimeConfig Config;
  Config.Policy = gc::PolicyKind::Panthera;
  Config.HeapPaperGB = 4; // small: forces collections
  RT = std::make_unique<core::Runtime>(Config);
  SourceData Data(4);
  for (int64_t I = 0; I != 20000; ++I)
    Data[I % 4].push_back({I % 500, 1.0});
  Rdd R = RT->ctx()
              .source(&Data)
              .map([](RddContext &C, ObjRef T) {
                return C.makeTuple(C.key(T), C.value(T) * 2.0);
              })
              .reduceByKey([](double A, double B) { return A + B; });
  std::vector<SourceRecord> Out = R.collect();
  ASSERT_EQ(Out.size(), 500u);
  for (const SourceRecord &Rec : Out)
    EXPECT_DOUBLE_EQ(Rec.Val, 80.0) << "40 records/key, value 2.0 each";
  EXPECT_GT(RT->collector().stats().MinorGcs, 0u);
}

} // namespace

TEST_F(RddTest, SortByKeyProducesGlobalOrder) {
  // Scrambled keys across partitions; the sorted collect must be globally
  // non-decreasing (partition i entirely precedes partition i+1).
  SourceData Data(4);
  for (int64_t I = 0; I != 4000; ++I) {
    int64_t Key = (I * 48271) % 65537; // full-period scramble
    Data[I % 4].push_back({Key, static_cast<double>(I)});
  }
  Rdd Sorted = RT->ctx().source(&Data).sortByKey();
  std::vector<SourceRecord> Out = Sorted.collect();
  ASSERT_EQ(Out.size(), 4000u);
  for (size_t I = 1; I != Out.size(); ++I)
    ASSERT_LE(Out[I - 1].Key, Out[I].Key) << "position " << I;
}

TEST_F(RddTest, SortByKeyIsDeterministic) {
  SourceData Data(4);
  for (int64_t I = 0; I != 1000; ++I)
    Data[I % 4].push_back({(I * 7919) % 1009, 1.0});
  SourceData Copy = Data;
  auto A = RT->ctx().source(&Data).sortByKey().collect();
  auto B = RT->ctx().source(&Copy).sortByKey().collect();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A[I].Key, B[I].Key);
}

TEST_F(RddTest, SortedRddRepartitionsBeforeJoin) {
  // A range-partitioned left side must still join correctly against a
  // hash-partitioned right side (implicit repartition).
  SourceData L(4), R(4);
  for (int64_t K = 0; K != 64; ++K) {
    L[K % 4].push_back({K, 1.0});
    R[K % 4].push_back({K, 2.0});
  }
  Rdd Left = RT->ctx().source(&L).sortByKey();
  Rdd Right = RT->ctx().source(&R).reduceByKey(
      [](double A, double) { return A; });
  Rdd J = Left.join(Right, [](RddContext &C, ObjRef LT, double RV) {
    return C.makeTuple(C.key(LT), C.value(LT) + RV);
  });
  EXPECT_EQ(J.count(), 64);
}

TEST_F(RddTest, SampleKeepsRoughlyTheRequestedFraction) {
  SourceData Data = makeData(20000);
  int64_t Kept =
      RT->ctx().source(&Data).sample(0.25, /*Seed=*/7).count();
  EXPECT_GT(Kept, 20000 * 0.20);
  EXPECT_LT(Kept, 20000 * 0.30);
}

TEST_F(RddTest, SampleIsDeterministicPerSeed) {
  SourceData Data = makeData(5000);
  SourceData Copy = Data;
  int64_t A = RT->ctx().source(&Data).sample(0.5, 11).count();
  int64_t B = RT->ctx().source(&Copy).sample(0.5, 11).count();
  EXPECT_EQ(A, B);
  int64_t C = RT->ctx().source(&Copy).sample(0.5, 12).count();
  EXPECT_NE(A, C) << "different seeds should differ (overwhelmingly)";
}
