//===- tests/test_mapreduce.cpp - MapReduce-layer tests -------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/HeapVerifier.h"
#include "mapreduce/MapReduce.h"

#include <gtest/gtest.h>

#include <map>

using namespace panthera;
using namespace panthera::mapreduce;

namespace {

class MapReduceTest : public ::testing::Test {
protected:
  void SetUp() override {
    core::RuntimeConfig Config;
    Config.Policy = gc::PolicyKind::Panthera;
    Config.HeapPaperGB = 16;
    RT = std::make_unique<core::Runtime>(Config);
  }

  std::vector<std::vector<KeyValue>> splits(int64_t N, int64_t KeyMod,
                                            unsigned NumSplits = 4) {
    std::vector<std::vector<KeyValue>> Out(NumSplits);
    for (int64_t I = 0; I != N; ++I)
      Out[static_cast<size_t>(I) % NumSplits].push_back({I % KeyMod, 1.0});
    return Out;
  }

  std::unique_ptr<core::Runtime> RT;
};

TEST_F(MapReduceTest, WordCountStyleAggregation) {
  JobConfig Config;
  OutputTable Table = runJob(
      *RT, Config, splits(10000, 25),
      [](const KeyValue &KV, const Emitter &Emit) {
        Emit(KV.Key, KV.Value);
      },
      [](double A, double B) { return A + B; });
  // 25 keys, 400 records each.
  uint32_t TotalRows = 0;
  for (uint32_t P = 0; P != Table.numPartitions(); ++P)
    TotalRows += Table.rows(P);
  EXPECT_EQ(TotalRows, 25u);
  double V = 0;
  ASSERT_TRUE(Table.lookup(7, V));
  EXPECT_DOUBLE_EQ(V, 400.0);
  EXPECT_DOUBLE_EQ(Table.total(), 10000.0);
  Table.release();
}

TEST_F(MapReduceTest, MapperCanExpandAndRekey) {
  JobConfig Config;
  OutputTable Table = runJob(
      *RT, Config, splits(1000, 1000000),
      [](const KeyValue &KV, const Emitter &Emit) {
        Emit(KV.Key % 2, 1.0); // parity histogram
        Emit(2, 1.0);          // plus a total bucket
      },
      [](double A, double B) { return A + B; });
  double Even = 0, Odd = 0, All = 0;
  ASSERT_TRUE(Table.lookup(0, Even));
  ASSERT_TRUE(Table.lookup(1, Odd));
  ASSERT_TRUE(Table.lookup(2, All));
  EXPECT_DOUBLE_EQ(Even, 500.0);
  EXPECT_DOUBLE_EQ(Odd, 500.0);
  EXPECT_DOUBLE_EQ(All, 1000.0);
  Table.release();
}

TEST_F(MapReduceTest, OutputTagControlsPlacement) {
  JobConfig Hot;
  Hot.OutputTag = MemTag::Dram;
  Hot.OutputStructureId = 11;
  // 8000 distinct keys -> ~2000 rows per reducer: above the pretenure
  // threshold, so the output arrays place directly.
  OutputTable HotTable = runJob(
      *RT, Hot, splits(8000, 1000000),
      [](const KeyValue &KV, const Emitter &Emit) {
        Emit(KV.Key, KV.Value);
      },
      [](double A, double B) { return A + B; });
  EXPECT_GT(RT->heap().oldDram().usedBytes(), 0u);

  uint64_t NvmBefore = RT->heap().oldNvm().usedBytes();
  JobConfig Archival;
  Archival.OutputTag = MemTag::Nvm;
  Archival.OutputStructureId = 12;
  OutputTable Archive = runJob(
      *RT, Archival, splits(8000, 1000000),
      [](const KeyValue &KV, const Emitter &Emit) {
        Emit(KV.Key, KV.Value);
      },
      [](double A, double B) { return A + B; });
  EXPECT_GT(RT->heap().oldNvm().usedBytes(), NvmBefore);
  HotTable.release();
  Archive.release();
}

TEST_F(MapReduceTest, SurvivesCollectionsAndRelease) {
  JobConfig Config;
  OutputTable Table = runJob(
      *RT, Config, splits(5000, 50),
      [](const KeyValue &KV, const Emitter &Emit) {
        Emit(KV.Key, KV.Value);
      },
      [](double A, double B) { return A + B; });
  RT->collector().collectMinor("test");
  RT->collector().collectMajor("test");
  EXPECT_DOUBLE_EQ(Table.total(), 5000.0);
  Table.release();
  RT->collector().collectMajor("reclaim");
  // Heap integrity after release + reclamation.
  gc::VerifyResult V = gc::verifyHeap(RT->heap());
  EXPECT_TRUE(V.Ok) << V.FirstProblem;
}

TEST_F(MapReduceTest, JobsGenerateYoungChurn) {
  // The map side's emitted pairs are heap objects: a big job must drive
  // minor collections (the paper's intermediate-data story, on Hadoop).
  JobConfig Config;
  uint64_t Before = RT->collector().stats().MinorGcs;
  OutputTable Table = runJob(
      *RT, Config, splits(60000, 500),
      [](const KeyValue &KV, const Emitter &Emit) {
        Emit(KV.Key, KV.Value);
      },
      [](double A, double B) { return A + B; });
  EXPECT_GT(RT->collector().stats().MinorGcs, Before);
  Table.release();
}

TEST_F(MapReduceTest, DeterministicAcrossPolicies) {
  auto Run = [&](gc::PolicyKind Policy) {
    core::RuntimeConfig Config;
    Config.Policy = Policy;
    Config.HeapPaperGB = 16;
    core::Runtime Local(Config);
    JobConfig Job;
    OutputTable T = runJob(
        Local, Job, splits(20000, 123),
        [](const KeyValue &KV, const Emitter &Emit) {
          Emit(KV.Key * 3 % 41, KV.Value * 2.0);
        },
        [](double A, double B) { return A + B; });
    double Total = T.total();
    T.release();
    return Total;
  };
  double A = Run(gc::PolicyKind::DramOnly);
  EXPECT_DOUBLE_EQ(Run(gc::PolicyKind::Panthera), A);
  EXPECT_DOUBLE_EQ(Run(gc::PolicyKind::Unmanaged), A);
}

TEST_F(MapReduceTest, ReducePhaseMatchesAnOrderedMapReference) {
  // A non-commutative reduce over negative keys: each key folds its values
  // in emission order and each partition lists its rows in ascending
  // signed key order, exactly as a std::map fold would.
  std::vector<std::vector<KeyValue>> Splits(4);
  uint64_t State = 99;
  for (int I = 0; I != 4000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t Key = static_cast<int64_t>((State >> 33) % 301) - 150;
    const double Val = static_cast<double>((State >> 13) % 512) / 4.0 - 64.0;
    Splits[I % 4].push_back({Key, Val});
  }
  const auto Reduce = [](double A, double B) { return 2.0 * A + B; };
  std::map<int64_t, double> Ref;
  for (const std::vector<KeyValue> &Split : Splits)
    for (const KeyValue &KV : Split) {
      auto [It, New] = Ref.emplace(KV.Key, KV.Value);
      if (!New)
        It->second = Reduce(It->second, KV.Value);
    }
  OutputTable Table = runJob(
      *RT, JobConfig{}, Splits,
      [](const KeyValue &KV, const Emitter &Emit) {
        Emit(KV.Key, KV.Value);
      },
      Reduce);
  size_t Rows = 0;
  for (uint32_t P = 0; P != Table.numPartitions(); ++P)
    for (uint32_t I = 0; I != Table.rows(P); ++I, ++Rows) {
      const KeyValue Row = Table.row(P, I);
      if (I != 0) {
        EXPECT_LT(Table.row(P, I - 1).Key, Row.Key) << "partition " << P;
      }
      ASSERT_TRUE(Ref.count(Row.Key)) << Row.Key;
      EXPECT_EQ(Row.Value, Ref[Row.Key]) << Row.Key;
    }
  EXPECT_EQ(Rows, Ref.size());
  Table.release();
}

} // namespace
