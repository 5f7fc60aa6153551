//===- tests/test_graphx.cpp - GraphX/Pregel layer tests ------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Validates the Pregel layer against reference graph algorithms computed
/// natively on the same edge lists.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "graphx/Pregel.h"
#include "workloads/DataGen.h"

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>

using namespace panthera;
using rdd::Rdd;
using rdd::SourceData;
using rdd::SourceRecord;

namespace {

/// Reference union-find over the same edges.
class UnionFind {
public:
  explicit UnionFind(int64_t N) : Parent(N) {
    for (int64_t I = 0; I != N; ++I)
      Parent[I] = I;
  }
  int64_t find(int64_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  void unite(int64_t A, int64_t B) { Parent[find(A)] = find(B); }

private:
  std::vector<int64_t> Parent;
};

class GraphxTest : public ::testing::Test {
protected:
  void SetUp() override {
    core::RuntimeConfig Config;
    Config.Policy = gc::PolicyKind::Panthera;
    Config.HeapPaperGB = 32;
    RT = std::make_unique<core::Runtime>(Config);
    RT->analyzeAndInstall(R"(
program g {
  edges = textFile("g").flatMap().groupByKey().persist(MEMORY_ONLY);
  vertices = edges.mapValues().persist(MEMORY_ONLY);
  for (i in 1..iters) {
    msgs = edges.join(vertices).flatMap();
    vertices = msgs.union(vertices).reduceByKey().persist(MEMORY_ONLY);
    for (j in 1..agg) { p = edges.join(vertices).map(); p.count(); }
  }
  vertices.count();
}
)");
    G = workloads::genPowerLawGraph(4, 600, 1500, 1.0, /*Seed=*/5);
  }

  Rdd adjacency() {
    Rdd EdgeList = RT->ctx().source(&G.Edges);
    return graphx::buildAdjacency(RT->ctx(), EdgeList, "edges",
                                  /*Symmetrize=*/true);
  }

  std::unique_ptr<core::Runtime> RT;
  workloads::GraphData G;
};

TEST_F(GraphxTest, AdjacencyCoversEveryEndpoint) {
  Rdd Adj = adjacency();
  std::set<int64_t> Expected;
  for (const auto &Part : G.Edges)
    for (const SourceRecord &E : Part) {
      Expected.insert(E.Key);
      Expected.insert(static_cast<int64_t>(E.Val));
    }
  EXPECT_EQ(Adj.count(), static_cast<int64_t>(Expected.size()));
}

TEST_F(GraphxTest, ConnectedComponentsMatchUnionFind) {
  Rdd Adj = adjacency();
  graphx::PregelConfig Config;
  Config.MaxIterations = 20; // enough to converge on a 600-vertex graph
  Rdd Labels = graphx::connectedComponents(RT->ctx(), Adj, Config);

  UnionFind Ref(G.NumVertices);
  for (const auto &Part : G.Edges)
    for (const SourceRecord &E : Part)
      Ref.unite(E.Key, static_cast<int64_t>(E.Val));

  // Both labelings must induce the same partition of the vertex set.
  std::map<int64_t, int64_t> LabelToRef;
  for (const SourceRecord &Rec : Labels.collect()) {
    int64_t Label = static_cast<int64_t>(Rec.Val);
    int64_t RefRoot = Ref.find(Rec.Key);
    auto [It, New] = LabelToRef.emplace(Label, RefRoot);
    EXPECT_EQ(It->second, RefRoot)
        << "vertex " << Rec.Key << " label " << Label
        << " spans two reference components";
    // And the min-label property: the label is a member of the component.
    EXPECT_EQ(Ref.find(Label), RefRoot);
  }
}

TEST_F(GraphxTest, ShortestPathsMatchBfs) {
  Rdd Adj = adjacency();
  graphx::PregelConfig Config;
  Config.MaxIterations = 20;
  Rdd Dist = graphx::shortestPaths(RT->ctx(), Adj, /*SourceVertex=*/0,
                                   Config);

  // Reference BFS over the symmetrized graph.
  std::map<int64_t, std::vector<int64_t>> AdjRef;
  for (const auto &Part : G.Edges)
    for (const SourceRecord &E : Part) {
      AdjRef[E.Key].push_back(static_cast<int64_t>(E.Val));
      AdjRef[static_cast<int64_t>(E.Val)].push_back(E.Key);
    }
  std::map<int64_t, int64_t> Ref;
  std::queue<int64_t> Queue;
  Ref[0] = 0;
  Queue.push(0);
  while (!Queue.empty()) {
    int64_t V = Queue.front();
    Queue.pop();
    for (int64_t N : AdjRef[V])
      if (!Ref.count(N)) {
        Ref[N] = Ref[V] + 1;
        Queue.push(N);
      }
  }

  for (const SourceRecord &Rec : Dist.collect()) {
    if (Rec.Val >= graphx::Unreachable) {
      EXPECT_EQ(Ref.count(Rec.Key), 0u)
          << "vertex " << Rec.Key << " should be reachable";
    } else {
      ASSERT_TRUE(Ref.count(Rec.Key));
      EXPECT_DOUBLE_EQ(Rec.Val, static_cast<double>(Ref[Rec.Key]))
          << "distance mismatch at vertex " << Rec.Key;
    }
  }
}

TEST_F(GraphxTest, PregelUnpersistsOldGenerationsWithLag) {
  Rdd Adj = adjacency();
  graphx::PregelConfig Config;
  Config.MaxIterations = 6;
  Config.UnpersistLag = 2;
  uint64_t Before = RT->ctx().stats().RddsMaterialized;
  graphx::connectedComponents(RT->ctx(), Adj, Config);
  // 6 supersteps materialize 6 vertex generations (plus shuffles); old
  // generations past the lag are unpersisted, so at most lag+1 vertex
  // RDDs hold persistent roots at the end.
  EXPECT_GT(RT->ctx().stats().RddsMaterialized, Before);
}

TEST_F(GraphxTest, DirectedAdjacencyOnlyHasSourceVertices) {
  Rdd EdgeList = RT->ctx().source(&G.Edges);
  Rdd Adj = graphx::buildAdjacency(RT->ctx(), EdgeList, "edges",
                                   /*Symmetrize=*/false);
  std::set<int64_t> Sources;
  for (const auto &Part : G.Edges)
    for (const SourceRecord &E : Part)
      Sources.insert(E.Key);
  EXPECT_EQ(Adj.count(), static_cast<int64_t>(Sources.size()));
}

} // namespace
