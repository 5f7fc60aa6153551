//===- graphx/Pregel.cpp - GraphX-like Pregel layer -----------------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "graphx/Pregel.h"

#include <cmath>
#include <deque>

using namespace panthera;
using namespace panthera::graphx;
using heap::GcRoot;
using heap::ObjRef;
using rdd::Rdd;
using rdd::RddContext;
using rdd::SparkContext;
using rdd::TupleSink;

Rdd panthera::graphx::buildAdjacency(SparkContext &Ctx, const Rdd &EdgeList,
                                     const std::string &EdgesVar,
                                     bool Symmetrize) {
  (void)Ctx; // the handles carry their context; kept for API symmetry
  Rdd Edges = EdgeList;
  if (Symmetrize) {
    Edges = Edges.flatMap([](RddContext &C, ObjRef T, const TupleSink &S) {
      int64_t Src = C.key(T);
      double Dst = C.value(T);
      S(C.makeTuple(Src, Dst));
      S(C.makeTuple(static_cast<int64_t>(Dst), static_cast<double>(Src)));
    });
  }
  return Edges.groupByKey().persistAs(EdgesVar,
                                      rdd::StorageLevel::MemoryOnly);
}

Rdd panthera::graphx::pregel(SparkContext &Ctx, const Rdd &Adjacency,
                             const Rdd &InitialVertices,
                             const PregelConfig &Config,
                             const std::function<bool(double)> &ShouldSend,
                             const std::function<double(double)> &MsgFn,
                             const rdd::CombineFn &Combine) {
  (void)Ctx;
  Rdd Vertices = InitialVertices;
  std::deque<Rdd> OldGenerations;
  for (uint32_t Iter = 0; Iter != Config.MaxIterations; ++Iter) {
    // Superstep: join the adjacency with the current vertex values, carry
    // the neighbor buffer through the join, and fan the message out.
    Rdd Carried = Adjacency.join(
        Vertices, [ShouldSend, MsgFn](RddContext &C, ObjRef Left, double V) {
          double Msg = ShouldSend(V) ? MsgFn(V) : std::nan("");
          return C.makeTupleWithRef(C.key(Left), Msg, C.payload(Left));
        });
    Rdd Msgs =
        Carried.flatMap([](RddContext &C, ObjRef T, const TupleSink &S) {
          double Msg = C.value(T);
          if (std::isnan(Msg))
            return;
          GcRoot Buf(C.heap(), C.payload(T));
          if (Buf.get().isNull())
            return;
          uint32_t N = C.heap().arrayLength(Buf.get());
          for (uint32_t I = 0; I != N; ++I) {
            int64_t Neighbor =
                static_cast<int64_t>(C.bufferValue(Buf.get(), I));
            S(C.makeTuple(Neighbor, Msg));
          }
        });
    Rdd Updated = Msgs.unionWith(Vertices)
                      .reduceByKey(Combine)
                      .persistAs(Config.VertexVar,
                                 rdd::StorageLevel::MemoryOnly);
    // GraphX materializes each superstep (it needs the active-message
    // count to decide termination).
    Updated.count();

    OldGenerations.push_back(Vertices);
    Vertices = Updated;
    while (OldGenerations.size() > Config.UnpersistLag) {
      OldGenerations.front().unpersist();
      OldGenerations.pop_front();
    }
  }
  return Vertices;
}

Rdd panthera::graphx::connectedComponents(SparkContext &Ctx,
                                          const Rdd &Adjacency,
                                          const PregelConfig &Config) {
  // Labels start as the vertex id; min-label propagation converges to the
  // component's smallest vertex id.
  Rdd Initial =
      Adjacency
          .mapValuesWithKey([](int64_t K, double) {
            return static_cast<double>(K);
          })
          .persistAs(Config.VertexVar, rdd::StorageLevel::MemoryOnly);
  return pregel(
      Ctx, Adjacency, Initial, Config,
      /*ShouldSend=*/[](double) { return true; },
      /*MsgFn=*/[](double V) { return V; },
      /*Combine=*/[](double A, double B) { return A < B ? A : B; });
}

Rdd panthera::graphx::shortestPaths(SparkContext &Ctx, const Rdd &Adjacency,
                                    int64_t SourceVertex,
                                    const PregelConfig &Config) {
  Rdd Initial = Adjacency
                    .mapValuesWithKey([SourceVertex](int64_t K, double) {
                      return K == SourceVertex ? 0.0 : Unreachable;
                    })
                    .persistAs(Config.VertexVar,
                               rdd::StorageLevel::MemoryOnly);
  return pregel(
      Ctx, Adjacency, Initial, Config,
      /*ShouldSend=*/[](double D) { return D < Unreachable; },
      /*MsgFn=*/[](double D) { return D + 1.0; },
      /*Combine=*/[](double A, double B) { return A < B ? A : B; });
}
