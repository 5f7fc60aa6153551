//===- graphx/Pregel.h - GraphX-like Pregel layer ---------------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A GraphX-like graph layer over the RDD engine: adjacency construction
/// (vertex -> CompactBuffer of neighbor ids, the Fig 1 heap shape) and a
/// Pregel-style iteration in which each superstep joins the adjacency with
/// the vertex RDD, fans messages out along edges, and combines incoming
/// messages per vertex.
///
/// Mirroring GraphX's behavior the paper discusses in §5.5: each iteration
/// persists a *new* vertex RDD under the same driver variable and
/// unpersists the RDDs of older iterations after a lag -- so stale-but-
/// still-persisted vertex RDDs with zero recent calls accumulate in DRAM
/// until a major GC demotes them (the Table 5 migrations for CC/SSSP).
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_GRAPHX_PREGEL_H
#define PANTHERA_GRAPHX_PREGEL_H

#include "rdd/Rdd.h"

#include <functional>
#include <string>

namespace panthera {
namespace graphx {

/// Pregel superstep parameters.
struct PregelConfig {
  uint32_t MaxIterations = 10;
  /// Iterations an old vertex RDD stays persisted before unpersist.
  /// GraphX unpersists lazily; a stale-but-persisted generation that
  /// crosses a whole major-GC window untouched is what dynamic migration
  /// demotes to NVM (§5.5).
  uint32_t UnpersistLag = 3;
  /// Driver variable name for the per-iteration vertex RDDs.
  std::string VertexVar = "vertices";
};

/// Builds the adjacency RDD (vertex -> neighbor buffer) from an edge list
/// of (src, dst) records, symmetrizing so components are undirected, and
/// persists it under \p EdgesVar.
rdd::Rdd buildAdjacency(rdd::SparkContext &Ctx, const rdd::Rdd &EdgeList,
                        const std::string &EdgesVar, bool Symmetrize);

/// Runs \p Config.MaxIterations supersteps. Per superstep, a vertex with
/// value v for which \p ShouldSend(v) holds sends \p MsgFn(v) to every
/// neighbor; incoming messages and the old value combine via \p Combine.
/// Returns the final vertex RDD (still persisted).
rdd::Rdd pregel(rdd::SparkContext &Ctx, const rdd::Rdd &Adjacency,
                const rdd::Rdd &InitialVertices, const PregelConfig &Config,
                const std::function<bool(double)> &ShouldSend,
                const std::function<double(double)> &MsgFn,
                const rdd::CombineFn &Combine);

/// Connected components by min-label propagation: returns (v, label).
rdd::Rdd connectedComponents(rdd::SparkContext &Ctx,
                             const rdd::Rdd &Adjacency,
                             const PregelConfig &Config);

/// Unit-weight single-source shortest paths (BFS distance). Unreachable
/// vertices keep the Infinity sentinel.
rdd::Rdd shortestPaths(rdd::SparkContext &Ctx, const rdd::Rdd &Adjacency,
                       int64_t SourceVertex, const PregelConfig &Config);

/// Distance sentinel for unreachable vertices.
constexpr double Unreachable = 1.0e18;

} // namespace graphx
} // namespace panthera

#endif // PANTHERA_GRAPHX_PREGEL_H
