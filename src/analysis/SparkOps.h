//===- analysis/SparkOps.h - Spark API classification -----------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies the method names appearing in driver-DSL chains into
/// transformations, actions, and storage-management calls, mirroring the
/// Spark API surface the paper's analysis understands.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_ANALYSIS_SPARKOPS_H
#define PANTHERA_ANALYSIS_SPARKOPS_H

#include <string_view>

namespace panthera {
namespace analysis {

/// True for actions (force evaluation).
inline bool isAction(std::string_view Name) {
  return Name == "count" || Name == "collect" || Name == "reduce" ||
         Name == "first" || Name == "take" || Name == "takeSample" ||
         Name == "collectAsMap" || Name == "saveAsTextFile" ||
         Name == "foreach" || Name == "aggregate";
}

inline bool isPersist(std::string_view Name) { return Name == "persist"; }
inline bool isUnpersist(std::string_view Name) {
  return Name == "unpersist";
}

} // namespace analysis
} // namespace panthera

#endif // PANTHERA_ANALYSIS_SPARKOPS_H
