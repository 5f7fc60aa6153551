//===- fuzz/DifferentialRunner.h - Replay + oracle diff ---------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a fuzz schedule against the real generational hybrid collector
/// and the ShadowHeap oracle in lockstep, diffing the two after every
/// collection (docs/fuzzing.md lists the invariants). On divergence the
/// result pins the failing action index so the shrinker can binary-search
/// the shortest failing schedule prefix.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_FUZZ_DIFFERENTIALRUNNER_H
#define PANTHERA_FUZZ_DIFFERENTIALRUNNER_H

#include "fuzz/FuzzSchedule.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace panthera {
namespace fuzz {

struct FuzzOptions {
  uint64_t Seed = 1;
  size_t NumOps = 512;
  FuzzConfigKind Config = FuzzConfigKind::Split;
  /// GC worker count of the collector's work-stealing pool, >= 1 (the
  /// scavenge and mark are bit-identical at every count). 0 is rejected:
  /// runDifferential and runSchedule return a failed result unrun.
  unsigned Threads = 1;
  /// Executor heaps driven from the one schedule (docs/cluster.md). With
  /// N > 1 the schedule replays against N independent heap + oracle
  /// instances -- the cluster's per-executor heaps -- and the run also
  /// fails if any replica's synced-heap digest diverges from the first's
  /// (identical schedules must produce bit-identical heaps).
  unsigned Executors = 1;
};

struct FuzzResult {
  bool Ok = true;
  std::string Problem;          ///< First divergence, human-readable.
  size_t FailingAction = SIZE_MAX; ///< Schedule index of the divergence.
  uint64_t Digest = 0;   ///< FNV-1a over every synced heap image; equal
                         ///< digests mean bit-identical runs.
  uint64_t MinorGcs = 0;
  uint64_t MajorGcs = 0;
  uint64_t OomErrorsThrown = 0;
  uint64_t LiveObjectsAtEnd = 0;
  uint64_t ActionsRun = 0;
};

/// Generates seed/ops' schedule and replays it differentially.
FuzzResult runDifferential(const FuzzOptions &Opts);

/// Replays an explicit schedule (the shrinker and hand-written regression
/// repros use this).
FuzzResult runSchedule(const FuzzOptions &Opts,
                       const std::vector<FuzzAction> &Schedule);

/// Binary-shrinks a failing (seed, ops) pair to the shortest failing
/// prefix length. Requires that runDifferential(Opts) already failed;
/// returns Opts.NumOps unchanged if it does not fail.
size_t shrinkToMinimalOps(const FuzzOptions &Opts);

} // namespace fuzz
} // namespace panthera

#endif // PANTHERA_FUZZ_DIFFERENTIALRUNNER_H
