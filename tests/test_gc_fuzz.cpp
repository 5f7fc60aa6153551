//===- tests/test_gc_fuzz.cpp - Differential fuzzer regression tests ------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Frozen-seed repros for the heap-integrity bugs the differential harness
// found, plus determinism and cross-config sweeps. Each regression test
// names the fault it pins: reintroduce that fault and the exact
// (seed, ops, config, threads) tuple diverges again.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialRunner.h"

#include <gtest/gtest.h>

using namespace panthera::fuzz;

namespace {

FuzzResult run(uint64_t Seed, size_t Ops, FuzzConfigKind K,
               unsigned Threads = 1, unsigned Executors = 1) {
  FuzzOptions O;
  O.Seed = Seed;
  O.NumOps = Ops;
  O.Config = K;
  O.Threads = Threads;
  O.Executors = Executors;
  return runDifferential(O);
}

// Frozen repro: with Heap::checkedObjectSize reduced to a raw uint32
// narrowing (the original bug: object sizes computed without a range
// check), this pair diverges at an alloc-huge action with "size ...
// overflows the uint32 header field but the allocation succeeded".
TEST(GcFuzzRegression, ObjectSizeOverflowIsRejected) {
  FuzzResult R = run(1, 27, FuzzConfigKind::Split);
  EXPECT_TRUE(R.Ok) << R.Problem;
}

// Frozen repro: with Space::allocate's bounds check phrased as
// `Top + Bytes > End` (which wraps for near-UINT64_MAX requests), this
// pair diverges at an alloc-native action that must fail but instead
// returns an address past the space.
TEST(GcFuzzRegression, BumpPointerWraparoundIsRejected) {
  FuzzResult R = run(1, 93, FuzzConfigKind::Dram);
  EXPECT_TRUE(R.Ok) << R.Problem;
}

// Frozen repros: with the survivor-age increment un-saturated (uint8
// wraps 255 -> 0 once the old generation is too full to promote), these
// pairs diverge inside a minor-gc-burst with "survivor age clock broken:
// age 0 after a minor gc, expected 255". The scavenge ages survivors in
// its copy phase; the second tuple replays at one worker and at eight,
// with bit-identical digests.
TEST(GcFuzzRegression, SurvivorAgeSaturatesParallelScavenge) {
  FuzzResult R = run(1, 397, FuzzConfigKind::Pressure, /*Threads=*/8);
  EXPECT_TRUE(R.Ok) << R.Problem;
}

TEST(GcFuzzRegression, SurvivorAgeSaturatesAtEveryWorkerCount) {
  FuzzResult One = run(3, 465, FuzzConfigKind::Pressure, /*Threads=*/1);
  FuzzResult Eight = run(3, 465, FuzzConfigKind::Pressure, /*Threads=*/8);
  ASSERT_TRUE(One.Ok) << One.Problem;
  ASSERT_TRUE(Eight.Ok) << Eight.Problem;
  EXPECT_EQ(One.Digest, Eight.Digest);
  EXPECT_GT(One.MinorGcs, 0u);
}

// The collector always runs on a pool; a zero worker count is a caller
// error reported as a failed result, never a silent fallback.
TEST(GcFuzz, ZeroWorkersIsRejected) {
  FuzzResult R = run(3, 465, FuzzConfigKind::Pressure, /*Threads=*/0);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ActionsRun, 0u);
  EXPECT_NE(R.Problem.find("Threads"), std::string::npos) << R.Problem;
}

// Frozen repro, executors mode with the degraded-cluster interleave: each
// action also draws the slow-executor site (fire = forced minor GC on the
// replica) and the transient-fetch site. Every replica must see the same
// fire schedule and converge to bit-identical digests; a draw made
// dependent on replica-local state (the bug class this pins) diverges
// here immediately.
TEST(GcFuzzRegression, DegradedInterleaveReplaysAcrossExecutors) {
  FuzzResult R = run(17, 300, FuzzConfigKind::Split, /*Threads=*/1,
                     /*Executors=*/3);
  EXPECT_TRUE(R.Ok) << R.Problem;
  // The interleave must actually exercise the new sites at this tuple --
  // a silent no-op interleave would pass vacuously.
  EXPECT_GT(R.MinorGcs, 0u);
}

// The degraded interleave composes with allocation-pressure injection:
// both fault streams stay per-site pure functions of the seed, so the
// pressure config's OOM schedule is unchanged by the new draws.
TEST(GcFuzz, DegradedInterleaveComposesWithPressure) {
  FuzzResult Solo = run(11, 256, FuzzConfigKind::Pressure);
  FuzzResult Clustered = run(11, 256, FuzzConfigKind::Pressure,
                             /*Threads=*/1, /*Executors=*/2);
  ASSERT_TRUE(Solo.Ok) << Solo.Problem;
  ASSERT_TRUE(Clustered.Ok) << Clustered.Problem;
  EXPECT_EQ(Solo.OomErrorsThrown, Clustered.OomErrorsThrown);
}

// The acceptance bar from docs/fuzzing.md: the same seed replays
// bit-identically at one worker and at eight (the parallel scavenge is
// deterministic at every worker count), down to the heap-image digest.
TEST(GcFuzz, DigestBitIdenticalAcrossWorkerCounts) {
  for (uint64_t Seed = 5; Seed != 8; ++Seed) {
    FuzzResult A = run(Seed, 256, FuzzConfigKind::Split, /*Threads=*/1);
    FuzzResult B = run(Seed, 256, FuzzConfigKind::Split, /*Threads=*/8);
    ASSERT_TRUE(A.Ok) << A.Problem;
    ASSERT_TRUE(B.Ok) << B.Problem;
    EXPECT_EQ(A.Digest, B.Digest) << "seed " << Seed;
    EXPECT_EQ(A.MinorGcs, B.MinorGcs);
    EXPECT_EQ(A.MajorGcs, B.MajorGcs);
    EXPECT_EQ(A.LiveObjectsAtEnd, B.LiveObjectsAtEnd);
  }
}

// Replaying a seed twice yields the identical digest (full determinism,
// including fault injection on the pressure config).
TEST(GcFuzz, ReplayIsDeterministic) {
  FuzzResult A = run(11, 256, FuzzConfigKind::Pressure);
  FuzzResult B = run(11, 256, FuzzConfigKind::Pressure);
  ASSERT_TRUE(A.Ok) << A.Problem;
  EXPECT_EQ(A.Digest, B.Digest);
  EXPECT_EQ(A.OomErrorsThrown, B.OomErrorsThrown);
}

// Frozen repro for the off-heap tier (docs/offheap.md): stub objects are
// GC leaves whose 16-byte payload (native address + region id) must ride
// every evacuation verbatim, and the region bytes they point at live
// outside the collector entirely. Make the collector treat OffHeapStub as
// a ref-holding kind (or drop its payload on copy) and this tuple
// diverges at the first sync after a stub survives a collection; the
// frozen digest additionally folds the region carve/recycle/release
// history, so a changed eviction or free-list order fails here too.
TEST(GcFuzzRegression, OffHeapStubPayloadSurvivesEvacuation) {
  FuzzResult R = run(1, 800, FuzzConfigKind::OffHeap);
  EXPECT_TRUE(R.Ok) << R.Problem;
  EXPECT_EQ(R.Digest, 0x4d9b907ad5c54de3ull);
  EXPECT_GT(R.MinorGcs, 0u); // stubs must actually survive collections
}

// The off-heap digest (heap image + region lifecycle counters) is
// bit-identical across GC worker counts and executor replicas, like every
// other config.
TEST(GcFuzz, OffHeapDigestBitIdenticalAcrossWorkersAndExecutors) {
  FuzzResult A = run(21, 400, FuzzConfigKind::OffHeap, /*Threads=*/1);
  FuzzResult B = run(21, 400, FuzzConfigKind::OffHeap, /*Threads=*/8);
  ASSERT_TRUE(A.Ok) << A.Problem;
  ASSERT_TRUE(B.Ok) << B.Problem;
  EXPECT_EQ(A.Digest, B.Digest);
  FuzzResult C = run(21, 400, FuzzConfigKind::OffHeap, /*Threads=*/1,
                     /*Executors=*/2);
  EXPECT_TRUE(C.Ok) << C.Problem;
}

// A small always-on sweep across every heap shape the harness tortures.
TEST(GcFuzz, SweepAllConfigsClean) {
  for (uint64_t Seed = 100; Seed != 105; ++Seed)
    for (FuzzConfigKind K : {FuzzConfigKind::Dram, FuzzConfigKind::Split,
                             FuzzConfigKind::Pressure,
                             FuzzConfigKind::OffHeap}) {
      FuzzResult R = run(Seed, 256, K);
      EXPECT_TRUE(R.Ok)
          << fuzzConfigName(K) << " seed " << Seed << ": " << R.Problem;
    }
}

// Schedules are pure functions of the seed, and a shorter schedule is an
// exact prefix of a longer one -- the property the shrinker relies on.
TEST(GcFuzz, ScheduleGenerationIsAPureFunctionOfSeed) {
  FuzzProfile P;
  std::vector<FuzzAction> A = generateSchedule(42, 100, P);
  std::vector<FuzzAction> B = generateSchedule(42, 200, P);
  ASSERT_EQ(A.size(), 100u);
  ASSERT_EQ(B.size(), 200u);
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(static_cast<int>(A[I].Op), static_cast<int>(B[I].Op));
    EXPECT_EQ(A[I].A, B[I].A);
    EXPECT_EQ(A[I].B, B[I].B);
    EXPECT_EQ(A[I].C, B[I].C);
  }
}

} // namespace
