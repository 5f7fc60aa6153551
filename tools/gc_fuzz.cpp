//===- tools/gc_fuzz.cpp - Differential GC torture harness ----------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Seed-driven differential fuzzer for the generational hybrid collector
// (docs/fuzzing.md). Every iteration generates a deterministic schedule of
// heap actions from a SplitMix64 seed, replays it against the real heap and
// the shadow-graph oracle, and diffs the two after every collection. On
// divergence the harness binary-shrinks the schedule and prints a
// replayable --seed/--ops pair.
//
// Exit codes: 0 = all iterations clean, 1 = divergence, 2 = usage error.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialRunner.h"
#include "support/CliParse.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

using namespace panthera;
using namespace panthera::fuzz;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --seed=N         first schedule seed (default 1)\n"
      "  --ops=N          actions per schedule (default 512)\n"
      "  --iterations=N   schedules to run, seeds seed..seed+N-1 "
      "(default 1)\n"
      "  --config=NAME    dram | split | pressure | incremental | offheap "
      "(default split)\n"
      "  --threads=N      GC workers, 1..64 (default 1)\n"
      "  --executors=N    replay each schedule on N independent executor\n"
      "                   heaps and require bit-identical heap digests;\n"
      "                   also interleaves seeded slow-executor (forced\n"
      "                   minor GC) and transient-fetch draws per action\n"
      "                   (default 1; 1..4)\n"
      "  --print-schedule dump the generated actions before running\n"
      "  --print-digest   print the heap-image digest per iteration\n"
      "  --no-shrink      skip shrinking on divergence\n",
      Argv0);
}

struct CliOptions {
  FuzzOptions Fuzz;
  uint64_t Iterations = 1;
  bool PrintSchedule = false;
  bool PrintDigest = false;
  bool Shrink = true;
};

bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    uint64_t V = 0;
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(Arg, Prefix, N) == 0 ? Arg + N : nullptr;
    };
    if (const char *S = Val("--seed=")) {
      if (!support::parseUnsigned(S, 0, UINT64_MAX, O.Fuzz.Seed)) {
        std::fprintf(stderr, "gc_fuzz: bad --seed '%s'\n", S);
        return false;
      }
    } else if (const char *S = Val("--ops=")) {
      if (!support::parseUnsigned(S, 1, 1u << 24, V)) {
        std::fprintf(stderr, "gc_fuzz: bad --ops '%s' (1..16M)\n", S);
        return false;
      }
      O.Fuzz.NumOps = static_cast<size_t>(V);
    } else if (const char *S = Val("--iterations=")) {
      if (!support::parseUnsigned(S, 1, 1u << 24, O.Iterations)) {
        std::fprintf(stderr, "gc_fuzz: bad --iterations '%s'\n", S);
        return false;
      }
    } else if (const char *S = Val("--config=")) {
      if (!parseFuzzConfig(S, O.Fuzz.Config)) {
        std::fprintf(stderr,
                     "gc_fuzz: bad --config '%s' "
                     "(dram|split|pressure|incremental|offheap)\n",
                     S);
        return false;
      }
    } else if (const char *S = Val("--threads=")) {
      if (!support::parseUnsigned(S, 1, 64, V)) {
        std::fprintf(stderr, "gc_fuzz: bad --threads '%s' (1..64)\n", S);
        return false;
      }
      O.Fuzz.Threads = static_cast<unsigned>(V);
    } else if (const char *S = Val("--executors=")) {
      if (!support::parseUnsigned(S, 1, 4, V)) {
        std::fprintf(stderr, "gc_fuzz: bad --executors '%s' (1..4)\n", S);
        return false;
      }
      O.Fuzz.Executors = static_cast<unsigned>(V);
    } else if (std::strcmp(Arg, "--print-schedule") == 0) {
      O.PrintSchedule = true;
    } else if (std::strcmp(Arg, "--print-digest") == 0) {
      O.PrintDigest = true;
    } else if (std::strcmp(Arg, "--no-shrink") == 0) {
      O.Shrink = false;
    } else {
      std::fprintf(stderr, "gc_fuzz: unknown option '%s'\n", Arg);
      return false;
    }
  }
  return true;
}

void printSchedule(const std::vector<FuzzAction> &S) {
  for (size_t I = 0; I != S.size(); ++I)
    std::printf("  [%4zu] %-16s A=%" PRIu64 " B=%" PRIu64 " C=%" PRIu64
                "\n",
                I, fuzzOpName(S[I].Op), S[I].A, S[I].B, S[I].C);
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions O;
  if (!parseArgs(Argc, Argv, O)) {
    usage(Argv[0]);
    return 2;
  }

  uint64_t Failures = 0;
  for (uint64_t It = 0; It != O.Iterations; ++It) {
    FuzzOptions Opts = O.Fuzz;
    Opts.Seed = O.Fuzz.Seed + It;
    if (O.PrintSchedule) {
      std::printf("schedule seed=%" PRIu64 " ops=%zu config=%s:\n",
                  Opts.Seed, Opts.NumOps, fuzzConfigName(Opts.Config));
      printSchedule(generateSchedule(Opts.Seed, Opts.NumOps,
                                     makeFuzzSetup(Opts.Config).Profile));
    }
    FuzzResult R = runDifferential(Opts);
    if (R.Ok) {
      if (O.PrintDigest)
        std::printf("seed=%" PRIu64 " ok digest=%016" PRIx64
                    " minor=%" PRIu64 " major=%" PRIu64 " oom=%" PRIu64
                    " live=%" PRIu64 "\n",
                    Opts.Seed, R.Digest, R.MinorGcs, R.MajorGcs,
                    R.OomErrorsThrown, R.LiveObjectsAtEnd);
      continue;
    }

    ++Failures;
    std::printf("DIVERGENCE seed=%" PRIu64 " ops=%zu config=%s "
                "threads=%u\n  at %s\n",
                Opts.Seed, Opts.NumOps, fuzzConfigName(Opts.Config),
                Opts.Threads, R.Problem.c_str());
    if (O.Shrink) {
      size_t Minimal = shrinkToMinimalOps(Opts);
      std::printf("  shrunk to %zu actions\n", Minimal);
      Opts.NumOps = Minimal;
      FuzzResult Small = runSchedule(
          Opts, generateSchedule(Opts.Seed, Minimal,
                                 makeFuzzSetup(Opts.Config).Profile));
      std::printf("  minimal repro: %s\n",
                  Small.Ok ? "(did not refail -- flaky?)"
                           : Small.Problem.c_str());
    }
    std::printf("  replay: gc_fuzz --seed=%" PRIu64 " --ops=%zu "
                "--config=%s --threads=%u",
                Opts.Seed, Opts.NumOps, fuzzConfigName(Opts.Config),
                Opts.Threads);
    if (Opts.Executors > 1)
      std::printf(" --executors=%u", Opts.Executors);
    std::printf("\n");
  }

  if (O.Iterations > 1)
    std::printf("gc_fuzz: %" PRIu64 "/%" PRIu64 " iterations diverged\n",
                Failures, O.Iterations);
  return Failures ? 1 : 0;
}
