//===- bench/ledger/e2e_ledger.cpp - End-to-end ledger harness -----------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one ledger workload -- a fixed list of cells, each a (program,
/// policy, heap, scale) -- for repeated passes and streams one JSON object
/// per line to stdout:
///
///   {"type":"pass_start", ...}   the pass index, whether it is traced, and
///                                how many cells it will run;
///   {"type":"cell", ...}         one finished cell: host seconds spent in
///                                Runtime construction, WorkloadSpec::Run and
///                                the metrics/trace export, its checksum, a
///                                digest of both simulated exports, and the
///                                simulated registry flattened to numbers;
///   {"type":"pass_end", ...}     host wall and CPU seconds of the pass;
///   {"type":"end", ...}          peak RSS and build facts.
///
/// Every host number times a call into a public function from this file,
/// so src/ carries no instrumentation. bench/ledger/run.py turns the stream
/// into the ledger's metrics (README.md).
///
/// With --trace=1 every second pass is traced: a GcHost decorator installed
/// through Heap::setGcHost times each collection and counts allocation
/// safepoints, and host spans (pass > cell > core.setup, workload.run >
/// gc.collect, core.export) are kept in memory and written as chrome-trace
/// JSON at exit (--host-trace=FILE). The decorator only forwards, so a
/// traced cell's simulated exports must be bit-identical to the untraced
/// cell's; run.py checks the digests.
///
//===----------------------------------------------------------------------===//

#include "support/CliParse.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace panthera;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

//===----------------------------------------------------------------------===
// Workloads
//===----------------------------------------------------------------------===

struct Cell {
  const char *Program;
  gc::PolicyKind Policy;
  const char *PolicyName;
  unsigned HeapGB;   ///< Paper GB at the cell's own scale 1.
  double DramRatio;
  double Scale;      ///< Multiplies --scale.
  bool Subject;      ///< The modelled system, as opposed to a reference.
  bool Cluster;      ///< 4 executors on 2 hosts with slow-executor faults.
};

struct Workload {
  const char *Name;
  unsigned Threads;
  std::vector<Cell> Cells;
};

constexpr double Third = 1.0 / 3.0;

// Why each workload exists is recorded in README.md and BENCHMARK.json.
std::vector<Workload> workloadTable() {
  using gc::PolicyKind;
  std::vector<Workload> W;

  Workload Fig4{"fig4", 1, {}};
  for (const char *P : {"PR", "KM", "LR", "TC", "CC", "SSSP", "BC"}) {
    Fig4.Cells.push_back({P, PolicyKind::DramOnly, "dram", 64, 1.0, 1.0,
                          false, false});
    Fig4.Cells.push_back({P, PolicyKind::Unmanaged, "unmanaged", 64, Third,
                          1.0, false, false});
    Fig4.Cells.push_back({P, PolicyKind::Panthera, "panthera", 64, Third, 1.0,
                          true, false});
  }
  W.push_back(std::move(Fig4));

  Workload Tight{"gc-tight", 4, {}};
  for (const char *P : {"PR", "CC"}) {
    Tight.Cells.push_back({P, PolicyKind::Unmanaged, "unmanaged", 16, Third,
                           1.0, false, false});
    Tight.Cells.push_back({P, PolicyKind::Panthera, "panthera", 16, Third, 1.0,
                           true, false});
  }
  W.push_back(std::move(Tight));

  W.push_back({"cluster",
               4,
               {{"PR", PolicyKind::Panthera, "panthera", 64, Third, 3.0, true,
                 true},
                {"CC", PolicyKind::Panthera, "panthera", 64, Third, 2.0, true,
                 true}}});

  W.push_back({"dynamic",
               1,
               {{"SW", PolicyKind::Panthera, "panthera", 64, Third, 1.0, false,
                 false},
                {"SW", PolicyKind::PantheraDynamic, "dynamic", 64, Third, 1.0,
                 true, false}}});
  return W;
}

struct Options {
  std::string WorkloadName;
  double Seconds = 0.0;
  bool Trace = false;
  double Scale = 1.0;
  uint64_t FaultSeed = 7;
  uint64_t Seed = 1;
  std::string HostTracePath;
};

/// The cell's Runtime configuration at \p Scale (the cell's own scale times
/// --scale). The heap scales with the dataset exactly as in
/// bench/BenchCommon.h's runExperiment, so a scaled cell keeps its
/// dataset:heap ratio.
core::RuntimeConfig cellConfig(const Cell &C, double Scale, unsigned Threads,
                               uint64_t FaultSeed) {
  core::RuntimeConfig Config;
  Config.Policy = C.Policy;
  Config.HeapPaperGB = C.HeapGB;
  if (Scale != 1.0)
    Config.HeapPaperGB =
        std::max(1u, static_cast<unsigned>(static_cast<double>(C.HeapGB) *
                                               Scale +
                                           0.5));
  Config.DramRatio = C.DramRatio;
  Config.NumThreads = Threads;
  if (C.Cluster) {
    Config.Cluster.NumExecutors = 4;
    Config.Cluster.NumHosts = 2;
    parseFaultSpec("slow-executor:p=0.3", Config.Faults);
    Config.Faults.Seed = FaultSeed;
  }
  return Config;
}

//===----------------------------------------------------------------------===
// Host tracing
//===----------------------------------------------------------------------===

/// Host-clock spans, kept in memory and written as chrome-trace JSON once
/// the run ends. Nesting is by time on one thread, as chrome://tracing
/// renders it.
class HostTrace {
public:
  explicit HostTrace(Clock::time_point Origin) : Origin(Origin) {}

  void add(const char *Name, const std::string &CellId, Clock::time_point A,
           Clock::time_point B) {
    Spans.push_back({Name, CellId, secondsBetween(Origin, A) * 1e6,
                     secondsBetween(A, B) * 1e6});
  }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\":[\n");
    for (size_t I = 0; I != Spans.size(); ++I)
      std::fprintf(F,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cell\":\"%s\"}}%s\n",
                   Spans[I].Name, Spans[I].StartUs, Spans[I].DurUs,
                   Spans[I].CellId.c_str(),
                   I + 1 == Spans.size() ? "" : ",");
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    const char *Name;
    std::string CellId;
    double StartUs;
    double DurUs;
  };
  Clock::time_point Origin;
  std::vector<Span> Spans;
};

/// Times every collection the heap requests and counts allocation
/// safepoints, forwarding each call unchanged to the Runtime's collector.
/// Collections the collector starts itself (a major escalated from inside a
/// minor) run within the timed outer call.
class TimedGcHost final : public heap::GcHost {
public:
  TimedGcHost(gc::Collector &Inner, HostTrace &Trace, const std::string &Id)
      : Inner(Inner), Trace(Trace), CellId(Id) {}

  void collectMinor(const char *Reason) override {
    timed([&] { Inner.collectMinor(Reason); });
  }
  void collectMajor(const char *Reason) override {
    timed([&] { Inner.collectMajor(Reason); });
  }
  void allocationSafepoint() override {
    ++Safepoints;
    Inner.allocationSafepoint();
  }

  double Seconds = 0.0;
  uint64_t Calls = 0;
  uint64_t Safepoints = 0;

private:
  template <typename Fn> void timed(Fn &&Collect) {
    Clock::time_point A = Clock::now();
    Collect();
    Clock::time_point B = Clock::now();
    Seconds += secondsBetween(A, B);
    ++Calls;
    Trace.add("gc.collect", CellId, A, B);
  }

  gc::Collector &Inner;
  HostTrace &Trace;
  const std::string &CellId;
};

//===----------------------------------------------------------------------===
// Simulated-side extraction
//===----------------------------------------------------------------------===

/// FNV-1a over the simulated exports; a changed digest means the metrics
/// or trace JSON changed.
uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Simulated self time per stage kind (the first word of the stage name:
/// materialize / shuffle / reduce / action): a stage span minus the stage
/// and GC spans directly nested in it. Stage spans are recorded when they
/// close, so nesting is rebuilt from the intervals.
std::vector<std::pair<std::string, double>>
stageSelfNs(const support::TraceLog &Trace) {
  struct Interval {
    double Start, End;
    std::string Kind; ///< Empty for GC spans.
    double ChildNs = 0.0;
  };
  std::vector<Interval> Iv;
  for (const support::TraceEvent &E : Trace.events()) {
    if (E.DurationNs < 0.0)
      continue;
    if (E.Track == support::TraceTrack::Engine && E.Cat == "stage") {
      std::string Kind = E.Name.substr(0, E.Name.find(' '));
      if (E.Name.size() > 7 &&
          E.Name.compare(E.Name.size() - 7, 7, " action") == 0)
        Kind = "action";
      Iv.push_back({E.StartNs, E.StartNs + E.DurationNs, Kind});
    } else if (E.Track == support::TraceTrack::Gc &&
               (E.Cat == "gc" || E.Cat == "gc.migration")) {
      Iv.push_back({E.StartNs, E.StartNs + E.DurationNs, ""});
    }
  }
  std::stable_sort(Iv.begin(), Iv.end(),
                   [](const Interval &A, const Interval &B) {
                     if (A.Start != B.Start)
                       return A.Start < B.Start;
                     return A.End > B.End;
                   });
  constexpr double EpsNs = 1e-3;
  std::vector<size_t> Open;
  for (size_t I = 0; I != Iv.size(); ++I) {
    while (!Open.empty() && Iv[I].End > Iv[Open.back()].End + EpsNs)
      Open.pop_back();
    if (!Open.empty())
      Iv[Open.back()].ChildNs += Iv[I].End - Iv[I].Start;
    Open.push_back(I);
  }
  std::vector<std::pair<std::string, double>> Self;
  for (const char *K : {"materialize", "shuffle", "reduce", "action"})
    Self.push_back({K, 0.0});
  for (const Interval &I : Iv)
    for (auto &[K, Ns] : Self)
      if (I.Kind == K)
        Ns += I.End - I.Start - I.ChildNs;
  return Self;
}

/// Appends `"key":value` to \p Out with every digit of \p V.
void jsonNum(std::string &Out, const std::string &Key, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += std::isfinite(V) ? Buf : "null";
  Out += ',';
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out + '"';
}

/// Flattens the registry (counters, gauges, histogram count/sum/max) plus
/// the derived stage self times and §3 tag counts into one JSON object.
std::string simulatedJson(core::Runtime &RT) {
  const support::MetricsRegistry &M = RT.metrics();
  std::string Out = "{";
  for (const auto &[Name, C] : M.counters())
    jsonNum(Out, Name, static_cast<double>(C.value()));
  for (const auto &[Name, G] : M.gauges())
    jsonNum(Out, Name, G.value());
  for (const auto &[Name, H] : M.histograms()) {
    jsonNum(Out, Name + ".count", static_cast<double>(H.count()));
    jsonNum(Out, Name + ".sum", H.sum());
    jsonNum(Out, Name + ".max", H.count() ? H.max() : 0.0);
  }
  for (const auto &[Kind, Ns] : stageSelfNs(RT.trace()))
    jsonNum(Out, "rdd.self_ns." + Kind, Ns);
  uint64_t Dram = 0, Nvm = 0;
  for (const auto &[Var, Info] : RT.analysis().Vars) {
    Dram += Info.Tag == MemTag::Dram;
    Nvm += Info.Tag == MemTag::Nvm;
  }
  jsonNum(Out, "analysis.dram_tagged", static_cast<double>(Dram));
  jsonNum(Out, "analysis.nvm_tagged", static_cast<double>(Nvm));
  Out.back() = '}';
  return Out;
}

//===----------------------------------------------------------------------===
// Passes
//===----------------------------------------------------------------------===

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto S = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return S(U.ru_utime) + S(U.ru_stime);
}

/// Runs one cell and prints its line. Construction, the run (with the
/// decorator's collections inside it) and the export are the layers run.py
/// attributes host time to; the rest of the cell span (the harness's own
/// extraction, Runtime teardown) is what its coverage check bounds.
void runCell(const Workload &W, const Cell &C, const Options &O, unsigned Pass,
             bool Traced, HostTrace &Trace) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload(C.Program);
  double Scale = C.Scale * O.Scale;
  std::string Id = std::string(C.Program) + "/" + C.PolicyName;
  core::RuntimeConfig Config = cellConfig(C, Scale, W.Threads, O.FaultSeed);

  Clock::time_point T0 = Clock::now();
  auto RT = std::make_unique<core::Runtime>(Config);
  Clock::time_point T1 = Clock::now();
  TimedGcHost Host(RT->collector(), Trace, Id);
  if (Traced)
    RT->heap().setGcHost(&Host);
  double Checksum = 0.0;
  std::string Error;
  try {
    Checksum = Spec->Run(*RT, Scale);
  } catch (const std::exception &E) {
    Error = E.what();
  }
  RT->heap().setGcHost(&RT->collector());
  Clock::time_point T2 = Clock::now();
  std::string Metrics = RT->metricsJson();
  std::string TraceJson = RT->traceJson();
  Clock::time_point T3 = Clock::now();
  uint64_t Digest = fnv1a(TraceJson, fnv1a(Metrics));
  std::string Sim = simulatedJson(*RT);
  RT.reset();
  Clock::time_point T4 = Clock::now();

  if (Traced) {
    Trace.add("core.setup", Id, T0, T1);
    Trace.add("workload.run", Id, T1, T2);
    Trace.add("core.export", Id, T2, T3);
    Trace.add("cell", Id, T0, T4);
  }

  char Sum[64], Dig[32];
  std::snprintf(Sum, sizeof(Sum), "%.17g", Checksum);
  std::snprintf(Dig, sizeof(Dig), "%016llx",
                static_cast<unsigned long long>(Digest));
  std::string Line = "{\"type\":\"cell\",\"pass\":" + std::to_string(Pass) +
                     ",\"traced\":" + (Traced ? "true" : "false") +
                     ",\"program\":\"" + C.Program + "\",\"policy\":\"" +
                     C.PolicyName + "\",\"subject\":" +
                     (C.Subject ? "true" : "false") + ",";
  jsonNum(Line, "scale", Scale);
  jsonNum(Line, "heap_gb", Config.HeapPaperGB);
  Line += "\"ok\":" + std::string(Error.empty() ? "true" : "false") +
          ",\"error\":" + jsonString(Error) + ",\"checksum\":\"" + Sum +
          "\",\"digest\":\"" + Dig + "\",\"host\":{";
  jsonNum(Line, "cell_s", secondsBetween(T0, T4));
  jsonNum(Line, "setup_s", secondsBetween(T0, T1));
  jsonNum(Line, "run_s", secondsBetween(T1, T2));
  jsonNum(Line, "export_s", secondsBetween(T2, T3));
  jsonNum(Line, "gc_s", Host.Seconds);
  jsonNum(Line, "gc_calls", static_cast<double>(Host.Calls));
  jsonNum(Line, "safepoints", static_cast<double>(Host.Safepoints));
  Line.back() = '}';
  Line += ",\"sim\":" + Sim + "}\n";
  std::fputs(Line.c_str(), stdout);
  std::fflush(stdout);
}

/// Constructs and destroys every cell's Runtime once; returns the summed
/// construction seconds.
double setupRound(const Workload &W, const Options &O) {
  double Sum = 0.0;
  for (const Cell &C : W.Cells) {
    core::RuntimeConfig Config =
        cellConfig(C, C.Scale * O.Scale, W.Threads, O.FaultSeed);
    Clock::time_point A = Clock::now();
    auto RT = std::make_unique<core::Runtime>(Config);
    Sum += secondsBetween(A, Clock::now());
  }
  return Sum;
}

void runPass(const Workload &W, const std::vector<size_t> &Order,
             const Options &O, unsigned Pass, bool Traced, HostTrace &Trace,
             double &WallOut) {
  std::printf("{\"type\":\"pass_start\",\"pass\":%u,\"traced\":%s,"
              "\"cells\":%zu}\n",
              Pass, Traced ? "true" : "false", Order.size());
  std::fflush(stdout);
  double Cpu0 = cpuSeconds();
  Clock::time_point A = Clock::now();
  for (size_t I : Order)
    runCell(W, W.Cells[I], O, Pass, Traced, Trace);
  Clock::time_point B = Clock::now();
  if (Traced)
    Trace.add("pass", "", A, B);
  WallOut = secondsBetween(A, B);
  std::printf("{\"type\":\"pass_end\",\"pass\":%u,\"traced\":%s,"
              "\"wall_s\":%.17g,\"cpu_s\":%.17g}\n",
              Pass, Traced ? "true" : "false", WallOut, cpuSeconds() - Cpu0);
  std::fflush(stdout);
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(A, Prefix, N) == 0 ? A + N : nullptr;
    };
    uint64_t U = 0;
    bool Ok = true;
    if (const char *V = Val("--workload="))
      O.WorkloadName = V;
    else if (const char *V = Val("--seconds="))
      Ok = support::parseF64(V, 0.0, 1e6, O.Seconds);
    else if (const char *V = Val("--trace=")) {
      Ok = support::parseUnsigned(V, 0, 1, U);
      O.Trace = U == 1;
    } else if (const char *V = Val("--scale="))
      Ok = support::parseF64(V, 1e-3, 1e3, O.Scale);
    else if (const char *V = Val("--fault-seed="))
      Ok = support::parseUnsigned(V, 0, ~0ull, O.FaultSeed);
    else if (const char *V = Val("--seed="))
      Ok = support::parseUnsigned(V, 0, ~0ull, O.Seed);
    else if (const char *V = Val("--host-trace="))
      O.HostTracePath = V;
    else
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "e2e_ledger: bad argument '%s'\n", A);
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return 1;
  std::vector<Workload> Table = workloadTable();
  auto It = std::find_if(Table.begin(), Table.end(), [&](const Workload &W) {
    return O.WorkloadName == W.Name;
  });
  if (It == Table.end()) {
    std::fprintf(stderr, "e2e_ledger: unknown --workload='%s'\n",
                 O.WorkloadName.c_str());
    return 1;
  }
  const Workload &W = *It;

  // Set-up time is measured apart from the passes, in rounds that only
  // construct each cell's Runtime: at least 3, and up to 20 while they take
  // under a seventh of --seconds (at most 2 s), so workloads with few cells
  // still get a steady median.
  Clock::time_point Start = Clock::now();
  const double SetupBudget = std::min(2.0, O.Seconds / 7.0);
  for (unsigned Round = 0;
       Round < 20 &&
       (Round < 3 || secondsBetween(Start, Clock::now()) < SetupBudget);
       ++Round)
    std::printf("{\"type\":\"setup\",\"round\":%u,\"setup_s\":%.17g}\n",
                Round, setupRound(W, O));
  std::fflush(stdout);

  // Passes run until the next one would overrun --seconds; at least one,
  // and with --trace=1 whole (untraced, traced) pairs sharing one cell
  // order. The order is the only input --seed changes: datasets are
  // generated from seeds fixed inside src/workloads.
  HostTrace Trace(Start);
  SplitMix64 Rng(O.Seed);
  const unsigned Group = O.Trace ? 2 : 1;
  std::vector<size_t> Order(W.Cells.size());
  double LastGroupWall = 0.0;
  for (unsigned Pass = 0;; Pass += Group) {
    if (Pass > 0 &&
        secondsBetween(Start, Clock::now()) + LastGroupWall > O.Seconds)
      break;
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    LastGroupWall = 0.0;
    for (unsigned G = 0; G != Group; ++G) {
      double Wall = 0.0;
      runPass(W, Order, O, Pass + G, /*Traced=*/G == 1, Trace, Wall);
      LastGroupWall += Wall;
    }
  }

  if (!O.HostTracePath.empty() && !Trace.write(O.HostTracePath)) {
    std::fprintf(stderr, "e2e_ledger: cannot write %s\n",
                 O.HostTracePath.c_str());
    return 1;
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  std::printf("{\"type\":\"end\",\"threads\":%u,\"peak_rss_mb\":%.17g,"
              "\"hardware_threads\":%u,\"compiler\":%s,\"build_type\":%s}\n",
              W.Threads, static_cast<double>(U.ru_maxrss) / 1024.0,
              std::thread::hardware_concurrency(),
              jsonString(__VERSION__).c_str(),
              jsonString(LEDGER_BUILD_TYPE).c_str());
  return 0;
}
