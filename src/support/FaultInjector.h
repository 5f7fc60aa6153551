//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, site-addressable fault injector. Each injection site (task
/// execution, cache read, allocation, shuffle fetch) draws from its own
/// SplitMix64 stream derived from the plan seed, so a given (seed, plan)
/// reproduces the exact same failure schedule regardless of what the other
/// sites observe. Sites fire either probabilistically (Bernoulli per
/// occurrence) or deterministically on the Nth occurrence.
///
/// Recovery code wraps itself in a FaultSuppressionScope so that the
/// machinery that repairs an injected failure is never itself injected
/// (which would make recovery tests nonterminating).
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_SUPPORT_FAULTINJECTOR_H
#define PANTHERA_SUPPORT_FAULTINJECTOR_H

#include "support/Errors.h"
#include "support/Random.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace panthera {

/// Where a fault can be injected.
enum class FaultSite : uint8_t {
  TaskExecution, ///< At the start of a per-partition task body.
  CacheRead,     ///< Reading a materialized (persisted) partition: the
                 ///< cache is dropped and must be recomputed from lineage.
  Allocation,    ///< In the heap's mutator allocation path (simulated
                 ///< memory exhaustion -> OutOfMemoryError).
  ShuffleFetch,  ///< Reduce side fetching its shuffle bucket.
  ExecutorLoss,  ///< Cluster mode: a reduce-side block fetch kills the
                 ///< owning executor; its map outputs are recomputed from
                 ///< lineage (no-op without a cluster).
  // New sites append at the end: the constructor derives one stream per
  // site in enum order, so inserting in the middle would silently reseed
  // every later site and invalidate frozen fault schedules.
  SlowExecutor,  ///< Cluster mode: a stage-start draw per live executor;
                 ///< a fire degrades that executor, multiplying its
                 ///< simulated task/fetch costs by the configured factor
                 ///< (no-op without a cluster).
  FetchTransient,///< Cluster mode: one remote shuffle-block fetch is
                 ///< dropped in flight or delivers bytes that fail the
                 ///< replica byte-verification; retried with backoff
                 ///< (no-op without a cluster).
};

constexpr size_t NumFaultSites = 7;

const char *faultSiteName(FaultSite S);

/// Parses a CLI site spelling ("task", "cache", "alloc", "shuffle",
/// "executor", "slow-executor", "fetch").
/// Returns false for unknown names.
bool parseFaultSite(const std::string &Name, FaultSite &Out);

/// Malformed fault-plan input (unknown site, trigger outside its domain, a
/// probability outside [0, 1]). Typed so CLI front-ends and tests can
/// distinguish configuration mistakes from engine faults.
class FaultConfigError : public EngineError {
public:
  explicit FaultConfigError(const std::string &What) : EngineError(What) {}
};

/// Per-site trigger configuration. Probability and FireOnNth compose: the
/// site fires on its FireOnNth-th occurrence and on every Bernoulli hit,
/// up to MaxFires total.
struct FaultSiteConfig {
  double Probability = 0.0; ///< Bernoulli chance per occurrence.
  uint64_t FireOnNth = 0;   ///< 1-based occurrence index; 0 disables.
  uint64_t MaxFires = UINT64_MAX; ///< Cap on total fires at this site.

  bool enabled() const { return Probability > 0.0 || FireOnNth != 0; }

  /// Throws FaultConfigError when Probability falls outside [0, 1] (or is
  /// not a number). A probability above 1 silently behaves like 1.0 and
  /// a negative one like 0.0, so unvalidated plans would "work" while
  /// running a different schedule than the user asked for.
  void validate(const char *SiteName) const;
};

/// A full injection plan: one seed, one config per site.
struct FaultPlan {
  uint64_t Seed = 0x70616e7468657261ull; // "panthera"
  std::array<FaultSiteConfig, NumFaultSites> Sites;

  FaultSiteConfig &site(FaultSite S) {
    return Sites[static_cast<size_t>(S)];
  }
  const FaultSiteConfig &site(FaultSite S) const {
    return Sites[static_cast<size_t>(S)];
  }
  bool enabled() const {
    for (const FaultSiteConfig &C : Sites)
      if (C.enabled())
        return true;
    return false;
  }
  /// Validates every site (see FaultSiteConfig::validate). The injector
  /// constructor calls this, so a plan with an out-of-range probability
  /// fails loudly no matter which front-end built it.
  void validate() const;
};

/// Parses one CLI fault spec "SITE:p=X" / "SITE:nth=N" (panthera_sim's
/// --fault flag) into \p Plan, accumulating over earlier specs. Throws
/// FaultConfigError on an unknown site, a malformed trigger, a probability
/// outside [0, 1], or nth == 0.
void parseFaultSpec(const std::string &Spec, FaultPlan &Plan);

/// Draws deterministic fire/no-fire decisions per site. Safe to call from
/// multiple worker threads: the occurrence counters are atomic, and each
/// draw is a pure function of (site stream, occurrence index), so the set
/// of firing occurrence indices is identical at every thread count.
class FaultInjector {
public:
  explicit FaultInjector(const FaultPlan &Plan);

  /// Counts one occurrence of \p S and returns true when the site fires.
  /// Returns false (and does not count) while suppressed.
  bool shouldFail(FaultSite S);

  uint64_t occurrences(FaultSite S) const {
    return Counters[static_cast<size_t>(S)].Occurrences.load(
        std::memory_order_relaxed);
  }
  uint64_t fired(FaultSite S) const {
    return Counters[static_cast<size_t>(S)].Fired.load(
        std::memory_order_relaxed);
  }

  bool suppressed() const {
    return SuppressDepth.load(std::memory_order_relaxed) > 0;
  }
  void pushSuppression() {
    SuppressDepth.fetch_add(1, std::memory_order_relaxed);
  }
  void popSuppression() {
    SuppressDepth.fetch_sub(1, std::memory_order_relaxed);
  }

  const FaultPlan &plan() const { return Plan; }

private:
  struct SiteState {
    uint64_t BaseState = 0; ///< Per-site stream base (fixed after init).
    std::atomic<uint64_t> Occurrences{0};
    std::atomic<uint64_t> Fired{0};
  };

  FaultPlan Plan;
  std::array<SiteState, NumFaultSites> Counters;
  std::atomic<int> SuppressDepth{0};
};

/// RAII suppression for recovery paths. Null injector is a no-op.
class FaultSuppressionScope {
public:
  explicit FaultSuppressionScope(FaultInjector *I) : I(I) {
    if (I)
      I->pushSuppression();
  }
  ~FaultSuppressionScope() {
    if (I)
      I->popSuppression();
  }
  FaultSuppressionScope(const FaultSuppressionScope &) = delete;
  FaultSuppressionScope &operator=(const FaultSuppressionScope &) = delete;

private:
  FaultInjector *I;
};

} // namespace panthera

#endif // PANTHERA_SUPPORT_FAULTINJECTOR_H
