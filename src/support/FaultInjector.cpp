//===- support/FaultInjector.cpp - Deterministic fault injection ----------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/CliParse.h"

using namespace panthera;

const char *panthera::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::TaskExecution:
    return "task";
  case FaultSite::CacheRead:
    return "cache";
  case FaultSite::Allocation:
    return "alloc";
  case FaultSite::ShuffleFetch:
    return "shuffle";
  case FaultSite::ExecutorLoss:
    return "executor";
  case FaultSite::SlowExecutor:
    return "slow-executor";
  case FaultSite::FetchTransient:
    return "fetch";
  }
  return "?";
}

bool panthera::parseFaultSite(const std::string &Name, FaultSite &Out) {
  if (Name == "task") {
    Out = FaultSite::TaskExecution;
  } else if (Name == "cache") {
    Out = FaultSite::CacheRead;
  } else if (Name == "alloc" || Name == "allocation") {
    Out = FaultSite::Allocation;
  } else if (Name == "shuffle") {
    Out = FaultSite::ShuffleFetch;
  } else if (Name == "executor" || Name == "exec") {
    Out = FaultSite::ExecutorLoss;
  } else if (Name == "slow-executor" || Name == "slow") {
    Out = FaultSite::SlowExecutor;
  } else if (Name == "fetch") {
    Out = FaultSite::FetchTransient;
  } else {
    return false;
  }
  return true;
}

void FaultSiteConfig::validate(const char *SiteName) const {
  // NaN compares false against everything, so test for in-range rather
  // than out-of-range.
  if (!(Probability >= 0.0 && Probability <= 1.0))
    throw FaultConfigError("fault site '" + std::string(SiteName) +
                           "': probability " + std::to_string(Probability) +
                           " is outside [0, 1]");
}

void FaultPlan::validate() const {
  for (size_t I = 0; I != NumFaultSites; ++I)
    Sites[I].validate(faultSiteName(static_cast<FaultSite>(I)));
}

void panthera::parseFaultSpec(const std::string &Spec, FaultPlan &Plan) {
  size_t Colon = Spec.find(':');
  if (Colon == std::string::npos)
    throw FaultConfigError("fault spec '" + Spec +
                           "' is not SITE:p=X or SITE:nth=N");
  std::string SiteName = Spec.substr(0, Colon);
  std::string Trigger = Spec.substr(Colon + 1);
  FaultSite Site;
  if (!parseFaultSite(SiteName, Site))
    throw FaultConfigError(
        "unknown fault site '" + SiteName +
        "' (task|cache|alloc|shuffle|executor|slow-executor|fetch)");
  FaultSiteConfig &C = Plan.site(Site);
  if (Trigger.rfind("p=", 0) == 0) {
    double P = 0.0;
    // Parse over the whole double range first, then range-check through
    // validate() so "p=1.5" reports the typed out-of-[0,1] error rather
    // than a generic parse failure.
    if (!support::parseF64(Trigger.c_str() + 2, -1e308, 1e308, P))
      throw FaultConfigError("fault spec '" + Spec +
                             "': malformed probability '" +
                             Trigger.substr(2) + "'");
    FaultSiteConfig Candidate = C;
    Candidate.Probability = P;
    Candidate.validate(faultSiteName(Site));
    C = Candidate;
  } else if (Trigger.rfind("nth=", 0) == 0) {
    uint64_t N = 0;
    if (!support::parseUnsigned(Trigger.c_str() + 4, 1, UINT64_MAX, N))
      throw FaultConfigError("fault spec '" + Spec +
                             "': nth wants an integer >= 1, got '" +
                             Trigger.substr(4) + "'");
    C.FireOnNth = N;
  } else {
    throw FaultConfigError("fault spec '" + Spec +
                           "': trigger must be p=<prob> or nth=<N>");
  }
}

FaultInjector::FaultInjector(const FaultPlan &Plan) : Plan(Plan) {
  Plan.validate();
  // Decorrelate the per-site streams: run the plan seed through one
  // SplitMix64 step per site so adjacent sites never share a sequence.
  SplitMix64 Seeder(Plan.Seed);
  for (SiteState &S : Counters)
    S.BaseState = Seeder.next();
}

bool FaultInjector::shouldFail(FaultSite Site) {
  if (suppressed())
    return false;
  SiteState &S = Counters[static_cast<size_t>(Site)];
  const FaultSiteConfig &C = Plan.site(Site);
  if (!C.enabled())
    return false;
  uint64_t Occ = S.Occurrences.fetch_add(1, std::memory_order_relaxed) + 1;
  bool Fire = C.FireOnNth != 0 && Occ == C.FireOnNth;
  if (!Fire && C.Probability > 0.0) {
    // The draw is a pure function of the site's stream base and this
    // occurrence's index, so the schedule depends only on this site's
    // occurrence count -- never on thread interleaving or on what the
    // other sites observed.
    SplitMix64 Rng(S.BaseState + (Occ - 1) * 0x9e3779b97f4a7c15ull);
    Fire = Rng.nextDouble() < C.Probability;
  }
  if (!Fire)
    return false;
  // Enforce the fire cap with a CAS so concurrent hits never exceed it.
  uint64_t F = S.Fired.load(std::memory_order_relaxed);
  do {
    if (F >= C.MaxFires)
      return false;
  } while (!S.Fired.compare_exchange_weak(F, F + 1,
                                          std::memory_order_relaxed));
  return true;
}
