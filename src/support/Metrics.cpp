//===- support/Metrics.cpp - Process-wide metrics registry ---------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Errors.h"

#include <cinttypes>
#include <cmath>
#include <cstring>

using namespace panthera::support;

void TimeSeries::grow(size_t Bucket) {
  PANTHERA_CHECK(Bucket < MaxBuckets,
                 "time-series bucket index out of range (epoch length too "
                 "small for the simulated duration?)");
  Buckets.resize(Bucket + 1, 0.0);
}

std::string panthera::support::jsonDouble(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string panthera::support::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

const Counter *MetricsRegistry::findCounter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? nullptr : &It->second;
}

const Gauge *MetricsRegistry::findGauge(const std::string &Name) const {
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? nullptr : &It->second;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &Name) const {
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? nullptr : &It->second;
}

const TimeSeries *MetricsRegistry::findSeries(const std::string &Name) const {
  auto It = Series.find(Name);
  return It == Series.end() ? nullptr : &It->second;
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  const Counter *C = findCounter(Name);
  return C ? C->value() : 0;
}

double MetricsRegistry::gaugeValue(const std::string &Name) const {
  const Gauge *G = findGauge(Name);
  return G ? G->value() : 0.0;
}

std::string MetricsRegistry::toJson() const {
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &KV : Counters) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64, KV.second.value());
    Out += First ? "\n" : ",\n";
    Out += "    \"" + jsonEscape(KV.first) + "\": " + Buf;
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &KV : Gauges) {
    Out += First ? "\n" : ",\n";
    Out += "    \"" + jsonEscape(KV.first) +
           "\": " + jsonDouble(KV.second.value());
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &KV : Histograms) {
    const Histogram &H = KV.second;
    char Count[32];
    std::snprintf(Count, sizeof(Count), "%" PRIu64, H.count());
    Out += First ? "\n" : ",\n";
    Out += "    \"" + jsonEscape(KV.first) + "\": {\"count\": " + Count +
           ", \"sum\": " + jsonDouble(H.sum()) +
           ", \"mean\": " + jsonDouble(H.mean()) +
           ", \"min\": " + jsonDouble(H.min()) +
           ", \"max\": " + jsonDouble(H.max()) + "}";
    First = false;
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"series\": {";
  First = true;
  for (const auto &KV : Series) {
    Out += First ? "\n" : ",\n";
    Out += "    \"" + jsonEscape(KV.first) + "\": [";
    const std::vector<double> &B = KV.second.buckets();
    for (size_t I = 0; I != B.size(); ++I) {
      if (I)
        Out += ", ";
      Out += jsonDouble(B[I]);
    }
    Out += "]";
    First = false;
  }
  Out += First ? "}\n" : "\n  }\n";
  Out += "}\n";
  return Out;
}

void MetricsRegistry::writeJson(std::FILE *F) const {
  std::string S = toJson();
  std::fwrite(S.data(), 1, S.size(), F);
}
