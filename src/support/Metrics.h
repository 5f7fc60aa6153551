//===- support/Metrics.h - Process-wide metrics registry --------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A name-keyed metrics registry shared by every subsystem: monotonically
/// increasing counters, point-in-time gauges, Accumulator-backed histograms,
/// and epoch-bucketed time series (the Fig 8 bandwidth trace re-expressed
/// as a metric). The Runtime owns one registry; the GC, the RDD engine, the
/// heap, and the memory simulator all publish into it, and the flat-JSON
/// exporter replaces the per-bench hand-rolled plumbing.
///
/// Every exported number derives from the simulated clock and from counters
/// that PR 2's determinism contract already keeps thread-invariant, so the
/// serialized registry is byte-identical at every --threads value. To keep
/// it that way the exporter iterates std::map (sorted keys) and prints
/// doubles with %.17g (round-trip exact); non-finite values (the empty
/// histogram's NaN min/max) serialize as null.
///
/// Registration is idempotent: counter("gc.minor_gcs") returns the same
/// object on every call, so instrumentation sites need no setup phase.
/// References returned by the accessors stay valid for the registry's
/// lifetime (std::map nodes do not move).
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_SUPPORT_METRICS_H
#define PANTHERA_SUPPORT_METRICS_H

#include "support/Statistics.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace panthera {
namespace support {

/// Monotonically increasing event count. set() exists for the idempotent
/// publish path that syncs authoritative stats structs into the registry.
class Counter {
public:
  void add(uint64_t N = 1) { V += N; }
  void set(uint64_t N) { V = N; }
  uint64_t value() const { return V; }

private:
  uint64_t V = 0;
};

/// Point-in-time measurement (occupancy, simulated clocks, joules).
class Gauge {
public:
  void set(double X) { V = X; }
  double value() const { return V; }

private:
  double V = 0.0;
};

/// Distribution summary backed by the Accumulator: count/sum/mean/min/max.
/// An empty histogram reports NaN min/max, which the exporter turns into
/// JSON null instead of fabricating a zero.
class Histogram {
public:
  void observe(double V) { A.add(V); }
  uint64_t count() const { return A.count(); }
  double sum() const { return A.sum(); }
  double mean() const { return A.average(); }
  double min() const { return A.min(); }
  double max() const { return A.max(); }
  const Accumulator &accumulator() const { return A; }

private:
  Accumulator A;
};

/// Values accumulated into fixed-width buckets of the simulated clock
/// (bucket index = totalTimeNs / EpochNs, computed by the caller).
class TimeSeries {
public:
  /// Hard cap on the bucket index. The index is derived by dividing the
  /// simulated clock by the epoch length, so a tiny (but still positive)
  /// epoch can demand an absurd resize; 2^24 buckets (128 MB of doubles,
  /// ~28 simulated minutes at the default 100 us epoch) is far beyond any
  /// legitimate run and cheap enough to allocate when actually reached.
  static constexpr size_t MaxBuckets = size_t(1) << 24;

  /// Inline: size() never exceeds MaxBuckets, so only a bucket past the
  /// end needs the range check, which grow() makes.
  void addAt(size_t Bucket, double V) {
    if (Bucket >= Buckets.size())
      grow(Bucket);
    Buckets[Bucket] += V;
  }
  size_t size() const { return Buckets.size(); }
  double at(size_t I) const { return I < Buckets.size() ? Buckets[I] : 0.0; }
  const std::vector<double> &buckets() const { return Buckets; }

private:
  /// Extends the series through \p Bucket; throws past MaxBuckets.
  void grow(size_t Bucket);

  std::vector<double> Buckets;
};

/// The registry: four name-keyed families. Copyable (bench harnesses
/// snapshot one per experiment); not thread-safe -- every publishing site
/// runs on the serial driver path, same as the stats structs it mirrors.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name) { return Counters[Name]; }
  Gauge &gauge(const std::string &Name) { return Gauges[Name]; }
  Histogram &histogram(const std::string &Name) { return Histograms[Name]; }
  TimeSeries &series(const std::string &Name) { return Series[Name]; }

  const Counter *findCounter(const std::string &Name) const;
  const Gauge *findGauge(const std::string &Name) const;
  const Histogram *findHistogram(const std::string &Name) const;
  const TimeSeries *findSeries(const std::string &Name) const;

  /// Lookup helpers for harnesses: value or 0 when absent.
  uint64_t counterValue(const std::string &Name) const;
  double gaugeValue(const std::string &Name) const;

  const std::map<std::string, Counter> &counters() const { return Counters; }
  const std::map<std::string, Gauge> &gauges() const { return Gauges; }
  const std::map<std::string, Histogram> &histograms() const {
    return Histograms;
  }
  const std::map<std::string, TimeSeries> &allSeries() const {
    return Series;
  }

  /// Flat-JSON export: {"counters":{...},"gauges":{...},"histograms":{...},
  /// "series":{...}}. Deterministic: sorted keys, %.17g doubles, null for
  /// non-finite values.
  std::string toJson() const;
  void writeJson(std::FILE *F) const;

private:
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
  std::map<std::string, TimeSeries> Series;
};

/// Renders \p V the way the JSON exporters do: %.17g, or "null" when not
/// finite. Shared with TraceLog so args and metrics agree byte-for-byte.
std::string jsonDouble(double V);

/// JSON string escaping (quotes, backslash, control characters).
std::string jsonEscape(const std::string &S);

} // namespace support
} // namespace panthera

#endif // PANTHERA_SUPPORT_METRICS_H
