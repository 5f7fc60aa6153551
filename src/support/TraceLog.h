//===- support/TraceLog.h - Simulated-clock span/event trace ----*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An append-only trace of spans (GC pauses with per-phase sub-spans,
/// stages, per-partition tasks) and instant events (OOM-degradation
/// steps), all stamped with the *simulated* clock from HybridMemory --
/// never the wall clock, so the export is byte-identical from run to run.
///
/// The exporter emits the chrome://tracing JSON object format
/// ({"traceEvents":[...]}): complete events (ph "X") for spans, instant
/// events (ph "i") for point occurrences, and metadata events naming the
/// three fixed tracks (engine / gc / heap). Timestamps are simulated
/// microseconds (chrome's native unit), fractional where the clock
/// demands it. Load the file at chrome://tracing or https://ui.perfetto.dev.
///
/// Emission runs only on the serial driver path (task scheduling, the GC
/// entry points, the heap's OOM fallback) -- the log is not thread-safe,
/// and does not need to be: the runtime starts no threads.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_SUPPORT_TRACELOG_H
#define PANTHERA_SUPPORT_TRACELOG_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace panthera {
namespace support {

/// Fixed trace tracks, rendered as chrome "threads" of one process.
enum class TraceTrack : uint32_t {
  Engine = 1,  ///< Stages, per-partition tasks.
  Gc = 2,      ///< Minor/major collections and their phases.
  Heap = 3,    ///< Allocation-pressure events (OOM degradation path).
  Network = 4, ///< Cluster fabric transfers (remote shuffle fetches). Its
               ///< thread_name metadata is emitted only when an event uses
               ///< it, so non-cluster traces keep the 3-track prologue.
};

/// One recorded span or instant event.
struct TraceEvent {
  std::string Name;
  std::string Cat;
  TraceTrack Track = TraceTrack::Engine;
  double StartNs = 0.0;
  double DurationNs = -1.0; ///< Negative = instant event.
  /// Pre-rendered args: value is emitted verbatim unless Quoted.
  struct Arg {
    std::string Key;
    std::string Value;
    bool Quoted = false;
  };
  std::vector<Arg> Args;
};

class TraceLog {
public:
  /// Builder handle for attaching args to the event just recorded. Use it
  /// immediately: it points into the log and is invalidated by the next
  /// span()/instant() call.
  class EventRef {
  public:
    explicit EventRef(TraceEvent &E) : E(E) {}
    EventRef &arg(const std::string &Key, uint64_t V);
    EventRef &arg(const std::string &Key, double V);
    EventRef &arg(const std::string &Key, const std::string &V);

  private:
    TraceEvent &E;
  };

  /// Records a complete span [StartNs, StartNs + DurationNs).
  EventRef span(TraceTrack Track, const std::string &Name,
                const std::string &Cat, double StartNs, double DurationNs);

  /// Records an instant event at \p AtNs.
  EventRef instant(TraceTrack Track, const std::string &Name,
                   const std::string &Cat, double AtNs);

  const std::vector<TraceEvent> &events() const { return Events; }
  size_t size() const { return Events.size(); }

  /// chrome://tracing JSON object format. Deterministic: events in record
  /// order, fixed metadata prologue, %.17g timestamps.
  std::string toJson() const;
  void writeJson(std::FILE *F) const;

private:
  std::vector<TraceEvent> Events;
};

} // namespace support
} // namespace panthera

#endif // PANTHERA_SUPPORT_TRACELOG_H
