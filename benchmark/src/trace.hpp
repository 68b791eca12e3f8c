#pragma once
// In-memory span recorder for the traced pass.
//
// Spans are recorded from the benchmark's side around calls into each
// library layer (grid construction, first touch, selection, plan emission,
// run(), a served job). Each span keeps its name, start, end, parent id and
// the workload it belongs to; nothing is written until the run ends, when
// the spans are exported as Chrome trace-event JSON (opens offline in
// Perfetto or about:tracing). A disabled tracer records nothing, so the
// untraced pass runs the identical code path minus the bookkeeping.

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "report.hpp"

namespace catsbench {

class Tracer {
 public:
  Tracer(bool enabled, std::string workload);

  /// Open a span; returns its id (-1 when disabled). `parent` = -1 for a root.
  int begin(const char* name, int parent = -1);
  /// Close span `id` (no-op for -1).
  void end(int id);

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Self time per span name, summed: each span's duration minus the time
  /// its direct children cover.
  std::map<std::string, double> self_seconds() const;

  /// Write Chrome trace-event JSON; false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0, end = -1.0;  ///< seconds since the tracer's epoch
    int parent = -1;
    int tid = 0;  ///< small per-thread index for the trace viewer
  };

  int thread_index();

  bool enabled_;
  std::string workload_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards spans_ and threads_
  std::vector<Span> spans_;
  std::vector<std::size_t> threads_;  ///< hashed std::thread ids, by index
};

/// RAII span that also measures its own duration, whether or not the tracer
/// records it.
class Scoped {
 public:
  Scoped(Tracer& tr, const char* name, int parent = -1)
      : tr_(tr), id_(tr.begin(name, parent)), t0_(Clock::now()) {}
  ~Scoped() { stop(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  int id() const { return id_; }
  /// Close the span (idempotent) and return its duration in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_between(t0_, Clock::now());
      tr_.end(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tr_;
  int id_;
  Clock::time_point t0_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace catsbench
