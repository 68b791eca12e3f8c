#pragma once
// Shared types of cats_bench: command-line arguments, the host the
// workloads size themselves against, and a workload's outcome.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "sysinfo/cache_info.hpp"

namespace catsbench {

/// Seed whose reference checksums are stored in benchmark/checksums.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool trace = false;
  /// Directory (relative to the working directory) for the server socket
  /// and the Chrome trace file.
  std::string out_dir = ".bench_build";
};

struct Host {
  int threads = 1;  ///< online CPUs; every run uses all of them
  cats::CacheInfo caches;

  std::uint64_t l2_total() const {
    return static_cast<std::uint64_t>(caches.l2_bytes) * threads;
  }
  /// Shared last-level cache; the summed L2 when no L3 is reported.
  std::uint64_t llc() const {
    return caches.l3_bytes != 0 ? caches.l3_bytes : l2_total();
  }
};

Host detect_host();

struct Outcome {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;
  JsonObject detail;               ///< context printed before the result line
  std::vector<std::string> errors; ///< one line per failed check

  void add(const std::string& name, double value, const std::string& unit,
           const Summary& samples = {}) {
    metrics[name] = Metric{name, value, unit, samples};
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

Outcome run_library_workload(const Args& args, const Host& host);
Outcome run_serve_mix(const Args& args, const Host& host);

}  // namespace catsbench
