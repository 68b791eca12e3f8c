#pragma once
// Sample statistics, metric records and a minimal JSON writer for
// cats_bench. Every timing is reported with its sample count and
// quartiles; the final stdout line is the machine-readable result.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace catsbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile q in [0, 1] by linear interpolation between order statistics.
/// 0 for an empty sample set.
double quantile(std::vector<double> v, double q);

struct Summary {
  std::size_t n = 0;
  double median = 0.0, q1 = 0.0, q3 = 0.0, p95 = 0.0;
};

Summary summarize(const std::vector<double>& v);

/// One reported metric. `samples` carries the distribution a timing was
/// reduced from (empty for single-valued metrics such as counts).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Summary samples;
};

/// Return freed heap pages to the OS and restart the kernel's peak-RSS mark
/// (/proc/self/clear_refs), so peak_rss_mib() covers only what runs after.
void reset_peak_rss();

/// Peak resident set in MiB since the last reset_peak_rss() (VmHWM), or of
/// the whole process where /proc is unavailable (ru_maxrss).
double peak_rss_mib();

/// MemAvailable from /proc/meminfo in bytes; 0 when unreadable.
std::uint64_t mem_available_bytes();

/// Builds one JSON object; values are appended in call order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, long long v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& boolean(const std::string& key, bool v);
  /// `json` must already be a serialized JSON value.
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// {"n":..,"median":..,"q1":..,"q3":..,"p95":..}
std::string json_summary(const Summary& s);
std::string hex64(std::uint64_t v);

}  // namespace catsbench
