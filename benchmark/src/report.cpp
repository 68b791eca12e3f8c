#include "report.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "tune/json.hpp"

namespace catsbench {

using cats::tune::json_number;
using cats::tune::json_quote;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.median = quantile(v, 0.5);
  s.q1 = quantile(v, 0.25);
  s.q3 = quantile(v, 0.75);
  s.p95 = quantile(v, 0.95);
  return s;
}

namespace {

/// "<key> <n> kB" field of a /proc file in KiB; 0 when absent.
std::uint64_t proc_kib(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream is(line.substr(key.size()));
      std::uint64_t kib = 0;
      is >> kib;
      return kib;
    }
  }
  return 0;
}

}  // namespace

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // "5" resets VmHWM
}

double peak_rss_mib() {
  if (const std::uint64_t kib = proc_kib("/proc/self/status", "VmHWM:"))
    return static_cast<double>(kib) / 1024.0;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mem_available_bytes() {
  return proc_kib("/proc/meminfo", "MemAvailable:") * 1024;
}

std::string json_summary(const Summary& s) {
  return JsonObject()
      .integer("n", static_cast<long long>(s.n))
      .num("median", s.median)
      .num("q1", s.q1)
      .num("q3", s.q3)
      .num("p95", s.p95)
      .dump();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_quote(k) + ": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, long long v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_quote(v);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace catsbench
