#include "trace.hpp"

#include <fstream>
#include <functional>
#include <thread>

namespace catsbench {

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)), epoch_(Clock::now()) {}

int Tracer::thread_index() {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == h) return static_cast<int>(i);
  threads_.push_back(h);
  return static_cast<int>(threads_.size() - 1);
}

int Tracer::begin(const char* name, int parent) {
  if (!enabled_) return -1;
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, now, -1.0, parent, thread_index()});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end >= 0.0) out.push_back(s.end - s.start);
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.end >= 0.0)
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end >= 0.0) out[s.name] += (s.end - s.start) - child[i];
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0.0) continue;
    const JsonObject args = JsonObject()
                                .integer("id", static_cast<long long>(i))
                                .integer("parent", s.parent)
                                .str("workload", workload_);
    out << (first ? "" : ",\n")
        << JsonObject()
               .str("name", s.name)
               .str("cat", workload_)
               .str("ph", "X")
               .num("ts", s.start * 1e6)
               .num("dur", (s.end - s.start) * 1e6)
               .integer("pid", 1)
               .integer("tid", s.tid)
               .raw("args", args.dump())
               .dump();
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace catsbench
