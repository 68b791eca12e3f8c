// cats_bench: one workload per process.
//
//   cats_bench --workload <dram3d|dram2d_f32|llc_banded2d|serve_mix>
//              [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// Prints every metric by name with its unit and sample quartiles, then a
// detail line (context, regime, checksums), and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 an untraced and a traced
// pass each take half of --seconds and the metrics are the per-layer set.
// Exit status: 0 when every output checked out, 1 when any check failed,
// 2 on bad arguments.

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workload.hpp"

namespace catsbench {

Host detect_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.threads = sched_getaffinity(0, sizeof set, &set) == 0
                  ? CPU_COUNT(&set)
                  : static_cast<int>(std::thread::hardware_concurrency());
  h.threads = std::max(h.threads, 1);
  h.caches = cats::detect_cache_info();
  return h;
}

}  // namespace catsbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "cats_bench: %s\nusage: cats_bench --workload "
               "<dram3d|dram2d_f32|llc_banded2d|serve_mix> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace catsbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, &args.seed)) return usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0)
        return usage("--seconds takes a number in (0, 120]");
    } else if (flag == "--trace") {
      if (!parse_u64(v, &u) || u > 1) return usage("--trace takes 0 or 1");
      args.trace = u == 1;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const bool library = args.workload == "dram3d" || args.workload == "dram2d_f32" ||
                       args.workload == "llc_banded2d";
  if (!library && args.workload != "serve_mix") return usage("unknown or missing --workload");

  const Host host = detect_host();
  Outcome out = library ? run_library_workload(args, host) : run_serve_mix(args, host);
  if (out.attempted == 0) out.fail("no job was attempted");

  JsonObject metrics, summaries;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%-28s %18.6f %-8s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples.n > 1) {
      std::printf("  n=%zu median=%.6g q1=%.6g q3=%.6g p95=%.6g", m.samples.n,
                  m.samples.median, m.samples.q1, m.samples.q3, m.samples.p95);
      summaries.raw(name, json_summary(m.samples));
    }
    std::printf("\n");
    metrics.raw(name, JsonObject().num("value", m.value).str("unit", m.unit).dump());
  }
  for (std::size_t i = 0; i < out.errors.size() && i < 20; ++i)
    std::fprintf(stderr, "cats_bench: FAILED: %s\n", out.errors[i].c_str());

  out.detail.str("workload", args.workload);
  out.detail.integer("seed", static_cast<long long>(args.seed));
  out.detail.boolean("trace", args.trace);
  out.detail.num("seconds", args.seconds);
  out.detail.raw("samples", summaries.dump());
  std::printf("%s\n", JsonObject().raw("detail", out.detail.dump()).dump().c_str());
  std::printf("%s\n", JsonObject()
                          .boolean("correct", out.correct)
                          .integer("attempted", out.attempted)
                          .integer("failed", out.failed)
                          .raw("metrics", metrics.dump())
                          .dump()
                          .c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
