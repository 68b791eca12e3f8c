#pragma once
// Layer probes of the traced pass: calls into one layer's public functions,
// timed from the benchmark side.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_harness/machine.hpp"
#include "cachesim/traffic_model.hpp"
#include "core/perf_model.hpp"
#include "core/run.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace catsbench {

/// ThreadPool(threads) + one no-op run + teardown, median of repeated
/// constructions, in microseconds.
double pool_start_us(int threads, Tracer& tr, int parent);

/// Sustained copy bandwidth beyond the LLC (two arrays of 2x LLC each),
/// copy bandwidth inside half an L2, and the register-resident stencil
/// rate, all single-core and measured in this run.
cats::bench::MachineProfile measure_machine(const Host& host, Tracer& tr,
                                            int parent);

/// Single-core process_row throughput (MLUP/s) on a grid of the family that
/// fits in half of one core's L2: rows swept in order for 32 timesteps per
/// re-initialization, until 0.2 s of sweeping has been timed.
template <class Tr>
double row_mlups(const Host& host) {
  const double per_point = sizeof(typename Tr::Elem) * Tr::kFields;
  const double budget = static_cast<double>(host.caches.l2_bytes) / 2.0;
  const int pts = std::max(4096, static_cast<int>(budget / per_point));
  int n[3] = {1, 1, 1};
  if constexpr (Tr::kDims == 3) {
    n[2] = 16;
    n[1] = 32;
    n[0] = std::max(16, pts / (n[1] * n[2]));
  } else {
    n[1] = 64;
    n[0] = std::max(64, pts / n[1]);
  }
  auto k = Tr::make(n);
  const int origin[3] = {0, 0, 0};
  constexpr int kSteps = 32;
  double timed = 0.0;
  std::int64_t updates = 0;
  while (timed < 0.2) {
    Tr::init(*k, nullptr, 7, origin);
    const Clock::time_point t0 = Clock::now();
    for (int t = 1; t <= kSteps; ++t)
      for (int z = 0; z < n[2]; ++z)
        for (int y = 0; y < n[1]; ++y) {
          if constexpr (Tr::kDims == 3) {
            k->process_row(t, y, z, 0, n[0]);
          } else {
            k->process_row(t, y, 0, n[0]);
          }
        }
    timed += seconds_between(t0, Clock::now());
    updates += static_cast<std::int64_t>(n[0]) * n[1] * n[2] * kSteps;
  }
  return static_cast<double>(updates) / timed / 1e6;
}

/// Computed (not measured) DRAM bytes of one run: the analytic traffic model
/// of the scheme that executed, with the write-allocate correction.
template <class K>
cats::TrafficInput traffic_input(const K& k, int T, int threads) {
  const cats::DomainShape d = cats::domain_shape(k);
  cats::TrafficInput in;
  in.n = static_cast<double>(d.n);
  in.t_steps = T;
  in.bands = k.extra_cache_doubles_per_point();
  in.state = k.state_doubles_per_point();
  in.slope = k.slope();
  in.wmax = std::max(1.0, static_cast<double>(d.wmax));
  in.tiles = threads;
  in.elem_bytes = cats::kernel_element_bytes(k);
  return in;
}

double model_dram_bytes(const cats::TrafficInput& in,
                        const cats::SchemeChoice& exec);

}  // namespace catsbench
