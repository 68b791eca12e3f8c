#include "layers.hpp"

#include "threads/thread_pool.hpp"

namespace catsbench {

double pool_start_us(int threads, Tracer& tr, int parent) {
  std::vector<double> us;
  for (int i = 0; i < 31; ++i) {
    Scoped span(tr, "threads.pool_start", parent);
    {
      cats::ThreadPool pool(threads);
      pool.run([](int) {});
    }
    us.push_back(span.stop() * 1e6);
  }
  return quantile(us, 0.5);
}

cats::bench::MachineProfile measure_machine(const Host& host, Tracer& tr,
                                            int parent) {
  cats::bench::MachineProfile m;
  Scoped span(tr, "machine.profile", parent);
  m.sys_bw_gbps = cats::bench::measure_copy_bandwidth(4 * host.llc(), 0.3);
  m.l2_bw_gbps = cats::bench::measure_copy_bandwidth(host.caches.l2_bytes / 2, 0.15);
  m.stencil_dp_gflops = cats::bench::measure_stencil_dp(0.15);
  return m;
}

double model_dram_bytes(const cats::TrafficInput& in,
                        const cats::SchemeChoice& exec) {
  double bytes = 0.0;
  switch (exec.scheme) {
    case cats::Scheme::Cats1:
      bytes = cats::cats1_traffic_bytes(in, std::max(1, exec.tz));
      break;
    case cats::Scheme::Cats2:
    case cats::Scheme::Cats3:
    case cats::Scheme::Mwd:
      bytes = cats::cats2_traffic_bytes(
          in, std::max<std::int64_t>(2ll * in.slope, exec.bz));
      break;
    default:
      bytes = cats::naive_traffic_bytes(in);
      break;
  }
  return cats::with_rfo_bytes(in, bytes);
}

}  // namespace catsbench
