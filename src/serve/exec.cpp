#include "serve/exec.hpp"

#include <algorithm>
#include <chrono>
#include <new>

#include "cachesim/traffic_model.hpp"
#include "core/run.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const2d_f32.hpp"
#include "kernels/const3d.hpp"
#include "serve/checksum.hpp"
#include "serve/protocol.hpp"

namespace cats::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

RunOptions job_run_options(const JobRequest& rq, const ExecEnv& env) {
  RunOptions opt;
  opt.threads = rq.threads > 0 ? std::min(rq.threads, env.threads)
                               : env.threads;
  opt.threads = std::max(opt.threads, 1);
  opt.cache_bytes = rq.cache_bytes;
  opt.scheme = rq.scheme;
  opt.mwd_group = rq.mwd_group;
  opt.cache_tenants = env.cache_tenants;
  if (env.pin_cpus != nullptr && !env.pin_cpus->empty())
    opt.pin_cpus = env.pin_cpus;
  opt.stats = env.stats;
  return opt;
}

namespace {

template <class K>
JobResult run_kernel(K& k, const JobRequest& rq, const RunOptions& opt,
                     std::int64_t wmax, std::vector<double>* out_grid) {
  JobResult r;
  const Clock::time_point t0 = Clock::now();
  const SchemeChoice choice = cats::run(k, rq.t_steps, opt);
  r.seconds = seconds_since(t0);

  const SchemeChoice exec =
      resolve_dispatch(choice, job_is_3d(rq) ? 3 : 2);
  r.scheme = scheme_name(exec.scheme);
  r.tz = exec.tz;
  r.bz = exec.bz;
  r.bx = exec.bx;
  r.threads = opt.threads;
  r.cache_tenants = opt.cache_tenants;

  const std::int64_t n = job_points(rq);
  r.mlups = r.seconds > 0.0
                ? static_cast<double>(n) * rq.t_steps / r.seconds / 1e6
                : 0.0;
  r.model_dram_bytes =
      model_bytes_for(exec, n, wmax, rq.t_steps, opt.threads,
                      kernel_element_bytes(k));

  GridDigest dig(n, out_grid);
  digest_rows(k.grid_at(rq.t_steps), 0,
              static_cast<int>(job_is_3d(rq) ? rq.nz : rq.ny), dig);
  r.checksum = dig.checksum();
  r.sample = dig.sample();
  r.status = JobStatus::Done;
  return r;
}

}  // namespace

double model_bytes_for(const SchemeChoice& choice, std::int64_t n,
                       std::int64_t wmax, int t_steps, int tiles,
                       double elem_bytes) {
  if (t_steps <= 0 || n <= 0) return 0.0;
  TrafficInput in;
  in.n = static_cast<double>(n);
  in.t_steps = t_steps;
  in.bands = 0.0;
  in.state = 1.0;
  in.slope = 1;
  in.wmax = static_cast<double>(std::max<std::int64_t>(wmax, 1));
  in.tiles = std::max(tiles, 1);
  in.elem_bytes = elem_bytes;
  double bytes = 0.0;
  switch (choice.scheme) {
    case Scheme::Cats1:
      bytes = cats1_traffic_bytes(in, std::max(choice.tz, 1));
      break;
    case Scheme::Cats2:
    case Scheme::Cats3:
    case Scheme::Mwd:  // choice.bz is already sized at the pooled budget Z*g
      bytes = cats2_traffic_bytes(in, std::max<std::int64_t>(choice.bz, 2));
      break;
    case Scheme::Naive:
    case Scheme::PlutoLike:
    case Scheme::Auto:
      bytes = naive_traffic_bytes(in);
      break;
  }
  return with_rfo_bytes(in, bytes);
}

JobResult execute_job(const JobRequest& rq, const ExecEnv& env,
                      std::vector<double>* out_grid) {
  JobResult r;
  std::string err;
  if (!validate_job(rq, &err)) {
    r.status = JobStatus::Rejected;
    r.error = err;
    return r;
  }
  const RunOptions opt = job_run_options(rq, env);
  try {
    if (job_is_3d(rq)) {
      ConstStar3D<1> k(static_cast<int>(rq.nx), static_cast<int>(rq.ny),
                       static_cast<int>(rq.nz),
                       default_star3d_weights<1>());
      k.parallel_init(opt, [&](int x, int y, int z) {
        return init_value(rq.seed, x, y, z);
      });
      return run_kernel(k, rq, opt, rq.nz, out_grid);
    }
    if (rq.kernel == "const2d_f32") {
      // Same deterministic seeding, rounded once to storage precision — the
      // checksum still verifies bit-exactness between any two fp32 runs.
      FloatStar2D<1> k(static_cast<int>(rq.nx), static_cast<int>(rq.ny),
                       default_star2d_weights<1, float>());
      k.parallel_init(opt, [&](int x, int y) {
        return static_cast<float>(init_value(rq.seed, x, y, 0));
      });
      return run_kernel(k, rq, opt, rq.ny, out_grid);
    }
    ConstStar2D<1> k(static_cast<int>(rq.nx), static_cast<int>(rq.ny),
                     default_star2d_weights<1>());
    k.parallel_init(opt, [&](int x, int y) {
      return init_value(rq.seed, x, y, 0);
    });
    return run_kernel(k, rq, opt, rq.ny, out_grid);
  } catch (const std::bad_alloc&) {
    r.status = JobStatus::Failed;
    r.error = "allocation failed";
    return r;
  }
}

}  // namespace cats::serve
