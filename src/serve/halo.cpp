#include "serve/halo.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "check/check.hpp"
#include "core/run.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const2d_f32.hpp"
#include "kernels/const3d.hpp"
#include "serve/checksum.hpp"

namespace cats::serve {

namespace {

using plan_ir::ShardCell;
using plan_ir::ShardDomain;
using plan_ir::ShardSchedule;
using plan_ir::ShardStep;
using plan_ir::ShardStepKind;
using plan_ir::ShardWait;

using Clock = std::chrono::steady_clock;

/// Adapter over the 2D kernel: the split dimension is y, a slice is one row.
struct Split2D {
  using Kernel = ConstStar2D<1>;
  static constexpr int kGhost = 1;

  static Kernel make(const JobRequest& rq, std::int64_t slices) {
    return Kernel(static_cast<int>(rq.nx), static_cast<int>(slices),
                  default_star2d_weights<1>());
  }
  static void init(Kernel& k, const RunOptions& opt, const JobRequest& rq,
                   std::int64_t lo) {
    k.parallel_init(opt, [&](int x, int y) {
      return init_value(rq.seed, x, lo + y, 0);
    });
  }
  /// Copy slice `sy` of src's parity-0 buffer into slice `dy` of dst,
  /// including the x ghost columns (both subgrids share the x extent).
  static void copy_slice(Kernel& dst, std::int64_t dy, const Kernel& src,
                         std::int64_t sy) {
    const Grid2D<double>& s = src.grid_at(0);
    Grid2D<double>& d = dst.grid_at(0);
    std::memcpy(d.row(static_cast<int>(dy)) - kGhost,
                s.row(static_cast<int>(sy)) - kGhost,
                (static_cast<std::size_t>(dst.width()) + 2 * kGhost) *
                    sizeof(double));
  }
  static std::int64_t slice_points(const JobRequest& rq) { return rq.nx; }
};

/// Split2D's single-precision sibling: identical split geometry, float
/// storage (4-byte slices; init rounds the shared deterministic seed to
/// storage precision exactly like the single-shard executor, so sharded and
/// unsharded fp32 runs stay bit-identical).
struct Split2DF32 {
  using Kernel = FloatStar2D<1>;
  static constexpr int kGhost = 1;

  static Kernel make(const JobRequest& rq, std::int64_t slices) {
    return Kernel(static_cast<int>(rq.nx), static_cast<int>(slices),
                  default_star2d_weights<1, float>());
  }
  static void init(Kernel& k, const RunOptions& opt, const JobRequest& rq,
                   std::int64_t lo) {
    k.parallel_init(opt, [&](int x, int y) {
      return static_cast<float>(init_value(rq.seed, x, lo + y, 0));
    });
  }
  static void copy_slice(Kernel& dst, std::int64_t dy, const Kernel& src,
                         std::int64_t sy) {
    const Grid2D<float>& s = src.grid_at(0);
    Grid2D<float>& d = dst.grid_at(0);
    std::memcpy(d.row(static_cast<int>(dy)) - kGhost,
                s.row(static_cast<int>(sy)) - kGhost,
                (static_cast<std::size_t>(dst.width()) + 2 * kGhost) *
                    sizeof(float));
  }
  static std::int64_t slice_points(const JobRequest& rq) { return rq.nx; }
};

/// Adapter over the 3D kernel: the split dimension is z, a slice is one
/// (x, y) plane.
struct Split3D {
  using Kernel = ConstStar3D<1>;
  static constexpr int kGhost = 1;

  static Kernel make(const JobRequest& rq, std::int64_t slices) {
    return Kernel(static_cast<int>(rq.nx), static_cast<int>(rq.ny),
                  static_cast<int>(slices), default_star3d_weights<1>());
  }
  static void init(Kernel& k, const RunOptions& opt, const JobRequest& rq,
                   std::int64_t lo) {
    k.parallel_init(opt, [&](int x, int y, int z) {
      return init_value(rq.seed, x, y, lo + z);
    });
  }
  static void copy_slice(Kernel& dst, std::int64_t dz, const Kernel& src,
                         std::int64_t sz) {
    const Grid3D<double>& s = src.grid_at(0);
    Grid3D<double>& d = dst.grid_at(0);
    const std::size_t row_bytes =
        (static_cast<std::size_t>(dst.width()) + 2 * kGhost) * sizeof(double);
    // A plane copy includes the y ghost rows: the neighbor's plane carries
    // the authoritative boundary values there too.
    for (int y = -kGhost; y < dst.height() + kGhost; ++y) {
      std::memcpy(d.row(y, static_cast<int>(dz)) - kGhost,
                  s.row(y, static_cast<int>(sz)) - kGhost, row_bytes);
    }
  }
  static std::int64_t slice_points(const JobRequest& rq) {
    return rq.nx * rq.ny;
  }
};

/// Everything one shard thread records for the coordinator.
struct ShardOutcome {
  SchemeChoice choice;      ///< last resolved per-block scheme
  double model_bytes = 0.0;
  bool failed = false;
  std::string error;
};

template <class A>
JobResult run_split_impl(const JobRequest& rq, const ShardSchedule& sched,
                         const std::vector<ShardSlot>& slots,
                         const ExecEnv& env, std::vector<double>* out_grid) {
  const int S = sched.shards();
  CATS_CHECK(static_cast<int>(slots.size()) == S,
             "run_split_job: %d slots for %d schedule shards",
             static_cast<int>(slots.size()), S);

  // One Computed and one Copied cell per shard — the schedule's wait
  // bounds land on these via wait_ge/publish, exactly like the plan
  // executor's owner cells but across shard boundaries.
  std::vector<plan_ir::ShardDomain> owned = sched.owned;
  auto computed = std::make_unique<ProgressCell[]>(static_cast<std::size_t>(S));
  auto copied = std::make_unique<ProgressCell[]>(static_cast<std::size_t>(S));

  std::vector<std::unique_ptr<typename A::Kernel>> kernels(
      static_cast<std::size_t>(S));
  std::vector<ShardOutcome> outcomes(static_cast<std::size_t>(S));

  const Clock::time_point t0 = Clock::now();

  auto shard_body = [&](int i) {
    ShardOutcome& oc = outcomes[static_cast<std::size_t>(i)];
    try {
      const ShardDomain& own = owned[static_cast<std::size_t>(i)];
      const std::int64_t h_lo = i > 0 ? sched.halo : 0;
      const std::int64_t h_hi = i + 1 < S ? sched.halo : 0;
      const std::int64_t lo_ext = own.lo - h_lo;
      const std::int64_t n_loc = own.rows() + h_lo + h_hi;

      ExecEnv shard_env = env;
      shard_env.pin_cpus = slots[static_cast<std::size_t>(i)].cpus.empty()
                               ? nullptr
                               : &slots[static_cast<std::size_t>(i)].cpus;
      shard_env.threads = slots[static_cast<std::size_t>(i)].threads;
      shard_env.cache_tenants = 1;  // a split job owns its whole shard
      RunOptions opt = job_run_options(rq, shard_env);

      kernels[static_cast<std::size_t>(i)] =
          std::make_unique<typename A::Kernel>(A::make(rq, n_loc));
      typename A::Kernel& k = *kernels[static_cast<std::size_t>(i)];
      A::init(k, opt, rq, lo_ext);

      for (const ShardStep& st : sched.program[static_cast<std::size_t>(i)]) {
        for (const ShardWait& w : st.waits) {
          const ProgressCell& cell = w.cell == ShardCell::Computed
                                         ? computed[w.shard]
                                         : copied[w.shard];
          const WaitResult wr = cell.wait_ge(w.bound);
          if (env.stats != nullptr) env.stats->add_wait(wr);
        }
        if (st.kind == ShardStepKind::Compute) {
          const SchemeChoice choice = cats::run(k, st.tb, opt);
          oc.choice = resolve_dispatch(choice, job_is_3d(rq) ? 3 : 2);
          oc.model_bytes += model_bytes_for(
              oc.choice, A::slice_points(rq) * n_loc, n_loc, st.tb,
              opt.threads, kernel_element_bytes(k));
          computed[i].publish(st.block + 1);
        } else {
          // Refresh this shard's halo slices from the neighbors' parity-0
          // owned slices (every non-final block is even, so the live buffer
          // is parity 0 here). Local slice l maps to global lo_ext + l.
          if (i > 0) {
            const ShardDomain& nb = owned[static_cast<std::size_t>(i - 1)];
            const std::int64_t nb_lo = nb.lo - (i - 1 > 0 ? sched.halo : 0);
            for (std::int64_t l = 0; l < h_lo; ++l) {
              const std::int64_t global = lo_ext + l;
              A::copy_slice(k, l, *kernels[static_cast<std::size_t>(i - 1)],
                            global - nb_lo);
            }
          }
          if (i + 1 < S) {
            const ShardDomain& nb = owned[static_cast<std::size_t>(i + 1)];
            const std::int64_t nb_lo = nb.lo - sched.halo;
            for (std::int64_t l = n_loc - h_hi; l < n_loc; ++l) {
              const std::int64_t global = lo_ext + l;
              A::copy_slice(k, l, *kernels[static_cast<std::size_t>(i + 1)],
                            global - nb_lo);
            }
          }
          copied[i].publish(st.block + 1);
        }
      }
    } catch (const std::bad_alloc&) {
      oc.failed = true;
      oc.error = "allocation failed on shard " + std::to_string(i);
      // Unblock the neighbors unconditionally so they cannot deadlock on a
      // dead shard; the coordinator discards the poisoned result.
      computed[i].publish(INT64_MAX);
      copied[i].publish(INT64_MAX);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(S - 1));
  for (int i = 1; i < S; ++i) workers.emplace_back(shard_body, i);
  shard_body(0);
  for (std::thread& w : workers) w.join();

  JobResult r;
  for (const ShardOutcome& oc : outcomes) {
    if (oc.failed) {
      r.status = JobStatus::Failed;
      r.error = oc.error;
      return r;
    }
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  const SchemeChoice& choice = outcomes[0].choice;
  r.scheme = scheme_name(choice.scheme);
  r.tz = choice.tz;
  r.bz = choice.bz;
  r.bx = choice.bx;
  r.shards_used = S;
  r.threads = slots[0].threads;
  r.cache_tenants = 1;
  const std::int64_t n = job_points(rq);
  r.mlups = r.seconds > 0.0
                ? static_cast<double>(n) * rq.t_steps / r.seconds / 1e6
                : 0.0;
  for (const ShardOutcome& oc : outcomes) r.model_dram_bytes += oc.model_bytes;

  // Walk each shard's owned slices in shard order (ascending split
  // dimension), so the rows arrive in copy_result_to order of an unsharded
  // kernel. The final block may be odd; grid_at follows its parity.
  const int t_final = sched.block_steps.back();
  GridDigest dig(n, out_grid);
  for (int i = 0; i < S; ++i) {
    const std::int64_t lo = i > 0 ? sched.halo : 0;
    const std::int64_t hi = lo + owned[static_cast<std::size_t>(i)].rows();
    digest_rows(kernels[static_cast<std::size_t>(i)]->grid_at(t_final),
                static_cast<int>(lo), static_cast<int>(hi), dig);
  }
  r.checksum = dig.checksum();
  r.sample = dig.sample();
  r.status = JobStatus::Done;
  return r;
}

}  // namespace

JobResult run_split_job(const JobRequest& rq, const ShardSchedule& sched,
                        const std::vector<ShardSlot>& slots,
                        const ExecEnv& env, std::vector<double>* out_grid) {
  JobResult r;
  std::string err;
  if (!validate_job(rq, &err)) {
    r.status = JobStatus::Rejected;
    r.error = err;
    return r;
  }
  // "Verified = executed": refuse any schedule the execution-free verifier
  // rejects, with the first diagnostic as the typed error.
  const plan_ir::VerifyReport rep = plan_ir::verify_shard_schedule(sched);
  if (!rep.ok()) {
    r.status = JobStatus::Failed;
    r.error = "shard schedule failed verification: " +
              (rep.diags.empty() ? std::string("(no diagnostic)")
                                 : rep.diags.front().detail);
    return r;
  }
  const std::int64_t extent = job_is_3d(rq) ? rq.nz : rq.ny;
  if (sched.extent != extent || sched.T != rq.t_steps) {
    r.status = JobStatus::Failed;
    r.error = "shard schedule does not match the job's domain";
    return r;
  }
  if (job_is_3d(rq)) {
    return run_split_impl<Split3D>(rq, sched, slots, env, out_grid);
  }
  if (rq.kernel == "const2d_f32") {
    return run_split_impl<Split2DF32>(rq, sched, slots, env, out_grid);
  }
  return run_split_impl<Split2D>(rq, sched, slots, env, out_grid);
}

}  // namespace cats::serve
