#pragma once
// Public entry point.
//
//   cats::RunOptions opt;            // threads, cache size, scheme...
//   cats::run(kernel, T, opt);       // apply the stencil T times
//
// With Scheme::Auto this is the paper's "general CATS scheme": Eq. 1 picks
// the CATS1 chunk height; if the CATS1 wavefront would span fewer than 10
// timesteps the selector switches to CATS2 with the Eq. 2 diamond width.
// The returned SchemeChoice reports what the selector picked.
//
// run() is emit-then-walk: the selector's choice becomes a TilePlan through
// plan_ir::emit_plan (plan/emit.hpp, where each scheme's schedule is
// defined) and the executor walks that plan (plan/kernel_walk.hpp). The
// verifier, cats_plan_check and the benchmarks call the same emit_plan, so
// the plan they certify is the plan that runs.

#include <cstdio>
#include <cstdlib>

#include "check/oracle.hpp"
#include "core/selector.hpp"
#include "core/stencil.hpp"
#include "plan/emit.hpp"
#include "plan/kernel_walk.hpp"

namespace cats {

namespace detail {

template <class K>
inline constexpr int kernel_dims =
    RowKernel3D<K> ? 3 : RowKernel2D<K> ? 2 : 1;

struct Extents {
  int w = 1, h = 1, d = 1;
};

template <class K>
Extents extents(const K& k) {
  if constexpr (RowKernel3D<K>) {
    return {k.width(), k.height(), k.depth()};
  } else if constexpr (RowKernel2D<K>) {
    return {k.width(), k.height(), 1};
  } else {
    return {k.width(), 1, 1};
  }
}

}  // namespace detail

template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
DomainShape domain_shape(const K& k) {
  const detail::Extents e = detail::extents(k);
  return domain_shape(detail::kernel_dims<K>, e.w, e.h, e.d);
}

/// The options run(k, T, opt) executes under. A worker count below 1 is
/// clamped to 1 with a one-time note. Gauss-Seidel-style kernels (same-
/// timestep spatial reads) admit no split-tiling parallelism, so they run the
/// serial CATS1 wavefront, which keeps the full temporal-locality benefit, or
/// the serial naive sweep. mwd_group is sanitized against the final pool.
/// plan() and plan_request() resolve through here too, so what they report
/// is what run() executes.
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
RunOptions resolve_run_options(const K&, const RunOptions& opt) {
  RunOptions eff = opt;
  eff.threads = sanitize_threads(opt.threads);
  if constexpr (kernel_sequential_deps<K>()) {
    eff.threads = 1;
    if (opt.scheme != Scheme::Naive) eff.scheme = Scheme::Cats1;
  }
  eff.mwd_group = sanitize_mwd_group(eff.mwd_group, eff.threads, eff.scheme);
  return eff;
}

/// The kernel-free planning request for running `k` T steps under `opt`:
/// what emit_plan (and through it the verifier) needs to rebuild the exact
/// plan run() executes.
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
plan_ir::PlanRequest plan_request(const K& k, int T, const RunOptions& opt) {
  const detail::Extents e = detail::extents(k);
  plan_ir::PlanRequest rq;
  rq.dims = detail::kernel_dims<K>;
  rq.nx = e.w;
  rq.ny = e.h;
  rq.nz = e.d;
  rq.T = T;
  rq.slope = k.slope();
  rq.cs_eff = effective_cs(k, opt.cs_slack);
  rq.elem_bytes = kernel_element_bytes(k);
  rq.opt = resolve_run_options(k, opt);
  return rq;
}

/// Scheme + parameters that run(k, T, opt) would use (without running).
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
SchemeChoice plan(const K& k, int T, const RunOptions& opt) {
  const RunOptions eff = resolve_run_options(k, opt);
  const KernelCosts costs{k.slope(), effective_cs(k, eff.cs_slack),
                          kernel_element_bytes(k)};
  return select_scheme(domain_shape(k), costs, eff, T);
}

/// Apply the kernel's stencil T times with the selected scheme.
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
SchemeChoice run(K& k, int T, const RunOptions& opt) {
  const RunOptions eff = resolve_run_options(k, opt);
  // Validation mode (opt.validate or CATS_VALIDATE in the environment):
  // attach a temporary dependence oracle for this run, then require a clean
  // report — any violated dependence prints its precise diagnostic and
  // aborts, so a schedule regression fails fast in any build type.
  if (T > 0 && eff.oracle == nullptr &&
      (eff.validate || check::validate_env_enabled())) {
    const detail::Extents e = detail::extents(k);
    check::DepOracle oracle(e.w, e.h, e.d, k.slope(), eff.threads);
    RunOptions vopt = eff;
    vopt.oracle = &oracle;
    vopt.validate = false;
    const SchemeChoice choice = run(k, T, vopt);
    oracle.check_complete(T);
    if (!oracle.ok()) {
      oracle.print_report(stderr);
      std::fprintf(stderr,
                   "cats: dependence-oracle validation failed (%lld "
                   "violations), aborting\n",
                   static_cast<long long>(oracle.violation_count()));
      std::abort();
    }
    return choice;
  }
  // plan() and plan_request() resolve eff again; resolution is idempotent.
  const SchemeChoice choice = plan(k, T, eff);
  if (T <= 0) return choice;
  // emit_plan applies the dimensional fallbacks (CATS2 in 1D -> CATS1,
  // CATS3 below 3D -> CATS2/1); the returned choice stays unresolved: it
  // reports what the selector picked. The PluTo-like baseline walks the
  // kernel's scalar rows.
  const plan_ir::TilePlan p =
      plan_ir::emit_plan(plan_request(k, T, eff), choice);
  if (p.scheme == Scheme::PlutoLike) {
    plan_ir::run_plan<true>(k, p, eff);
  } else {
    plan_ir::run_plan(k, p, eff);
  }
  return choice;
}

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::Auto: return "Auto";
    case Scheme::Naive: return "Naive";
    case Scheme::Cats1: return "CATS1";
    case Scheme::Cats2: return "CATS2";
    case Scheme::Cats3: return "CATS3";
    case Scheme::Mwd: return "MWD";
    case Scheme::PlutoLike: return "PluTo-like";
  }
  return "?";
}

}  // namespace cats
