#pragma once
// Kernel adapters over the plan executor: walk_slab expands one plan slab
// into the kernel's row calls, reporting each row to the dependence oracle
// first (check::note_row). run_plan hands it to the executor; the footprint
// analyzer (analysis/footprint.hpp) drives the same walk_slab over recording
// kernels, so what it certifies is the walk that runs. run()
// (core/run.hpp) calls run_plan on the plan emit_plan returns.
//
// `Scalar` selects process_row_scalar (the PluTo-like baseline's plain-C
// path) instead of the hand-vectorized process_row.

#include <cstdint>

#include "check/oracle.hpp"
#include "core/options.hpp"
#include "plan/execute.hpp"
#include "plan/plan.hpp"

namespace cats::plan_ir {

namespace detail {

template <class K>
concept Rows3D = requires(K& k, int i) { k.process_row(i, i, i, i, i); };
template <class K>
concept Rows2D = requires(K& k, int i) { k.process_row(i, i, i, i); };

}  // namespace detail

/// Compute every point of `sl` with one row call per (y, z) of its box, z
/// outer and y inner; unused dimensions are the degenerate range [0, 0].
/// The kernel's dimensionality is read off its process_row arity, so the
/// analyzer's recording wrappers take the same path as production kernels.
template <bool Scalar = false, class K>
void walk_slab(K& k, const Slab& sl) {
  const int t = sl.t;
  const int x0 = static_cast<int>(sl.box.xlo);
  const int x1 = static_cast<int>(sl.box.xhi) + 1;
  for (std::int64_t zz = sl.box.zlo; zz <= sl.box.zhi; ++zz) {
    for (std::int64_t yy = sl.box.ylo; yy <= sl.box.yhi; ++yy) {
      const int y = static_cast<int>(yy);
      const int z = static_cast<int>(zz);
      check::note_row(t, y, z, x0, x1);
      if constexpr (detail::Rows3D<K>) {
        if constexpr (Scalar) {
          k.process_row_scalar(t, y, z, x0, x1);
        } else {
          k.process_row(t, y, z, x0, x1);
        }
      } else if constexpr (detail::Rows2D<K>) {
        if constexpr (Scalar) {
          k.process_row_scalar(t, y, x0, x1);
        } else {
          k.process_row(t, y, x0, x1);
        }
      } else if constexpr (Scalar) {
        k.process_row_scalar(t, x0, x1);
      } else {
        k.process_row(t, x0, x1);
      }
    }
  }
}

template <bool Scalar = false, class K>
void run_plan(K& k, const TilePlan& p, const RunOptions& opt) {
  execute_plan(p, opt, [&k](const Slab& sl) { walk_slab<Scalar>(k, sl); });
}

}  // namespace cats::plan_ir
