#pragma once
// Kernel adapters over the plan executor: hand each plan slab to the wave
// engine's per-worker walker (src/wave/engine.hpp), which expands it into
// the kernel's row calls — fusing wavefront-chain slabs into temporal
// micro-kernel groups, streaming trailing-slab stores, and issuing the
// leading-edge prefetch hint — or, with every wave feature resolved off,
// degenerates to exactly the historical slab-to-rows loop (oracle note_row
// included). These are the only place plans meet kernels; run()
// (core/run.hpp) calls them on the plan emit_plan returns.
//
// `Scalar` selects process_row_scalar (the PluTo-like baseline's plain-C
// path) instead of the hand-vectorized process_row; the baseline also keeps
// fusion/NT/prefetch off so it stays the paper's auto-vectorized-only
// comparison point.

#include "core/options.hpp"
#include "core/stencil.hpp"
#include "plan/execute.hpp"
#include "plan/plan.hpp"
#include "wave/engine.hpp"

namespace cats::plan_ir {

template <bool Scalar = false, RowKernel1D K>
void run_plan(K& k, const TilePlan& p, const RunOptions& opt) {
  // 1D slabs are x-intervals: nothing to fuse or stream (a 1D wavefront is a
  // handful of points), so the direct row loop stays.
  execute_plan(p, opt, [&k](const Slab& sl) {
    const int x0 = static_cast<int>(sl.box.xlo);
    const int x1 = static_cast<int>(sl.box.xhi) + 1;
    check::note_row(sl.t, 0, 0, x0, x1);
    if constexpr (Scalar) {
      k.process_row_scalar(sl.t, x0, x1);
    } else {
      k.process_row(sl.t, x0, x1);
    }
  });
}

template <bool Scalar = false, RowKernel2D K>
void run_plan(K& k, const TilePlan& p, const RunOptions& opt) {
  execute_plan(p, opt, wave::WaveWalker2D<Scalar, K>(k, p, opt));
}

template <bool Scalar = false, RowKernel3D K>
void run_plan(K& k, const TilePlan& p, const RunOptions& opt) {
  execute_plan(p, opt, wave::WaveWalker3D<Scalar, K>(k, p, opt));
}

}  // namespace cats::plan_ir
