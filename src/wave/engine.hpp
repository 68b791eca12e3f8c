#pragma once
// In-cache wavefront engine: per-worker slab walkers that turn the plan
// executor's slab stream into fused temporal micro-kernel groups, streaming
// (non-temporal) write-backs, and leading-edge prefetch hints.
//
// The executor (plan/execute.hpp) copies one walker per worker thread, so
// chain state below is thread-private, and calls end_tile() after each
// tile's slab enumeration, before the tile's progress/done publish — which
// is where pending groups flush and pending NT stores are fenced.
//
// Chain detection: a slab extends the current group iff it is the next link
// of the same wavefront chain — same Slab::wavefront, timestep exactly one
// up, traversal position exactly s down. That matches a CATS1 column's tau
// walk and a CATS2/3 tube's per-w time run; naive/PluTo SkewedBlock slabs
// carry wavefront = t and never chain. Groups cap at the resolved unroll
// (<= 4) and flush on any break, so reordering never crosses a tile's entry
// waits or its publish. A group of any size, one stage included, flushes
// through run_fused_2d / run_fused_3d (wave/microkernel.hpp), which call
// the kernel's own process_row / process_row_nt.
//
// Fusion is resolved off when it cannot be proven equivalent or observed
// soundly: under an attached dependence oracle (note_row would stamp whole
// rows out of the oracle's expected order), for kernels not declaring
// wave_fusable (the only fusion hook, wave/microkernel.hpp), and for the
// scalar baseline path (measured as plain C on purpose). MWD group members
// still fuse: they receive *full-width* wavefront slabs (whole chain links,
// wave/mwd.hpp), so the stagger proof applies unchanged.
//
// NT stores apply only to *trailing* slabs (Slab::trailing: the tile's top
// timestep in a wavefront scheme) of NT-eligible plans
// (plan/verify.hpp nt_store_eligible) and require one store_fence() before
// the owning tile publishes: WC stores are not ordered by the publish's
// release store alone. The walker tracks whether any NT store was issued
// since the last fence and end_tile() fences exactly then.

#include <cstdint>

#include "check/oracle.hpp"
#include "core/options.hpp"
#include "core/stencil.hpp"
#include "plan/plan.hpp"
#include "plan/verify.hpp"
#include "simd/vecd.hpp"
#include "wave/microkernel.hpp"

namespace cats::wave {

/// Largest fused group: 4 timesteps — past that, the group's live rows
/// outgrow what stays cache-hot between stages (core/options.hpp unroll_t).
inline constexpr int kMaxUnroll = 4;
// core/selector.cpp sanitize_unroll_t hardcodes this bound (the selector
// layer does not include the wave engine); keep them in sync.
static_assert(kMaxUnroll == 4);

namespace detail {

inline int clamp_unroll(int u) {
  return u < 1 ? 1 : (u > kMaxUnroll ? kMaxUnroll : u);
}

/// Shared gate for both walkers: fusion needs no oracle attached and no
/// explicit off switch.
inline int resolve_unroll(const RunOptions& opt) {
  if (opt.oracle != nullptr || opt.unroll_t == 1) return 1;
  return clamp_unroll(opt.unroll_t == 0 ? kMaxUnroll : opt.unroll_t);
}

}  // namespace detail

template <bool Scalar, class K>
class WaveWalker2D {
 public:
  WaveWalker2D(K& k, const plan_ir::TilePlan& p, const RunOptions& opt)
      : k_(&k), slope_(p.slope) {
    if constexpr (!Scalar) {
      pf_ = opt.prefetch_dist > 0 ? opt.prefetch_dist : 0;
      if constexpr (kernel_has_row_nt_2d<K>) {
        nt_ = opt.nt_stores && plan_ir::nt_store_eligible(p);
      }
      if constexpr (wave_fusable_v<K>) {
        unroll_ = detail::resolve_unroll(opt);
      }
    }
  }

  void operator()(const plan_ir::Slab& sl) {
    if constexpr (!Scalar) {
      if constexpr (kernel_has_prefetch_front<K>) {
        if (sl.front && pf_ > 0) {
          k_->prefetch_front(sl.t, static_cast<int>(sl.box.ylo) + 1, pf_);
        }
      }
    }
    const int x0 = static_cast<int>(sl.box.xlo);
    const int x1 = static_cast<int>(sl.box.xhi) + 1;
    if constexpr (!Scalar && wave_fusable_v<K>) {
      if (unroll_ > 1 && sl.box.ylo == sl.box.yhi) {
        const int y = static_cast<int>(sl.box.ylo);
        if (n_ > 0 &&
            (n_ == unroll_ || sl.wavefront != wave_ ||
             sl.t != buf_[n_ - 1].t + 1 || y != buf_[n_ - 1].y - slope_)) {
          flush();
        }
        if (n_ == 0) wave_ = sl.wavefront;
        buf_[n_++] = WaveStage{sl.t, y, x0, x1, nt_ && sl.trailing};
        return;
      }
    }
    flush();
    for (std::int64_t y = sl.box.ylo; y <= sl.box.yhi; ++y) {
      row(sl, static_cast<int>(y), x0, x1);
    }
  }

  /// Flush the pending group and fence pending NT stores; the executor calls
  /// this after each tile's slabs, before the tile publishes.
  void end_tile() {
    flush();
    if constexpr (!Scalar) {
      if (fence_pending_) {
        simd::store_fence();
        fence_pending_ = false;
      }
    }
  }

 private:
  void row(const plan_ir::Slab& sl, int y, int x0, int x1) {
    check::note_row(sl.t, y, 0, x0, x1);
    if constexpr (Scalar) {
      k_->process_row_scalar(sl.t, y, x0, x1);
    } else {
      if constexpr (kernel_has_row_nt_2d<K>) {
        if (nt_ && sl.trailing) {
          k_->process_row_nt(sl.t, y, x0, x1);
          fence_pending_ = true;
          return;
        }
      }
      k_->process_row(sl.t, y, x0, x1);
    }
  }

  void flush() {
    if constexpr (!Scalar && wave_fusable_v<K>) {
      if (n_ == 0) return;
      run_fused_2d(*k_, buf_, n_);
      for (int g = 0; g < n_; ++g) fence_pending_ |= buf_[g].nt;
      n_ = 0;
    }
  }

  K* k_;
  int slope_;
  int unroll_ = 1;
  int pf_ = 0;
  bool nt_ = false;
  bool fence_pending_ = false;
  std::int64_t wave_ = 0;
  int n_ = 0;
  WaveStage buf_[kMaxUnroll];
};

template <bool Scalar, class K>
class WaveWalker3D {
 public:
  WaveWalker3D(K& k, const plan_ir::TilePlan& p, const RunOptions& opt)
      : k_(&k), slope_(p.slope) {
    if constexpr (!Scalar) {
      pf_ = opt.prefetch_dist > 0 ? opt.prefetch_dist : 0;
      if constexpr (kernel_has_row_nt_3d<K>) {
        nt_ = opt.nt_stores && plan_ir::nt_store_eligible(p);
      }
      if constexpr (wave_fusable_v<K>) {
        unroll_ = detail::resolve_unroll(opt);
      }
    }
  }

  void operator()(const plan_ir::Slab& sl) {
    if constexpr (!Scalar) {
      if constexpr (kernel_has_prefetch_front<K>) {
        if (sl.front && pf_ > 0) {
          k_->prefetch_front(sl.t, static_cast<int>(sl.box.zlo) + 1, pf_);
        }
      }
    }
    const int x0 = static_cast<int>(sl.box.xlo);
    const int x1 = static_cast<int>(sl.box.xhi) + 1;
    if constexpr (!Scalar && wave_fusable_v<K>) {
      if (unroll_ > 1 && sl.box.zlo == sl.box.zhi) {
        const int z = static_cast<int>(sl.box.zlo);
        if (n_ > 0 &&
            (n_ == unroll_ || sl.wavefront != wave_ ||
             sl.t != buf_[n_ - 1].t + 1 || z != buf_[n_ - 1].z - slope_)) {
          flush();
        }
        if (n_ == 0) wave_ = sl.wavefront;
        buf_[n_++] = Stage3{sl.t,
                            z,
                            static_cast<int>(sl.box.ylo),
                            static_cast<int>(sl.box.yhi),
                            x0,
                            x1,
                            nt_ && sl.trailing};
        return;
      }
    }
    flush();
    for (std::int64_t z = sl.box.zlo; z <= sl.box.zhi; ++z) {
      for (std::int64_t y = sl.box.ylo; y <= sl.box.yhi; ++y) {
        row(sl, static_cast<int>(y), static_cast<int>(z), x0, x1);
      }
    }
  }

  void end_tile() {
    flush();
    if constexpr (!Scalar) {
      if (fence_pending_) {
        simd::store_fence();
        fence_pending_ = false;
      }
    }
  }

 private:
  void row(const plan_ir::Slab& sl, int y, int z, int x0, int x1) {
    check::note_row(sl.t, y, z, x0, x1);
    if constexpr (Scalar) {
      k_->process_row_scalar(sl.t, y, z, x0, x1);
    } else {
      if constexpr (kernel_has_row_nt_3d<K>) {
        if (nt_ && sl.trailing) {
          k_->process_row_nt(sl.t, y, z, x0, x1);
          fence_pending_ = true;
          return;
        }
      }
      k_->process_row(sl.t, y, z, x0, x1);
    }
  }

  void flush() {
    if constexpr (!Scalar && wave_fusable_v<K>) {
      if (n_ == 0) return;
      run_fused_3d(*k_, buf_, n_, slope_);
      for (int g = 0; g < n_; ++g) fence_pending_ |= buf_[g].nt;
      n_ = 0;
    }
  }

  K* k_;
  int slope_;
  int unroll_ = 1;
  int pf_ = 0;
  bool nt_ = false;
  bool fence_pending_ = false;
  std::int64_t wave_ = 0;
  int n_ = 0;
  Stage3 buf_[kMaxUnroll];
};

}  // namespace cats::wave
