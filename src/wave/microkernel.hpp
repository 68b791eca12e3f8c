#pragma once
// Temporal micro-kernel drivers: dependence-legal staggered sweeps over a
// *wavefront chain* — the maximal run of consecutive slabs (t, p), (t+1,
// p-s), ..., (t+u-1, p-(u-1)s) that a CATS tile keeps cache-resident along
// one wavefront (a CATS1 column, a CATS2 tube's per-w time run). The engine
// (wave/engine.hpp) detects chains; this header holds the stagger rules and
// the generic row-granularity driver.
//
// Stagger proof (both drivers; stage g = the chain's g-th slab, u <= 4):
//
//  * Flow dependence. Stage g+1 computes points at timestep t+g+1 reading
//    the slope-s box at t+g. Within the chain, the only t+g data not already
//    complete is stage g's own output (earlier wavefronts were computed by
//    earlier chains/tiles; data *outside* stage g's space range belongs to
//    neighbor tiles whose done/progress edges were waited out before this
//    tile started — the group never reorders across a tile's entry waits).
//    Stage g+1 at position q reads stage g's output at positions q-s..q+s,
//    so it may run as soon as stage g has completed through q+s.
//
//  * WAR hazard. Stage g+1 writes the (t+g+1) & 1 buffer parity — the same
//    parity stage g *reads* as its (t+g-1) input. The aliased plane/row is
//    stage g's input at offset -s (stage g+1's position is s below stage
//    g's), and stage g's last read of aliased position q happens while
//    computing its own position q+s. Hence the same bound: stage g+1 may
//    overwrite position q once stage g has completed through q+s.
//
//  * Non-adjacent stages alias nothing: stage g+2 writes parity (t+g) & 1 at
//    positions 2s below stage g's writes of the same parity, and its reads of
//    stage g+1's parity are the adjacent-pair cases above relabeled. So
//    pairwise-adjacent safety implies group safety for any u.
//
// Both obligations reduce to "stage g stays >= s positions ahead of stage
// g+1, counting a position complete only when fully computed". The 2D driver
// below staggers stages by x-chunks of >= s points along the fused rows; the
// 3D driver staggers whole x-rows by exactly s rows in y. Both run stages in
// ascending order within a step, so stage g's chunk/row ahead finishes
// before stage g+1 touches the one behind it. Both call only the kernel's
// own process_row / process_row_nt, so every point is computed by the same
// row body as in the unfused walk and fusion is bit-exact by construction.

#include <algorithm>

#include "core/stencil.hpp"

namespace cats::wave {

/// Opt-in marker for engine-side temporal fusion: the kernel's process_row
/// accesses are contained in the slope-s box at t-1 (star or box shaped),
/// with no same-timestep or multi-field coupling the stagger proof above
/// does not cover. Kernels declare `static constexpr bool wave_fusable =
/// true`; everything else (Gauss-Seidel, FDTD's three coupled fields) runs
/// unfused.
template <class K>
constexpr bool wave_fusable_v = requires {
  requires K::wave_fusable;
};

/// Bytes per x-chunk of the 2D diagonal schedule: 512 fp64 or 1024 fp32
/// points. Wide enough to amortize the per-chunk row-pointer and weight
/// setup of process_row, narrow enough that a group's live rows stay close;
/// always far above the s <= 4 points the stagger needs.
inline constexpr int kWaveChunkBytes = 4096;

/// One slab of a 2D fused group: row y at timestep t, [x0, x1) half-open
/// like process_row. The engine builds stages from consecutive wavefront-
/// chain slabs, t ascending by 1 and y descending by s.
struct WaveStage {
  int t = 0;
  int y = 0;
  int x0 = 0, x1 = 0;
  bool nt = false;  ///< stream this stage's stores (trailing wavefront)
};

/// Chunk-diagonal 2D group sweep: the union of the stages' x-ranges is cut
/// into chunks from the leftmost x0, and at diagonal step j stage g runs
/// chunk j - g, clipped to its own [x0, x1). Ascending g within a step keeps
/// stage g one whole chunk ahead of stage g+1. A one-stage group is the
/// plain row walk, chunk by chunk.
template <class K>
void run_fused_2d(K& k, const WaveStage* st, int n) {
  const int chunk =
      static_cast<int>(kWaveChunkBytes / kernel_element_bytes(k));
  int base = st[0].x0;
  int hi = st[0].x1;
  for (int g = 1; g < n; ++g) {
    base = std::min(base, st[g].x0);
    hi = std::max(hi, st[g].x1);
  }
  const int chunks = (hi - base + chunk - 1) / chunk;
  for (int j = 0; j < chunks + n - 1; ++j) {
    for (int g = 0; g < n; ++g) {
      const int ci = j - g;
      if (ci < 0 || ci >= chunks) continue;
      const int a = std::max(st[g].x0, base + ci * chunk);
      const int b = std::min(st[g].x1, base + (ci + 1) * chunk);
      if (a >= b) continue;
      if constexpr (kernel_has_row_nt_2d<K>) {
        if (st[g].nt) {
          k.process_row_nt(st[g].t, st[g].y, a, b);
          continue;
        }
      }
      k.process_row(st[g].t, st[g].y, a, b);
    }
  }
}

/// One slab of a 3D fused group: the z-plane at timestep t, rows
/// [ylo, yhi] x [x0, x1).
struct Stage3 {
  int t = 0;
  int z = 0;
  int ylo = 0, yhi = 0;
  int x0 = 0, x1 = 0;
  bool nt = false;  ///< stream this stage's stores (trailing wavefront)
};

/// Row-staggered 3D group sweep: at step r, stage g computes row r - g*s of
/// its own plane (skipped outside the stage's y-range — per-stage ranges
/// differ in CATS2 diamonds and at domain edges; out-of-range rows are
/// neighbor tiles' work, complete before this tile began). Ascending g
/// within a step makes the stagger exactly s rows, the minimum the proof
/// needs.
template <class K>
void run_fused_3d(K& k, const Stage3* st, int n, int s) {
  int rlo = st[0].ylo;
  int rhi = st[0].yhi;
  for (int g = 1; g < n; ++g) {
    rlo = std::min(rlo, st[g].ylo + g * s);
    rhi = std::max(rhi, st[g].yhi + g * s);
  }
  for (int r = rlo; r <= rhi; ++r) {
    for (int g = 0; g < n; ++g) {
      const int y = r - g * s;
      if (y < st[g].ylo || y > st[g].yhi) continue;
      if constexpr (kernel_has_row_nt_3d<K>) {
        if (st[g].nt) {
          k.process_row_nt(st[g].t, y, st[g].z, st[g].x0, st[g].x1);
          continue;
        }
      }
      k.process_row(st[g].t, y, st[g].z, st[g].x0, st[g].x1);
    }
  }
}

}  // namespace cats::wave
