// Symbolic footprint analyzer: the CI sweep matrix (DESIGN.md §15).
//
// Each config instantiates a production kernel family on a recording
// element type, emits the production plan for a small domain, and drives
// the production slab walk (plan_ir::walk_slab) over it. The checker
// certifies every recorded address; on top, each run must be complete
// (check_complete), so a walk that computes nothing — a vacuous
// certification — is reported as a failure, not a pass.

#include "analysis/footprint.hpp"

#include <string>
#include <vector>

#include "kernels/banded2d.hpp"
#include "kernels/banded3d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"
#include "plan/emit.hpp"

namespace cats {
namespace analysis {

// constinit to match the declaration in analysis/record.hpp.
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
constinit thread_local AccessHook g_access_hook;

namespace {

struct SchemeCase {
  const char* name;
  plan_ir::TilePlan plan;
};

/// Walk one plan with a recording kernel wrapped in RecWrap (RecWrap2D or
/// RecWrap3D) and collect the checker's verdict. MWD plans are walked
/// through the member-partitioned window pipeline (drive_plan_mwd) so the
/// checker certifies the addresses each member actually touches under the
/// band split, not just the tile union.
template <class RecWrap, class K>
FpReport certify(K& k, const SchemeCase& sc, FootprintChecker& chk,
                 std::string config) {
  RecWrap wrap(k, chk);
  if (sc.plan.mwd_group > 1) {
    drive_plan_mwd(wrap, sc.plan, chk);
  } else {
    drive_plan(wrap, sc.plan, chk);
  }
  chk.check_complete(sc.plan.T);
  FpReport rep;
  rep.config = std::move(config);
  rep.diags = chk.diags();
  rep.loads = chk.loads();
  rep.stores = chk.stores();
  return rep;
}

std::string cfg_label(const char* family, const char* prec, const char* sch) {
  return std::string(family) + " " + prec + " " + sch;
}

// ---- 2D families -----------------------------------------------------------

std::vector<SchemeCase> cases_2d(int S) {
  const int nx = 64, ny = 20, nt_steps = 6, threads = 2;
  std::vector<SchemeCase> cases;
  cases.push_back(
      {"naive", plan_ir::emit_naive(2, nx, ny, 1, nt_steps, S, threads)});
  cases.push_back(
      {"cats1", plan_ir::emit_cats1(2, nx, ny, 1, nt_steps, S, 3, threads)});
  // bz must exceed the widest vector (16 fp32 lanes on AVX-512) or diamond
  // slabs stay scalar-only and the vector body goes unchecked.
  cases.push_back(
      {"cats2", plan_ir::emit_cats2(2, nx, ny, 1, nt_steps, S, 24, threads)});
  // Same diamond geometry, walked through the 2-member window pipeline.
  cases.push_back(
      {"mwd", plan_ir::emit_mwd(2, nx, ny, 1, nt_steps, S, 24, 1, 2)});
  return cases;
}

template <class T>
void sweep_const2d(const char* prec, std::vector<FpReport>& out) {
  constexpr int S = 2;
  using K = ConstStar2D<S, T>;
  for (const auto& sc : cases_2d(S)) {
    K k(static_cast<int>(sc.plan.nx), static_cast<int>(sc.plan.ny),
        default_star2d_weights<S, T>());
    FootprintChecker chk(2, S);
    chk.add_state_grid_2d(k.grid_at(0), 0, "const2d/buf0");
    chk.add_state_grid_2d(k.grid_at(1), 1, "const2d/buf1");
    out.push_back(certify<RecWrap2D<K>>(
        k, sc, chk, cfg_label("const2d/s2", prec, sc.name)));
  }
}

void sweep_banded2d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  using K = Banded2D<S, RecElem64>;
  for (const auto& sc : cases_2d(S)) {
    K k(static_cast<int>(sc.plan.nx), static_cast<int>(sc.plan.ny));
    FootprintChecker chk(2, S);
    chk.add_state_grid_2d(k.grid_at(0), 0, "banded2d/buf0");
    chk.add_state_grid_2d(k.grid_at(1), 1, "banded2d/buf1");
    for (int b = 0; b < K::kBands; ++b) {
      chk.add_band_grid_2d(k.band(b), b, "banded2d");
    }
    out.push_back(certify<RecWrap2D<K>>(
        k, sc, chk, cfg_label("banded2d/s1", "fp64", sc.name)));
  }
}

// ---- 3D families -----------------------------------------------------------

constexpr int kNx3 = 24, kNy3 = 12, kNz3 = 12, kT3 = 4, kThreads3 = 2;

std::vector<SchemeCase> cases_3d(int S) {
  std::vector<SchemeCase> cases;
  cases.push_back({"naive", plan_ir::emit_naive(3, kNx3, kNy3, kNz3, kT3, S,
                                                kThreads3)});
  cases.push_back({"cats1", plan_ir::emit_cats1(3, kNx3, kNy3, kNz3, kT3, S,
                                                2, kThreads3)});
  cases.push_back({"cats2", plan_ir::emit_cats2(3, kNx3, kNy3, kNz3, kT3, S,
                                                4, kThreads3)});
  cases.push_back({"cats3", plan_ir::emit_cats3(kNx3, kNy3, kNz3, kT3, S, 4,
                                                8, kThreads3)});
  cases.push_back(
      {"mwd", plan_ir::emit_mwd(3, kNx3, kNy3, kNz3, kT3, S, 4, 1, 2)});
  return cases;
}

void sweep_const3d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  using K = ConstStar3D<S, RecElem64>;
  for (const auto& sc : cases_3d(S)) {
    K k(kNx3, kNy3, kNz3, default_star3d_weights<S, RecElem64>());
    FootprintChecker chk(3, S);
    chk.add_state_grid_3d(k.grid_at(0), 0, "const3d/buf0");
    chk.add_state_grid_3d(k.grid_at(1), 1, "const3d/buf1");
    out.push_back(certify<RecWrap3D<K>>(
        k, sc, chk, cfg_label("const3d/s1", "fp64", sc.name)));
  }
}

void sweep_banded3d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  using K = Banded3D<S, RecElem64>;
  for (const auto& sc : cases_3d(S)) {
    K k(kNx3, kNy3, kNz3);
    FootprintChecker chk(3, S);
    chk.add_state_grid_3d(k.grid_at(0), 0, "banded3d/buf0");
    chk.add_state_grid_3d(k.grid_at(1), 1, "banded3d/buf1");
    for (int b = 0; b < K::kBands; ++b) {
      chk.add_band_grid_3d(k.band(b), b, "banded3d");
    }
    out.push_back(certify<RecWrap3D<K>>(
        k, sc, chk, cfg_label("banded3d/s1", "fp64", sc.name)));
  }
}

}  // namespace

std::vector<FpReport> footprint_sweep() {
  std::vector<FpReport> out;
  sweep_const2d<RecElem64>("fp64", out);
  sweep_const2d<RecElem32>("fp32", out);
  sweep_banded2d(out);
  sweep_const3d(out);
  sweep_banded3d(out);
  return out;
}

}  // namespace analysis
}  // namespace cats
