// Symbolic footprint analyzer: the CI sweep matrix (DESIGN.md §15).
//
// Each config instantiates a production kernel family on a recording
// element type, emits the production plan for a small domain, and drives
// the production wave walker over it. The checker certifies every recorded
// address; on top, each run asserts it *exercised* what it claims to cover
// (stream stores observed when NT is armed, the 2D chunk stagger walked when
// CATS1 fuses) — a vacuous certification is reported as a failure, not a
// pass.

#include "analysis/footprint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
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

struct Cfg {
  int u;
  bool nt;
};

/// Full option cross for the CATS schemes. Naive plans neither chain nor
/// arm NT (nt_store_eligible excludes them), so they get two configs: the
/// plain baseline and an everything-on run that must degrade to the plain
/// paths (asserted via the nt_stores == 0 exercise check).
std::vector<Cfg> cats_cfgs() {
  std::vector<Cfg> v;
  for (int u = 0; u <= 4; ++u)
    for (int nt = 0; nt < 2; ++nt) v.push_back({u, nt != 0});
  return v;
}
std::vector<Cfg> naive_cfgs() { return {{0, false}, {4, true}}; }

RunOptions make_opt(const plan_ir::TilePlan& p, const Cfg& c) {
  RunOptions o;
  o.threads = p.threads;
  o.unroll_t = c.u;
  o.nt_stores = c.nt;
  o.prefetch_dist = 0;
  o.mwd_group = std::max(1, p.mwd_group);
  return o;
}

/// MWD plans are walked through the member-partitioned window pipeline
/// (drive_plan_*_mwd) so the checker certifies the addresses each member
/// actually touches under the band split, not just the tile union.
template <class RecK>
void drive_2d(RecK& wrap, const plan_ir::TilePlan& p, const RunOptions& o,
              FootprintChecker& chk) {
  if (p.mwd_group > 1) {
    drive_plan_2d_mwd(wrap, p, o, chk);
  } else {
    drive_plan_2d(wrap, p, o, chk);
  }
}
template <class RecK>
void drive_3d(RecK& wrap, const plan_ir::TilePlan& p, const RunOptions& o,
              FootprintChecker& chk) {
  if (p.mwd_group > 1) {
    drive_plan_3d_mwd(wrap, p, o, chk);
  } else {
    drive_plan_3d(wrap, p, o, chk);
  }
}

/// The sweep's toy domains sit far below any real cache bound; force the
/// residency certificate so nt_store_eligible arms and the NT paths are
/// exercised and checked. Whether the certificate itself is ever granted
/// wrongly is cats_plan_check's theorem, not this analyzer's.
void arm_nt(plan_ir::TilePlan& p) {
  p.certify_residency = true;
  p.clamped = false;
}

std::string cfg_label(const char* family, const char* prec, const char* sch,
                      const Cfg& c) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s %s %s u=%d nt=%d", family, prec, sch,
                c.u, c.nt ? 1 : 0);
  return buf;
}

struct SchemeCase {
  const char* name;
  plan_ir::TilePlan plan;
  bool cats;  ///< NT-eligible wavefront scheme (chains, trailing slabs)
};

void finish(FpReport& rep, const FootprintChecker& chk) {
  for (const auto& d : chk.diags()) rep.diags.push_back(d);
  rep.loads = chk.loads();
  rep.stores = chk.stores();
  rep.nt_stores = chk.nt_stores();
  rep.nt_fallback = chk.nt_fallback();
}

void exercise_nt(FpReport& rep, const FootprintChecker& chk,
                 const SchemeCase& sc, const Cfg& c) {
  if (sc.cats && c.nt && chk.nt_stores() + chk.nt_fallback() == 0) {
    rep.diags.push_back(
        {"exercise: NT armed on an eligible plan but no stream store was "
         "recorded (vacuous certification)"});
  }
  if (!sc.cats && chk.nt_stores() + chk.nt_fallback() != 0) {
    rep.diags.push_back(
        {"exercise: stream store recorded under a non-eligible (naive) "
         "plan"});
  }
}

// ---- 2D families -----------------------------------------------------------

/// The 2D scheme cases. CATS1 rows span several 4 KiB chunks (5 at fp64, 3
/// at fp32), so its fused groups walk run_fused_2d's chunk stagger; the
/// other schemes keep the 64-point toy rows.
std::vector<SchemeCase> cases_2d(int S) {
  const int nx = 64, wide_nx = 2100, ny = 20, nt_steps = 6, threads = 2;
  std::vector<SchemeCase> cases;
  cases.push_back(
      {"naive", plan_ir::emit_naive(2, nx, ny, 1, nt_steps, S, threads),
       false});
  cases.push_back(
      {"cats1",
       plan_ir::emit_cats1(2, wide_nx, ny, 1, nt_steps, S, 3, threads),
       true});
  // bz must exceed the widest vector (16 fp32 lanes on AVX-512) or diamond
  // slabs stay scalar-only and the NT exercise check turns vacuous.
  cases.push_back(
      {"cats2", plan_ir::emit_cats2(2, nx, ny, 1, nt_steps, S, 24, threads),
       true});
  // Same diamond geometry, walked through the 2-member window pipeline.
  cases.push_back(
      {"mwd", plan_ir::emit_mwd(2, nx, ny, 1, nt_steps, S, 24, 1, 2), true});
  for (auto& sc : cases) arm_nt(sc.plan);
  return cases;
}

/// CATS1 2D tiles never split a row, so a row resumed part-way can only be
/// the fused chunk stagger: it must occur whenever fusion is on and never
/// when it is off.
template <class K>
void drive_2d_case(K& k, const SchemeCase& sc, const Cfg& c,
                   FootprintChecker& chk, FpReport& rep) {
  RecWrap2D<K> wrap(k, chk);
  drive_2d(wrap, sc.plan, make_opt(sc.plan, c), chk);
  finish(rep, chk);
  exercise_nt(rep, chk, sc, c);
  if (std::strcmp(sc.name, "cats1") != 0) return;
  if (c.u != 1 && wrap.resumed_rows == 0) {
    rep.diags.push_back(
        {"exercise: CATS1 fusion on but no row resumed part-way (chunk "
         "stagger not walked)"});
  }
  if (c.u == 1 && wrap.resumed_rows != 0) {
    rep.diags.push_back(
        {"exercise: a row resumed part-way with fusion off"});
  }
}

template <class T>
void sweep_const2d(const char* prec, std::vector<FpReport>& out) {
  constexpr int S = 2;
  using K = ConstStar2D<S, T>;
  for (const auto& sc : cases_2d(S)) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      K k(static_cast<int>(sc.plan.nx), static_cast<int>(sc.plan.ny),
          default_star2d_weights<S, T>());
      FootprintChecker chk(2, S);
      chk.add_state_grid_2d(k.grid_at(0), 0, "const2d/buf0");
      chk.add_state_grid_2d(k.grid_at(1), 1, "const2d/buf1");
      FpReport rep;
      rep.config = cfg_label("const2d/s2", prec, sc.name, c);
      drive_2d_case(k, sc, c, chk, rep);
      out.push_back(std::move(rep));
    }
  }
}

void sweep_banded2d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  using K = Banded2D<S, RecElem64>;
  for (const auto& sc : cases_2d(S)) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      K k(static_cast<int>(sc.plan.nx), static_cast<int>(sc.plan.ny));
      FootprintChecker chk(2, S);
      chk.add_state_grid_2d(k.grid_at(0), 0, "banded2d/buf0");
      chk.add_state_grid_2d(k.grid_at(1), 1, "banded2d/buf1");
      for (int b = 0; b < K::kBands; ++b) {
        chk.add_band_grid_2d(k.band(b), b, "banded2d");
      }
      FpReport rep;
      rep.config = cfg_label("banded2d/s1", "fp64", sc.name, c);
      drive_2d_case(k, sc, c, chk, rep);
      out.push_back(std::move(rep));
    }
  }
}

// ---- 3D families -----------------------------------------------------------

std::vector<SchemeCase> cases_3d(int nx, int ny, int nz, int nt_steps, int S,
                                 int threads) {
  std::vector<SchemeCase> cases;
  cases.push_back(
      {"naive", plan_ir::emit_naive(3, nx, ny, nz, nt_steps, S, threads),
       false});
  cases.push_back(
      {"cats1", plan_ir::emit_cats1(3, nx, ny, nz, nt_steps, S, 2, threads),
       true});
  cases.push_back(
      {"cats2", plan_ir::emit_cats2(3, nx, ny, nz, nt_steps, S, 4, threads),
       true});
  cases.push_back({"cats3", plan_ir::emit_cats3(nx, ny, nz, nt_steps, S, 4, 8,
                                                threads),
                   true});
  cases.push_back(
      {"mwd", plan_ir::emit_mwd(3, nx, ny, nz, nt_steps, S, 4, 1, 2), true});
  for (auto& sc : cases) arm_nt(sc.plan);
  return cases;
}

template <class K>
void drive_3d_case(K& k, const SchemeCase& sc, const Cfg& c,
                   FootprintChecker& chk, FpReport& rep) {
  RecWrap3D<K> wrap(k, chk);
  drive_3d(wrap, sc.plan, make_opt(sc.plan, c), chk);
  finish(rep, chk);
  exercise_nt(rep, chk, sc, c);
}

void sweep_const3d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  const int nx = 24, ny = 12, nz = 12, nt_steps = 4, threads = 2;
  using K = ConstStar3D<S, RecElem64>;
  for (const auto& sc : cases_3d(nx, ny, nz, nt_steps, S, threads)) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      K k(nx, ny, nz, default_star3d_weights<S, RecElem64>());
      FootprintChecker chk(3, S);
      chk.add_state_grid_3d(k.grid_at(0), 0, "const3d/buf0");
      chk.add_state_grid_3d(k.grid_at(1), 1, "const3d/buf1");
      FpReport rep;
      rep.config = cfg_label("const3d/s1", "fp64", sc.name, c);
      drive_3d_case(k, sc, c, chk, rep);
      out.push_back(std::move(rep));
    }
  }
}

void sweep_banded3d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  const int nx = 24, ny = 12, nz = 12, nt_steps = 4, threads = 2;
  using K = Banded3D<S, RecElem64>;
  for (const auto& sc : cases_3d(nx, ny, nz, nt_steps, S, threads)) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      K k(nx, ny, nz);
      FootprintChecker chk(3, S);
      chk.add_state_grid_3d(k.grid_at(0), 0, "banded3d/buf0");
      chk.add_state_grid_3d(k.grid_at(1), 1, "banded3d/buf1");
      for (int b = 0; b < K::kBands; ++b) {
        chk.add_band_grid_3d(k.band(b), b, "banded3d");
      }
      FpReport rep;
      rep.config = cfg_label("banded3d/s1", "fp64", sc.name, c);
      drive_3d_case(k, sc, c, chk, rep);
      out.push_back(std::move(rep));
    }
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
