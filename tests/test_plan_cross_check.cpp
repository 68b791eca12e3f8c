// Cross-check: the static schedule verifier (plan/verify.hpp) against the
// dynamic dependence oracle (check/oracle.hpp) on the same plans.
//
// A statically-clean plan must run oracle-clean. For a tampered plan (one
// recorded sync edge deleted) every violation the oracle observes at runtime
// must map to a (consumer tile, producer tile) pair the verifier already
// flagged as DepUncovered — dynamic violations are a subset of the static
// prediction. The oracle only believes *recorded* happens-before edges
// (never timing), and an acquire credits only the release that reached its
// bound, so a producer owner running ahead cannot hide the deleted edge.
//
// The last sweep ties run() to emit_plan: for every scheme, run() must
// execute exactly the tiles emit_plan emits for the same request, with
// bit-exact results.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/oracle.hpp"
#include "core/options.hpp"
#include "core/reference.hpp"
#include "core/run.hpp"
#include "core/stats.hpp"
#include "helpers.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"
#include "plan/emit.hpp"
#include "plan/kernel_walk.hpp"
#include "plan/verify.hpp"

namespace {

using cats::plan_ir::Slab;
using cats::plan_ir::TilePlan;
using cats::plan_ir::for_each_slab;

// A RowKernel2D that computes nothing: the oracle tracks the schedule via
// note_row / sync callbacks, so no field data is needed to cross-check.
class NoopKernel2D {
 public:
  NoopKernel2D(int w, int h, int s) : w_(w), h_(h), s_(s) {}
  int width() const { return w_; }
  int height() const { return h_; }
  int slope() const { return s_; }
  double flops_per_point() const { return 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }
  void copy_result_to(std::vector<double>& out, int) {
    out.assign(static_cast<std::size_t>(w_) * h_, 0.0);
  }
  void process_row(int, int, int, int) {}
  void process_row_scalar(int, int, int, int) {}

 private:
  int w_, h_, s_;
};
static_assert(cats::RowKernel2D<NoopKernel2D>);

/// Tile whose slab set contains point (x, y) at timestep t; -1 if none.
std::int32_t tile_at(const TilePlan& p, int t, std::int64_t x,
                     std::int64_t y) {
  for (std::size_t i = 0; i < p.tiles.size(); ++i) {
    std::int32_t hit = -1;
    for_each_slab(p, p.tiles[i], [&](const Slab& sl) {
      if (sl.t == t && x >= sl.box.xlo && x <= sl.box.xhi &&
          y >= sl.box.ylo && y <= sl.box.yhi) {
        hit = static_cast<std::int32_t>(i);
      }
    });
    if (hit >= 0) return hit;
  }
  return -1;
}

/// Map a dynamic violation to the (consumer point, producer point) of the
/// dependence it breaks, in the static verifier's orientation: the consumer
/// computes at the later timestep.
struct DepWitness {
  int consumer_t, producer_t;
  std::int64_t cx, cy, px, py;
  bool is_pair;  ///< false for kinds that are not dependence pairs
};

DepWitness map_violation(const cats::check::Violation& v) {
  using cats::check::ViolationKind;
  switch (v.kind) {
    case ViolationKind::NotAdvanced:  // own history not at expected_t:
      // t-1 (opposite-parity slot) or t-2 (same-parity slot), so the
      // producer is whichever tile computed the point at expected_t.
      return {v.t, v.expected_t, v.x, v.y, v.nx, v.ny, true};
    case ViolationKind::MissingDep:       // neighbor not yet at t-1
    case ViolationKind::UnorderedRead:    // neighbor at t-1 but no HB edge
      return {v.t, v.t - 1, v.x, v.y, v.nx, v.ny, true};
    case ViolationKind::FutureOverwrite:  // neighbor already ran found_t:
      // the *neighbor's* compute is the consumer that failed to wait.
      return {v.found_t, v.t, v.nx, v.ny, v.x, v.y, true};
    default:
      return {0, 0, 0, 0, 0, 0, false};
  }
}

/// Run every scheme (and Auto) through run() at threads = 3 and both cache
/// tenancies: the tiles it reports processed must be the first_in_group
/// tiles of emit_plan for the same request, and the result bit-exact.
template <class MakeKernel>
void expect_run_executes_emit_plan(MakeKernel&& make, int T,
                                   const char* label) {
  auto ref = make();
  cats::run_reference(ref, T);
  std::vector<double> want;
  ref.copy_result_to(want, T);

  using cats::Scheme;
  for (Scheme s : {Scheme::Auto, Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                   Scheme::Cats3, Scheme::Mwd, Scheme::PlutoLike}) {
    for (int tenants : {1, 2}) {
      cats::RunOptions opt;
      opt.scheme = s;
      opt.threads = 3;
      opt.cache_bytes = 32 * 1024;
      opt.cache_tenants = tenants;
      if (s == Scheme::Mwd) opt.mwd_group = 3;  // one group of three
      const std::string what = std::string(label) + " " +
                               cats::scheme_name(s) +
                               " tenants=" + std::to_string(tenants);
      auto k = make();
      const TilePlan p =
          cats::plan_ir::emit_plan(cats::plan_request(k, T, opt));
      std::int64_t groups = 0;
      for (const cats::plan_ir::Tile& t : p.tiles) groups += t.first_in_group;

      cats::RunStats st;
      opt.stats = &st;
      cats::run(k, T, opt);
      EXPECT_EQ(st.tiles_processed.load(), groups) << what;
      std::vector<double> got;
      k.copy_result_to(got, T);
      cats::test::expect_bit_equal(got, want, what.c_str());
    }
  }
}

}  // namespace

TEST(PlanCrossCheck, RunExecutesEmitPlanForEveryScheme) {
  expect_run_executes_emit_plan(
      [] {
        cats::ConstStar2D<1> k(61, 47, cats::default_star2d_weights<1>());
        k.init(cats::test::init2d, 0.25);
        return k;
      },
      13, "2d");
  expect_run_executes_emit_plan(
      [] {
        cats::ConstStar3D<1> k(19, 15, 23, cats::default_star3d_weights<1>());
        k.init(cats::test::init3d, 0.25);
        return k;
      },
      9, "3d");
}

TEST(PlanCrossCheck, StaticallyCleanPlanRunsOracleClean) {
  const int W = 48, H = 36, T = 6, threads = 2;
  const TilePlan p =
      cats::plan_ir::emit_cats2(2, W, H, 1, T, 1, /*bz=*/6, threads);
  const cats::plan_ir::VerifyReport rep = cats::plan_ir::verify_plan(p);
  ASSERT_TRUE(rep.ok()) << rep.summary();

  NoopKernel2D k(W, H, 1);
  cats::check::DepOracle oracle(W, H, 1, 1, threads);
  cats::RunOptions opt;
  opt.threads = threads;
  opt.oracle = &oracle;
  cats::plan_ir::run_plan(k, p, opt);
  oracle.check_complete(T);

  EXPECT_TRUE(oracle.ok());
  if (!oracle.ok()) oracle.print_report(stderr);
  EXPECT_GT(oracle.points_checked(), 0);
  EXPECT_GT(oracle.release_count() + oracle.barrier_count(), 0);
}

TEST(PlanCrossCheck, DynamicViolationsAreSubsetOfStaticPrediction) {
  const int W = 40, H = 30, T = 6, threads = 2;
  const TilePlan clean =
      cats::plan_ir::emit_cats2(2, W, H, 1, T, 1, /*bz=*/6, threads);
  ASSERT_TRUE(cats::plan_ir::verify_plan(clean).ok());

  // Delete the first recorded sync edge whose removal the verifier can see:
  // cross-owner edges are load-bearing; same-owner ones are shadowed by
  // program order.
  TilePlan tampered = clean;
  cats::plan_ir::VerifyReport rep;
  bool found = false;
  for (std::size_t e = 0; e < clean.edges.size() && !found; ++e) {
    tampered.edges = clean.edges;
    tampered.edges.erase(tampered.edges.begin() +
                         static_cast<std::ptrdiff_t>(e));
    rep = cats::plan_ir::verify_plan(tampered);
    found = !rep.ok();
  }
  ASSERT_TRUE(found) << "no sync edge in the plan is load-bearing?";

  std::set<std::pair<std::int32_t, std::int32_t>> predicted;
  for (const cats::plan_ir::Diag& d : rep.diags) {
    if (d.kind == cats::plan_ir::DiagKind::DepUncovered) {
      predicted.insert({d.tile_a, d.tile_b});
    }
  }
  ASSERT_FALSE(predicted.empty());

  // Run the tampered plan: the executor simply skips the missing wait, so
  // the schedule really does race (logically — the kernel touches no data).
  NoopKernel2D k(W, H, 1);
  cats::check::DepOracle oracle(W, H, 1, 1, threads);
  cats::RunOptions opt;
  opt.threads = threads;
  opt.oracle = &oracle;
  cats::plan_ir::run_plan(k, tampered, opt);

  // The oracle trusts only recorded edges, so the deleted edge is invisible
  // to it no matter how the threads interleave: it must flag the pair.
  EXPECT_GT(oracle.violation_count(), 0);

  for (const cats::check::Violation& v : oracle.violations()) {
    const DepWitness w = map_violation(v);
    if (!w.is_pair) continue;
    const std::int32_t consumer =
        tile_at(tampered, w.consumer_t, w.cx, w.cy);
    const std::int32_t producer =
        tile_at(tampered, w.producer_t, w.px, w.py);
    ASSERT_GE(consumer, 0) << v.to_string();
    ASSERT_GE(producer, 0) << v.to_string();
    EXPECT_TRUE(predicted.count({consumer, producer}))
        << "dynamic violation outside the static prediction: "
        << v.to_string() << " -> tiles (" << consumer << ", " << producer
        << ")";
  }
}
