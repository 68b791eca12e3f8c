// Tuning subsystem tests: JSON round-trip of the persistent DB, graceful
// handling of corrupt files, machine-fingerprint isolation, and the
// apply_tuning resolution order (DB hit -> explicit params; miss -> Eq. 1/2).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench_harness/machine.hpp"
#include "core/run.hpp"
#include "core/selector.hpp"
#include "kernels/const2d.hpp"
#include "tune/db.hpp"
#include "tune/json.hpp"
#include "tune/tuner.hpp"

using namespace cats;
using namespace cats::tune;

namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "cats_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

DbKey sample_key(std::string machine) {
  DbKey k;
  k.machine = std::move(machine);
  k.kernel = "const2d/s1";
  k.scheme_key = "auto";
  k.shape = "d2/n^20/w^10";
  k.threads = 2;
  return k;
}

DbEntry sample_entry() {
  DbEntry e;
  e.scheme = "CATS2";
  e.bz = 42;
  e.pilot_seconds = 0.125;
  e.analytic_seconds = 0.25;
  e.cache_bytes = 1 << 20;
  e.cs_slack = 1.2;
  return e;
}

}  // namespace

TEST(Json, ParsesScalarsArraysObjects) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x\n"},
                             "t": true, "n": null})", v));
  EXPECT_EQ(v.get_number("a"), 1.5);
  ASSERT_NE(v.get("b"), nullptr);
  EXPECT_EQ(v.get("b")->items.size(), 3u);
  EXPECT_EQ(v.get("c")->get_string("d"), "x\n");
  EXPECT_TRUE(v.get("t")->boolean);
  EXPECT_EQ(v.get("n")->kind, JsonValue::Kind::Null);
}

TEST(Json, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(json_parse("{", v));
  EXPECT_FALSE(json_parse("{\"a\": }", v));
  EXPECT_FALSE(json_parse("[1, 2", v));
  EXPECT_FALSE(json_parse("{} trailing", v));
  EXPECT_FALSE(json_parse("", v));
}

TEST(Json, EscapeRoundTrips) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  JsonValue v;
  ASSERT_TRUE(json_parse("{\"k\": " + json_quote(nasty) + "}", v));
  EXPECT_EQ(v.get_string("k"), nasty);
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(1e300), "1e+300");
}

TEST(ShapeBucket, Log2BucketsAndFormat) {
  EXPECT_EQ(log2_bucket(1), 0);
  EXPECT_EQ(log2_bucket(2), 1);
  EXPECT_EQ(log2_bucket(1 << 20), 20);
  // Sizes within a factor of two share a bucket.
  EXPECT_EQ(log2_bucket((1 << 20) + 1), log2_bucket((1 << 21) - 1));
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  EXPECT_EQ(shape_bucket(d), "d2/n^20/w^10");
}

TEST(TuneDb, RoundTripSaveLoad) {
  const std::string path = temp_path("roundtrip.json");
  const DbKey key = sample_key("machine-A");
  DbEntry e = sample_entry();
  e.run_threads = 1;

  TuneDb db;
  db.put(key, e);
  db.put(sample_key("machine-B"), sample_entry());  // second row survives too
  ASSERT_TRUE(db.save(path));

  TuneDb loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 2u);
  const DbEntry* got = loaded.find(key);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->scheme, "CATS2");
  EXPECT_EQ(got->bz, 42);
  EXPECT_EQ(got->run_threads, 1);
  EXPECT_DOUBLE_EQ(got->pilot_seconds, 0.125);
  EXPECT_DOUBLE_EQ(got->cs_slack, 1.2);
  EXPECT_EQ(got->cache_bytes, std::size_t{1} << 20);
  std::remove(path.c_str());
}

TEST(TuneDb, PutOverwritesSameKey) {
  TuneDb db;
  db.put(sample_key("m"), sample_entry());
  DbEntry e2 = sample_entry();
  e2.bz = 99;
  db.put(sample_key("m"), e2);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.find(sample_key("m"))->bz, 99);
}

TEST(TuneDb, CorruptedFileIsIgnoredGracefully) {
  const std::string path = temp_path("corrupt.json");
  for (const char* junk :
       {"{ this is not json", "", "[1,2,3]", "{\"version\": 999, \"entries\": []}",
        "{\"version\": 1, \"entries\": 7}"}) {
    write_file(path, junk);
    TuneDb db;
    EXPECT_FALSE(db.load(path)) << junk;
    EXPECT_EQ(db.size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(TuneDb, TruncatedFileIsIgnoredGracefully) {
  const std::string path = temp_path("truncated.json");
  TuneDb db;
  db.put(sample_key("m"), sample_entry());
  ASSERT_TRUE(db.save(path));
  std::ifstream in(path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  write_file(path, full.substr(0, full.size() / 2));
  TuneDb loaded;
  EXPECT_FALSE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(TuneDb, IncompleteRowsAreSkippedNotFatal) {
  const std::string path = temp_path("partial.json");
  // The last row is in the format earlier versions saved, including the
  // field of the deleted y-split teams, which this version no longer reads;
  // it keys on this machine so apply_tuning can show that its other fields
  // still apply. The two rows
  // before it carry integers that would not survive a cast (a fraction, a
  // value beyond int) and are dropped whole.
  const DomainShape d{1 << 18, 1 << 6, 1 << 6, 3};
  write_file(path, R"({"version": 1, "entries": [
    {"kernel": "x"},
    17,
    {"machine": "m", "kernel": "const2d/s1", "scheme_key": "auto",
     "shape": "d2/n^20/w^10", "threads": 2, "scheme": "CATS2", "bz": 42},
    {"machine": "m", "kernel": "const2d/s1", "scheme_key": "auto",
     "shape": "d2/n^20/w^10", "threads": 3, "scheme": "CATS1", "tz": 1.5},
    {"machine": "m", "kernel": "const2d/s1", "scheme_key": "auto",
     "shape": "d2/n^20/w^10", "threads": 4, "scheme": "CATS2",
     "bz": 4294967338},
    {"machine": )" + json_quote(bench::machine_fingerprint()) + R"(,
     "kernel": "const3d/s1", "scheme_key": "auto",
     "shape": )" + json_quote(shape_bucket(d)) + R"(, "threads": 4,
     "scheme": "CATS2", "tz": 0, "bz": 24, "bx": 0, "run_threads": 2,
     "affinity": "compact", "nt_stores": 1, "unroll_t": 2,
     "temporal_vec": 1, "team_size": 2, "mwd_group": 0,
     "prefetch_dist": 8, "pilot_seconds": 0.5, "analytic_seconds": 0.75,
     "cache_bytes": 1048576, "cs_slack": 0.8}
  ]})");
  TuneDb db;
  EXPECT_TRUE(db.load(path));
  EXPECT_EQ(db.size(), 2u);
  EXPECT_NE(db.find(sample_key("m")), nullptr);

  invalidate_cache();
  RunOptions opt;
  opt.threads = 4;
  opt.tuning = Tuning::UseDb;
  opt.tuning_db_path = path.c_str();
  const RunOptions tuned = apply_tuning(opt, "const3d/s1", d);
  EXPECT_EQ(tuned.scheme, Scheme::Cats2);
  EXPECT_EQ(tuned.bz_override, 24);
  EXPECT_EQ(tuned.threads, 2);
  EXPECT_EQ(tuned.affinity, AffinityPolicy::Compact);
  EXPECT_TRUE(tuned.nt_stores);
  EXPECT_EQ(tuned.unroll_t, 2);
  EXPECT_TRUE(tuned.temporal_vec);
  EXPECT_EQ(tuned.mwd_group, 1);
  EXPECT_EQ(tuned.prefetch_dist, 8);
  std::remove(path.c_str());
  invalidate_cache();
}

TEST(TuneDb, MissingFileLoadsEmpty) {
  TuneDb db;
  EXPECT_FALSE(db.load(temp_path("does_not_exist.json")));
  EXPECT_EQ(db.size(), 0u);
}

TEST(ApplyTuning, HitFromThisMachineAppliesEntry) {
  const std::string path = temp_path("hit.json");
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  DbKey key = sample_key(bench::machine_fingerprint());
  key.shape = shape_bucket(d);
  TuneDb db;
  db.put(key, sample_entry());
  ASSERT_TRUE(db.save(path));
  invalidate_cache();

  RunOptions opt;
  opt.threads = 2;
  opt.tuning = Tuning::UseDb;
  opt.tuning_db_path = path.c_str();
  const RunOptions tuned = apply_tuning(opt, "const2d/s1", d);
  EXPECT_EQ(tuned.scheme, Scheme::Cats2);
  EXPECT_EQ(tuned.bz_override, 42);

  // select_scheme then executes the tuned diamond verbatim.
  const KernelCosts costs{1, 2.8};
  const SchemeChoice c = select_scheme(d, costs, tuned, 100);
  EXPECT_EQ(c.scheme, Scheme::Cats2);
  EXPECT_EQ(c.bz, 42);
  std::remove(path.c_str());
  invalidate_cache();
}

TEST(ApplyTuning, ForeignMachineEntryIsNotApplied) {
  const std::string path = temp_path("foreign.json");
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  DbKey key = sample_key("some-other-machine|l2=524288|hw=64");
  key.shape = shape_bucket(d);
  TuneDb db;
  db.put(key, sample_entry());
  ASSERT_TRUE(db.save(path));
  invalidate_cache();

  RunOptions opt;
  opt.threads = 2;
  opt.tuning = Tuning::UseDb;
  opt.tuning_db_path = path.c_str();
  const RunOptions tuned = apply_tuning(opt, "const2d/s1", d);
  EXPECT_EQ(tuned.scheme, Scheme::Auto);  // untouched: fall back to Eq. 1/2
  EXPECT_EQ(tuned.bz_override, 0);
  std::remove(path.c_str());
  invalidate_cache();
}

TEST(ApplyTuning, MissesOnDifferentThreadsShapeOrKernel) {
  const std::string path = temp_path("misskeys.json");
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  DbKey key = sample_key(bench::machine_fingerprint());
  key.shape = shape_bucket(d);
  TuneDb db;
  db.put(key, sample_entry());
  ASSERT_TRUE(db.save(path));
  invalidate_cache();

  RunOptions opt;
  opt.threads = 4;  // entry was tuned at 2 threads
  opt.tuning = Tuning::UseDb;
  opt.tuning_db_path = path.c_str();
  EXPECT_EQ(apply_tuning(opt, "const2d/s1", d).scheme, Scheme::Auto);

  opt.threads = 2;
  EXPECT_EQ(apply_tuning(opt, "const3d/s1", d).scheme, Scheme::Auto);

  const DomainShape other{1 << 22, 1 << 11, 1 << 11, 2};
  EXPECT_EQ(apply_tuning(opt, "const2d/s1", other).scheme, Scheme::Auto);
  std::remove(path.c_str());
  invalidate_cache();
}

TEST(ApplyTuning, TuningOffAndExplicitSchemesBypassDb) {
  const std::string path = temp_path("off.json");
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  DbKey key = sample_key(bench::machine_fingerprint());
  key.shape = shape_bucket(d);
  key.threads = 1;
  TuneDb db;
  db.put(key, sample_entry());
  ASSERT_TRUE(db.save(path));
  invalidate_cache();

  RunOptions opt;
  opt.tuning = Tuning::Off;
  opt.tuning_db_path = path.c_str();
  EXPECT_EQ(apply_tuning(opt, "const2d/s1", d).bz_override, 0);

  opt.tuning = Tuning::UseDb;
  opt.scheme = Scheme::Cats1;  // only Scheme::Auto consults the DB
  EXPECT_EQ(apply_tuning(opt, "const2d/s1", d).scheme, Scheme::Cats1);
  EXPECT_EQ(apply_tuning(opt, "const2d/s1", d).tz_override, 0);
  std::remove(path.c_str());
  invalidate_cache();
}

TEST(ApplyTuning, CorruptDbNeverBreaksARun) {
  const std::string path = temp_path("corrupt_run.json");
  write_file(path, "{\"version\": 1, \"entries\": [{]}");
  invalidate_cache();

  ConstStar2D<1> k(64, 64, default_star2d_weights<1>());
  k.init([](int x, int y) { return 0.1 * x + 0.2 * y; }, 0.0);
  RunOptions opt;
  opt.tuning = Tuning::UseDb;
  opt.tuning_db_path = path.c_str();
  opt.cache_bytes = 1 << 20;
  const SchemeChoice c = run(k, 8, opt);  // must behave exactly like Tuning::Off
  EXPECT_NE(c.scheme, Scheme::Auto);
  std::remove(path.c_str());
  invalidate_cache();
}

TEST(Tuner, NeighborhoodSeedFirstDedupedAndClamped) {
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  TuneConfig cfg;
  const SchemeChoice seed1{Scheme::Cats1, 10, 0, 0};
  const auto c1 = neighborhood(seed1, d, 1, 100, cfg);
  ASSERT_FALSE(c1.empty());
  EXPECT_EQ(c1[0].scheme, Scheme::Cats1);
  EXPECT_EQ(c1[0].tz, 10);  // element 0 is the analytic seed
  for (const auto& c : c1) {
    if (c.scheme == Scheme::Cats1) {
      EXPECT_GE(c.tz, 1);
      EXPECT_LE(c.tz, 100);
    } else {
      EXPECT_GE(c.bz, 2);
    }
  }
  // Dedup: no two identical candidates.
  for (std::size_t i = 0; i < c1.size(); ++i)
    for (std::size_t j = i + 1; j < c1.size(); ++j)
      EXPECT_FALSE(c1[i].scheme == c1[j].scheme && c1[i].tz == c1[j].tz &&
                   c1[i].bz == c1[j].bz && c1[i].bx == c1[j].bx);

  const SchemeChoice seed2{Scheme::Cats2, 0, 40, 0};
  const auto c2 = neighborhood(seed2, d, 2, 100, cfg);
  EXPECT_EQ(c2[0].bz, 40);
  for (const auto& c : c2)
    if (c.scheme == Scheme::Cats2) EXPECT_GE(c.bz, 4);  // 2s clamp
}

TEST(Tuner, SearchFindsAWinnerAndStoresIt) {
  const std::string path = temp_path("search.json");
  std::remove(path.c_str());
  invalidate_cache();

  auto make = [] {
    ConstStar2D<1> k(128, 128, default_star2d_weights<1>());
    k.init([](int x, int y) { return 0.01 * x + 0.02 * y; }, 0.0);
    return k;
  };
  RunOptions base;
  base.threads = 1;
  base.cache_bytes = 256 * 1024;
  TuneConfig cfg;
  cfg.pilot_t = 4;
  cfg.max_pilot_t = 8;
  cfg.reps = 1;
  const TuneResult res = search_and_store(make, 16, base, path, cfg);
  EXPECT_GT(res.all.size(), 1u);
  EXPECT_GT(res.best_seconds, 0.0);
  EXPECT_LE(res.best_seconds, res.analytic_seconds);
  EXPECT_EQ(res.key.kernel, "const2d/s1");

  // The persisted entry resolves on the very next UseDb plan.
  TuneDb db;
  ASSERT_TRUE(db.load(path));
  EXPECT_EQ(db.size(), 1u);
  RunOptions opt = base;
  opt.tuning = Tuning::UseDb;
  opt.tuning_db_path = path.c_str();
  auto k = make();
  const SchemeChoice planned = plan(k, 16, opt);
  EXPECT_EQ(scheme_name(planned.scheme), res.entry.scheme);
  std::remove(path.c_str());
  invalidate_cache();
}
