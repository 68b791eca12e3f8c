// Stencil-service tests: wire protocol round-trip, fair-share queue
// semantics, NUMA shard derivation, the cross-shard halo schedule
// (emit + verify + bit-exact execution against an unsharded run), the
// multi-tenant reduced-Z residency certificate, and the full UDS server
// lifecycle including drain-under-load.

#include <gtest/gtest.h>

#include <unistd.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/selector.hpp"
#include "plan/emit.hpp"
#include "plan/shard.hpp"
#include "plan/verify.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/halo.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "sysinfo/shards.hpp"

namespace cats::serve {
namespace {

using plan_ir::DiagKind;
using plan_ir::ShardCell;
using plan_ir::ShardSchedule;
using plan_ir::VerifyReport;

bool has_diag(const VerifyReport& rep, DiagKind kind) {
  for (const auto& d : rep.diags) {
    if (d.kind == kind) return true;
  }
  return false;
}

JobRequest job2d(std::int64_t nx, std::int64_t ny, int t) {
  JobRequest rq;
  rq.kernel = "const2d";
  rq.nx = nx;
  rq.ny = ny;
  rq.t_steps = t;
  rq.seed = 42;
  return rq;
}

JobRequest job3d(std::int64_t nx, std::int64_t ny, std::int64_t nz, int t) {
  JobRequest rq;
  rq.kernel = "const3d";
  rq.nx = nx;
  rq.ny = ny;
  rq.nz = nz;
  rq.t_steps = t;
  rq.seed = 7;
  return rq;
}

// --- Protocol ---------------------------------------------------------------

TEST(ServeProtocol, SubmitRoundTrip) {
  Request rq;
  rq.op = Request::Op::Submit;
  rq.job = job3d(24, 16, 32, 9);
  rq.job.tenant = "alice \"quoted\"";
  rq.job.threads = 3;
  rq.job.scheme = Scheme::Cats2;
  rq.job.nt_stores = true;
  rq.job.split = JobRequest::Split::Force;

  Request back;
  std::string err;
  ASSERT_TRUE(parse_request(encode_request(rq), &back, &err)) << err;
  EXPECT_EQ(back.op, Request::Op::Submit);
  EXPECT_EQ(back.job.tenant, rq.job.tenant);
  EXPECT_EQ(back.job.kernel, "const3d");
  EXPECT_EQ(back.job.nx, 24);
  EXPECT_EQ(back.job.nz, 32);
  EXPECT_EQ(back.job.t_steps, 9);
  EXPECT_EQ(back.job.seed, 7u);
  EXPECT_EQ(back.job.threads, 3);
  EXPECT_EQ(back.job.scheme, Scheme::Cats2);
  EXPECT_TRUE(back.job.nt_stores);
  EXPECT_EQ(back.job.split, JobRequest::Split::Force);

  // The largest seed the double-based wire parser carries exactly.
  rq.job.seed = (std::uint64_t{1} << 53) - 1;
  ASSERT_TRUE(parse_request(encode_request(rq), &back, &err)) << err;
  EXPECT_EQ(back.job.seed, (std::uint64_t{1} << 53) - 1);
}

TEST(ServeProtocol, ResultRoundTrip) {
  JobResult r;
  r.status = JobStatus::Done;
  r.scheme = "CATS1";
  r.tz = 12;
  r.shards_used = 2;
  r.threads = 4;
  r.cache_tenants = 2;
  r.seconds = 0.5;
  r.mlups = 123.25;
  r.model_dram_bytes = 1e9;
  r.checksum = 0xDEADBEEFCAFEF00DULL;
  r.sample = 0.25;

  JobResult back;
  std::string err;
  ASSERT_TRUE(parse_result(encode_result(r), &back, &err)) << err;
  EXPECT_EQ(back.status, JobStatus::Done);
  EXPECT_EQ(back.scheme, "CATS1");
  EXPECT_EQ(back.tz, 12);
  EXPECT_EQ(back.shards_used, 2);
  EXPECT_EQ(back.cache_tenants, 2);
  EXPECT_EQ(back.checksum, 0xDEADBEEFCAFEF00DULL);
  EXPECT_DOUBLE_EQ(back.mlups, 123.25);
}

TEST(ServeProtocol, RejectsMalformedAndOversized) {
  Request rq;
  std::string err;
  EXPECT_FALSE(parse_request("not json", &rq, &err));
  EXPECT_FALSE(parse_request(R"({"op":"warp"})", &rq, &err));
  EXPECT_FALSE(parse_request(
      R"({"op":"submit","kernel":"fdtd","nx":8,"ny":8})", &rq, &err));
  // Point cap: 2^13 * 2^13 * 2^13 = 2^39 points >> kMaxPoints.
  EXPECT_FALSE(parse_request(
      R"({"op":"submit","kernel":"const3d","nx":8192,"ny":8192,"nz":8192})",
      &rq, &err));
  EXPECT_NE(err.find("cap"), std::string::npos);

  // Integer fields that a cast would truncate, wrap or round are refused,
  // and the error names the field.
  const std::pair<const char*, const char*> bad_ints[] = {
      {"t", R"("t":4294967297)"},
      {"threads", R"("threads":4294967300)"},
      {"mwd_group", R"("mwd_group":4294967298)"},
      {"cache_bytes", R"("cache_bytes":-1)"},
      {"nx", R"("nx":64.9)"},
      {"seed", R"("seed":9007199254740993)"},
      {"nx", R"("nx":1e300)"},
  };
  for (const auto& [field, member] : bad_ints) {
    std::string line = R"({"op":"submit","kernel":"const2d","ny":64,)";
    if (std::string(field) != "nx") line += R"("nx":64,)";
    line += member;
    line += "}";
    err.clear();
    EXPECT_FALSE(parse_request(line, &rq, &err)) << line;
    EXPECT_NE(err.find(std::string("'") + field + "'"), std::string::npos)
        << line << ": " << err;
  }
}

// --- Fair-share queue -------------------------------------------------------

TEST(ServeQueue, BackpressureAtCapacity) {
  FairQueue q(2);
  QueuedJob a;
  a.req = job2d(8, 8, 1);
  EXPECT_TRUE(q.push(std::move(a)));
  QueuedJob b;
  b.req = job2d(8, 8, 1);
  EXPECT_TRUE(q.push(std::move(b)));
  QueuedJob c;
  c.req = job2d(8, 8, 1);
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(std::move(c)));
  EXPECT_EQ(q.size(), 2u);
}

TEST(ServeQueue, FairShareServesLeastServedTenant) {
  FairQueue q(8);
  const auto push = [&](const char* tenant, std::int64_t cost) {
    QueuedJob j;
    j.req = job2d(8, 8, 1);
    j.req.tenant = tenant;
    j.cost = cost;
    ASSERT_TRUE(q.push(std::move(j)));
  };
  push("a", 100);
  push("a", 100);
  push("b", 1);
  push("b", 1);

  // Tie at zero served: earliest arrival (a). Then b is behind and is served
  // twice before a's second large job.
  EXPECT_EQ(q.pop()->req.tenant, "a");
  EXPECT_EQ(q.pop()->req.tenant, "b");
  EXPECT_EQ(q.pop()->req.tenant, "b");
  EXPECT_EQ(q.pop()->req.tenant, "a");
  EXPECT_FALSE(q.pop().has_value());

  const auto shares = q.shares();
  ASSERT_EQ(shares.size(), 2u);
  for (const auto& s : shares) {
    if (s.tenant == "a") EXPECT_DOUBLE_EQ(s.served_cost, 200.0);
    if (s.tenant == "b") EXPECT_EQ(s.jobs_served, 2);
  }
}

TEST(ServeQueue, PopIfSkipsIneligible) {
  FairQueue q(4);
  QueuedJob j1;
  j1.req = job2d(8, 8, 1);
  j1.req.kernel = "const2d";
  ASSERT_TRUE(q.push(std::move(j1)));
  QueuedJob j2;
  j2.req = job3d(8, 8, 8, 1);
  ASSERT_TRUE(q.push(std::move(j2)));

  auto got = q.pop_if(
      [](const JobRequest& r) { return r.kernel == "const3d"; });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->req.kernel, "const3d");
  EXPECT_EQ(q.size(), 1u);
}

// --- Shard derivation -------------------------------------------------------

TEST(ServeShards, TwoNodeTopologySplitsByNode) {
  Topology topo;
  topo.known = true;
  topo.smt = true;
  topo.n_nodes = 2;
  topo.n_cores = 4;
  topo.n_packages = 2;
  // cpu, core, package, node, smt_sibling: two nodes, two cores each, SMT.
  topo.cpus = {{0, 0, 0, 0, false}, {1, 1, 0, 0, false},
               {2, 0, 1, 1, false}, {3, 1, 1, 1, false},
               {4, 0, 0, 0, true},  {5, 1, 0, 0, true},
               {6, 0, 1, 1, true},  {7, 1, 1, 1, true}};

  const ShardPlan plan = derive_shards(topo);
  ASSERT_EQ(plan.size(), 2);
  EXPECT_TRUE(plan.pinned);
  EXPECT_EQ(plan.shards[0].node, 0);
  EXPECT_EQ(plan.shards[1].node, 1);
  // Physical cores first, the node's SMT siblings after.
  EXPECT_EQ(plan.shards[0].cpus, (std::vector<int>{0, 1, 4, 5}));
  EXPECT_EQ(plan.shards[1].cpus, (std::vector<int>{2, 3, 6, 7}));
  EXPECT_EQ(plan.shards[0].threads, 2);  // one per physical core

  // Forced split of one node's cores into two shards.
  const ShardPlan four = derive_shards(topo, 4, 1);
  ASSERT_EQ(four.size(), 4);
  EXPECT_EQ(four.shards[0].cpus, (std::vector<int>{0, 4}));
  EXPECT_EQ(four.shards[3].cpus, (std::vector<int>{3, 7}));
}

TEST(ServeShards, UnknownTopologyDegradesToUnpinned) {
  Topology topo;  // known == false
  const ShardPlan plan = derive_shards(topo, 3);
  ASSERT_EQ(plan.size(), 3);
  EXPECT_FALSE(plan.pinned);
  for (const ShardSpec& s : plan.shards) {
    EXPECT_TRUE(s.cpus.empty());
    EXPECT_GE(s.threads, 1);
  }
}

// --- Shard schedule: emit + verify ------------------------------------------

TEST(ShardSchedule, EmitVerifiesCleanAcrossShapes) {
  for (const int shards : {1, 2, 3, 4}) {
    for (const int t : {0, 1, 4, 11, 32}) {
      const ShardSchedule s =
          plan_ir::emit_shard_schedule(96, shards, t, 1, 8);
      const VerifyReport rep = plan_ir::verify_shard_schedule(s);
      EXPECT_TRUE(rep.ok()) << "shards=" << shards << " T=" << t << ": "
                            << rep.summary();
      EXPECT_EQ(s.shards(), shards);
      int sum = 0;
      for (const int b : s.block_steps) sum += b;
      EXPECT_EQ(sum, t);
    }
  }
  // Infeasible shard counts clamp instead of emitting a broken protocol.
  const ShardSchedule tiny = plan_ir::emit_shard_schedule(7, 8, 4, 1, 8);
  EXPECT_LE(tiny.shards(), plan_ir::max_feasible_shards(7, 1));
  EXPECT_TRUE(plan_ir::verify_shard_schedule(tiny).ok());
}

TEST(ShardSchedule, VerifierCatchesTampering) {
  const ShardSchedule good = plan_ir::emit_shard_schedule(64, 2, 12, 1, 4);
  ASSERT_TRUE(plan_ir::verify_shard_schedule(good).ok());
  ASSERT_EQ(good.blocks(), 3);

  {  // Dropped flow-dependence wait on an exchange step.
    ShardSchedule bad = good;
    bad.program[0][1].waits.clear();
    const VerifyReport rep = plan_ir::verify_shard_schedule(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::DepUncovered));
  }
  {  // Dropped anti-dependence wait on a compute step.
    ShardSchedule bad = good;
    bad.program[1][2].waits.clear();
    const VerifyReport rep = plan_ir::verify_shard_schedule(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::DepUncovered));
  }
  {  // Halo too shallow for the block depth.
    ShardSchedule bad = good;
    bad.halo = 1;
    const VerifyReport rep = plan_ir::verify_shard_schedule(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::WavefrontOverflow));
  }
  {  // Odd non-final block breaks the parity-0 exchange invariant.
    ShardSchedule bad = good;
    bad.block_steps[0] = 3;
    const VerifyReport rep = plan_ir::verify_shard_schedule(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::MalformedPlan));
  }
  {  // Owned intervals no longer partition the extent.
    ShardSchedule bad = good;
    bad.owned[1].lo += 1;
    const VerifyReport rep = plan_ir::verify_shard_schedule(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::CoverageGap));
  }
  {  // Unsatisfiable wait deadlocks the simulated protocol.
    ShardSchedule bad = good;
    bad.program[0][0].waits.push_back({ShardCell::Computed, 1, 100});
    const VerifyReport rep = plan_ir::verify_shard_schedule(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::StuckWait));
  }
}

// --- Halo-split execution: bit-exact vs unsharded ---------------------------

TEST(ServeHalo, Split2DBitExactAcrossShardCounts) {
  const JobRequest rq = job2d(52, 96, 11);
  ExecEnv env;
  env.threads = 2;
  std::vector<double> ref;
  const JobResult direct = execute_job(rq, env, &ref);
  ASSERT_EQ(direct.status, JobStatus::Done) << direct.error;

  for (const int shards : {2, 3}) {
    const ShardSchedule sched =
        plan_ir::emit_shard_schedule(rq.ny, shards, rq.t_steps, 1, 4);
    ASSERT_TRUE(plan_ir::verify_shard_schedule(sched).ok());
    ASSERT_EQ(sched.shards(), shards);
    const std::vector<ShardSlot> slots(
        static_cast<std::size_t>(shards), ShardSlot{{}, 1});
    std::vector<double> got;
    const JobResult split = run_split_job(rq, sched, slots, env, &got);
    ASSERT_EQ(split.status, JobStatus::Done) << split.error;
    EXPECT_EQ(split.shards_used, shards);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(got, ref) << "sharded grid differs (shards=" << shards << ")";
    EXPECT_EQ(split.checksum, direct.checksum);
  }
}

TEST(ServeHalo, Split3DBitExactWithOddFinalBlock) {
  const JobRequest rq = job3d(20, 16, 48, 7);  // blocks 4 + 3 (odd tail)
  ExecEnv env;
  env.threads = 1;
  std::vector<double> ref;
  const JobResult direct = execute_job(rq, env, &ref);
  ASSERT_EQ(direct.status, JobStatus::Done) << direct.error;

  const ShardSchedule sched =
      plan_ir::emit_shard_schedule(rq.nz, 2, rq.t_steps, 1, 4);
  ASSERT_TRUE(plan_ir::verify_shard_schedule(sched).ok());
  const std::vector<ShardSlot> slots(2, ShardSlot{{}, 1});
  std::vector<double> got;
  const JobResult split = run_split_job(rq, sched, slots, env, &got);
  ASSERT_EQ(split.status, JobStatus::Done) << split.error;
  EXPECT_EQ(got, ref);
  EXPECT_EQ(split.checksum, direct.checksum);
}

TEST(ServeHalo, RefusesUnverifiableSchedule) {
  const JobRequest rq = job2d(16, 64, 8);
  ShardSchedule sched = plan_ir::emit_shard_schedule(64, 2, 8, 1, 4);
  sched.program[0][1].waits.clear();  // drop a flow dependence
  ExecEnv env;
  const std::vector<ShardSlot> slots(2, ShardSlot{{}, 1});
  const JobResult r = run_split_job(rq, sched, slots, env);
  EXPECT_EQ(r.status, JobStatus::Failed);
  EXPECT_NE(r.error.find("verification"), std::string::npos);
}

// --- Multi-tenant cache partitioning ----------------------------------------

TEST(ServeTenants, ReducedZCertifiedAndBitExact) {
  RunOptions opt;
  opt.cache_bytes = 1 << 20;
  opt.cache_tenants = 2;
  EXPECT_EQ(resolve_cache_bytes(opt), (1u << 20) / 2);

  // The emitted plan records the divisor, sizes Eq. 1/2 against Z/tenants,
  // and the verifier's residency certificate holds at the reduced Z.
  plan_ir::PlanRequest prq;
  prq.dims = 2;
  prq.nx = 512;
  prq.ny = 512;
  prq.T = 32;
  prq.opt.threads = 2;
  prq.opt.cache_bytes = 1 << 20;

  const plan_ir::TilePlan whole = plan_ir::emit_plan(prq);
  prq.opt.cache_tenants = 2;
  const plan_ir::TilePlan half = plan_ir::emit_plan(prq);

  EXPECT_EQ(half.cache_tenants, 2);
  EXPECT_EQ(half.cache_bytes, whole.cache_bytes / 2);
  EXPECT_TRUE(plan_ir::verify_plan(half).ok());
  if (whole.scheme == Scheme::Cats1 && half.scheme == Scheme::Cats1)
    EXPECT_LE(half.tz, whole.tz);

  // Partitioning the cache never changes values, only tile shapes.
  const JobRequest rq = job2d(48, 64, 6);
  ExecEnv one;
  one.threads = 1;
  ExecEnv two = one;
  two.cache_tenants = 2;
  const JobResult r1 = execute_job(rq, one);
  const JobResult r2 = execute_job(rq, two);
  ASSERT_EQ(r1.status, JobStatus::Done);
  ASSERT_EQ(r2.status, JobStatus::Done);
  EXPECT_EQ(r2.cache_tenants, 2);
  EXPECT_EQ(r1.checksum, r2.checksum);
}

// --- Scheduler --------------------------------------------------------------

// Scheduler tests run against a canned unknown topology: derive_shards then
// honors the requested shard count as unpinned groups regardless of how many
// cores the CI machine actually has.
const Topology kNoTopo;

TEST(ServeScheduler, CompletesJobsAndRecordsStats) {
  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.threads_per_shard = 1;
  cfg.coresident = 2;
  Scheduler sched(cfg, &kNoTopo);

  const JobRequest rq = job2d(32, 40, 5);
  ExecEnv env;
  env.threads = 1;
  const JobResult direct = execute_job(rq, env);

  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 3; ++i) {
    JobRequest j = rq;
    j.tenant = i == 0 ? "alice" : "bob";
    futs.push_back(sched.submit(std::move(j)));
  }
  for (auto& f : futs) {
    const JobResult r = f.get();
    ASSERT_EQ(r.status, JobStatus::Done) << r.error;
    EXPECT_EQ(r.checksum, direct.checksum);
  }
  sched.stop();

  const SchedulerStats st = sched.stats();
  ASSERT_EQ(st.shards.size(), 1u);
  EXPECT_EQ(st.shards[0].jobs, 3);
  EXPECT_GT(st.shards[0].lups, 0.0);
  EXPECT_GT(st.shards[0].model_dram_bytes, 0.0);
  bool saw_bob = false;
  for (const auto& t : st.tenants) {
    if (t.tenant == "bob") {
      saw_bob = true;
      EXPECT_EQ(t.jobs_served, 2);
    }
  }
  EXPECT_TRUE(saw_bob);
}

TEST(ServeScheduler, SplitJobUsesAllShards) {
  SchedulerConfig cfg;
  cfg.shards = 2;  // unknown-per-test topology: unpinned thread groups
  cfg.threads_per_shard = 1;
  cfg.split_min_points = 1;
  Scheduler sched(cfg, &kNoTopo);
  ASSERT_EQ(sched.shard_plan().size(), 2);

  JobRequest rq = job2d(24, 64, 6);
  rq.split = JobRequest::Split::Force;
  EXPECT_TRUE(sched.would_split(rq));

  ExecEnv env;
  env.threads = 1;
  const JobResult direct = execute_job(rq, env);

  const JobResult r = sched.submit(rq).get();
  ASSERT_EQ(r.status, JobStatus::Done) << r.error;
  EXPECT_EQ(r.shards_used, 2);
  EXPECT_EQ(r.checksum, direct.checksum);

  sched.stop();  // join executors so the split is recorded in the stats
  const SchedulerStats st = sched.stats();
  std::int64_t splits = 0;
  for (const auto& s : st.shards) splits += s.splits;
  EXPECT_EQ(splits, 1);
}

TEST(ServeScheduler, ZeroCapacityRejectsWithBackpressure) {
  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.threads_per_shard = 1;
  cfg.queue_capacity = 0;
  Scheduler sched(cfg, &kNoTopo);
  const JobResult r = sched.submit(job2d(8, 8, 1)).get();
  EXPECT_EQ(r.status, JobStatus::Rejected);
  EXPECT_NE(r.error.find("backpressure"), std::string::npos);
}

TEST(ServeScheduler, DrainUnderLoadCompletesQueuedJobs) {
  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.threads_per_shard = 1;
  cfg.coresident = 1;
  Scheduler sched(cfg, &kNoTopo);

  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(sched.submit(job2d(32, 32, 4)));
  sched.drain();
  // Admission is closed immediately...
  const JobResult late = sched.submit(job2d(8, 8, 1)).get();
  EXPECT_EQ(late.status, JobStatus::Rejected);
  // ...but everything admitted before the drain still completes.
  for (auto& f : futs) EXPECT_EQ(f.get().status, JobStatus::Done);
  sched.stop();
}

TEST(ServeScheduler, CancelQueuedResolvesCancelled) {
  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.threads_per_shard = 1;
  Scheduler sched(cfg, &kNoTopo);
  // A heavier head job keeps later submissions queued long enough that the
  // cancel usually catches some; every future must resolve terminally
  // either way.
  std::vector<std::future<JobResult>> futs;
  futs.push_back(sched.submit(job2d(128, 128, 24)));
  for (int i = 0; i < 6; ++i) futs.push_back(sched.submit(job2d(64, 64, 8)));
  sched.drain();
  sched.cancel_queued();
  sched.stop();
  for (auto& f : futs) {
    const JobStatus st = f.get().status;
    EXPECT_TRUE(st == JobStatus::Done || st == JobStatus::Cancelled);
  }
}

// --- End-to-end UDS server --------------------------------------------------

std::string test_socket_path() {
  return "/tmp/cats_test_serve_" + std::to_string(::getpid()) + ".sock";
}

TEST(ServeServer, EndToEndSubmitStatsShutdown) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.sched.shards = 1;
  cfg.sched.threads_per_shard = 1;
  cfg.sched.coresident = 2;
  Server server(std::move(cfg));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const JobRequest rq2 = job2d(40, 48, 6);
  const JobRequest rq3 = job3d(12, 10, 24, 4);
  ExecEnv env;
  env.threads = 1;
  const JobResult local2 = execute_job(rq2, env);
  const JobResult local3 = execute_job(rq3, env);

  // Two concurrent tenants, each on its own connection.
  auto tenant_run = [&](const char* name, const JobRequest& rq,
                        const JobResult& want) {
    Client c;
    std::string cerr;
    ASSERT_TRUE(c.connect(server.socket_path(), &cerr)) << cerr;
    ASSERT_TRUE(c.ping(&cerr)) << cerr;
    JobRequest mine = rq;
    mine.tenant = name;
    const auto r = c.submit(mine, &cerr);
    ASSERT_TRUE(r.has_value()) << cerr;
    ASSERT_EQ(r->status, JobStatus::Done) << r->error;
    EXPECT_EQ(r->checksum, want.checksum);
  };
  std::thread t2(tenant_run, "alice", rq2, local2);
  std::thread t3(tenant_run, "bob", rq3, local3);
  t2.join();
  t3.join();

  Client c;
  ASSERT_TRUE(c.connect(server.socket_path(), &err)) << err;
  std::string stats;
  ASSERT_TRUE(c.stats(&stats, &err)) << err;
  EXPECT_NE(stats.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(stats.find("\"mlups\""), std::string::npos);
  EXPECT_NE(stats.find("\"alice\""), std::string::npos);

  ASSERT_TRUE(c.shutdown_server(false, &err)) << err;
  server.wait();
  EXPECT_TRUE(server.draining());
}

TEST(ServeServer, DrainUnderLoadOverTheWire) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path() + ".drain";
  cfg.sched.shards = 1;
  cfg.sched.threads_per_shard = 1;
  Server server(std::move(cfg));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // All clients connect BEFORE the drain (draining stops the accept loop),
  // then submit concurrently while the drain lands. Jobs admitted before it
  // complete Done; those arriving after come back typed Rejected — either
  // way every client gets exactly one terminal answer and the server exits.
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    auto c = std::make_unique<Client>();
    ASSERT_TRUE(c->connect(server.socket_path(), &err)) << err;
    clients.push_back(std::move(c));
  }
  std::vector<std::thread> tenants;
  std::vector<JobStatus> statuses(4, JobStatus::Failed);
  for (int i = 0; i < 4; ++i) {
    tenants.emplace_back([&, i] {
      JobRequest rq = job2d(48, 48, 6);
      rq.tenant = "t" + std::to_string(i);
      std::string cerr;
      const auto r = clients[static_cast<std::size_t>(i)]->submit(rq, &cerr);
      ASSERT_TRUE(r.has_value()) << cerr;
      statuses[static_cast<std::size_t>(i)] = r->status;
    });
  }
  server.request_drain();
  for (auto& t : tenants) t.join();
  server.wait();
  for (const JobStatus st : statuses) {
    EXPECT_TRUE(st == JobStatus::Done || st == JobStatus::Rejected);
  }
}

}  // namespace
}  // namespace cats::serve
