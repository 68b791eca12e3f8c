// serve_mix: a closed loop of many small jobs through the stencil service.
//
// One in-process serve::Server with the default configuration (one shard
// per NUMA node, every physical core, two co-resident tenants) and one
// client connection per core, split over two tenants. Each client submits
// its next job only after the previous result arrived. The job mix comes
// from the seed: in every block of four jobs two are const2d 1024^2 x 64,
// one const2d_f32 2048^2 x 64 and one const3d 128^3 x 32, in seed-shuffled
// order, so the mix is the same for every seed while the order and the
// initial conditions differ. Per-job fixed costs (allocation, first touch,
// plan emission, checksum, queueing, protocol) dominate these jobs.

#include <unistd.h>

#include <atomic>
#include <barrier>
#include <thread>

#include "families.hpp"
#include "library.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace catsbench {

namespace {

using cats::serve::JobRequest;
using cats::serve::JobResult;
using cats::serve::JobStatus;

struct Spec {
  std::string name;
  JobRequest rq;
  std::uint64_t checksum = 0;  ///< run_reference grid checksum
};

/// Two initial conditions per family, so every family's reference is
/// computed twice per run rather than once per job.
std::vector<Spec> make_specs(std::uint64_t seed) {
  std::vector<Spec> specs;
  const struct {
    const char* kernel;
    std::int64_t nx, ny, nz;
    int T;
  } fams[] = {{"const2d", 1024, 1024, 0, 64},
              {"const2d_f32", 2048, 2048, 0, 64},
              {"const3d", 128, 128, 128, 32}};
  for (const auto& f : fams) {
    for (int j = 0; j < 2; ++j) {
      Spec s;
      s.name = std::string(f.kernel) + "/" + std::to_string(j);
      s.rq.kernel = f.kernel;
      s.rq.nx = f.nx;
      s.rq.ny = f.ny;
      s.rq.nz = f.nz;
      s.rq.t_steps = f.T;
      // The wire protocol carries numbers as doubles: keep seeds below 2^53
      // so the server seeds exactly what the reference used.
      s.rq.seed = mix64(seed * 8 + static_cast<std::uint64_t>(specs.size())) >> 11;
      specs.push_back(s);
    }
  }
  return specs;
}

template <class Tr>
std::uint64_t reference_checksum(const JobRequest& rq) {
  const int n[3] = {static_cast<int>(rq.nx), static_cast<int>(rq.ny),
                    static_cast<int>(std::max<std::int64_t>(rq.nz, 1))};
  const int origin[3] = {0, 0, 0};
  auto k = Tr::make(n);
  Tr::init(*k, nullptr, rq.seed, origin);
  cats::run_reference(*k, rq.t_steps);
  std::vector<double> grid;
  k->copy_result_to(grid, rq.t_steps);
  return cats::serve::fnv1a(grid);
}

void compute_references(std::vector<Spec>& specs, int threads) {
  std::atomic<std::size_t> next{0};
  auto body = [&] {
    for (std::size_t i = next.fetch_add(1); i < specs.size(); i = next.fetch_add(1)) {
      const JobRequest& rq = specs[i].rq;
      specs[i].checksum = rq.nz > 0                   ? reference_checksum<Const3d>(rq)
                          : rq.kernel == "const2d_f32" ? reference_checksum<Float2d>(rq)
                                                       : reference_checksum<Const2d>(rq);
    }
  };
  std::vector<std::jthread> pool;
  for (int i = 1; i < std::min<int>(threads, static_cast<int>(specs.size())); ++i)
    pool.emplace_back(body);
  body();
}

/// Job order: blocks of {const2d, const2d, const2d_f32, const3d}, each block
/// shuffled by the seed; a family's occurrences alternate its two specs.
std::vector<std::size_t> make_mix(std::uint64_t seed, std::size_t length) {
  std::vector<std::size_t> mix;
  std::uint64_t rng = mix64(seed ^ 0x4D4958ULL);
  int use[3] = {0, 0, 0};
  while (mix.size() < length) {
    int block[4] = {0, 0, 1, 2};
    for (int i = 3; i > 0; --i) {
      rng = mix64(rng);
      std::swap(block[i], block[rng % static_cast<std::uint64_t>(i + 1)]);
    }
    for (const int fam : block) mix.push_back(static_cast<std::size_t>(fam * 2 + (use[fam]++ & 1)));
  }
  return mix;
}

bool job_ok(const std::optional<JobResult>& r, const Spec& s, const std::string& err,
            std::string* why) {
  if (!r.has_value()) {
    *why = s.name + ": transport error: " + err;
  } else if (r->status != JobStatus::Done) {
    *why = s.name + ": status " + cats::serve::job_status_name(r->status) + ": " + r->error;
  } else if (r->checksum != s.checksum) {
    *why = s.name + ": checksum " + hex64(r->checksum) + " != reference " + hex64(s.checksum);
  } else {
    return true;
  }
  return false;
}

struct JobRecord {
  double latency_s = 0.0, exec_s = 0.0, cost = 0.0;
  bool batched = false;
};

struct ServedPass {
  std::vector<JobRecord> jobs;  ///< completed and verified
  double wall_s = 0.0;
  double mlups() const {
    double cost = 0.0;
    for (const JobRecord& j : jobs) cost += j.cost;
    return cost / wall_s / 1e6;
  }
  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const JobRecord& j : jobs) v.push_back(j.latency_s);
    return v;
  }
};

class Mix {
 public:
  Mix(const Args& args, const Host& host)
      : args_(args), host_(host), specs_(make_specs(args.seed)),
        order_(make_mix(args.seed, 256)) {}

  void prepare() { compute_references(specs_, host_.threads); }
  const std::vector<Spec>& specs() const { return specs_; }

  std::string socket_path(const std::string& tag) const {
    return args_.out_dir + "/serve-" + std::to_string(::getpid()) + "-" + tag + ".sock";
  }

  /// Server construction and start until one job of each family has
  /// returned, over one connection; the server is drained afterwards.
  double cold_start(int k, Outcome& out) {
    cats::serve::ServerConfig cfg;
    cfg.socket_path = socket_path("cold" + std::to_string(k));
    const Clock::time_point t0 = Clock::now();
    cats::serve::Server srv(cfg);
    std::string err;
    if (!srv.start(&err)) {
      record(std::nullopt, specs_[0], "server start: " + err, out);
      return 0.0;
    }
    double s = 0.0;
    {
      cats::serve::Client c;
      if (!c.connect(cfg.socket_path, &err)) {
        record(std::nullopt, specs_[0], err, out);
      } else {
        for (std::size_t fam = 0; fam < 3; ++fam) {
          const Spec& spec = specs_[fam * 2];
          const auto r = c.submit(spec.rq, &err);
          record(r, spec, err, out);
        }
      }
      s = seconds_between(t0, Clock::now());
    }
    srv.request_drain();
    srv.wait();
    return s;
  }

  /// Closed loop for `budget` seconds: one client per core, two tenants.
  ServedPass serve(const std::string& socket, double budget, Tracer& tr, Outcome& out) {
    const int clients = host_.threads;
    std::vector<std::vector<JobRecord>> per(static_cast<std::size_t>(clients));
    std::barrier start(clients + 1);
    Clock::time_point deadline{};
    std::mutex out_mu;  // guards `out`
    auto client = [&](int i) {
      cats::serve::Client c;
      std::string err;
      const bool connected = c.connect(socket, &err);
      start.arrive_and_wait();
      if (!connected) {
        std::lock_guard<std::mutex> lk(out_mu);
        record(std::nullopt, specs_[0], err, out);
        return;
      }
      while (Clock::now() < deadline) {
        const Spec& spec = specs_[order_[next_.fetch_add(1) % order_.size()]];
        JobRequest rq = spec.rq;
        rq.tenant = "tenant-" + std::to_string(i % 2);
        Scoped job(tr, "job");
        const auto r = c.submit(rq, &err);
        const double lat = job.stop();
        bool ok = false;
        {
          std::lock_guard<std::mutex> lk(out_mu);
          ok = record(r, spec, err, out);
        }
        if (!r.has_value()) return;
        if (ok) {
          per[static_cast<std::size_t>(i)].push_back(
              {lat, r->seconds, static_cast<double>(cats::serve::job_cost(rq)),
               r->cache_tenants > 1});
        }
      }
    };
    std::vector<std::jthread> pool;
    for (int i = 0; i < clients; ++i) pool.emplace_back(client, i);
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(budget));
    const Clock::time_point t0 = Clock::now();
    start.arrive_and_wait();
    pool.clear();  // joins
    ServedPass p;
    p.wall_s = seconds_between(t0, Clock::now());
    for (auto& v : per) p.jobs.insert(p.jobs.end(), v.begin(), v.end());
    return p;
  }

  /// Direct execute_job calls (no queue, no protocol): the job's
  /// materialization cost is its wall time minus the run() time it reports.
  std::vector<double> materialize_s(Tracer& tr, int parent, Outcome& out) {
    cats::serve::ExecEnv env;
    env.threads = host_.threads;
    std::vector<double> v;
    for (std::size_t i = 0; i < 12; ++i) {
      const Spec& spec = specs_[order_[i]];
      Scoped s(tr, "serve.execute_job", parent);
      const JobResult r = cats::serve::execute_job(spec.rq, env);
      const double wall = s.stop();
      if (record(r, spec, "", out)) v.push_back(wall - r.seconds);
    }
    return v;
  }

 private:
  bool record(const std::optional<JobResult>& r, const Spec& spec, const std::string& err,
              Outcome& out) {
    ++out.attempted;
    std::string why;
    if (job_ok(r, spec, err, &why)) return true;
    ++out.failed;
    out.fail(why);
    return false;
  }

  const Args& args_;
  const Host& host_;
  std::vector<Spec> specs_;
  std::vector<std::size_t> order_;
  std::atomic<std::size_t> next_{0};
};

struct ShardTotals {
  double busy_s = 0.0, thread_busy_s = 0.0;
  std::int64_t rejected = 0, wait_ns = 0;
};

ShardTotals totals(const cats::serve::SchedulerStats& s) {
  ShardTotals t;
  for (const auto& sh : s.shards) {
    t.busy_s += sh.busy_seconds;
    t.thread_busy_s += sh.busy_seconds * sh.threads;
  }
  t.rejected = s.rejected;
  t.wait_ns = s.wait_ns;
  return t;
}

}  // namespace

Outcome run_serve_mix(const Args& args, const Host& host) {
  Outcome out;
  Mix mix(args, host);
  mix.prepare();
  auto checksums = [](const std::vector<Spec>& specs) {
    JsonObject sums;
    for (const Spec& s : specs) sums.str(s.name, hex64(s.checksum));
    return sums.dump();
  };
  out.detail.raw("checksums", checksums(mix.specs()));
  // The default seed's references pin the reference arithmetic itself
  // (stored in checksums.json); they are recomputed whatever the seed.
  std::vector<Spec> defaults = make_specs(kDefaultSeed);
  compute_references(defaults, host.threads);
  out.detail.raw("default_checksums", checksums(defaults));

  std::vector<double> cold;
  for (int k = 0; k < 5; ++k) cold.push_back(mix.cold_start(k, out));

  cats::serve::ServerConfig cfg;
  cfg.socket_path = mix.socket_path("main");
  cats::serve::Server srv(cfg);
  std::string err;
  if (!srv.start(&err)) {
    out.fail("server start: " + err);
    return out;
  }
  Tracer off(false, "serve_mix");
  mix.serve(cfg.socket_path, 1.0, off, out);  // warm-up, discarded

  if (!args.trace) {
    reset_peak_rss();
    const ServedPass p = mix.serve(cfg.socket_path, args.seconds, off, out);
    const Summary lat = summarize(p.latencies());
    out.add("mlups", p.mlups(), "MLUP/s");
    out.add("setup_s", quantile(cold, 0.5), "s", summarize(cold));
    out.add("rss_mib", peak_rss_mib(), "MiB");
    out.add("job_latency_s_p50", lat.median, "s", lat);
    out.detail.integer("jobs", static_cast<long long>(p.jobs.size()));
    out.detail.num("jobs_per_s", static_cast<double>(p.jobs.size()) / p.wall_s);
    srv.request_drain();
    srv.wait();
    return out;
  }

  const ServedPass u = mix.serve(cfg.socket_path, args.seconds / 2, off, out);
  Tracer tr(true, "serve_mix");
  const ShardTotals before = totals(srv.scheduler().stats());
  const ServedPass t = mix.serve(cfg.socket_path, args.seconds / 2, tr, out);
  const ShardTotals after = totals(srv.scheduler().stats());
  srv.request_drain();
  srv.wait();

  std::vector<double> exec, overhead;
  double batched = 0.0;
  for (const JobRecord& j : t.jobs) {
    exec.push_back(j.exec_s);
    overhead.push_back(j.latency_s - j.exec_s);
    batched += j.batched ? 1.0 : 0.0;
  }
  const int layers = tr.begin("layers");
  out.add("serve.exec_s_p50", quantile(exec, 0.5), "s", summarize(exec));
  const std::vector<double> mat = mix.materialize_s(tr, layers, out);
  out.add("serve.materialize_s_p50", quantile(mat, 0.5), "s", summarize(mat));
  out.add("serve.overhead_s_p50", quantile(overhead, 0.5), "s", summarize(overhead));
  out.add("serve.latency_s_p95", quantile(t.latencies(), 0.95), "s",
          summarize(t.latencies()));
  out.add("serve.shard_busy_frac", (after.busy_s - before.busy_s) / t.wall_s, "frac");
  out.add("serve.batched_frac", batched / static_cast<double>(t.jobs.size()), "frac");
  out.add("serve.rejected", static_cast<double>(after.rejected - before.rejected), "count");
  out.add("serve.wait_frac",
          static_cast<double>(after.wait_ns - before.wait_ns) * 1e-9 /
              (after.thread_busy_s - before.thread_busy_s),
          "frac");
  tr.end(layers);

  // The remaining layers are probed on the mix's most common job, const2d
  // 1024^2 x 64, driven directly through run() on every core.
  LibWorkload<Const2d> probe({"serve_mix.const2d", {1024, 1024, 1}, 64}, host, args.seed);
  probe.prepare_reference();
  cats::RunStats st;
  const Pass p = probe.pass(1.0, tr, &st, true);
  tally(p, out);
  library_layer_metrics(probe, p, st, tr, host, pass_mlups(p, probe.updates()), out);

  const double mu = u.mlups(), mt = t.mlups();
  out.add("trace.overhead_frac", (mu - mt) / mu, "frac");
  out.detail.raw("trace_self_s", [&] {
    JsonObject o;
    for (const auto& [name, s] : tr.self_seconds()) o.num(name, s);
    return o.dump();
  }());
  const std::string path = args.out_dir + "/trace-serve_mix.json";
  if (tr.write_chrome(path)) out.detail.str("trace_file", path);
  return out;
}

}  // namespace catsbench
