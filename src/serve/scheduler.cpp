#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "plan/shard.hpp"
#include "serve/exec.hpp"
#include "serve/halo.hpp"

namespace cats::serve {

namespace {

using Clock = std::chrono::steady_clock;

JobResult immediate(JobStatus status, std::string error) {
  JobResult r;
  r.status = status;
  r.error = std::move(error);
  return r;
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig cfg, const Topology* topo)
    : cfg_(std::move(cfg)),
      plan_(derive_shards(topo != nullptr ? *topo : system_topology(),
                          cfg_.shards, cfg_.threads_per_shard)),
      queue_(cfg_.queue_capacity) {
  cfg_.coresident = std::max(cfg_.coresident, 1);
  shard_stats_.resize(static_cast<std::size_t>(plan_.size()));
  for (int i = 0; i < plan_.size(); ++i) {
    const ShardSpec& s = plan_.shards[static_cast<std::size_t>(i)];
    shard_stats_[static_cast<std::size_t>(i)] = {s.id,   s.node, s.threads,
                                                 0,      0,      0,
                                                 0.0,    0.0,    0.0};
  }
  executors_.reserve(static_cast<std::size_t>(plan_.size()));
  for (int i = 0; i < plan_.size(); ++i) {
    executors_.emplace_back(&Scheduler::executor, this, i);
  }
}

Scheduler::~Scheduler() { stop(); }

bool Scheduler::would_split(const JobRequest& rq) const {
  if (plan_.size() < 2) return false;
  if (rq.split == JobRequest::Split::Never) return false;
  const std::int64_t extent = job_is_3d(rq) ? rq.nz : rq.ny;
  if (plan_ir::max_feasible_shards(extent, 1) < 2) return false;
  if (rq.split == JobRequest::Split::Force) return true;
  return job_points(rq) >= cfg_.split_min_points;
}

std::future<JobResult> Scheduler::submit(JobRequest rq) {
  std::promise<JobResult> prom;
  std::future<JobResult> fut = prom.get_future();
  std::string err;
  if (!validate_job(rq, &err)) {
    prom.set_value(immediate(JobStatus::Rejected, std::move(err)));
    return fut;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) {
      ++rejected_;
      prom.set_value(immediate(JobStatus::Rejected, "server is draining"));
      return fut;
    }
    if (queue_.full()) {
      ++rejected_;
      prom.set_value(
          immediate(JobStatus::Rejected, "queue full (backpressure)"));
      return fut;
    }
    QueuedJob j;
    j.cost = job_cost(rq);
    j.req = std::move(rq);
    j.promise = std::move(prom);
    queue_.push(std::move(j));
  }
  work_cv_.notify_all();
  return fut;
}

void Scheduler::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  work_cv_.notify_all();
}

void Scheduler::cancel_queued() {
  std::vector<QueuedJob> evicted;
  {
    std::lock_guard<std::mutex> lk(mu_);
    evicted = queue_.drain_all();
  }
  for (QueuedJob& j : evicted) {
    j.promise.set_value(
        immediate(JobStatus::Cancelled, "evicted from queue at shutdown"));
  }
  work_cv_.notify_all();
}

void Scheduler::stop() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (joined_) return;
    stopping_ = true;
    joined_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : executors_) t.join();
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SchedulerStats s;
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  s.draining = draining_;
  s.rejected = rejected_;
  s.shards = shard_stats_;
  s.tenants = queue_.shares();
  // order: relaxed — monotone counters; a stats snapshot needs no ordering.
  s.wait_events = run_stats_.wait_events.load(std::memory_order_relaxed);
  s.wait_ns = run_stats_.wait_ns.load(std::memory_order_relaxed);
  return s;
}

void Scheduler::executor(int shard) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] {
      // Either a dispatch is poppable (no split holds the machine) or the
      // scheduler is stopping with nothing left to serve.
      return (!split_pending_ && !queue_.empty()) ||
             (stopping_ && queue_.empty());
    });
    if (queue_.empty()) return;  // only reachable when stopping_

    std::optional<QueuedJob> first = queue_.pop();
    if (!first.has_value()) continue;

    if (would_split(first->req)) {
      run_split(shard, std::move(*first), lk);
      continue;
    }

    // Batch assembly: co-schedule further same-family, non-split jobs on
    // this shard. The fair-share pop order still picks WHICH jobs ride
    // along, so batching never bypasses tenant fairness.
    std::vector<QueuedJob> batch;
    batch.push_back(std::move(*first));
    while (static_cast<int>(batch.size()) < cfg_.coresident) {
      const std::string& family = batch.front().req.kernel;
      std::optional<QueuedJob> more =
          queue_.pop_if([&](const JobRequest& q) {
            return q.kernel == family && !would_split(q);
          });
      if (!more.has_value()) break;
      batch.push_back(std::move(*more));
    }
    run_batch(shard, std::move(batch), lk);
  }
}

void Scheduler::run_batch(int shard, std::vector<QueuedJob> batch,
                          std::unique_lock<std::mutex>& lk) {
  const ShardSpec& spec = plan_.shards[static_cast<std::size_t>(shard)];
  const int tenants = static_cast<int>(batch.size());
  ++running_;
  lk.unlock();

  // Slice the shard's CPU list among the co-resident jobs; every tenant's
  // Eq. 1/2 then budget Z/tenants (ExecEnv::cache_tenants), matching the
  // cache they can actually keep while the others run beside them.
  const int per = std::max(spec.threads / tenants, 1);
  std::vector<std::vector<int>> slices(static_cast<std::size_t>(tenants));
  for (int j = 0; j < tenants && !spec.cpus.empty(); ++j) {
    for (int t = 0; t < per; ++t) {
      const std::size_t idx = static_cast<std::size_t>(j * per + t);
      slices[static_cast<std::size_t>(j)].push_back(
          spec.cpus[idx % spec.cpus.size()]);
    }
  }

  std::vector<JobResult> results(static_cast<std::size_t>(tenants));
  const Clock::time_point t0 = Clock::now();
  auto body = [&](int j) {
    ExecEnv env;
    env.pin_cpus = slices[static_cast<std::size_t>(j)].empty()
                       ? nullptr
                       : &slices[static_cast<std::size_t>(j)];
    env.threads = per;
    env.cache_tenants = tenants;
    env.stats = &run_stats_;
    results[static_cast<std::size_t>(j)] =
        execute_job(batch[static_cast<std::size_t>(j)].req, env);
  };
  std::vector<std::thread> riders;
  riders.reserve(static_cast<std::size_t>(tenants - 1));
  for (int j = 1; j < tenants; ++j) riders.emplace_back(body, j);
  body(0);
  for (std::thread& t : riders) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  for (int j = 0; j < tenants; ++j) {
    batch[static_cast<std::size_t>(j)].promise.set_value(
        std::move(results[static_cast<std::size_t>(j)]));
  }

  lk.lock();
  ShardExecStats& st = shard_stats_[static_cast<std::size_t>(shard)];
  st.jobs += tenants;
  if (tenants > 1) ++st.batches;
  st.busy_seconds += seconds;
  for (int j = 0; j < tenants; ++j) {
    const JobResult& r = results[static_cast<std::size_t>(j)];
    if (r.status != JobStatus::Done) continue;
    st.lups += static_cast<double>(
        batch[static_cast<std::size_t>(j)].cost);
    st.model_dram_bytes += r.model_dram_bytes;
  }
  --running_;
  idle_cv_.notify_all();
  work_cv_.notify_all();
}

void Scheduler::run_split(int shard, QueuedJob job,
                          std::unique_lock<std::mutex>& lk) {
  // Rendezvous: a split borrows every shard's CPUs, so hold further pops
  // (split_pending_) and wait until the other executors' dispatches finish.
  split_pending_ = true;
  idle_cv_.wait(lk, [&] { return running_ == 0; });
  ++running_;
  lk.unlock();

  const JobRequest& rq = job.req;
  const std::int64_t extent = job_is_3d(rq) ? rq.nz : rq.ny;
  const int want = std::min(plan_.size(),
                            plan_ir::max_feasible_shards(extent, 1));
  const plan_ir::ShardSchedule sched = plan_ir::emit_shard_schedule(
      extent, want, rq.t_steps, 1, cfg_.max_block);

  std::vector<ShardSlot> slots;
  slots.reserve(static_cast<std::size_t>(sched.shards()));
  for (int i = 0; i < sched.shards(); ++i) {
    const ShardSpec& s = plan_.shards[static_cast<std::size_t>(i)];
    slots.push_back({s.cpus, s.threads});
  }
  ExecEnv env;
  env.threads = plan_.shards[0].threads;
  env.stats = &run_stats_;

  const Clock::time_point t0 = Clock::now();
  JobResult r = run_split_job(rq, sched, slots, env);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const bool done = r.status == JobStatus::Done;
  const double bytes = r.model_dram_bytes;
  job.promise.set_value(std::move(r));

  lk.lock();
  ShardExecStats& st = shard_stats_[static_cast<std::size_t>(shard)];
  st.jobs += 1;
  st.splits += 1;
  st.busy_seconds += seconds;
  if (done) {
    st.lups += static_cast<double>(job.cost);
    st.model_dram_bytes += bytes;
  }
  --running_;
  split_pending_ = false;
  idle_cv_.notify_all();
  work_cv_.notify_all();
}

}  // namespace cats::serve
