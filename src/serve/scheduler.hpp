#pragma once
// NUMA-sharded job scheduler of the stencil service.
//
// The machine is partitioned into shards (sysinfo/shards.hpp — one per NUMA
// node by default), each served by one executor thread that pops work from a
// shared bounded fair-share queue (serve/queue.hpp). Three dispatch shapes:
//
//  - Single job: runs on the popping executor's shard, pinned to its CPUs,
//    tiles sized against the shard's private cache (Eq. 1/2).
//  - Batch: up to `coresident` queued jobs of the same kernel family run
//    concurrently on ONE shard, each on a slice of the shard's CPUs and with
//    RunOptions::cache_tenants = batch size, so Eq. 1/2 size every tenant's
//    tiles against the PARTITIONED cache share Z/tenants and the plan
//    verifier's residency certificate holds under contention.
//  - Split: a large domain is decomposed across ALL shards via the verified
//    block-halo schedule (plan/shard.hpp + serve/halo.hpp). The popping
//    executor rendezvouses — no other dispatch may start while a split runs,
//    since it borrows every shard's CPUs — then drives one thread per shard.
//
// Lifecycle: drain() stops admission (submits come back Rejected),
// cancel_queued() resolves queued-but-unstarted jobs as Cancelled, stop()
// drains and joins the executors after in-flight jobs complete. Every
// admitted job's future resolves exactly once with a terminal status.

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/options.hpp"
#include "core/stats.hpp"
#include "serve/job.hpp"
#include "serve/queue.hpp"
#include "sysinfo/shards.hpp"

namespace cats::serve {

struct SchedulerConfig {
  int shards = 0;             ///< 0 = one shard per NUMA node
  int threads_per_shard = 0;  ///< 0 = the shard's physical-core count
  int coresident = 2;         ///< max batched tenants per shard (>= 1)
  std::size_t queue_capacity = 64;  ///< admission bound (backpressure)
  /// Jobs with at least this many points are split across shards under
  /// Split::Auto (when > 1 shard exists and the geometry admits it).
  std::int64_t split_min_points = std::int64_t{1} << 21;
  int max_block = 8;          ///< halo-split block-depth cap (even)
};

struct ShardExecStats {
  int id = 0, node = -1, threads = 1;
  std::int64_t jobs = 0;     ///< jobs completed on this shard
  std::int64_t batches = 0;  ///< multi-tenant batches among them
  std::int64_t splits = 0;   ///< split jobs this executor coordinated
  double busy_seconds = 0.0;
  double lups = 0.0;              ///< point updates served (for MLUP/s)
  double model_dram_bytes = 0.0;  ///< summed analytic traffic estimates
};

struct SchedulerStats {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  bool draining = false;
  std::int64_t rejected = 0;  ///< submissions refused (full or draining)
  std::vector<ShardExecStats> shards;
  std::vector<FairQueue::TenantShare> tenants;
  /// Library sync counters accumulated across every run (RunStats).
  std::int64_t wait_events = 0, wait_ns = 0;
};

class Scheduler {
 public:
  /// `topo` defaults to the live system topology; tests pass a canned one.
  explicit Scheduler(SchedulerConfig cfg, const Topology* topo = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admit a job. The future always resolves: Rejected immediately when the
  /// queue is full or the scheduler is draining, a terminal status from the
  /// executor otherwise.
  std::future<JobResult> submit(JobRequest rq);

  /// Stop admitting; queued and in-flight jobs still complete.
  void drain();
  /// Resolve every queued-but-unstarted job as Cancelled.
  void cancel_queued();
  /// drain() + join the executors once the queue is empty and in-flight
  /// work finished. Idempotent.
  void stop();

  SchedulerStats stats() const;
  const ShardPlan& shard_plan() const { return plan_; }
  /// True when this request would be halo-split across shards.
  bool would_split(const JobRequest& rq) const;

 private:
  void executor(int shard);
  void run_batch(int shard, std::vector<QueuedJob> batch,
                 std::unique_lock<std::mutex>& lk);
  void run_split(int shard, QueuedJob job, std::unique_lock<std::mutex>& lk);

  SchedulerConfig cfg_;
  ShardPlan plan_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< executors: queue/state changed
  std::condition_variable idle_cv_;  ///< split rendezvous / stop()
  FairQueue queue_;
  bool draining_ = false;
  bool stopping_ = false;
  bool split_pending_ = false;  ///< a split holds the machine; no new pops
  int running_ = 0;             ///< executors currently running a dispatch
  std::int64_t rejected_ = 0;
  std::vector<ShardExecStats> shard_stats_;
  RunStats run_stats_;
  bool joined_ = false;

  std::vector<std::thread> executors_;
};

}  // namespace cats::serve
