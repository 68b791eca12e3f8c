// cats_served: persistent stencil-as-a-service daemon.
//
//   cats_served --socket /tmp/cats.sock --shards 2 --coresident 2
//
// Accepts line-delimited JSON jobs over a Unix-domain socket (see
// src/serve/protocol.hpp), schedules them across NUMA-node shards with
// fair-share batching, and answers each with scheme, timing and a grid
// checksum. Shutdown discipline: the first SIGINT/SIGTERM (or a client
// "shutdown" request) drains — no new jobs, queued ones finish; a second
// signal cancels the still-queued jobs and exits once in-flight work
// completes.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>

#include "serve/server.hpp"

namespace {

const char* kUsage =
    "usage: cats_served [options]\n"
    "  --socket PATH        listen path (default $CATS_SERVE_SOCKET or\n"
    "                       /tmp/cats_served.sock)\n"
    "  --shards N           shard count; 0 = one per NUMA node (default)\n"
    "  --threads-per-shard N  workers per shard; 0 = its physical cores\n"
    "  --queue-cap N        admission queue bound (default 64)\n"
    "  --coresident N       max batched tenants per shard (default 2)\n"
    "  --split-min-points N halo-split threshold under split=auto\n"
    "  --max-block N        halo-split block depth cap (default 8)\n"
    "  --verbose            log accepts and jobs to stderr\n";

std::string default_socket() {
  if (const char* p = std::getenv("CATS_SERVE_SOCKET")) return p;
  return "/tmp/cats_served.sock";
}

}  // namespace

int main(int argc, char** argv) {
  cats::serve::ServerConfig cfg;
  cfg.socket_path = default_socket();

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "cats_served: %s needs a value\n%s", a.c_str(),
                     kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--socket") {
      cfg.socket_path = next();
    } else if (a == "--shards") {
      cfg.sched.shards = std::atoi(next());
    } else if (a == "--threads-per-shard") {
      cfg.sched.threads_per_shard = std::atoi(next());
    } else if (a == "--queue-cap") {
      cfg.sched.queue_capacity =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (a == "--coresident") {
      cfg.sched.coresident = std::atoi(next());
    } else if (a == "--split-min-points") {
      cfg.sched.split_min_points = std::atoll(next());
    } else if (a == "--max-block") {
      cfg.sched.max_block = std::atoi(next());
    } else if (a == "--verbose") {
      cfg.verbose = true;
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "cats_served: unknown option %s\n%s", a.c_str(),
                   kUsage);
      return 2;
    }
  }

  // Block the shutdown signals in every thread (the server's threads inherit
  // this mask), then consume them synchronously below.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  cats::serve::Server server(cfg);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "cats_served: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "cats_served: ready on %s (%s)\n",
               cfg.socket_path.c_str(),
               server.scheduler().shard_plan().describe().c_str());

  // First signal: drain. While waiting for the drain to finish, a second
  // signal upgrades to cancel. A client "shutdown" request also triggers the
  // drain; poll for it with a timed sigwait.
  bool drain_logged = false;
  while (!server.draining()) {
    timespec ts{};
    ts.tv_nsec = 200 * 1000 * 1000;
    const int sig = sigtimedwait(&sigs, nullptr, &ts);
    if (sig == SIGINT || sig == SIGTERM) {
      std::fprintf(stderr,
                   "cats_served: draining (signal again to cancel queued "
                   "jobs)\n");
      drain_logged = true;
      server.request_drain();
      break;
    }
  }
  if (!drain_logged)
    std::fprintf(stderr, "cats_served: draining (client shutdown request)\n");

  // Drain in a helper so the main thread can keep listening for the
  // cancel-upgrade signal.
  std::atomic<bool> down{false};
  std::thread waiter([&] {
    server.wait();
    // order: relaxed — polled below; no data published through it.
    down.store(true, std::memory_order_relaxed);
  });
  while (!down.load(std::memory_order_relaxed)) {
    timespec ts{};
    ts.tv_nsec = 100 * 1000 * 1000;
    const int sig = sigtimedwait(&sigs, nullptr, &ts);
    if (sig == SIGINT || sig == SIGTERM) {
      std::fprintf(stderr, "cats_served: cancelling queued jobs\n");
      server.request_cancel();
    }
  }
  waiter.join();
  std::fprintf(stderr, "cats_served: drained, bye\n");
  return 0;
}
