#include "check/oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace cats::check {

namespace {

/// c |= other, componentwise max (vector-clock join).
void join(std::vector<std::uint32_t>& c, const std::vector<std::uint32_t>& o) {
  if (c.size() < o.size()) c.resize(o.size(), 0);
  for (std::size_t i = 0; i < o.size(); ++i) {
    if (o[i] > c[i]) c[i] = o[i];
  }
}

}  // namespace

const char* kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::OutOfDomain: return "out-of-domain";
    case ViolationKind::NotAdvanced: return "not-advanced";
    case ViolationKind::DoubleCompute: return "double-compute";
    case ViolationKind::MissingDep: return "missing-dep";
    case ViolationKind::FutureOverwrite: return "future-overwrite";
    case ViolationKind::UnorderedRead: return "unordered-read";
    case ViolationKind::Incomplete: return "incomplete";
  }
  return "?";
}

std::string Violation::to_string() const {
  char buf[256];
  if (nx == x && ny == y && nz == z) {
    std::snprintf(buf, sizeof(buf),
                  "%s: point (%d,%d,%d) computing t=%d expected own stamp %d, "
                  "found %d (writer thread %d, reader thread %d)",
                  kind_name(kind), x, y, z, t, expected_t, found_t, writer_tid,
                  reader_tid);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s: point (%d,%d,%d) computing t=%d requires neighbor "
                  "(%d,%d,%d) at t=%d, found %d (writer thread %d, reader "
                  "thread %d)",
                  kind_name(kind), x, y, z, t, nx, ny, nz, expected_t, found_t,
                  writer_tid, reader_tid);
  }
  return buf;
}

DepOracle::DepOracle(int width, int height, int depth, int slope, int threads)
    : w_(width),
      h_(height),
      d_(depth),
      s_(slope),
      p_(threads < 1 ? 1 : threads),
      slots_(static_cast<std::size_t>(width) * height * depth * 2) {
  CATS_CHECK(width >= 1 && height >= 1 && depth >= 1,
             "DepOracle domain %dx%dx%d must be positive", width, height,
             depth);
  CATS_CHECK(slope >= 1, "DepOracle slope %d must be >= 1", slope);
  CATS_CHECK(p_ <= kMaxThreads, "DepOracle threads %d exceeds %d", p_,
             kMaxThreads);
  vc_.assign(static_cast<std::size_t>(p_),
             std::vector<std::uint32_t>(static_cast<std::size_t>(p_), 0));
  for (int i = 0; i < p_; ++i) {
    // Epoch 0 is reserved for initial data; real writes carry epoch >= 1.
    vc_[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1;
  }
  const std::uint64_t even = pack(0, -1, 0);   // t=0 initial data
  const std::uint64_t odd = pack(-1, -1, 0);   // odd parity never written
  for (std::size_t i = 0; i < slots_.size(); i += 2) {
    // order: relaxed — construction precedes any worker; the run's thread
    // creation publishes the shadow grid.
    slots_[i].store(even, std::memory_order_relaxed);
    slots_[i + 1].store(odd, std::memory_order_relaxed);
  }
}

int DepOracle::bound_tid() const {
  return detail::t_oracle_binding.tid;
}

void DepOracle::add_violation(const Violation& v) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_violations_;
  if (violations_.size() < kMaxViolations) violations_.push_back(v);
}

void DepOracle::log_edge(SyncEvent::Kind kind, int tid, const void* cell,
                         std::int64_t value) {
  // Caller holds mu_.
  if (edges_.size() < kMaxEdges) edges_.push_back({kind, tid, cell, value});
}

void DepOracle::on_row(int tid, int t, int y, int z, int x0, int x1) {
  CATS_CHECK(tid >= 0 && tid < p_, "oracle row from unknown thread %d (of %d)",
             tid, p_);
  CATS_CHECK(t + 1 < (1 << 22), "oracle timestep %d exceeds the packed range",
             t);
  if (t < 1 || y < 0 || y >= h_ || z < 0 || z >= d_ || x0 < 0 || x1 > w_) {
    Violation v;
    v.kind = ViolationKind::OutOfDomain;
    v.x = x0;
    v.y = y;
    v.z = z;
    v.t = t;
    v.nx = x1;  // report the row span in the neighbor fields
    v.ny = y;
    v.nz = z;
    v.reader_tid = tid;
    add_violation(v);
    if (t < 1 || y < 0 || y >= h_ || z < 0 || z >= d_) return;
    if (x0 < 0) x0 = 0;
    if (x1 > w_) x1 = w_;
  }
  if (x0 >= x1) return;

  const std::uint32_t my_epoch =
      vc_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(tid)];
  const std::vector<std::uint32_t>& my_vc = vc_[static_cast<std::size_t>(tid)];
  const int prev_parity = (t - 1) & 1;
  const int cur_parity = t & 1;

  for (int x = x0; x < x1; ++x) {
    Violation v;
    v.x = x;
    v.y = y;
    v.z = z;
    v.t = t;
    v.reader_tid = tid;

    // Own history: the opposite-parity slot must hold exactly t-1 ...
    // order: acquire — pairs with the writer's release of the slot.
    const std::uint64_t prev =
        slot(x, y, z, prev_parity).load(std::memory_order_acquire);
    if (stamp_of(prev) != t - 1) {
      v.kind = ViolationKind::NotAdvanced;
      v.nx = x;
      v.ny = y;
      v.nz = z;
      v.expected_t = t - 1;
      v.found_t = stamp_of(prev);
      v.writer_tid = writer_of(prev);
      add_violation(v);
    } else {
      const int w = writer_of(prev);
      if (w >= 0 && w != tid &&
          my_vc[static_cast<std::size_t>(w)] < epoch_of(prev)) {
        v.kind = ViolationKind::UnorderedRead;
        v.nx = x;
        v.ny = y;
        v.nz = z;
        v.expected_t = t - 1;
        v.found_t = t - 1;
        v.writer_tid = w;
        add_violation(v);
      }
    }
    // ... and the same-parity slot exactly t-2 (-1 sentinel when t == 1).
    // order: acquire — pairs with the writer's release below.
    const std::uint64_t cur =
        slot(x, y, z, cur_parity).load(std::memory_order_acquire);
    if (stamp_of(cur) != t - 2) {
      v.kind = stamp_of(cur) == t ? ViolationKind::DoubleCompute
                                  : ViolationKind::NotAdvanced;
      v.nx = x;
      v.ny = y;
      v.nz = z;
      v.expected_t = t - 2;
      v.found_t = stamp_of(cur);
      v.writer_tid = writer_of(cur);
      add_violation(v);
    }

    // Every slope-s box neighbor must sit at exactly t-1: behind means the
    // dependence is unsatisfied, ahead (t+1 shares the slot parity) means a
    // consumer already overwrote the double-buffered input we need.
    for (int dz = -s_; dz <= s_; ++dz) {
      const int nz = z + dz;
      if (nz < 0 || nz >= d_) continue;  // ghost: boundary data, always valid
      for (int dy = -s_; dy <= s_; ++dy) {
        const int ny = y + dy;
        if (ny < 0 || ny >= h_) continue;
        for (int dx = -s_; dx <= s_; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const int nx = x + dx;
          if (nx < 0 || nx >= w_) continue;
          // order: acquire — pairs with the neighbor writer's release.
          const std::uint64_t nv =
              slot(nx, ny, nz, prev_parity).load(std::memory_order_acquire);
          const int nt = stamp_of(nv);
          if (nt == t - 1) {
            const int w = writer_of(nv);
            if (w >= 0 && w != tid &&
                my_vc[static_cast<std::size_t>(w)] < epoch_of(nv)) {
              v.kind = ViolationKind::UnorderedRead;
              v.nx = nx;
              v.ny = ny;
              v.nz = nz;
              v.expected_t = t - 1;
              v.found_t = nt;
              v.writer_tid = w;
              add_violation(v);
            }
            continue;
          }
          v.kind = nt > t - 1 ? ViolationKind::FutureOverwrite
                              : ViolationKind::MissingDep;
          v.nx = nx;
          v.ny = ny;
          v.nz = nz;
          v.expected_t = t - 1;
          v.found_t = nt;
          v.writer_tid = writer_of(nv);
          add_violation(v);
        }
      }
    }

    // order: release — pairs with the acquire loads of this slot.
    slot(x, y, z, cur_parity)
        .store(pack(t, tid, my_epoch), std::memory_order_release);
  }
  // order: relaxed — statistics counter; read after the run completes.
  points_checked_.fetch_add(x1 - x0, std::memory_order_relaxed);
}

void DepOracle::on_release(const void* cell, std::int64_t value) {
  const int tid = bound_tid();
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Release>& rel = cell_releases_[cell];
    CATS_CHECK(rel.empty() || rel.back().value <= value,
               "oracle: cell %p published %lld after %lld; published values "
               "must never fall",
               cell, static_cast<long long>(value),
               static_cast<long long>(rel.back().value));
    rel.push_back({value, vc_[static_cast<std::size_t>(tid)]});
    ++releases_;
    log_edge(SyncEvent::Kind::Release, tid, cell, value);
  }
  ++vc_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(tid)];
}

void DepOracle::on_acquire(const void* cell, std::int64_t value) {
  const int tid = bound_tid();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cell_releases_.find(cell);
  if (it != cell_releases_.end()) {
    // The first release reaching the bound is the one the wait relies on.
    const std::vector<Release>& rel = it->second;
    const auto r = std::lower_bound(
        rel.begin(), rel.end(), value,
        [](const Release& a, std::int64_t v) { return a.value < v; });
    if (r != rel.end()) join(vc_[static_cast<std::size_t>(tid)], r->clock);
  }
  ++acquires_;
  log_edge(SyncEvent::Kind::Acquire, tid, cell, value);
}

void DepOracle::on_barrier_arrive(const void* barrier) {
  const int tid = bound_tid();
  {
    std::lock_guard<std::mutex> lock(mu_);
    join(barrier_clocks_[barrier], vc_[static_cast<std::size_t>(tid)]);
    ++barriers_;
    log_edge(SyncEvent::Kind::BarrierArrive, tid, barrier, 0);
  }
  ++vc_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(tid)];
}

void DepOracle::on_barrier_leave(const void* barrier) {
  const int tid = bound_tid();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = barrier_clocks_.find(barrier);
  if (it != barrier_clocks_.end()) {
    join(vc_[static_cast<std::size_t>(tid)], it->second);
  }
  log_edge(SyncEvent::Kind::BarrierLeave, tid, barrier, 0);
}

std::int64_t DepOracle::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_violations_;
}

std::vector<Violation> DepOracle::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::int64_t DepOracle::release_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return releases_;
}

std::int64_t DepOracle::acquire_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquires_;
}

std::int64_t DepOracle::barrier_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return barriers_;
}

std::vector<SyncEvent> DepOracle::edges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_;
}

void DepOracle::check_complete(int T) {
  for (int z = 0; z < d_; ++z) {
    for (int y = 0; y < h_; ++y) {
      for (int x = 0; x < w_; ++x) {
        // order: acquire — pairs with the workers' releases of the slot.
        const std::uint64_t last =
            slot(x, y, z, T & 1).load(std::memory_order_acquire);
        if (stamp_of(last) != T) {
          Violation v;
          v.kind = ViolationKind::Incomplete;
          v.x = x;
          v.y = y;
          v.z = z;
          v.t = T;
          v.nx = x;
          v.ny = y;
          v.nz = z;
          v.expected_t = T;
          v.found_t = stamp_of(last);
          v.writer_tid = writer_of(last);
          add_violation(v);
        }
      }
    }
  }
}

void DepOracle::print_report(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out,
               "cats dependence oracle: %lld point updates, %lld releases, "
               "%lld acquires, %lld barrier crossings, %lld violation(s)\n",
               static_cast<long long>(
                   // order: relaxed — statistics counter.
                   points_checked_.load(std::memory_order_relaxed)),
               static_cast<long long>(releases_),
               static_cast<long long>(acquires_),
               static_cast<long long>(barriers_),
               static_cast<long long>(total_violations_));
  for (const Violation& v : violations_) {
    std::fprintf(out, "  %s\n", v.to_string().c_str());
  }
  if (total_violations_ > static_cast<std::int64_t>(violations_.size())) {
    std::fprintf(out, "  ... %lld more suppressed\n",
                 static_cast<long long>(
                     total_violations_ -
                     static_cast<std::int64_t>(violations_.size())));
  }
}

bool validate_env_enabled() {
  static const bool enabled = [] {
    const char* e = std::getenv("CATS_VALIDATE");
    return e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0;
  }();
  return enabled;
}

}  // namespace cats::check
