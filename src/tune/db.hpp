#pragma once
// Persistent tuning database.
//
// Empirically tuned stencil parameters are keyed by machine fingerprint
// (bench_harness/machine.hpp) x kernel id x scheme key x bucketed domain
// shape x thread count, and stored as JSON on disk so one `cats_tune` run
// benefits every later `Scheme::Auto` run on the same machine. The file is
// advisory: a missing, corrupted or foreign-machine database never fails a
// run — lookups just miss and the analytic Eq. 1/2 path takes over.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cats {
struct DomainShape;  // core/selector.hpp
}

namespace cats::tune {

/// Lookup key. `scheme_key` is "auto" for general-CATS resolution (the only
/// key run() consults today); explicit-scheme tuning may add more later.
struct DbKey {
  std::string machine;     ///< bench::machine_fingerprint()
  std::string kernel;      ///< kernel_tuning_id(k)
  std::string scheme_key = "auto";
  std::string shape;       ///< shape_bucket(domain)
  int threads = 1;

  bool operator==(const DbKey&) const = default;
};

/// One tuned configuration (the winner of a neighborhood search).
struct DbEntry {
  std::string scheme;      ///< "Naive" | "CATS1" | "CATS2" | "CATS3" | "MWD"
  int tz = 0;
  std::int64_t bz = 0;
  std::int64_t bx = 0;
  int run_threads = 0;     ///< tuned worker count; 0 = keep the caller's
  std::string affinity;    ///< affinity_policy_name(); "" = keep the caller's
  // Wave-engine knobs (src/wave). Negative (0 for mwd_group) = not tuned:
  // keep the caller's RunOptions value, matching pre-wave DB files.
  int nt_stores = -1;      ///< -1 keep; 0 off; 1 on
  int unroll_t = -1;       ///< -1 keep; else RunOptions::unroll_t
  int temporal_vec = -1;   ///< -1 keep; 0 off; 1 on (RunOptions::temporal_vec)
  int mwd_group = 0;       ///< 0 keep; else RunOptions::mwd_group
  int prefetch_dist = -1;  ///< -1 keep; else RunOptions::prefetch_dist
  double pilot_seconds = 0.0;     ///< best pilot time
  double analytic_seconds = 0.0;  ///< analytic-seed pilot time (for the record)
  std::size_t cache_bytes = 0;    ///< Z the search ran with (0 = detected)
  double cs_slack = 0.0;          ///< slack the search ran with
};

/// Log2 bucket of a positive count (0 for n <= 1). Domain sizes within a
/// factor of 2 share tuned parameters — Eq. 1/2 scale smoothly, and pilot
/// timings are far noisier than the within-bucket parameter drift.
int log2_bucket(std::int64_t n);

/// "d2/n^22/w^11": dimensionality plus log2 buckets of N and Wmax.
std::string shape_bucket(const DomainShape& d);

class TuneDb {
 public:
  /// $CATS_TUNE_DB, else $XDG_CACHE_HOME/cats/tune.json, else
  /// $HOME/.cache/cats/tune.json, else ./cats_tune.json.
  static std::string default_path();

  /// Replace contents from `path`. Returns false (leaving the DB empty) when
  /// the file is missing, unreadable, malformed or has the wrong version —
  /// never throws.
  bool load(const std::string& path);

  /// Atomically (write + rename) persist to `path`, creating the parent
  /// directory when needed. Returns false on IO failure.
  bool save(const std::string& path) const;

  const DbEntry* find(const DbKey& key) const;

  /// Insert or overwrite the entry for `key`.
  void put(const DbKey& key, const DbEntry& entry);

  std::size_t size() const { return rows_.size(); }
  void clear() { rows_.clear(); }

 private:
  struct Row {
    DbKey key;
    DbEntry entry;
  };
  std::vector<Row> rows_;
};

/// Process-wide read cache for run()-time lookups: loads `path` once and
/// serves `find` from memory (run() may plan thousands of times). Returns
/// nullopt on miss. Thread-safe.
std::optional<DbEntry> cached_lookup(const std::string& path, const DbKey& key);

/// Drop the cached_lookup cache (tests; after cats_tune rewrites the file).
void invalidate_cache();

}  // namespace cats::tune
