#include "tune/db.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "core/selector.hpp"
#include "tune/json.hpp"

namespace cats::tune {

namespace {
constexpr int kVersion = 1;
}

int log2_bucket(std::int64_t n) {
  int b = 0;
  while (n > 1) {
    n >>= 1;
    ++b;
  }
  return b;
}

std::string shape_bucket(const DomainShape& d) {
  std::ostringstream os;
  os << "d" << d.dims << "/n^" << log2_bucket(d.n) << "/w^"
     << log2_bucket(d.wmax);
  return os.str();
}

std::string TuneDb::default_path() {
  if (const char* p = std::getenv("CATS_TUNE_DB")) return p;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"))
    return std::string(xdg) + "/cats/tune.json";
  if (const char* home = std::getenv("HOME"))
    return std::string(home) + "/.cache/cats/tune.json";
  // Last resort was CWD-relative, which breaks daemons (cats_served may run
  // from / or chdir after startup): anchor it to the current directory at
  // first resolution instead of at every open.
  std::error_code ec;
  const std::filesystem::path cwd = std::filesystem::current_path(ec);
  if (!ec) return (cwd / "cats_tune.json").string();
  return "cats_tune.json";
}

bool TuneDb::load(const std::string& path) {
  rows_.clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  if (!json_parse(text, root)) return false;
  if (root.kind != JsonValue::Kind::Object) return false;
  int version = -1;
  if (!root.get_int("version", version) || version != kVersion) return false;
  const JsonValue* entries = root.get("entries");
  if (!entries || entries->kind != JsonValue::Kind::Array) return false;

  for (const JsonValue& e : entries->items) {
    if (e.kind != JsonValue::Kind::Object) continue;  // skip junk rows
    Row r;
    r.key.machine = e.get_string("machine");
    r.key.kernel = e.get_string("kernel");
    r.key.scheme_key = e.get_string("scheme_key", "auto");
    r.key.shape = e.get_string("shape");
    r.entry.scheme = e.get_string("scheme");
    r.entry.affinity = e.get_string("affinity");  // absent in pre-affinity DBs
    // Integer fields are read checked: a fraction, a non-finite number or a
    // value outside the field's type drops the row instead of truncating.
    // Absent fields keep the Row defaults; for the wave knobs (absent in
    // pre-wave DBs) that means "keep the caller's value", so old files stay
    // fully usable. bz/bx become int overrides (apply_tuning).
    constexpr long long kIntMax = std::numeric_limits<int>::max();
    const bool ints_ok = e.get_int("threads", r.key.threads) &&
                         e.get_int("tz", r.entry.tz) &&
                         e.get_int("bz", r.entry.bz, 0, kIntMax) &&
                         e.get_int("bx", r.entry.bx, 0, kIntMax) &&
                         e.get_int("run_threads", r.entry.run_threads) &&
                         e.get_int("nt_stores", r.entry.nt_stores) &&
                         e.get_int("unroll_t", r.entry.unroll_t) &&
                         e.get_int("temporal_vec", r.entry.temporal_vec) &&
                         e.get_int("mwd_group", r.entry.mwd_group) &&
                         e.get_int("prefetch_dist", r.entry.prefetch_dist) &&
                         e.get_int("cache_bytes", r.entry.cache_bytes);
    r.entry.pilot_seconds = e.get_number("pilot_seconds");
    r.entry.analytic_seconds = e.get_number("analytic_seconds");
    r.entry.cs_slack = e.get_number("cs_slack");
    if (!ints_ok || r.key.machine.empty() || r.key.kernel.empty() ||
        r.entry.scheme.empty())
      continue;  // malformed or incomplete rows are ignored, not fatal
    rows_.push_back(std::move(r));
  }
  return true;
}

bool TuneDb::save(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);

  std::ostringstream os;
  os << "{\n  \"version\": " << kVersion << ",\n  \"entries\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    os << (i ? "," : "") << "\n    {"
       << "\"machine\": " << json_quote(r.key.machine) << ", "
       << "\"kernel\": " << json_quote(r.key.kernel) << ", "
       << "\"scheme_key\": " << json_quote(r.key.scheme_key) << ", "
       << "\"shape\": " << json_quote(r.key.shape) << ", "
       << "\"threads\": " << r.key.threads << ", "
       << "\"scheme\": " << json_quote(r.entry.scheme) << ", "
       << "\"tz\": " << r.entry.tz << ", "
       << "\"bz\": " << r.entry.bz << ", "
       << "\"bx\": " << r.entry.bx << ", "
       << "\"run_threads\": " << r.entry.run_threads << ", "
       << "\"affinity\": " << json_quote(r.entry.affinity) << ", "
       << "\"nt_stores\": " << r.entry.nt_stores << ", "
       << "\"unroll_t\": " << r.entry.unroll_t << ", "
       << "\"temporal_vec\": " << r.entry.temporal_vec << ", "
       << "\"mwd_group\": " << r.entry.mwd_group << ", "
       << "\"prefetch_dist\": " << r.entry.prefetch_dist << ", "
       << "\"pilot_seconds\": " << json_number(r.entry.pilot_seconds) << ", "
       << "\"analytic_seconds\": " << json_number(r.entry.analytic_seconds) << ", "
       << "\"cache_bytes\": " << r.entry.cache_bytes << ", "
       << "\"cs_slack\": " << json_number(r.entry.cs_slack) << "}";
  }
  os << "\n  ]\n}\n";

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << os.str();
    if (!out.flush()) return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

const DbEntry* TuneDb::find(const DbKey& key) const {
  for (const Row& r : rows_)
    if (r.key == key) return &r.entry;
  return nullptr;
}

void TuneDb::put(const DbKey& key, const DbEntry& entry) {
  for (Row& r : rows_) {
    if (r.key == key) {
      r.entry = entry;
      return;
    }
  }
  rows_.push_back({key, entry});
}

namespace {
std::mutex g_cache_mutex;
std::map<std::string, TuneDb>& cache() {
  static std::map<std::string, TuneDb> c;
  return c;
}
}  // namespace

std::optional<DbEntry> cached_lookup(const std::string& path, const DbKey& key) {
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  auto it = cache().find(path);
  if (it == cache().end()) {
    TuneDb db;
    db.load(path);  // a failed load caches an empty DB: misses are cheap
    it = cache().emplace(path, std::move(db)).first;
  }
  const DbEntry* e = it->second.find(key);
  if (!e) return std::nullopt;
  return *e;
}

void invalidate_cache() {
  std::lock_guard<std::mutex> lock(g_cache_mutex);
  cache().clear();
}

}  // namespace cats::tune
