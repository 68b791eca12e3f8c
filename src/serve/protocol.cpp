#include "serve/protocol.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "tune/json.hpp"

namespace cats::serve {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t parse_hex64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

// Checked reads of a message's integer fields (tune::JsonValue::get_int):
// the first field that is present but not an exact integer within its
// type's range is remembered, and ok() names it in the error instead of
// letting a truncated or rounded value through. A seed must stay below
// 2^53 — the double-based parser carries no larger integer exactly.
class IntFields {
 public:
  explicit IntFields(const tune::JsonValue& v) : v_(v) {}

  template <class T>
  void read(const char* key, T& field) {
    if (bad_ == nullptr && !v_.get_int(key, field)) bad_ = key;
  }

  bool ok(std::string* err) const {
    if (bad_ != nullptr && err != nullptr) {
      *err = std::string("field '") + bad_ +
             "' is not an exact integer in range";
    }
    return bad_ == nullptr;
  }

 private:
  const tune::JsonValue& v_;
  const char* bad_ = nullptr;
};

JobStatus parse_status(const std::string& s) {
  if (s == "done") return JobStatus::Done;
  if (s == "rejected") return JobStatus::Rejected;
  if (s == "cancelled") return JobStatus::Cancelled;
  return JobStatus::Failed;
}

}  // namespace

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::Done: return "done";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::Failed: return "failed";
  }
  return "?";
}

const char* scheme_wire_name(Scheme s) {
  switch (s) {
    case Scheme::Auto: return "auto";
    case Scheme::Naive: return "naive";
    case Scheme::Cats1: return "cats1";
    case Scheme::Cats2: return "cats2";
    case Scheme::Cats3: return "cats3";
    case Scheme::Mwd: return "mwd";
    case Scheme::PlutoLike: return "pluto";
  }
  return "?";
}

bool parse_scheme(const std::string& s, Scheme* out) {
  if (s.empty() || s == "auto") { *out = Scheme::Auto; return true; }
  if (s == "naive") { *out = Scheme::Naive; return true; }
  if (s == "cats1") { *out = Scheme::Cats1; return true; }
  if (s == "cats2") { *out = Scheme::Cats2; return true; }
  if (s == "cats3") { *out = Scheme::Cats3; return true; }
  if (s == "mwd") { *out = Scheme::Mwd; return true; }
  if (s == "pluto") { *out = Scheme::PlutoLike; return true; }
  return false;
}

bool validate_job(const JobRequest& rq, std::string* err) {
  const auto fail = [&](const char* msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  if (!kernel_known(rq.kernel)) return fail("unknown kernel family");
  if (rq.nx < 1 || rq.ny < 1) return fail("nx and ny must be >= 1");
  if (rq.kernel == "const3d" && rq.nz < 1)
    return fail("const3d requires nz >= 1");
  if ((rq.kernel == "const2d" || rq.kernel == "const2d_f32") && rq.nz > 0)
    return fail("2D kernel families do not take nz");
  if (rq.nx > kMaxExtent || rq.ny > kMaxExtent || rq.nz > kMaxExtent)
    return fail("extent exceeds per-dimension cap");
  if (job_points(rq) > kMaxPoints) return fail("domain exceeds point cap");
  if (rq.t_steps < 0 || rq.t_steps > kMaxTimesteps)
    return fail("timestep count out of range");
  if (rq.threads < 0) return fail("threads must be >= 0");
  if (rq.mwd_group < 0 || rq.mwd_group > 256)
    return fail("mwd_group out of range");
  return true;
}

bool parse_request(const std::string& line, Request* out, std::string* err) {
  tune::JsonValue v;
  if (!tune::json_parse(line, v) ||
      v.kind != tune::JsonValue::Kind::Object) {
    if (err != nullptr) *err = "malformed JSON request";
    return false;
  }
  const std::string op = v.get_string("op");
  Request rq;
  if (op == "ping") {
    rq.op = Request::Op::Ping;
  } else if (op == "stats") {
    rq.op = Request::Op::Stats;
  } else if (op == "shutdown") {
    rq.op = Request::Op::Shutdown;
    if (const tune::JsonValue* c = v.get("cancel"))
      rq.cancel = c->kind == tune::JsonValue::Kind::Bool && c->boolean;
  } else if (op == "submit") {
    rq.op = Request::Op::Submit;
    JobRequest& j = rq.job;
    j.tenant = v.get_string("tenant", "default");
    if (j.tenant.empty()) j.tenant = "default";
    j.kernel = v.get_string("kernel", "const2d");
    IntFields ints(v);
    ints.read("nx", j.nx);
    ints.read("ny", j.ny);
    ints.read("nz", j.nz);
    ints.read("t", j.t_steps);
    ints.read("seed", j.seed);
    ints.read("threads", j.threads);
    ints.read("cache_bytes", j.cache_bytes);
    ints.read("mwd_group", j.mwd_group);
    if (!ints.ok(err)) return false;
    if (!parse_scheme(v.get_string("scheme", "auto"), &j.scheme)) {
      if (err != nullptr) *err = "unknown scheme";
      return false;
    }
    const std::string split = v.get_string("split", "auto");
    if (split == "auto") {
      j.split = JobRequest::Split::Auto;
    } else if (split == "never") {
      j.split = JobRequest::Split::Never;
    } else if (split == "force") {
      j.split = JobRequest::Split::Force;
    } else {
      if (err != nullptr) *err = "unknown split policy";
      return false;
    }
    if (!validate_job(j, err)) return false;
  } else {
    if (err != nullptr) *err = "unknown op";
    return false;
  }
  *out = rq;
  return true;
}

std::string encode_request(const Request& rq) {
  using tune::json_number;
  using tune::json_quote;
  switch (rq.op) {
    case Request::Op::Ping: return R"({"op":"ping"})";
    case Request::Op::Stats: return R"({"op":"stats"})";
    case Request::Op::Shutdown:
      return rq.cancel ? R"({"op":"shutdown","cancel":true})"
                       : R"({"op":"shutdown"})";
    case Request::Op::Submit: break;
  }
  const JobRequest& j = rq.job;
  std::string s = R"({"op":"submit","tenant":)" + json_quote(j.tenant) +
                  ",\"kernel\":" + json_quote(j.kernel) +
                  ",\"nx\":" + std::to_string(j.nx) +
                  ",\"ny\":" + std::to_string(j.ny);
  if (j.nz > 0) s += ",\"nz\":" + std::to_string(j.nz);
  s += ",\"t\":" + std::to_string(j.t_steps) +
       ",\"seed\":" + std::to_string(j.seed);
  if (j.threads > 0) s += ",\"threads\":" + std::to_string(j.threads);
  if (j.cache_bytes != 0)
    s += ",\"cache_bytes\":" + std::to_string(j.cache_bytes);
  if (j.scheme != Scheme::Auto)
    s += std::string(",\"scheme\":") + json_quote(scheme_wire_name(j.scheme));
  if (j.mwd_group != 0) s += ",\"mwd_group\":" + std::to_string(j.mwd_group);
  if (j.split == JobRequest::Split::Never) s += R"(,"split":"never")";
  if (j.split == JobRequest::Split::Force) s += R"(,"split":"force")";
  s += "}";
  return s;
}

std::string encode_result(const JobResult& r) {
  using tune::json_number;
  using tune::json_quote;
  std::string s = std::string("{\"ok\":") +
                  (r.status == JobStatus::Done ? "true" : "false") +
                  ",\"status\":" + json_quote(job_status_name(r.status));
  if (!r.error.empty()) s += ",\"error\":" + json_quote(r.error);
  if (r.status == JobStatus::Done) {
    s += ",\"scheme\":" + json_quote(r.scheme) +
         ",\"tz\":" + std::to_string(r.tz) +
         ",\"bz\":" + std::to_string(r.bz) +
         ",\"bx\":" + std::to_string(r.bx) +
         ",\"shards\":" + std::to_string(r.shards_used) +
         ",\"threads\":" + std::to_string(r.threads) +
         ",\"cache_tenants\":" + std::to_string(r.cache_tenants) +
         ",\"seconds\":" + json_number(r.seconds) +
         ",\"mlups\":" + json_number(r.mlups) +
         ",\"model_dram_bytes\":" + json_number(r.model_dram_bytes) +
         ",\"checksum\":" + json_quote(hex64(r.checksum)) +
         ",\"sample\":" + json_number(r.sample);
  }
  s += "}";
  return s;
}

bool parse_result(const std::string& line, JobResult* out, std::string* err) {
  tune::JsonValue v;
  if (!tune::json_parse(line, v) ||
      v.kind != tune::JsonValue::Kind::Object) {
    if (err != nullptr) *err = "malformed JSON response";
    return false;
  }
  JobResult r;
  r.status = parse_status(v.get_string("status", "failed"));
  r.error = v.get_string("error");
  r.scheme = v.get_string("scheme");
  IntFields ints(v);
  ints.read("tz", r.tz);
  ints.read("bz", r.bz);
  ints.read("bx", r.bx);
  ints.read("shards", r.shards_used);
  ints.read("threads", r.threads);
  ints.read("cache_tenants", r.cache_tenants);
  if (!ints.ok(err)) return false;
  r.seconds = v.get_number("seconds");
  r.mlups = v.get_number("mlups");
  r.model_dram_bytes = v.get_number("model_dram_bytes");
  r.checksum = parse_hex64(v.get_string("checksum", "0"));
  r.sample = v.get_number("sample");
  *out = r;
  return true;
}

}  // namespace cats::serve
