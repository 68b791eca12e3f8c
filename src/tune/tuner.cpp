#include "tune/tuner.hpp"

#include <algorithm>

namespace cats::tune {

namespace {

// Scaling factors probed around each analytic parameter. Asymmetric toward
// smaller tiles: the analytic formulas assume the whole nominal cache is
// usable, so real machines more often want smaller, not larger, tiles.
constexpr double kFactors[] = {1.0, 0.5, 0.7, 1.4, 2.0};

void push_unique(std::vector<Candidate>& out, const Candidate& c) {
  for (const Candidate& e : out) {
    if (e.scheme == c.scheme && e.tz == c.tz && e.bz == c.bz &&
        e.bx == c.bx && e.affinity == c.affinity &&
        e.nt_stores == c.nt_stores && e.unroll_t == c.unroll_t &&
        e.temporal_vec == c.temporal_vec && e.mwd_group == c.mwd_group &&
        e.prefetch_dist == c.prefetch_dist)
      return;
  }
  out.push_back(c);
}

}  // namespace

std::vector<Candidate> neighborhood(const SchemeChoice& seed,
                                    const DomainShape& d, int slope, int T,
                                    const TuneConfig& cfg) {
  std::vector<Candidate> out;
  const std::int64_t min_bz = 2 * slope;

  switch (seed.scheme) {
    case Scheme::Cats1: {
      for (double f : kFactors) {
        const int tz = std::clamp(static_cast<int>(seed.tz * f + 0.5), 1, T);
        push_unique(out, {Scheme::Cats1, tz, 0, 0});
      }
      if (cfg.cross_scheme && d.dims >= 2) {
        // The rule of thumb picked CATS1; price the CATS2 diamond too.
        const std::int64_t bz =
            std::max<std::int64_t>(min_bz, 2ll * slope * seed.tz);
        push_unique(out, {Scheme::Cats2, 0, bz, 0});
      }
      break;
    }
    case Scheme::Cats2: {
      for (double f : kFactors) {
        const auto bz = std::max<std::int64_t>(
            min_bz, static_cast<std::int64_t>(seed.bz * f + 0.5));
        push_unique(out, {Scheme::Cats2, 0, bz, 0});
      }
      if (cfg.cross_scheme) {
        // A diamond spanning BZ/(2s) timesteps corresponds to a CATS1 chunk
        // of that height; cheap to check whether skipping the split tiling
        // pays on this shape.
        const int tz = std::clamp(
            static_cast<int>(seed.bz / std::max(1ll, 2ll * slope)), 1, T);
        push_unique(out, {Scheme::Cats1, tz, 0, 0});
      }
      break;
    }
    case Scheme::Cats3: {
      for (double f : kFactors) {
        const auto bz = std::max<std::int64_t>(
            min_bz, static_cast<std::int64_t>(seed.bz * f + 0.5));
        push_unique(out, {Scheme::Cats3, 0, bz, bz});
      }
      // Decouple BX from BZ around the balanced point.
      for (double f : {0.5, 2.0}) {
        const auto bx = std::max<std::int64_t>(
            min_bz, static_cast<std::int64_t>(seed.bx * f + 0.5));
        push_unique(out, {Scheme::Cats3, 0, seed.bz, bx});
      }
      if (cfg.cross_scheme) {
        push_unique(out,
                    {Scheme::Cats2, 0, std::max<std::int64_t>(min_bz, seed.bz), 0});
      }
      break;
    }
    case Scheme::Naive:
    default:
      // Degenerate seeds (tiny cache): try naive plus minimal tiles.
      push_unique(out, {Scheme::Naive, 0, 0, 0});
      push_unique(out, {Scheme::Cats1, std::min(2, T), 0, 0});
      if (d.dims >= 2) push_unique(out, {Scheme::Cats2, 0, min_bz, 0});
      break;
  }
  return out;
}

RunOptions options_for_candidate(const RunOptions& base, const Candidate& c) {
  RunOptions o = base;
  o.tuning = Tuning::Off;
  o.scheme = c.scheme;
  o.tz_override = c.tz;
  o.bz_override = static_cast<int>(c.bz);
  o.bx_override = static_cast<int>(c.bx);
  if (c.threads > 0) o.threads = c.threads;
  if (c.affinity >= 0) o.affinity = static_cast<AffinityPolicy>(c.affinity);
  if (c.nt_stores >= 0) o.nt_stores = c.nt_stores != 0;
  if (c.unroll_t >= 0) o.unroll_t = c.unroll_t;
  if (c.temporal_vec >= 0) o.temporal_vec = c.temporal_vec != 0;
  if (c.mwd_group > 0) o.mwd_group = c.mwd_group;
  if (c.prefetch_dist >= 0) o.prefetch_dist = c.prefetch_dist;
  return o;
}

const char* candidate_scheme_name(const Candidate& c) {
  switch (c.scheme) {
    case Scheme::Naive: return "Naive";
    case Scheme::Cats1: return "CATS1";
    case Scheme::Cats2: return "CATS2";
    case Scheme::Cats3: return "CATS3";
    case Scheme::Mwd: return "MWD";
    default: return "?";
  }
}

}  // namespace cats::tune
