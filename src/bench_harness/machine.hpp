#pragma once
// Machine characterization (reproduces Table I).
//
// * Bandwidth at sized working sets (RAMspeed-style copy sweep): arrays that
//   fit L1 / L2 / nothing give the three bandwidth rows.
// * Peak DP: independent multiply-add chains on registers.
// * Stencil peak DP: the inner stencil computation (products + accumulation)
//   executing on registers — lower than peak because of read-after-write
//   dependencies; this is the roofline CATS is compared against ("at least
//   50% of stencil peak").

#include <cstddef>
#include <string>

namespace cats::bench {

/// Stable identity string for the executing machine: CPU model, cache
/// topology, hardware thread count and the SIMD ISA the binary selected.
/// Keys bench JSON output, so results from one machine are never compared
/// as if they came from another (or from a rebuild with another vector
/// width).
std::string machine_fingerprint();

/// Streaming copy bandwidth over a working set (GB/s, counting read+write).
double measure_copy_bandwidth(std::size_t working_set_bytes,
                              double seconds_budget = 0.3);

/// Peak double-precision GFLOPS (independent mul+add / FMA chains).
double measure_peak_dp(double seconds_budget = 0.3);

/// Register-resident 5-point stencil GFLOPS (dependent accumulation).
double measure_stencil_dp(double seconds_budget = 0.3);

struct MachineProfile {
  double l1_bw_gbps = 0.0;
  double l2_bw_gbps = 0.0;
  double sys_bw_gbps = 0.0;
  double peak_dp_gflops = 0.0;
  double stencil_dp_gflops = 0.0;

  double l2_over_sys() const { return l2_bw_gbps / sys_bw_gbps; }
  /// Flops needed per main-memory double access to balance compute and
  /// bandwidth (the paper's "balanced arithmetic/stencil intensity").
  double balanced_intensity_sys() const {
    return peak_dp_gflops / (sys_bw_gbps / 8.0);
  }
  double balanced_stencil_intensity_sys() const {
    return stencil_dp_gflops / (sys_bw_gbps / 8.0);
  }
  double balanced_stencil_intensity_l2() const {
    return stencil_dp_gflops / (l2_bw_gbps / 8.0);
  }
};

/// Full Table I characterization (uses detected cache sizes for the L1/L2
/// working sets; the "system" point is far larger than the last-level cache).
MachineProfile profile_machine(double seconds_per_point = 0.3);

}  // namespace cats::bench
