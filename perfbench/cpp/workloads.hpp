#pragma once
/// \file workloads.hpp
/// The benchmark's four workloads. Each drives the program only through
/// its public API and fills one Result: the end-to-end metrics when
/// untraced, the per-layer metrics when traced.

#include <cstdint>
#include <string>

#include "common/small_vec.hpp"
#include "harness.hpp"

namespace perfbench {

/// A default-configuration RahtmMapper solve of NAS CG.
struct SolveSpec {
  const char* name;
  rahtm::Shape machine;
  int concentration = 2;
  int threads = 1;     ///< RahtmConfig::numThreads
  int minSolves = 1;   ///< solves per timed window, at least
  /// The phase the workload was chosen for ("core.pin", "core.merge").
  const char* dominantPhase;
};

/// Exact quality of the checked mappings (summed where a workload checks
/// several).
struct Quality {
  double mcl = 0;
  double hopBytes = 0;
  std::int64_t cycles = 0;
};

inline void addQuality(Result& r, const Quality& q) {
  r.add("mcl", q.mcl, "bytes");
  r.add("hop_bytes", q.hopBytes, "byte-hops");
  r.add("comm_cycles", static_cast<double>(q.cycles), "cycles");
}

Result runSolveWorkload(const Options& opt, const SolveSpec& spec);
Result runServeMix(const Options& opt);
Result runSimReplay(const Options& opt);

}  // namespace perfbench
