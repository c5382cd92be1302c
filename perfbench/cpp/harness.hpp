#pragma once
/// \file harness.hpp
/// Shared pieces of the repository benchmark: options, sample statistics,
/// the result record every workload fills, a scoped tracing session, and
/// span-based per-layer attribution over the program's existing tracer.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/rahtm.hpp"
#include "mapping/mapping.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/route_cache.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< lower bound on the timed window
  bool trace = false;   ///< per-layer (traced) run instead of end-to-end
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0,1]; 0 for no samples.
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);
/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// Median wall time of \p reps calls of \p fn (the set-up metric).
template <typename Fn>
double medianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(secondsSince(t0));
  }
  return median(std::move(t));
}

/// Host-speed calibration.
///
/// The benchmark runs on a few cores of a shared host whose speed drifts
/// with other tenants' load: by 10-40% within minutes, for tens of seconds
/// at a time. Some of the drift slows arithmetic (the `cube32-cg` anneal
/// follows it), some slows memory (the simulator follows it). So a run also
/// times a fixed piece of benchmark-owned work, the reference kernel, between
/// its timed operations. The mixed kernel takes xorshift steps feeding
/// counter increments in a 256 KiB table, then a dependent pointer chase
/// through a 32 MiB random cycle; the memory kernel only chases, three times
/// as far. A workload that runs on several threads runs one copy of the
/// kernel per thread at once and times them together, because its own time
/// depends on every core it uses. A run reports its timings at the host
/// speed where the kernel takes kNominalReferenceSeconds: an operation of
/// t seconds, bracketed by
/// kernel samples of r1 and r2 seconds, is reported as
/// t * kNominalReferenceSeconds / ((r1 + r2) / 2). No program code runs in
/// the kernel, so a change to the program moves the scaled timings exactly
/// as much as the raw ones.
class HostSpeed {
 public:
  /// About the mixed kernel's median time on the host the benchmark was
  /// defined on (4 vCPUs of an Intel Xeon VM); the memory kernel's nominal
  /// time is kNominalMemorySeconds.
  static constexpr double kNominalReferenceSeconds = 0.17;
  static constexpr double kNominalMemorySeconds = 0.28;
  /// Most kernel copies a sample runs at once.
  static constexpr int kMaxThreads = 4;

  /// Build the kernel's buffers. Call it before anything else allocates:
  /// the buffers then stay resident for the whole run, and peakRssMb()
  /// subtracts them exactly.
  static void prepare();
  /// Bytes of the resident kernel buffers (0 before prepare()).
  static std::size_t bufferBytes();

  enum class Kernel { Mixed, Memory };

  /// \p threads: kernel copies per sample, the threads the workload runs on
  /// (at most kMaxThreads). \p kernel: the kernel whose time the workload's
  /// operations follow.
  explicit HostSpeed(int threads = 1, Kernel kernel = Kernel::Mixed);

  /// Time the reference kernel once.
  void sample();
  /// Record an operation of \p seconds, timed after the latest sample.
  void op(double seconds);
  /// The recorded operations at nominal speed, each scaled by the mean of
  /// the samples just before and just after it (the last sample when none
  /// follows).
  std::vector<double> nominalOps() const;
  /// Median kernel time over the samples so far.
  double referenceSeconds() const { return median(samples_); }
  /// Factor that turns seconds measured on this host into nominal seconds.
  double timeScale() const { return ratio(nominal(), referenceSeconds()); }

 private:
  double nominal() const {
    return kernel_ == Kernel::Mixed ? kNominalReferenceSeconds
                                    : kNominalMemorySeconds;
  }

  int threads_;
  Kernel kernel_;
  std::vector<double> samples_;
  /// Raw seconds and the index of the sample before, per operation.
  std::vector<std::pair<double, std::size_t>> ops_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one benchmark run reports.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Exact output values compared against the committed expected.json.
  std::vector<std::pair<std::string, std::string>> outputs;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void output(std::string key, std::string value) {
    outputs.emplace_back(std::move(key), std::move(value));
  }
  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);

  /// One JSON line: attempted, failed, metrics, outputs.
  std::string json() const;
};

/// Report a run's end-to-end timings at nominal host speed: set-up (scaled
/// by the run's median kernel time), the median and 90th percentile of
/// \p nominalOps, and their count per \p busySeconds (nominal seconds of the
/// timed window, kernel samples excluded). The raw kernel and set-up times
/// go to stderr.
void addTimings(Result& r, const HostSpeed& host, double setupSeconds,
                const std::vector<double>& nominalOps, double busySeconds);

/// Exact decimal form of a double (17 significant digits).
std::string exact(double v);

/// FNV-1a 64 over every rank's (node, slot), as 16 hex digits.
std::string mappingDigest(const rahtm::Mapping& m);

/// VmHWM of this process in MB (10^6 bytes), less the reference kernel's
/// resident buffer.
double peakRssMb();

/// Installs a tracer and a metrics registry for its lifetime.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  std::int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  rahtm::obs::Tracer tracer;
  rahtm::obs::MetricsRegistry registry;

 private:
  rahtm::obs::Tracer* prevTracer_;
  rahtm::obs::MetricsRegistry* prevMetrics_;
};

/// The layer a program or benchmark span belongs to ("core.pin", "lp",
/// "serve", "simnet", "bench", ...).
std::string layerOf(const std::string& spanName);

/// Per-layer self time of one traced window: a span's self time is its
/// duration minus the part covered by its child spans on the same thread.
struct Attribution {
  std::map<std::string, double> selfSeconds;  ///< by layer
  /// Total duration by span name (all threads).
  std::map<std::string, double> spanSeconds;
  /// lp.milp.solve spans whose status is not "optimal", or whose duration
  /// reached the MILP time limit.
  std::int64_t milpNotOptimal = 0;
  /// Per serve.request span: its id attribute, duration, and the self time
  /// of the spans nested in it, by layer.
  struct Request {
    std::string id;
    double seconds = 0;
    std::map<std::string, double> selfSeconds;
  };
  std::vector<Request> requests;
};

Attribution attribute(const std::vector<rahtm::obs::TraceEvent>& events,
                      double milpTimeLimitSec);

/// Report every layer's self time per operation as "self.<layer>_s".
void addSelfTimes(Result& r, const Attribution& a, double ops);

/// Report the lp counters of a traced window per operation, plus the
/// budget guard: any MILP that did not end optimal fails the run.
void addLpMetrics(Result& r, const TraceSession& s, const Attribution& a,
                  double ops);

/// Report the core phase times (medians over \p stats), the unattributed
/// remainder of \p solveSeconds, the pin/merge/refine work counters of the
/// traced window per solve, the exec pool and the per-phase memory peaks.
/// Returns the phase medians by layer name ("core.pin", ...).
std::map<std::string, double> addCoreMetrics(Result& r,
                          const std::vector<rahtm::RahtmStats>& stats,
                          const std::vector<double>& solveSeconds,
                          const TraceSession& s);

/// Report the route_table account's lifetime peak.
void addMemMetrics(Result& r);

/// Add \p b's counters into \p a.
void accumulate(rahtm::TieredRouteCache::Stats& a,
                const rahtm::TieredRouteCache::Stats& b);

/// Report tiered route cache traffic per operation.
void addRouteMetrics(Result& r, const rahtm::TieredRouteCache::Stats& st,
                     double ops);

/// Report whether the layer with the most time in \p seconds is \p expected,
/// the one the workload was chosen for, and that layer's share of \p total.
/// A mismatch is printed (the workload's stated reason needs correcting)
/// but does not fail the run.
void checkDominant(Result& r, const std::string& workload,
                   const std::map<std::string, double>& seconds, double total,
                   const std::string& expected);

}  // namespace perfbench
