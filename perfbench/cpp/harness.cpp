#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/process.hpp"

namespace perfbench {

namespace obs = rahtm::obs;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

namespace {

constexpr std::size_t kTableSlots = 1u << 16;  // 256 KiB

/// A single random cycle through every slot (Sattolo's shuffle).
std::vector<std::uint32_t>& chaseBuffer() {
  static std::vector<std::uint32_t> next;
  return next;
}

/// One counter table per kernel copy.
std::vector<std::uint32_t>& counterTables() {
  static std::vector<std::uint32_t> tables;
  return tables;
}

/// One copy of the reference kernel on counter table \p copy.
void referenceKernel(int copy, HostSpeed::Kernel kernel) {
  const bool mixed = kernel == HostSpeed::Kernel::Mixed;
  const int computeSteps = mixed ? 20'000'000 : 0;
  const int chaseSteps = mixed ? 500'000 : 1'500'000;
  static std::atomic<std::uint64_t> sink{0};  // keeps the work observable
  std::uint32_t* table = counterTables().data() + copy * kTableSlots;
  const std::vector<std::uint32_t>& next = chaseBuffer();
  std::fill(table, table + kTableSlots, 0u);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < computeSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x >> 48]++;
  }
  std::uint32_t at =
      static_cast<std::uint32_t>((acc + static_cast<std::uint64_t>(copy)) %
                                 next.size());
  for (int i = 0; i < chaseSteps; ++i) at = next[at];
  sink.fetch_add(acc + at, std::memory_order_relaxed);
}

}  // namespace

void HostSpeed::prepare() {
  constexpr std::uint32_t kSlots = 1u << 23;  // 32 MiB
  std::vector<std::uint32_t>& next = chaseBuffer();
  if (!next.empty()) return;
  counterTables().assign(kTableSlots * kMaxThreads, 1u);
  next.resize(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
}

std::size_t HostSpeed::bufferBytes() {
  return (chaseBuffer().size() + counterTables().size()) *
         sizeof(std::uint32_t);
}

HostSpeed::HostSpeed(int threads, Kernel kernel)
    : threads_(threads), kernel_(kernel) {
  if (threads < 1 || threads > kMaxThreads) {
    throw rahtm::Error("HostSpeed: " + std::to_string(threads) +
                       " kernel copies, want 1 to " +
                       std::to_string(kMaxThreads));
  }
}

void HostSpeed::sample() {
  prepare();
  const auto t0 = Clock::now();
  std::vector<std::thread> copies;
  for (int c = 1; c < threads_; ++c) {
    copies.emplace_back(referenceKernel, c, kernel_);
  }
  referenceKernel(0, kernel_);
  for (std::thread& t : copies) t.join();
  samples_.push_back(secondsSince(t0));
}

void HostSpeed::op(double seconds) {
  if (samples_.empty()) throw rahtm::Error("HostSpeed: op before sample");
  ops_.emplace_back(seconds, samples_.size() - 1);
}

std::vector<double> HostSpeed::nominalOps() const {
  std::vector<double> v;
  for (const auto& [seconds, before] : ops_) {
    const double after =
        samples_[std::min(before + 1, samples_.size() - 1)];
    v.push_back(seconds * nominal() / ((samples_[before] + after) / 2));
  }
  return v;
}

void addTimings(Result& r, const HostSpeed& host, double setupSeconds,
                const std::vector<double>& ops, double busySeconds) {
  const double n = static_cast<double>(ops.size());
  r.add("setup_s", setupSeconds * host.timeScale(), "s");
  r.add("op_p50_s", median(ops), "s");
  r.add("op_p90_s", quantile(ops, 0.9), "s");
  r.add("ops_per_s", ratio(n, busySeconds), "1/s");
  std::cerr << "perfbench: " << ops.size() << " ops; reference kernel "
            << host.referenceSeconds() << " s (" << host.timeScale()
            << " nominal s per s); raw setup " << setupSeconds << " s\n";
}

void Result::fail(const std::string& why) {
  ++failed;
  std::cerr << "perfbench: FAILED: " << why << "\n";
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ",";
    os << obs::jsonString(metrics[i].name)
       << ":{\"value\":" << obs::jsonDouble(metrics[i].value)
       << ",\"unit\":" << obs::jsonString(metrics[i].unit) << "}";
  }
  os << "},\"outputs\":{";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (i != 0) os << ",";
    os << obs::jsonString(outputs[i].first) << ":"
       << obs::jsonString(outputs[i].second);
  }
  os << "}}";
  return os.str();
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string mappingDigest(const rahtm::Mapping& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (rahtm::RankId r = 0; r < m.numRanks(); ++r) {
    mix(m.nodeOf(r));
    mix(m.slotOf(r));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double peakRssMb() {
  return static_cast<double>(obs::peakRssBytes() -
                             static_cast<std::int64_t>(HostSpeed::bufferBytes())) /
         1e6;
}

TraceSession::TraceSession()
    : prevTracer_(obs::tracer()), prevMetrics_(obs::metrics()) {
  obs::setTracer(&tracer);
  obs::setMetrics(&registry);
}

TraceSession::~TraceSession() {
  obs::setTracer(prevTracer_);
  obs::setMetrics(prevMetrics_);
}

std::int64_t TraceSession::counter(const std::string& name) const {
  const obs::Counter* c = registry.findCounter(name);
  return c == nullptr ? 0 : c->value();
}

double TraceSession::gauge(const std::string& name) const {
  for (const auto& [n, g] : registry.gaugeRefs()) {
    if (n == name) return g->value();
  }
  return 0;
}

std::string layerOf(const std::string& name) {
  static const std::map<std::string, std::string> kCore = {
      {"rahtm.phase.cluster", "core.cluster"},
      {"rahtm.phase.pin", "core.pin"},
      {"rahtm.subproblem", "core.pin"},
      {"rahtm.phase.merge", "core.merge"},
      {"rahtm.merge.region", "core.merge"},
      {"rahtm.phase.refine", "core.refine"},
      {"rahtm.refine", "core.refine"},
      {"rahtm.map", "core.map"},
  };
  if (auto it = kCore.find(name); it != kCore.end()) return it->second;
  const std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "lp" || prefix == "serve" || prefix == "simnet" ||
      prefix == "bench") {
    return prefix;
  }
  return "other";
}

namespace {

std::string argOf(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k != key) continue;
    // String attributes are stored as JSON literals; ids and statuses
    // carry no escapes, so dropping the quotes recovers the value.
    if (v.size() >= 2 && v.front() == '"') return v.substr(1, v.size() - 2);
    return v;
  }
  return {};
}

}  // namespace

Attribution attribute(const std::vector<obs::TraceEvent>& events,
                      double milpTimeLimitSec) {
  Attribution a;
  std::vector<std::size_t> spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].durUs >= 0) spans.push_back(i);
  }
  // Parents before children: by thread, then start, then longer first.
  std::sort(spans.begin(), spans.end(), [&](std::size_t x, std::size_t y) {
    const auto& ex = events[x];
    const auto& ey = events[y];
    if (ex.tid != ey.tid) return ex.tid < ey.tid;
    if (ex.startUs != ey.startUs) return ex.startUs < ey.startUs;
    return ex.durUs > ey.durUs;
  });
  const auto endOf = [&](std::size_t i) {
    return events[i].startUs + events[i].durUs;
  };

  std::vector<std::int64_t> childUs(events.size(), 0);
  std::vector<long> requestOf(events.size(), -1);
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const std::size_t i = spans[k];
    const obs::TraceEvent& e = events[i];
    if (k > 0 && events[spans[k - 1]].tid != e.tid) stack.clear();
    while (!stack.empty() && !(events[stack.back()].startUs <= e.startUs &&
                               endOf(i) <= endOf(stack.back()))) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      childUs[stack.back()] += e.durUs;
      requestOf[i] = requestOf[stack.back()];
    }
    if (e.name == "serve.request") {
      requestOf[i] = static_cast<long>(a.requests.size());
      a.requests.push_back({argOf(e, "id"), e.durUs * 1e-6, {}});
    }
    stack.push_back(i);
  }

  for (std::size_t i : spans) {
    const obs::TraceEvent& e = events[i];
    const double self =
        static_cast<double>(std::max<std::int64_t>(0, e.durUs - childUs[i])) *
        1e-6;
    const std::string layer = layerOf(e.name);
    a.selfSeconds[layer] += self;
    a.spanSeconds[e.name] += e.durUs * 1e-6;
    if (requestOf[i] >= 0) {
      a.requests[static_cast<std::size_t>(requestOf[i])].selfSeconds[layer] +=
          self;
    }
    if (e.name == "lp.milp.solve" &&
        (argOf(e, "status") != "optimal" ||
         e.durUs * 1e-6 >= milpTimeLimitSec)) {
      ++a.milpNotOptimal;
    }
  }
  return a;
}

void addSelfTimes(Result& r, const Attribution& a, double ops) {
  for (const char* layer : {"core.cluster", "core.pin", "core.merge",
                            "core.refine", "core.map", "lp", "serve",
                            "simnet", "bench"}) {
    const auto it = a.selfSeconds.find(layer);
    const double s = it == a.selfSeconds.end() ? 0 : it->second;
    r.add(std::string("self.") + layer + "_s", ratio(s, ops), "s");
  }
}

void addLpMetrics(Result& r, const TraceSession& s, const Attribution& a,
                  double ops) {
  const auto spanSec = [&](const std::string& name) {
    const auto it = a.spanSeconds.find(name);
    return it == a.spanSeconds.end() ? 0.0 : it->second;
  };
  const double milpSec = spanSec("lp.milp.solve");
  const auto pivots = static_cast<double>(s.counter("lp.simplex.pivots"));
  r.add("lp.milp_solves",
        ratio(static_cast<double>(s.counter("lp.milp.solves")), ops), "count");
  r.add("lp.milp_nodes",
        ratio(static_cast<double>(s.counter("lp.milp.nodes")), ops), "count");
  r.add("lp.simplex_pivots", ratio(pivots, ops), "count");
  r.add("lp.simplex_pivots_per_s", ratio(pivots, milpSec), "1/s");
  r.add("lp.milp_s", ratio(milpSec, ops), "s");
  r.add("lp.milp_not_optimal", static_cast<double>(a.milpNotOptimal),
        "count");
  if (a.milpNotOptimal > 0) {
    r.fail(std::to_string(a.milpNotOptimal) +
           " MILP solve(s) ended without proving optimality: the run would "
           "time the solver budget, not the code");
  }
}

namespace {

double memPeakMb(const rahtm::RahtmStats& st, const std::string& phase) {
  for (const auto& q : st.phaseQuality) {
    if (q.phase == phase) return static_cast<double>(q.memPeakBytes) / 1e6;
  }
  return 0;
}

}  // namespace

std::map<std::string, double> addCoreMetrics(
    Result& r, const std::vector<rahtm::RahtmStats>& stats,
    const std::vector<double>& solveSeconds, const TraceSession& s) {
  const double n = static_cast<double>(std::max<std::size_t>(1, stats.size()));
  const auto total = [&](const char* name) {
    return static_cast<double>(s.counter(name));
  };
  const auto field = [&](double rahtm::RahtmStats::*m) {
    std::vector<double> v;
    for (const auto& st : stats) v.push_back(st.*m);
    return v;
  };
  const double solve = median(solveSeconds);
  const std::map<std::string, double> phases = {
      {"core.cluster", median(field(&rahtm::RahtmStats::clusterSeconds))},
      {"core.pin", median(field(&rahtm::RahtmStats::pinSeconds))},
      {"core.merge", median(field(&rahtm::RahtmStats::mergeSeconds))},
      {"core.refine", median(field(&rahtm::RahtmStats::refineSeconds))}};
  for (const char* name :
       {"core.cluster", "core.pin", "core.merge", "core.refine"}) {
    r.add(std::string(name) + "_s", phases.at(name), "s");
  }
  std::vector<double> rest;
  for (std::size_t i = 0; i < stats.size() && i < solveSeconds.size(); ++i) {
    rest.push_back(solveSeconds[i] - stats[i].clusterSeconds -
                   stats[i].pinSeconds - stats[i].mergeSeconds -
                   stats[i].refineSeconds);
  }
  r.add("core.unattributed_s", median(rest), "s");
  r.add("core.unattributed_frac", ratio(median(rest), solve), "ratio");

  const double pinSum = sum(field(&rahtm::RahtmStats::pinSeconds));
  const double mergeSum = sum(field(&rahtm::RahtmStats::mergeSeconds));
  const double refineSum = sum(field(&rahtm::RahtmStats::refineSeconds));
  const double probes = total("rahtm.anneal.probes");
  r.add("core.pin.subproblems", total("rahtm.subproblems") / n, "count");
  r.add("core.pin.anneal_probes", probes / n, "count");
  r.add("core.pin.anneal_probes_per_s", ratio(probes, pinSum), "1/s");
  r.add("core.pin.accept_ratio", ratio(total("rahtm.anneal.commits"), probes),
        "ratio");
  const double candidates = total("rahtm.merge.candidates");
  r.add("core.merge.regions", total("rahtm.merge.regions") / n, "count");
  r.add("core.merge.candidates", candidates / n, "count");
  r.add("core.merge.candidates_per_s", ratio(candidates, mergeSum), "1/s");
  const double refineProbes = total("rahtm.refine.probes");
  r.add("core.refine.probes", refineProbes / n, "count");
  r.add("core.refine.probes_per_s", ratio(refineProbes, refineSum), "1/s");
  r.add("core.refine.swap_ratio",
        ratio(total("rahtm.refine.swaps"), refineProbes), "ratio");
  r.add("core.refine.dense_sweeps", total("rahtm.refine.dense_sweeps") / n,
        "count");

  r.add("exec.pool_utilization", s.gauge("exec.pool.utilization"), "ratio");
  r.add("exec.pool_tasks", total("exec.pool.tasks") / n, "count");

  addMemMetrics(r);
  if (!stats.empty()) {
    r.add("mem.pin_peak_mb", memPeakMb(stats.back(), "pin"), "MB");
    r.add("mem.merge_peak_mb", memPeakMb(stats.back(), "merge"), "MB");
    r.add("mem.refine_peak_mb", memPeakMb(stats.back(), "refine"), "MB");
  }
  return phases;
}

void addMemMetrics(Result& r) {
  r.add("mem.route_table_peak_mb",
        static_cast<double>(obs::MemRegistry::instance().peakBytes(
            obs::MemAccountId::RouteTable)) /
            1e6,
        "MB");
}

void accumulate(rahtm::TieredRouteCache::Stats& a,
                const rahtm::TieredRouteCache::Stats& b) {
  a.denseHits += b.denseHits;
  a.denseMisses += b.denseMisses;
  a.sparseHits += b.sparseHits;
  a.sparseMisses += b.sparseMisses;
  a.refaults += b.refaults;
  a.evictions += b.evictions;
}

void addRouteMetrics(Result& r, const rahtm::TieredRouteCache::Stats& st,
                     double ops) {
  const auto per = [&](std::int64_t v) {
    return ratio(static_cast<double>(v), ops);
  };
  r.add("routing.dense_hits", per(st.denseHits), "count");
  r.add("routing.dense_misses", per(st.denseMisses), "count");
  r.add("routing.sparse_hits", per(st.sparseHits), "count");
  r.add("routing.sparse_misses", per(st.sparseMisses), "count");
  r.add("routing.sparse_hit_ratio",
        ratio(static_cast<double>(st.sparseHits),
              static_cast<double>(st.sparseHits + st.sparseMisses)),
        "ratio");
  r.add("routing.refaults", per(st.refaults), "count");
  r.add("routing.evictions", per(st.evictions), "count");
}

void checkDominant(Result& r, const std::string& workload,
                   const std::map<std::string, double>& seconds, double total,
                   const std::string& expected) {
  std::string top = "none";
  double topSec = 0;
  for (const auto& [layer, sec] : seconds) {
    if (sec > topSec) {
      top = layer;
      topSec = sec;
    }
  }
  const bool ok = top == expected;
  r.add("attribution.top_layer_ok", ok ? 1 : 0, "bool");
  r.add("attribution.top_layer_share", ratio(topSec, total), "ratio");
  if (!ok) {
    std::cerr << "perfbench: " << workload << ": " << top << " dominates, not "
              << expected << " as the workload's stated reason says\n";
  }
}

}  // namespace perfbench
