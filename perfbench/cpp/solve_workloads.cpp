/// \file solve_workloads.cpp
/// The default-configuration solve workloads (`cube32-cg`, `torus256-cg`):
/// repeated one-shot `RahtmMapper::map` calls on a NAS CG graph, each with
/// a fresh mapper exactly as the one-shot tool builds it.

#include <optional>

#include "graph/stats.hpp"
#include "routing/oblivious.hpp"
#include "routing/route_cache.hpp"
#include "simnet/simulator.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

using rahtm::CommGraph;
using rahtm::Mapping;
using rahtm::RahtmConfig;
using rahtm::RahtmMapper;
using rahtm::RahtmStats;
using rahtm::Torus;
using rahtm::Workload;

struct Input {
  Torus topo;
  Workload workload;
  CommGraph graph;
};

Input buildInput(const SolveSpec& spec) {
  Torus topo = Torus::torus(spec.machine);
  Workload w = rahtm::makeCG(
      static_cast<rahtm::RankId>(topo.numNodes() * spec.concentration));
  CommGraph g = w.commGraph();
  return {std::move(topo), std::move(w), std::move(g)};
}

struct Solve {
  double seconds = 0;
  RahtmStats stats;
  std::optional<rahtm::TieredRouteCache::Stats> routes;
};

struct Window {
  std::vector<Solve> solves;
  HostSpeed host;  ///< sampled before every solve and after the last, with
                   ///< one kernel copy per solver thread
  std::optional<Mapping> mapping;  ///< first solve's mapping
};

/// Solve until both the minimum count and the time floor \p seconds are
/// met. Every solve must reproduce the first one's mapping.
Window measure(double seconds, const SolveSpec& spec, const Input& in,
               Result& r) {
  Window win;
  win.host = HostSpeed(spec.threads);
  const auto t0 = Clock::now();
  while (static_cast<int>(win.solves.size()) < spec.minSolves ||
         secondsSince(t0) < seconds) {
    win.host.sample();
    RahtmConfig cfg;
    cfg.logicalGrid = in.workload.logicalGrid;
    cfg.numThreads = spec.threads;
    RahtmMapper mapper(cfg);
    Solve s;
    Mapping m;
    {
      rahtm::obs::ScopedSpan span(rahtm::obs::tracer(), "bench.solve",
                                  "bench");
      const auto s0 = Clock::now();
      m = mapper.map(in.graph, in.topo, spec.concentration);
      s.seconds = secondsSince(s0);
    }
    win.host.op(s.seconds);
    ++r.attempted;
    s.stats = mapper.stats();
    // Past the complete-table ceiling the mapper creates its own tiered
    // route cache and leaves it in its config.
    if (mapper.config().routeCache != nullptr) {
      s.routes = mapper.config().routeCache->stats();
    }
    if (!win.mapping) {
      win.mapping = std::move(m);
    } else if (m != *win.mapping) {
      r.fail("solve " + std::to_string(win.solves.size()) +
             " produced a different mapping than the first solve");
    }
    win.solves.push_back(std::move(s));
  }
  win.host.sample();
  return win;
}

std::vector<double> field(const Window& w, double (*get)(const Solve&)) {
  std::vector<double> v;
  for (const Solve& s : w.solves) v.push_back(get(s));
  return v;
}

void addLayerMetrics(Result& r, const SolveSpec& spec, const Window& win,
                     const TraceSession& s, const Attribution& a) {
  const double n = static_cast<double>(win.solves.size());
  std::vector<RahtmStats> stats;
  for (const Solve& x : win.solves) stats.push_back(x.stats);
  const std::vector<double> solve =
      field(win, [](const Solve& x) { return x.seconds; });
  const auto phases = addCoreMetrics(r, stats, solve, s);
  addLpMetrics(r, s, a, n);

  rahtm::TieredRouteCache::Stats routes;
  for (const Solve& x : win.solves) {
    if (x.routes) accumulate(routes, *x.routes);
  }
  addRouteMetrics(r, routes, n);
  addSelfTimes(r, a, n);
  checkDominant(r, spec.name, phases, median(solve), spec.dominantPhase);
}

/// Validity plus the exact outputs compared against expected.json.
Quality checkOutputs(Result& r, const SolveSpec& spec, const Input& in,
                     const Mapping& m) {
  const std::string err = m.validate(in.topo, spec.concentration);
  if (!err.empty()) r.fail("invalid mapping: " + err);
  Quality q;
  q.mcl = rahtm::placementMcl(in.topo, in.graph, m.nodeVector());
  q.hopBytes = rahtm::hopBytes(in.graph, in.topo, m.nodeVector());
  q.cycles = rahtm::simnet::simulateIteration(in.topo, m, in.workload.phases,
                                              rahtm::simnet::SimConfig{})
                 .cycles;
  r.output("digest", mappingDigest(m));
  r.output("mcl", exact(q.mcl));
  r.output("hop_bytes", exact(q.hopBytes));
  r.output("comm_cycles", std::to_string(q.cycles));
  return q;
}

}  // namespace

Result runSolveWorkload(const Options& opt, const SolveSpec& spec) {
  Result r;
  // Set-up: topology, workload generator and graph, repeated for a median.
  std::optional<Input> in;
  const double setup = medianSeconds(21, [&] { in = buildInput(spec); });

  if (!opt.trace) {
    const Window win = measure(opt.seconds, spec, *in, r);
    const double rss = peakRssMb();
    const std::vector<double> ops = win.host.nominalOps();
    addTimings(r, win.host, setup, ops, sum(ops));
    r.add("peak_rss_mb", rss, "MB");
    addQuality(r, checkOutputs(r, spec, *in, *win.mapping));
    return r;
  }

  const double build = medianSeconds(21, [&] {
    const Workload w = rahtm::makeCG(in->workload.ranks);
    (void)w.commGraph();
  });
  // The untraced and the traced window take half of --seconds each.
  const Window plain = measure(opt.seconds / 2, spec, *in, r);
  Window traced;
  {
    TraceSession session;
    traced = measure(opt.seconds / 2, spec, *in, r);
    const Attribution a =
        attribute(session.tracer.snapshot(),
                  rahtm::SubproblemConfig{}.milpTimeLimitSec);
    addLayerMetrics(r, spec, traced, session, a);
  }
  r.add("obs.trace_overhead_frac",
        ratio(median(traced.host.nominalOps()),
              median(plain.host.nominalOps())) -
            1,
        "ratio");
  r.add("host.reference_s", traced.host.referenceSeconds(), "s");
  r.add("workloads.build_s", build, "s");
  if (*plain.mapping != *traced.mapping) {
    r.fail("traced solve produced a different mapping than untraced");
  }
  checkOutputs(r, spec, *in, *traced.mapping);
  return r;
}

}  // namespace perfbench
