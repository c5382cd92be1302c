/// \file sim_replay.cpp
/// The `sim512-replay` workload: cycle-mode `simnet::simulateIteration`
/// replays of BT, SP and CG at 64 KiB messages on the paper's 4x4x4x4x2
/// partition (concentration 2, 1024 ranks), under the ABCDET and Hilbert
/// baseline mappings, with the default SimConfig. No RAHTM solve runs. One
/// timed operation is one simulation; a run makes whole passes over the six
/// (benchmark, mapper) cases.

#include <iostream>
#include <optional>

#include "graph/stats.hpp"
#include "mapping/hilbert.hpp"
#include "mapping/permutation.hpp"
#include "routing/oblivious.hpp"
#include "simnet/simulator.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

using rahtm::Mapping;
using rahtm::Torus;
using rahtm::Workload;

constexpr int kConcentration = 2;
/// 64 KiB keeps a simulation near a second (256 KiB takes 3-5 s), so a run
/// holds several passes and its medians are over tens of simulations.
constexpr std::int64_t kMessageBytes = 64 * 1024;

struct Case {
  std::string name;  ///< benchmark/mapper
  Workload workload;
  rahtm::CommGraph graph;
  Mapping mapping;
};

struct Input {
  Torus topo;
  std::vector<Case> cases;
};

Input buildInput() {
  Input in{Torus::torus({4, 4, 4, 4, 2}), {}};
  const auto ranks =
      static_cast<rahtm::RankId>(in.topo.numNodes() * kConcentration);
  rahtm::NasParams params;
  params.messageBytes = kMessageBytes;
  for (const char* bench : {"BT", "SP", "CG"}) {
    Workload w = rahtm::makeNasByName(bench, ranks, params);
    rahtm::CommGraph g = w.commGraph();
    rahtm::DefaultMapper abcdet;
    rahtm::HilbertMapper hilbert;
    for (rahtm::TaskMapper* m :
         std::initializer_list<rahtm::TaskMapper*>{&abcdet, &hilbert}) {
      Mapping mapping = m->map(g, in.topo, kConcentration);
      in.cases.push_back(
          {std::string(bench) + "/" + m->name(), w, g, std::move(mapping)});
    }
  }
  return in;
}

struct Window {
  std::vector<double> seconds;  ///< per simulation
  std::vector<std::int64_t> cycles;  ///< per case, from the first pass
  /// Sampled before every pass and after the last. The simulator's drift
  /// follows the memory kernel: in paired runs its scaled median moved by
  /// about 10% with it and by 30% with the mixed kernel.
  HostSpeed host{1, HostSpeed::Kernel::Memory};
};

/// Whole passes over every case until the time floor \p seconds is met;
/// every pass must reproduce the first pass's cycle counts.
Window measure(double seconds, const Input& in, Result& r) {
  Window w;
  const auto t0 = Clock::now();
  for (int pass = 0; pass == 0 || secondsSince(t0) < seconds; ++pass) {
    w.host.sample();
    for (std::size_t c = 0; c < in.cases.size(); ++c) {
      const Case& k = in.cases[c];
      rahtm::simnet::PhaseResult res;
      {
        rahtm::obs::ScopedSpan span(rahtm::obs::tracer(), "bench.sim",
                                    "bench");
        const auto s0 = Clock::now();
        res = rahtm::simnet::simulateIteration(in.topo, k.mapping,
                                               k.workload.phases,
                                               rahtm::simnet::SimConfig{});
        w.seconds.push_back(secondsSince(s0));
        w.host.op(w.seconds.back());
      }
      ++r.attempted;
      if (pass == 0) {
        w.cycles.push_back(res.cycles);
      } else if (res.cycles != w.cycles[c]) {
        r.fail(k.name + ": simulated cycles changed between passes");
      }
    }
  }
  w.host.sample();
  return w;
}

Quality checkOutputs(const Input& in, const Window& w, Result& r) {
  Quality total;
  for (std::size_t c = 0; c < in.cases.size(); ++c) {
    const Case& k = in.cases[c];
    const std::string err = k.mapping.validate(in.topo, kConcentration);
    if (!err.empty()) r.fail(k.name + ": invalid mapping: " + err);
    const double mcl =
        rahtm::placementMcl(in.topo, k.graph, k.mapping.nodeVector());
    const double hop =
        rahtm::hopBytes(k.graph, in.topo, k.mapping.nodeVector());
    r.output(k.name + "/digest", mappingDigest(k.mapping));
    r.output(k.name + "/mcl", exact(mcl));
    r.output(k.name + "/hop_bytes", exact(hop));
    r.output(k.name + "/comm_cycles", std::to_string(w.cycles[c]));
    total.mcl += mcl;
    total.hopBytes += hop;
    total.cycles += w.cycles[c];
  }
  return total;
}

}  // namespace

Result runSimReplay(const Options& opt) {
  Result r;
  std::optional<Input> in;
  const double setup = medianSeconds(21, [&] { in = buildInput(); });

  if (!opt.trace) {
    const Window w = measure(opt.seconds, *in, r);
    const double rss = peakRssMb();
    const std::vector<double> ops = w.host.nominalOps();
    addTimings(r, w.host, setup, ops, sum(ops));
    r.add("peak_rss_mb", rss, "MB");
    addQuality(r, checkOutputs(*in, w, r));
    return r;
  }

  const double build = medianSeconds(21, [&] {
    rahtm::NasParams params;
    params.messageBytes = kMessageBytes;
    for (const char* bench : {"BT", "SP", "CG"}) {
      (void)rahtm::makeNasByName(bench, in->cases.front().workload.ranks,
                                 params)
          .commGraph();
    }
  });
  // The untraced and the traced window take half of --seconds each.
  const Window plain = measure(opt.seconds / 2, *in, r);
  Window traced;
  {
    TraceSession session;
    traced = measure(opt.seconds / 2, *in, r);
    const Attribution a = attribute(session.tracer.snapshot(),
                                    rahtm::SubproblemConfig{}.milpTimeLimitSec);
    const double n = static_cast<double>(traced.seconds.size());
    const double simSum = sum(traced.seconds);
    const auto cycles = static_cast<double>(session.counter("simnet.cycles"));
    const auto hops = static_cast<double>(session.counter("simnet.flit_hops"));
    r.add("simnet.sim_s", median(traced.seconds), "s");
    r.add("simnet.cycles", cycles / n, "count");
    r.add("simnet.cycles_per_s", ratio(cycles, simSum), "1/s");
    r.add("simnet.flit_hops", hops / n, "count");
    r.add("simnet.flit_hops_per_s", ratio(hops, simSum), "1/s");
    addMemMetrics(r);
    addSelfTimes(r, a, n);
    checkDominant(r, "sim512-replay", a.selfSeconds, simSum, "simnet");
  }
  r.add("obs.trace_overhead_frac",
        ratio(median(traced.host.nominalOps()),
              median(plain.host.nominalOps())) -
            1,
        "ratio");
  r.add("host.reference_s", traced.host.referenceSeconds(), "s");
  r.add("workloads.build_s", build, "s");
  if (plain.cycles != traced.cycles) {
    r.fail("traced simulations disagree with untraced ones");
  }
  checkOutputs(*in, traced, r);
  return r;
}

}  // namespace perfbench
