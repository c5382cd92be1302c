/// \file serve_mix.cpp
/// The `serve-mix` workload: a closed loop of in-process clients, each
/// waiting for its reply, sending NDJSON request lines through the serve
/// protocol into one Scheduler over one ArtifactCache.
///
/// Request sequence: rounds of thirteen requests in a fixed order: the
/// costly pair (4x4x2 CG) once, then the four cheap pairs three times over.
/// Round 0 sends every pair at its canonical message size (16 KiB for the
/// costly pair, 4 KiB for the cheap ones; the second and third cheap copies
/// repeat the first). In each later round the costly request repeats its
/// canonical request exactly, and of the twelve cheap slots the seed picks
/// six to send their pair a message size it has not sent before and six to
/// repeat one of the pair's earlier requests exactly (same payload, new id).
/// The seed therefore sets the cheap requests' sizes and which of them
/// repeat; it leaves alone what dominates the run time:
///  * the costly request's size: its leaf MILPs take 0.4-4.6 s depending
///    on the message size alone;
///  * the slots in the sequence: the scheduler runs fork-join waves, so
///    a cheap request's latency is set by the costliest request sharing its
///    wave or running ahead of it. Seeded slots moved the median latency by
///    25-40% across five seeds, measuring the draw instead of the program.
///
/// While the costly request runs, the other three clients' requests queue
/// behind its wave, so about four requests of a round are slow and nine
/// fast: the median falls among the fast ones and the 90th percentile among
/// the slow ones. With one copy of each cheap pair per round, the median
/// fell on the boundary between the two groups and moved by 15-30% from run
/// to run.

#include <algorithm>
#include <atomic>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "graph/stats.hpp"
#include "obs/json_reader.hpp"
#include "routing/oblivious.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "simnet/simulator.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

namespace serve = rahtm::serve;


constexpr std::int64_t kCanonicalBytes = 4096;

struct Pair {
  const char* machine;
  const char* benchmark;
  bool costly;  ///< solve takes a good part of a second, not milliseconds
  std::int64_t bytes = kCanonicalBytes;  ///< canonical message size
};

/// The request pairs. BT and SP need a square rank count, so at
/// concentration 2 only 2x2x2 and 4x4x2 accept them; 4x4x2 BT and SP are
/// left out because one such request (5-6 s) holds its fork-join wave for a
/// fifth of a timed window. 2x2x2x2 CG (a 16-node anneal, about 1.3 s) is
/// left out because a second costly request, in a wave of its own or
/// sharing one with 4x4x2 CG from run to run, moved the latency percentiles
/// by 15% and more. 4x4x2 CG solves eight 4-node MILPs; their cost
/// depends on the message size alone: 0.4-0.6 s at 1 KiB and 16 KiB,
/// 1.1 s at 64 KiB, 2.3-2.6 s at 4 KiB and 32 KiB, 3.3-4.6 s at 2 KiB and
/// 8 KiB. At 16 KiB a round takes about a second, so a run holds tens of
/// rounds and its percentiles rest on tens of costly requests.
const std::vector<Pair> kPairs = {{"4x4x2", "CG", true, 16384},
                                  {"2x2x2", "CG", false},
                                  {"2x2x2", "BT", false},
                                  {"2x2x2", "SP", false},
                                  {"4x2x2", "CG", false}};
constexpr int kCheapCopies = 3;    ///< of each cheap pair per round
constexpr int kFreshPerRound = 6;  ///< of the twelve cheap slots
const std::vector<const char*> kMachines = {"2x2x2", "4x2x2", "4x4x2"};
constexpr int kConcentration = 2;
constexpr int kLeafMilp = 4;
constexpr int kClients = 4;
constexpr int kWorkers = 4;
/// Rounds per timed window: one per requested second (a round takes about
/// that long), at least two. A fixed amount of work per --seconds (not a
/// time floor) keeps every run on the same requests.
int roundsFor(double seconds) {
  return std::max(2, static_cast<int>(seconds));
}

rahtm::Torus torusOf(const std::string& machine) {
  rahtm::Shape shape;
  std::size_t start = 0;
  for (std::size_t x; (x = machine.find('x', start)) != std::string::npos;
       start = x + 1) {
    shape.push_back(std::stoi(machine.substr(start, x - start)));
  }
  shape.push_back(std::stoi(machine.substr(start)));
  return rahtm::Torus::torus(shape);
}

struct Request {
  int pair = 0;
  std::int64_t bytes = 0;
  bool repeat = false;
  std::string key;   ///< machine/benchmark/bytes: equal keys, equal payload
  std::string line;  ///< the NDJSON request
};

std::string requestLine(const std::string& id, const Pair& p,
                        std::int64_t bytes, int leafMilp) {
  return std::string("{\"schema\":\"rahtm.serve.request/v1\",\"id\":\"") + id +
         "\",\"machine\":\"" + p.machine +
         "\",\"concentration\":" + std::to_string(kConcentration) +
         ",\"benchmark\":\"" + p.benchmark +
         "\",\"bytes\":" + std::to_string(bytes) +
         ",\"leaf_milp\":" + std::to_string(leafMilp) + "}";
}

std::vector<Request> generate(std::uint64_t seed, int rounds) {
  rahtm::Rng rng(seed);
  // Slot order within a round: the costly pair, then the cheap pairs
  // kCheapCopies times over.
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < kPairs.size(); ++i) {
    if (kPairs[i].costly) slots.push_back(i);
  }
  for (int c = 0; c < kCheapCopies; ++c) {
    for (std::size_t i = 0; i < kPairs.size(); ++i) {
      if (!kPairs[i].costly) slots.push_back(i);
    }
  }
  std::vector<std::size_t> cheapSlots;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (!kPairs[slots[k]].costly) cheapSlots.push_back(k);
  }
  std::vector<std::vector<std::int64_t>> sent(kPairs.size());
  std::vector<Request> out;
  for (int round = 0; round < rounds; ++round) {
    std::vector<char> fresh(slots.size(), 0);
    if (round > 0) {
      rng.shuffle(cheapSlots);
      for (int k = 0; k < kFreshPerRound; ++k) fresh[cheapSlots[k]] = 1;
    }
    for (std::size_t k = 0; k < slots.size(); ++k) {
      const std::size_t i = slots[k];
      auto& used = sent[i];
      Request q;
      q.pair = static_cast<int>(i);
      if (used.empty()) {
        q.bytes = kPairs[i].bytes;
        used.push_back(q.bytes);
      } else if (kPairs[i].costly) {
        q.bytes = kPairs[i].bytes;
        q.repeat = true;
      } else if (fresh[k] == 0) {
        q.bytes = used[rng.nextBounded(used.size())];
        q.repeat = true;
      } else {
        do {
          q.bytes = 1024 * rng.nextInt(1, 64);
        } while (std::find(used.begin(), used.end(), q.bytes) != used.end());
        used.push_back(q.bytes);
      }
      const Pair& p = kPairs[i];
      q.key = std::string(p.machine) + "/" + p.benchmark + "/" +
              std::to_string(q.bytes);
      q.line = requestLine(std::to_string(out.size()) + ":" + q.key, p,
                           q.bytes, kLeafMilp);
      out.push_back(std::move(q));
    }
  }
  return out;
}

/// The service stack one timed window runs against.
struct Stack {
  serve::ArtifactCache cache;
  serve::MapService service{&cache};
  std::unique_ptr<serve::Scheduler> scheduler;
};

/// Build the stack and warm the cache with one request per machine shape.
/// The warm-up requests resolve their leaves without the MILP
/// (`leaf_milp: 1`): the cache is keyed by topology and graph, not by
/// solver settings, so they build the same artifacts at a fraction of the
/// cost.
std::unique_ptr<Stack> buildStack() {
  auto s = std::make_unique<Stack>();
  serve::SchedulerConfig cfg;
  cfg.threads = kWorkers;
  s->scheduler = std::make_unique<serve::Scheduler>(s->service, cfg);
  std::vector<std::future<serve::MapResponse>> warm;
  for (const char* m : kMachines) {
    auto t = s->scheduler->submit(serve::parseMapRequestLine(
        requestLine(std::string("warm-") + m, {m, "CG", false},
                    kCanonicalBytes, 1)));
    if (!t.accepted) throw rahtm::Error("warm-up request rejected");
    warm.push_back(std::move(t.response));
  }
  for (auto& f : warm) {
    const serve::MapResponse r = f.get();
    if (!r.ok) throw rahtm::Error("warm-up request failed: " + r.error);
  }
  return s;
}

struct Served {
  std::size_t index = 0;
  double latency = 0;  ///< submit to parsed response
  double queueSeconds = 0;
  double solveSeconds = 0;
  bool ok = false;
  std::optional<rahtm::Mapping> mapping;
  std::optional<rahtm::RahtmStats> stats;
};

struct Window {
  std::vector<Served> served;  ///< in sequence order
  double wallSeconds = 0;
  /// Sampled before and after the closed loop (kernel samples between
  /// requests would pause every client at once), one copy per worker. The
  /// window's latencies are all scaled by the median sample.
  HostSpeed host{kWorkers};
  serve::ArtifactCacheStats cacheBefore, cacheAfter;
  rahtm::TieredRouteCache::Stats routes;  ///< summed over machine shapes
};

rahtm::TieredRouteCache::Stats routeStats(Stack& s) {
  rahtm::TieredRouteCache::Stats total;
  for (const char* m : kMachines) {
    const rahtm::Torus topo = torusOf(m);
    accumulate(total, s.cache.routeCache(topo)->stats());
  }
  return total;
}

rahtm::Mapping mappingFrom(const rahtm::obs::JsonValue& doc) {
  const rahtm::obs::JsonValue& arr = doc.at("mapping");
  rahtm::Mapping m(static_cast<rahtm::RankId>(arr.array.size()));
  for (std::size_t r = 0; r < arr.array.size(); ++r) {
    m.assign(static_cast<rahtm::RankId>(r),
             static_cast<rahtm::NodeId>(arr.array[r].array.at(0).number),
             static_cast<int>(arr.array[r].array.at(1).number));
  }
  return m;
}

/// One client's request: encode, parse, submit, wait, encode and parse the
/// response, as a remote caller of the daemon would see it.
Served roundTrip(serve::Scheduler& sched, const Request& q, std::size_t index,
                 Result& r, std::mutex& mu) {
  Served s;
  s.index = index;
  const auto t0 = Clock::now();
  rahtm::obs::ScopedSpan span(rahtm::obs::tracer(), "bench.request", "bench");
  auto ticket = sched.submit(serve::parseMapRequestLine(q.line));
  if (!ticket.accepted) {
    std::lock_guard<std::mutex> lock(mu);
    r.fail("request " + q.key + " rejected by the scheduler");
    return s;
  }
  serve::MapResponse resp = ticket.response.get();
  const rahtm::obs::JsonValue doc =
      rahtm::obs::parseJson(serve::mapResponseJson(resp));
  s.latency = secondsSince(t0);
  span.close();
  s.queueSeconds = resp.queueSeconds;
  s.solveSeconds = resp.solveSeconds;
  const auto problems = serve::validateServeResponseJson(doc);
  s.ok = resp.ok && problems.empty() && doc.find("mapping") != nullptr;
  std::lock_guard<std::mutex> lock(mu);
  if (!s.ok) {
    r.fail("request " + q.key + ": " +
           (resp.ok ? (problems.empty() ? "no mapping" : problems.front())
                    : resp.error));
    return s;
  }
  s.mapping = mappingFrom(doc);
  if (resp.hasRahtmStats) s.stats = resp.stats;
  return s;
}

/// Closed loop: kClients clients pull the next request of the sequence as
/// soon as their previous reply arrived, until the sequence is done.
Window measure(Stack& stack, const std::vector<Request>& seq, Result& r) {
  constexpr int kHostSamples = 3;  ///< on each side of the closed loop
  Window w;
  for (int i = 0; i < kHostSamples; ++i) w.host.sample();
  w.cacheBefore = stack.cache.stats();
  const rahtm::TieredRouteCache::Stats routesBefore = routeStats(stack);
  std::mutex mu;
  std::size_t next = 0;
  std::vector<Served> served;
  const auto t0 = Clock::now();
  const auto pull = [&]() -> std::optional<std::size_t> {
    std::lock_guard<std::mutex> lock(mu);
    if (next == seq.size()) return std::nullopt;
    ++r.attempted;
    return next++;
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (const auto i = pull()) {
        Served s;
        try {
          s = roundTrip(*stack.scheduler, seq[*i], *i, r, mu);
        } catch (const std::exception& e) {
          s.index = *i;
          std::lock_guard<std::mutex> lock(mu);
          r.fail("request " + seq[*i].key + ": " + e.what());
        }
        std::lock_guard<std::mutex> lock(mu);
        served.push_back(std::move(s));
      }
    });
  }
  for (auto& t : clients) t.join();
  w.wallSeconds = secondsSince(t0);
  std::sort(served.begin(), served.end(),
            [](const Served& a, const Served& b) { return a.index < b.index; });
  for (int i = 0; i < kHostSamples; ++i) w.host.sample();
  w.served = std::move(served);
  w.cacheAfter = stack.cache.stats();
  w.routes = routeStats(stack);
  w.routes.denseHits -= routesBefore.denseHits;
  w.routes.denseMisses -= routesBefore.denseMisses;
  w.routes.sparseHits -= routesBefore.sparseHits;
  w.routes.sparseMisses -= routesBefore.sparseMisses;
  w.routes.refaults -= routesBefore.refaults;
  w.routes.evictions -= routesBefore.evictions;
  return w;
}

std::vector<double> field(const Window& w, double Served::*m) {
  std::vector<double> v;
  for (const Served& s : w.served) v.push_back(s.*m);
  return v;
}

/// Output checks, outside the timed window: every distinct request is
/// solved once more by an uncached one-shot MapService and must match every
/// served copy; the canonical round's mappings are also checked exactly
/// against the committed values.
Quality checkOutputs(const Window& w, const std::vector<Request>& seq,
                     Result& r) {
  std::map<std::string, std::vector<const Served*>> byKey;
  for (const Served& s : w.served) {
    if (s.mapping) byKey[seq[s.index].key].push_back(&s);
  }
  std::vector<std::string> keys;
  std::vector<std::vector<const Served*>> groups;
  for (auto& [key, copies] : byKey) {
    keys.push_back(key);
    groups.push_back(std::move(copies));
  }
  std::vector<std::optional<rahtm::Mapping>> reference(keys.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&] {
      serve::MapService oneShot;
      for (std::size_t k = next++; k < keys.size(); k = next++) {
        const Request& q = seq[groups[k].front()->index];
        serve::MapResponse resp =
            oneShot.handle(serve::parseMapRequestLine(q.line));
        if (resp.ok) reference[k] = std::move(resp.mapping);
      }
    });
  }
  for (auto& t : workers) t.join();

  Quality total;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto& copies = groups[k];
    const Request& q = seq[copies.front()->index];
    const Pair& p = kPairs[static_cast<std::size_t>(q.pair)];
    const rahtm::Torus topo = torusOf(p.machine);
    if (!reference[k]) {
      r.fail("one-shot solve of " + keys[k] + " failed");
      continue;
    }
    for (const Served* s : copies) {
      if (*s->mapping != *reference[k]) {
        r.fail("served mapping of " + keys[k] + " (request " +
               std::to_string(s->index) + ") differs from the one-shot solve");
      }
      const std::string err = s->mapping->validate(topo, kConcentration);
      if (!err.empty()) r.fail("invalid mapping for " + keys[k] + ": " + err);
    }
    if (q.bytes != p.bytes) continue;
    serve::MapRequest req = serve::parseMapRequestLine(q.line);
    const serve::RequestInput in = serve::MapService().buildInput(req);
    const std::vector<rahtm::NodeId>& nodes = reference[k]->nodeVector();
    Quality qual;
    qual.mcl = rahtm::placementMcl(topo, in.graph, nodes);
    qual.hopBytes = rahtm::hopBytes(in.graph, topo, nodes);
    qual.cycles = rahtm::simnet::simulateIteration(
                      topo, *reference[k], in.simStages,
                      rahtm::simnet::SimConfig{})
                      .cycles;
    const std::string prefix = std::string(p.machine) + "/" + p.benchmark;
    r.output(prefix + "/digest", mappingDigest(*reference[k]));
    r.output(prefix + "/mcl", exact(qual.mcl));
    r.output(prefix + "/hop_bytes", exact(qual.hopBytes));
    r.output(prefix + "/comm_cycles", std::to_string(qual.cycles));
    total.mcl += qual.mcl;
    total.hopBytes += qual.hopBytes;
    total.cycles += qual.cycles;
  }
  return total;
}

void addLayerMetrics(Result& r, const Window& w,
                     const std::vector<Request>& seq, const TraceSession& s,
                     const Attribution& a) {
  const double n = static_cast<double>(w.served.size());
  std::vector<rahtm::RahtmStats> stats;
  std::vector<double> solve;
  for (const Served& x : w.served) {
    if (!x.stats) continue;
    stats.push_back(*x.stats);
    solve.push_back(x.solveSeconds);
  }
  addCoreMetrics(r, stats, solve, s);
  addLpMetrics(r, s, a, n);
  addRouteMetrics(r, w.routes, n);

  const auto queue = field(w, &Served::queueSeconds);
  r.add("serve.queue_s_p50", median(queue), "s");
  r.add("serve.queue_s_p90", quantile(queue, 0.9), "s");
  r.add("serve.solve_s_p50", median(field(w, &Served::solveSeconds)), "s");
  r.add("serve.solve_s_p90", quantile(field(w, &Served::solveSeconds), 0.9),
        "s");
  r.add("serve.waves",
        ratio(static_cast<double>(s.counter("rahtm.serve.waves")), n),
        "count");
  r.add("serve.worker_busy_frac",
        ratio(sum(field(w, &Served::solveSeconds)), w.wallSeconds * kWorkers),
        "ratio");
  const auto hitRatio = [&](std::int64_t serve::ArtifactCacheStats::*hits,
                            std::int64_t serve::ArtifactCacheStats::*misses) {
    const auto h =
        static_cast<double>(w.cacheAfter.*hits - w.cacheBefore.*hits);
    const auto m =
        static_cast<double>(w.cacheAfter.*misses - w.cacheBefore.*misses);
    return ratio(h, h + m);
  };
  r.add("serve.cache.route_hit_ratio",
        hitRatio(&serve::ArtifactCacheStats::routeHits,
                 &serve::ArtifactCacheStats::routeMisses),
        "ratio");
  r.add("serve.cache.incidence_hit_ratio",
        hitRatio(&serve::ArtifactCacheStats::incidenceHits,
                 &serve::ArtifactCacheStats::incidenceMisses),
        "ratio");
  r.add("serve.cache.evictions",
        static_cast<double>(w.cacheAfter.evictions - w.cacheBefore.evictions),
        "count");
  r.add("serve.cache_mb", static_cast<double>(w.cacheAfter.bytes) / 1e6, "MB");

  // The mix as sent, for the record: repeat share and per-shape shares.
  std::int64_t repeats = 0;
  std::map<std::string, std::int64_t> shapes;
  for (const Served& x : w.served) {
    const Request& q = seq[x.index];
    repeats += q.repeat ? 1 : 0;
    ++shapes[kPairs[static_cast<std::size_t>(q.pair)].machine];
  }
  std::cerr << "perfbench: serve-mix sent " << w.served.size()
            << " requests, repeat share " << ratio(repeats, n);
  for (const char* m : kMachines) {
    std::cerr << ", " << m << " " << ratio(shapes[m], n);
  }
  std::cerr << "\n";
  addSelfTimes(r, a, n);

  // The workload's stated reason: the 4x4x2 requests are MILP-bound.
  std::map<std::string, double> layers;
  double requestSeconds = 0;
  for (const auto& req : a.requests) {
    if (req.id.find(":4x4x2/") == std::string::npos) continue;
    requestSeconds += req.seconds;
    for (const auto& [layer, sec] : req.selfSeconds) layers[layer] += sec;
  }
  checkDominant(r, "serve-mix (4x4x2 requests)", layers, requestSeconds,
                "lp");
}

}  // namespace

Result runServeMix(const Options& opt) {
  Result r;
  std::vector<Request> seq;
  std::unique_ptr<Stack> stack;
  // A traced run measures an untraced and a traced window, each over the
  // sequence for half of --seconds.
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double setup = medianSeconds(3, [&] {
    stack.reset();
    stack = buildStack();
    seq = generate(opt.seed, roundsFor(window));
  });

  if (!opt.trace) {
    const Window w = measure(*stack, seq, r);
    const double rss = peakRssMb();
    std::vector<double> latency = field(w, &Served::latency);
    for (double& x : latency) x *= w.host.timeScale();
    addTimings(r, w.host, setup, latency, w.wallSeconds * w.host.timeScale());
    r.add("peak_rss_mb", rss, "MB");
    stack.reset();
    addQuality(r, checkOutputs(w, seq, r));
    return r;
  }

  const double build = medianSeconds(3, [] {
    for (const Pair& p : kPairs) {
      const rahtm::Torus topo = torusOf(p.machine);
      rahtm::NasParams params;
      params.messageBytes = p.bytes;
      (void)rahtm::makeNasByName(
          p.benchmark,
          static_cast<rahtm::RankId>(topo.numNodes() * kConcentration), params)
          .commGraph();
    }
  });
  const Window plain = measure(*stack, seq, r);
  stack = buildStack();
  Window traced;
  {
    TraceSession session;
    traced = measure(*stack, seq, r);
    const Attribution a = attribute(session.tracer.snapshot(),
                                    rahtm::SubproblemConfig{}.milpTimeLimitSec);
    addLayerMetrics(r, traced, seq, session, a);
  }
  stack.reset();
  r.add("obs.trace_overhead_frac",
        ratio(median(field(traced, &Served::latency)) *
                  traced.host.timeScale(),
              median(field(plain, &Served::latency)) * plain.host.timeScale()) -
            1,
        "ratio");
  r.add("host.reference_s", traced.host.referenceSeconds(), "s");
  r.add("workloads.build_s", build, "s");
  checkOutputs(traced, seq, r);
  return r;
}

}  // namespace perfbench
