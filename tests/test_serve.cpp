/// \file test_serve.cpp
/// The mapping-as-a-service stack: artifact cache (hit/miss/eviction
/// accounting, cross-thread build memoization), service request handling,
/// scheduler admission + backpressure, wire protocol round-trips — and the
/// headline contract, served mappings bit-identical to serial one-shot
/// runs whether artifacts come from the cache or are built locally.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/json_reader.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "topology/torus.hpp"

namespace rahtm {
namespace {

serve::MapRequest cgRequest(Shape machine, int concentration,
                            std::int64_t bytes = 4096) {
  serve::MapRequest req;
  req.machine = std::move(machine);
  req.concentration = concentration;
  req.benchmark = "CG";
  req.messageBytes = bytes;
  req.leafMilpVerts = 4;  // tight MILP budget keeps solves TSan-friendly
  return req;
}

// ---- ArtifactCache --------------------------------------------------------

TEST(ArtifactCache, TopologyKeyDistinguishesShapes) {
  const Torus a = Torus::torus({4, 4, 2});
  const Torus b = Torus::torus({4, 2, 4});
  EXPECT_EQ(serve::ArtifactCache::topologyKey(a),
            serve::ArtifactCache::topologyKey(a));
  EXPECT_NE(serve::ArtifactCache::topologyKey(a),
            serve::ArtifactCache::topologyKey(b));
}

TEST(ArtifactCache, RouteTableSharedAndContentIdentical) {
  serve::ArtifactCache cache;
  const Torus topo = Torus::torus({2, 2, 2});
  const auto first = cache.routeTable(topo);
  const auto second = cache.routeTable(topo);
  EXPECT_EQ(first.get(), second.get());
  ASSERT_TRUE(first->complete());

  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.routeMisses, 1);
  EXPECT_EQ(s.routeHits, 1);
  EXPECT_GT(s.bytes, 0);

  // Cached contents match a locally built table span for span.
  const auto local = RouteTable::buildFull(topo);
  ASSERT_EQ(first->entryCount(), local->entryCount());
  const NodeId n = static_cast<NodeId>(topo.numNodes());
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      const RouteTable::Span a = first->find(src, dst);
      const RouteTable::Span b = local->find(src, dst);
      ASSERT_EQ(a.size, b.size);
      for (std::size_t i = 0; i < a.size; ++i) {
        EXPECT_EQ(a.channels[i], b.channels[i]);
        EXPECT_EQ(a.fracs[i], b.fracs[i]);
      }
    }
  }
}

TEST(ArtifactCache, CachedTableOutlivesCallerTopology) {
  // The regression that motivated RouteTable owning its Torus: the first
  // caller's topology dies before the second caller hits the cache.
  serve::ArtifactCache cache;
  {
    const Torus topo = Torus::torus({2, 2, 2});
    cache.routeTable(topo);
  }
  const Torus again = Torus::torus({2, 2, 2});
  const auto table = cache.routeTable(again);
  EXPECT_EQ(cache.stats().routeHits, 1);
  EXPECT_EQ(table->topology().numNodes(), again.numNodes());
  EXPECT_GT(table->find(0, 1).size, 0u);
}

TEST(ArtifactCache, IncidenceKeyedByGraphContent) {
  serve::ArtifactCache cache;
  CommGraph g1(4);
  g1.addFlow(0, 1, 100);
  g1.addFlow(2, 3, 50);
  CommGraph same(4);
  same.addFlow(0, 1, 100);
  same.addFlow(2, 3, 50);
  CommGraph different(4);
  different.addFlow(0, 1, 100);
  different.addFlow(2, 3, 51);

  const auto a = cache.flowIncidence(g1);
  const auto b = cache.flowIncidence(same);
  const auto c = cache.flowIncidence(different);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.incidenceMisses, 2);
  EXPECT_EQ(s.incidenceHits, 1);
}

TEST(ArtifactCache, EvictsLruUnderByteBudget) {
  serve::ArtifactCacheConfig cfg;
  cfg.maxBytes = 1;  // everything evicts as soon as it is accounted
  cfg.registerDegrade = false;
  serve::ArtifactCache cache(cfg);
  const Torus t1 = Torus::torus({2, 2});
  const Torus t2 = Torus::torus({2, 2, 2});
  const auto a = cache.routeTable(t1);
  const auto b = cache.routeTable(t2);
  // Returned artifacts stay valid (shared ownership) even though the index
  // dropped them.
  EXPECT_TRUE(a->complete());
  EXPECT_TRUE(b->complete());
  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.routeMisses, 2);
  EXPECT_GE(s.evictions, 2);
  EXPECT_EQ(s.bytes, 0);
  // Re-requesting misses again: the budget admits nothing.
  cache.routeTable(t1);
  EXPECT_EQ(cache.stats().routeMisses, 3);
}

TEST(ArtifactCache, DropAllReleasesEverything) {
  serve::ArtifactCacheConfig cfg;
  cfg.registerDegrade = false;
  serve::ArtifactCache cache(cfg);
  const Torus topo = Torus::torus({2, 2, 2});
  cache.routeTable(topo);
  ASSERT_GT(cache.stats().bytes, 0);
  EXPECT_GT(cache.dropAll(), 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  cache.routeTable(topo);
  EXPECT_EQ(cache.stats().routeMisses, 2);
}

TEST(ArtifactCache, ConcurrentRequestsBuildOnce) {
  serve::ArtifactCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const RouteTable>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        const Torus local = Torus::torus({2, 2, 2, 2});
        results[static_cast<std::size_t>(i)] = cache.routeTable(local);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(i)].get());
  }
  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.routeMisses, 1);
  EXPECT_EQ(s.routeHits, kThreads - 1);
}

// ---- MapService -----------------------------------------------------------

TEST(MapService, SolvesNamedWorkload) {
  serve::MapService service;
  serve::MapRequest req = cgRequest({2, 2, 2}, 2);
  req.id = "t1";
  const serve::MapResponse resp = service.handle(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.id, "t1");
  EXPECT_EQ(resp.ranks, 16);
  EXPECT_GT(resp.flows, 0);
  EXPECT_GT(resp.mcl, 0);
  EXPECT_TRUE(resp.hasRahtmStats);
  const Torus machine = Torus::torus(req.machine);
  EXPECT_TRUE(resp.mapping.validate(machine, req.concentration).empty());
}

TEST(MapService, UnknownMapperFailsCleanly) {
  serve::MapService service;
  serve::MapRequest req = cgRequest({2, 2}, 1);
  req.mapper = "bogus";
  const serve::MapResponse resp = service.handle(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, "unknown mapper 'bogus'");
}

TEST(MapService, GraphRankMismatchFails) {
  serve::MapService service;
  serve::MapRequest req = cgRequest({2, 2}, 1);
  req.hasGraph = true;
  req.graph = CommGraph(3);  // machine wants 4
  const serve::MapResponse resp = service.handle(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("graph ranks"), std::string::npos);
}

// ---- Scheduler: served results vs serial one-shot -------------------------

TEST(Scheduler, ServedMappingsBitIdenticalToOneShot) {
  // Two distinct workloads (same topology, different message size) so the
  // cache serves shared route tables to concurrently solving requests with
  // distinct incidences in flight.
  const std::int64_t kBytes[] = {4096, 8192};
  serve::MapService oneShot;  // uncached, serial — the reference behavior
  std::vector<serve::MapResponse> reference;
  for (const std::int64_t b : kBytes) {
    reference.push_back(oneShot.handle(cgRequest({2, 2, 2}, 2, b)));
    ASSERT_TRUE(reference.back().ok) << reference.back().error;
  }

  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig cfg;
  cfg.threads = 4;
  cfg.maxBatch = 4;
  serve::Scheduler sched(service, cfg);

  constexpr int kRepeats = 3;
  std::vector<std::future<serve::MapResponse>> futures;
  std::vector<std::size_t> refOf;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t b = 0; b < 2; ++b) {
      serve::Scheduler::Ticket t =
          sched.submit(cgRequest({2, 2, 2}, 2, kBytes[b]));
      ASSERT_TRUE(t.accepted);
      futures.push_back(std::move(t.response));
      refOf.push_back(b);
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::MapResponse resp = futures[i].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.mapping, reference[refOf[i]].mapping)
        << "served mapping diverged from one-shot (request " << i << ")";
  }
  EXPECT_EQ(sched.completed(), futures.size());
  EXPECT_EQ(sched.errors(), 0u);
  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_GT(s.routeHits, 0);
  EXPECT_GT(s.incidenceHits, 0);
}

TEST(Scheduler, WarmRequestsSkipRouteBuilds) {
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  service.handle(cgRequest({2, 2, 2}, 2));  // cold: populates the cache
  const serve::ArtifactCacheStats cold = cache.stats();
  EXPECT_GT(cold.routeMisses, 0);
  const serve::MapResponse warm = service.handle(cgRequest({2, 2, 2}, 2));
  ASSERT_TRUE(warm.ok) << warm.error;
  const serve::ArtifactCacheStats after = cache.stats();
  EXPECT_EQ(after.routeMisses, cold.routeMisses);
  EXPECT_EQ(after.incidenceMisses, cold.incidenceMisses);
  EXPECT_GT(after.routeHits, cold.routeHits);
}

TEST(Scheduler, BackpressureRejectsWithRetryAfter) {
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.maxBatch = 1;
  cfg.maxQueueDepth = 1;
  serve::Scheduler sched(service, cfg);

  constexpr int kSubmits = 32;
  std::vector<std::future<serve::MapResponse>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < kSubmits; ++i) {
    serve::Scheduler::Ticket t = sched.submit(cgRequest({2, 2}, 1));
    if (t.accepted) {
      accepted.push_back(std::move(t.response));
    } else {
      ++rejected;
      EXPECT_GT(t.retryAfterSec, 0.0);
    }
  }
  // Solves take milliseconds, submissions microseconds: with depth 1 the
  // queue is saturated long before the first wave finishes.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(sched.rejected(), rejected);
  EXPECT_EQ(sched.accepted(), accepted.size());
  for (auto& f : accepted) {
    const serve::MapResponse resp = f.get();
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_GE(resp.queueSeconds, 0.0);
  }
  sched.drain();
  EXPECT_EQ(sched.completed(), accepted.size());
}

// ---- Protocol -------------------------------------------------------------

TEST(Protocol, RequestDefaultsAndOverrides) {
  const serve::MapRequest minimal = serve::parseMapRequestLine(
      R"({"schema":"rahtm.serve.request/v1","machine":"2x2"})");
  EXPECT_EQ(minimal.machine, (Shape{2, 2}));
  EXPECT_EQ(minimal.concentration, 1);
  EXPECT_EQ(minimal.benchmark, "CG");
  EXPECT_EQ(minimal.mapper, "rahtm");
  EXPECT_FALSE(minimal.hasGraph);

  const serve::MapRequest full = serve::parseMapRequestLine(
      R"({"schema":"rahtm.serve.request/v1","id":"r9","machine":"4x4x2",)"
      R"("concentration":2,"benchmark":"BT","bytes":1024,"mapper":"greedy",)"
      R"("beam":16,"merge":false,"refine":false,"leaf_milp":4,"threads":3,)"
      R"("seed":7,"grid":"8x4",)"
      R"("graph":{"ranks":64,"flows":[[0,1,4096],[1,2,2048]]}})");
  EXPECT_EQ(full.id, "r9");
  EXPECT_EQ(full.machine, (Shape{4, 4, 2}));
  EXPECT_EQ(full.concentration, 2);
  EXPECT_EQ(full.messageBytes, 1024);
  EXPECT_EQ(full.mapper, "greedy");
  EXPECT_EQ(full.beamWidth, 16);
  EXPECT_FALSE(full.enableMerge);
  EXPECT_FALSE(full.finalRefinement);
  EXPECT_EQ(full.leafMilpVerts, 4);
  EXPECT_EQ(full.threads, 3);
  EXPECT_EQ(full.seed, 7u);
  EXPECT_EQ(full.grid, (Shape{8, 4}));
  ASSERT_TRUE(full.hasGraph);
  EXPECT_EQ(full.graph.numRanks(), 64);
  EXPECT_EQ(full.graph.flows().size(), 2u);
}

TEST(Protocol, MalformedRequestsThrow) {
  EXPECT_THROW(serve::parseMapRequestLine("{}"), ParseError);
  EXPECT_THROW(serve::parseMapRequestLine(
                   R"({"schema":"rahtm.serve.request/v1"})"),
               ParseError);  // no machine
  EXPECT_THROW(serve::parseMapRequestLine(
                   R"({"schema":"wrong/v0","machine":"2x2"})"),
               ParseError);
  EXPECT_THROW(
      serve::parseMapRequestLine(
          R"({"schema":"rahtm.serve.request/v1","machine":"2x2","beam":"x"})"),
      ParseError);
  EXPECT_THROW(
      serve::parseMapRequestLine(
          R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)"
          R"("graph":{"ranks":4,"flows":[[0,1]]}})"),
      ParseError);
}

// The beam width is range-checked at the wire: below 1 the merge beam
// could never fill (or trips an internal check), above INT_MAX the narrowing
// cast wraps. The error names the field and carries no source location.
TEST(Protocol, BeamOutOfRangeIsRejected) {
  for (const char* beam :
       {"-1", "0", "2.5", "2147483648", "1e300", "-9223372036854775809"}) {
    const std::string line =
        std::string(R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)") +
        R"("beam":)" + beam + "}";
    try {
      serve::parseMapRequestLine(line);
      ADD_FAILURE() << "beam " << beam << " accepted";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'beam'"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    }
  }
  for (const char* beam : {"1", "2147483647"}) {
    const serve::MapRequest req = serve::parseMapRequestLine(
        std::string(R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)") +
        R"("beam":)" + beam + "}");
    EXPECT_EQ(std::to_string(req.beamWidth), beam);
  }
}

// Every integer member follows the same wire rule: a whole number inside
// the int64 range, checked before the cast.
TEST(Protocol, IntegerMembersRejectFractionsAndOverflow) {
  for (const char* member : {R"("bytes":1.5)", R"("seed":1e19)",
                             R"("leaf_milp":-1e300)", R"("threads":"2")"}) {
    const std::string line =
        std::string(R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)") +
        member + "}";
    EXPECT_THROW(serve::parseMapRequestLine(line), ParseError) << member;
  }
  const serve::MapRequest req = serve::parseMapRequestLine(
      R"({"schema":"rahtm.serve.request/v1","machine":"2x2","bytes":2048,)"
      R"("seed":-9223372036854775808})");
  EXPECT_EQ(req.messageBytes, 2048);
  EXPECT_EQ(static_cast<std::int64_t>(req.seed),
            std::numeric_limits<std::int64_t>::min());
}

// Members narrowed to int (or RankId) carry their own bounds, so a value
// that fits int64 but not the field is rejected instead of wrapping
// (4294967297 would become 1), and a negative message size no longer trips
// an internal check. The error names the member, without a source location.
TEST(Protocol, MembersCarryTheirFieldBounds) {
  const std::string head =
      R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)";
  const struct {
    const char* member;
    const char* name;
  } rejected[] = {
      {R"("concentration":0)", "'concentration'"},
      {R"("concentration":4294967297)", "'concentration'"},
      {R"("leaf_milp":-1)", "'leaf_milp'"},
      {R"("leaf_milp":2147483648)", "'leaf_milp'"},
      {R"("threads":-1)", "'threads'"},
      {R"("threads":4294967297)", "'threads'"},
      {R"("graph":{"ranks":0,"flows":[]})", "'graph.ranks'"},
      {R"("graph":{"ranks":2147483648,"flows":[]})", "'graph.ranks'"},
      {R"("graph":{"flows":[]})", "'graph.ranks'"},
      {R"("bytes":-5)", "'bytes'"},
  };
  for (const auto& r : rejected) {
    try {
      serve::parseMapRequestLine(head + r.member + "}");
      ADD_FAILURE() << r.member << " accepted";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(r.name), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    }
  }
  const serve::MapRequest req = serve::parseMapRequestLine(
      head +
      R"("concentration":2147483647,"leaf_milp":0,"threads":2147483647,)"
      R"("bytes":0,"graph":{"ranks":2147483647,"flows":[]}})");
  EXPECT_EQ(req.concentration, std::numeric_limits<int>::max());
  EXPECT_EQ(req.leafMilpVerts, 0);
  EXPECT_EQ(req.threads, std::numeric_limits<int>::max());
  EXPECT_EQ(req.messageBytes, 0);
  EXPECT_EQ(req.graph.numRanks(), std::numeric_limits<RankId>::max());
}

// Flow endpoints must index the declared ranks (a far endpoint used to grow
// the graph to 2e9 ranks; 1e20 was an undefined cast) and bytes must be a
// finite, non-negative volume.
TEST(Protocol, FlowEntriesAreRangeChecked) {
  const std::string head =
      R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)"
      R"("graph":{"ranks":4,"flows":[)";
  for (const char* flow :
       {"[1e20,0,1]", "[0,2000000000,1]", "[-1,0,1]", "[0,4,1]", "[0.5,1,1]",
        "[0,1,-1]", "[0,1,1e400]", "[0,-1e400,1]"}) {
    try {
      serve::parseMapRequestLine(head + flow + "]}}");
      ADD_FAILURE() << flow << " accepted";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("graph.flows"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    }
  }
  const serve::MapRequest req =
      serve::parseMapRequestLine(head + "[3,0,0],[0,3,2.5]]}}");
  EXPECT_EQ(req.graph.numRanks(), 4);
  EXPECT_EQ(req.graph.volume(0, 3), 2.5);
}

TEST(Protocol, ResponseRoundTripValidates) {
  serve::MapService service;
  const serve::MapResponse resp = service.handle(cgRequest({2, 2, 2}, 1));
  ASSERT_TRUE(resp.ok) << resp.error;
  const std::string line = serve::mapResponseJson(resp);
  const obs::JsonValue doc = obs::parseJson(line);
  const std::vector<std::string> problems =
      serve::validateServeResponseJson(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());

  // The mapping array mirrors the in-memory mapping entry for entry.
  const obs::JsonValue* mapping = doc.find("mapping");
  ASSERT_NE(mapping, nullptr);
  ASSERT_EQ(mapping->array.size(),
            static_cast<std::size_t>(resp.mapping.numRanks()));
  for (RankId r = 0; r < resp.mapping.numRanks(); ++r) {
    const obs::JsonValue& e = mapping->array[static_cast<std::size_t>(r)];
    EXPECT_EQ(static_cast<NodeId>(e.array[0].number), resp.mapping.nodeOf(r));
    EXPECT_EQ(static_cast<int>(e.array[1].number), resp.mapping.slotOf(r));
  }

  // Omitting the mapping is valid too (bench clients skip the bulk).
  const std::string lean = serve::mapResponseJson(resp, false);
  EXPECT_TRUE(
      serve::validateServeResponseJson(obs::parseJson(lean)).empty());
  EXPECT_EQ(obs::parseJson(lean).find("mapping"), nullptr);
}

TEST(Protocol, ValidatorRejectsBrokenResponses) {
  EXPECT_FALSE(serve::validateServeResponseJson(
                   obs::parseJson(R"({"schema":"rahtm.serve.response/v1"})"))
                   .empty());
  EXPECT_FALSE(
      serve::validateServeResponseJson(obs::parseJson(R"(["not","object"])"))
          .empty());
}

}  // namespace
}  // namespace rahtm
