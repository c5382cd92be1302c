// Tests for phase 3: the bottom-up beam merge with block reorientation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/merge.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "routing/oblivious.hpp"

namespace rahtm {
namespace {

/// Two 1x2 blocks merging into a 2x2 region. Block A holds clusters {0,1},
/// block B holds {2,3}.
std::vector<MergeChild> twoBarBlocks() {
  std::vector<MergeChild> children(2);
  children[0].clusters = {0, 1};
  children[0].localPos = {Coord{0, 0}, Coord{0, 1}};
  children[0].slot = Coord{0, 0};
  children[1].clusters = {2, 3};
  children[1].localPos = {Coord{0, 0}, Coord{0, 1}};
  children[1].slot = Coord{1, 0};
  return children;
}

TEST(Merge, PlacesEveryClusterExactlyOnce) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 5);
  g.addExchange(1, 3, 5);
  MergeConfig cfg;
  const MergeResult r = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                      twoBarBlocks(), g, cfg);
  ASSERT_EQ(r.clustersInRegion.size(), 4u);
  std::set<NodeId> nodes(r.localNode.begin(), r.localNode.end());
  EXPECT_EQ(nodes.size(), 4u);  // a bijection onto the region
  for (const NodeId n : r.localNode) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, region.numNodes());
  }
}

TEST(Merge, OrientationSearchFindsTheAlignedFlip) {
  // One heavy pair 0<->2. Identity orientations place them adjacent
  // (distance 1: one link carries the full 100); flipping the second block
  // moves 2 to the diagonal, where MAR splits the flow 50/50 (the Fig. 1
  // effect) — the orientation search must find that flip.
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 100);

  MergeConfig noSearch;
  noSearch.beamWidth = 1;
  noSearch.maxOrientations = 1;  // identity only
  const MergeResult rigid = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                          twoBarBlocks(), g, noSearch);

  MergeConfig search;  // full orientation group
  const MergeResult merged = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                           twoBarBlocks(), g, search);
  EXPECT_NEAR(rigid.objective, 100.0, 1e-9);
  EXPECT_NEAR(merged.objective, 50.0, 1e-9);
  // The objective matches a from-scratch evaluation of the final placement.
  std::vector<NodeId> place(4);
  for (std::size_t i = 0; i < 4; ++i) {
    place[static_cast<std::size_t>(merged.clustersInRegion[i])] =
        merged.localNode[i];
  }
  EXPECT_NEAR(merged.objective, placementMcl(region, g, place), 1e-9);
}

TEST(Merge, ObjectiveMatchesFromScratchEvaluation) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 7);
  g.addExchange(1, 2, 3);
  g.addExchange(0, 1, 11);  // intra-block flow must be counted too
  MergeConfig cfg;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                        twoBarBlocks(), g, cfg);
  std::vector<NodeId> place(4, kInvalidNode);
  for (std::size_t i = 0; i < res.clustersInRegion.size(); ++i) {
    place[static_cast<std::size_t>(res.clustersInRegion[i])] =
        res.localNode[i];
  }
  EXPECT_NEAR(res.objective, placementMcl(region, g, place), 1e-9);
}

TEST(Merge, IgnoresFlowsLeavingTheRegion) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(6);
  g.addExchange(0, 2, 5);
  g.addExchange(0, 5, 1000);  // cluster 5 is outside the region
  MergeConfig cfg;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                        twoBarBlocks(), g, cfg);
  EXPECT_LT(res.objective, 10);  // the 1000-volume flow did not count
}

TEST(Merge, RepositioningCanBeatPinnedSlots) {
  // Pin both heavy partners into the SAME column so pinned slots force
  // distance-2 communication; repositioning may swap slots.
  const Torus region = Torus::mesh(Shape{4, 1});
  std::vector<MergeChild> children(4);
  for (int i = 0; i < 4; ++i) {
    children[static_cast<std::size_t>(i)].clusters = {i};
    children[static_cast<std::size_t>(i)].localPos = {Coord{0, 0}};
  }
  // Pins: the 0<->1 pair spans the whole path, crossing the middle link
  // that the 2<->3 pair also needs. Swapping slots separates the pairs.
  children[0].slot = Coord{0, 0};
  children[1].slot = Coord{3, 0};
  children[2].slot = Coord{1, 0};
  children[3].slot = Coord{2, 0};
  CommGraph g(4);
  g.addExchange(0, 1, 50);
  g.addExchange(2, 3, 50);

  MergeConfig pinned;
  pinned.allowRepositioning = false;
  const auto rp = mergeChildren(region, Shape{1, 1}, Shape{4, 1}, children, g,
                                pinned);
  MergeConfig repositioning;
  repositioning.allowRepositioning = true;
  const auto rr = mergeChildren(region, Shape{1, 1}, Shape{4, 1}, children, g,
                                repositioning);
  EXPECT_LE(rr.objective, rp.objective);
  EXPECT_LT(rr.objective, rp.objective);  // strictly better here
}

TEST(Merge, HopBytesObjectiveMode) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 3, 100);
  MergeConfig cfg;
  cfg.objective = MapObjective::HopBytes;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                        twoBarBlocks(), g, cfg);
  std::vector<NodeId> place(4, 0);
  for (std::size_t i = 0; i < res.clustersInRegion.size(); ++i) {
    place[static_cast<std::size_t>(res.clustersInRegion[i])] =
        res.localNode[i];
  }
  // 0 and 3 end up adjacent: hop-bytes = 200 (both directions, 1 hop).
  EXPECT_NEAR(res.objective, 200.0, 1e-9);
}

TEST(Merge, SingleChildIsPassedThrough) {
  const Torus region = Torus::mesh(Shape{1, 2});
  std::vector<MergeChild> children(1);
  children[0].clusters = {0, 1};
  children[0].localPos = {Coord{0, 0}, Coord{0, 1}};
  children[0].slot = Coord{0, 0};
  CommGraph g(2);
  g.addExchange(0, 1, 4);
  MergeConfig cfg;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{1, 1},
                                        children, g, cfg);
  EXPECT_EQ(res.clustersInRegion.size(), 2u);
  EXPECT_NEAR(res.objective, 4.0, 1e-9);
}

TEST(Merge, RejectsMalformedInputs) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  MergeConfig cfg;
  // Wrong child shape vs grid.
  EXPECT_THROW(mergeChildren(region, Shape{2, 2}, Shape{2, 1}, twoBarBlocks(),
                             g, cfg),
               PreconditionError);
  // Duplicate cluster across children.
  auto dup = twoBarBlocks();
  dup[1].clusters = {1, 3};
  EXPECT_THROW(
      mergeChildren(region, Shape{1, 2}, Shape{2, 1}, dup, g, cfg),
      PreconditionError);
  // Empty children list.
  EXPECT_THROW(mergeChildren(region, Shape{1, 2}, Shape{2, 1}, {}, g, cfg),
               PreconditionError);
}

TEST(Merge, BeamWidthOneIsGreedy) {
  // With a wide beam the search must do at least as well as greedy.
  const Torus region = Torus::torus(Shape{2, 2, 2});
  std::vector<MergeChild> children;
  for (int i = 0; i < 8; ++i) {
    MergeChild c;
    c.clusters = {i};
    c.localPos = {Coord{0, 0, 0}};
    c.slot = region.coordOf(i);
    children.push_back(c);
  }
  CommGraph g(8);
  for (RankId a = 0; a < 8; ++a) {
    g.addExchange(a, (a + 1) % 8, 10);
    g.addExchange(a, (a + 3) % 8, 5);
  }
  MergeConfig greedy;
  greedy.beamWidth = 1;
  greedy.allowRepositioning = true;
  MergeConfig wide;
  wide.beamWidth = 64;
  wide.allowRepositioning = true;
  const auto rg = mergeChildren(region, Shape{1, 1, 1}, Shape{2, 2, 2},
                                children, g, greedy);
  const auto rw = mergeChildren(region, Shape{1, 1, 1}, Shape{2, 2, 2},
                                children, g, wide);
  EXPECT_LE(rw.objective, rg.objective + 1e-9);
}

/// Eight 2x2x1 blocks of four clusters merging into a 4x4x2 torus under a
/// fixed random flow set: enough candidates (8 slots x 8 orientations per
/// parent) that the beam fills and the exact prune fires at every width.
/// Odd children carry a pin layout distinct from their merged layout.
struct MergeScenario {
  Torus region = Torus::torus(Shape{4, 4, 2});
  Shape childShape{2, 2, 1};
  Shape childGrid{2, 2, 2};
  std::vector<MergeChild> children;
  CommGraph g{32};
};

MergeScenario pruneScenario() {
  MergeScenario s;
  Rng rng(41);
  const Torus slots = Torus::mesh(s.childGrid);
  for (int ci = 0; ci < 8; ++ci) {
    MergeChild c;
    std::vector<Coord> cells = {Coord{0, 0, 0}, Coord{0, 1, 0},
                                Coord{1, 0, 0}, Coord{1, 1, 0}};
    for (int k = 0; k < 4; ++k) c.clusters.push_back(4 * ci + k);
    if (ci % 2 == 1) c.pinPos = cells;
    rng.shuffle(cells);
    c.localPos = cells;
    c.slot = slots.coordOf(ci);
    s.children.push_back(c);
  }
  for (int i = 0; i < 96; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(32));
    const auto b = static_cast<RankId>(rng.nextBounded(32));
    s.g.addFlow(a, b, static_cast<double>(rng.nextBounded(64) + 1) * 128.0);
  }
  return s;
}

// The bound prune abandons only candidates the full beam would reject
// anyway, so results — and the candidate count, which includes pruned
// candidates — equal those recorded before the prune existed, for every
// beam width, with and without repositioning, under both objectives.
TEST(Merge, BoundPruneKeepsRecordedResults) {
  const struct {
    MapObjective objective;
    bool repositioning;
    int beam;
    double resultObjective;
    std::int64_t candidates;
    std::vector<NodeId> localNode;
    const char* orientations;  // describe() of each child, concatenated
  } recorded[] = {
      {MapObjective::Mcl, false, 1, 12723.199999999997, 128,
       {8, 10, 2, 0, 1, 3, 9, 11, 6, 4, 14, 12, 7, 13, 5, 15, 18, 26,
        16, 24, 17, 19, 25, 27, 28, 30, 20, 22, 23, 29, 31, 21},
       "[+1 -0 +2][+0 +1 +2][+0 +1 +2][+1 +0 +2]"
       "[-0 -1 +2][+0 +1 +2][+0 +1 +2][-1 -0 +2]"},
      {MapObjective::Mcl, false, 4, 12439.466666666665, 296,
       {2, 10, 8, 0, 9, 3, 1, 11, 6, 4, 14, 12, 7, 13, 15, 5, 18, 26,
        16, 24, 17, 19, 25, 27, 28, 30, 20, 22, 23, 29, 31, 21},
       "[-0 +1 +2][+0 -1 +2][+0 +1 +2][-0 -1 +2]"
       "[-0 -1 +2][+0 +1 +2][+0 +1 +2][-1 -0 +2]"},
      {MapObjective::Mcl, false, 64, 12264.533333333335, 3208,
       {0, 2, 10, 8, 1, 3, 9, 11, 6, 4, 14, 12, 15, 5, 13, 7, 26, 18,
        24, 16, 17, 19, 25, 27, 28, 30, 20, 22, 23, 29, 31, 21},
       "[-1 -0 +2][+0 +1 +2][+0 +1 +2][-1 +0 +2]"
       "[+0 -1 +2][+0 +1 +2][+0 +1 +2][-1 -0 +2]"},
      {MapObjective::Mcl, true, 1, 13100.799999999996, 520,
       {6, 4, 12, 14, 13, 7, 5, 15, 9, 11, 1, 3, 26, 16, 24, 18, 23,
        21, 31, 29, 17, 19, 25, 27, 28, 30, 20, 22, 0, 10, 2, 8},
       "[-1 +0 +2][+0 -1 +2][-0 -1 +2][-1 +0 +2]"
       "[+1 +0 +2][+0 +1 +2][+0 +1 +2][+0 -1 +2]"},
      {MapObjective::Mcl, true, 4, 12586.666666666664, 1192,
       {6, 4, 12, 14, 10, 0, 2, 8, 9, 11, 1, 3, 26, 16, 18, 24, 31, 29,
        23, 21, 17, 19, 25, 27, 28, 30, 20, 22, 7, 13, 5, 15},
       "[-1 +0 +2][+0 +1 +2][-0 -1 +2][+0 -1 +2]"
       "[-1 +0 +2][+0 +1 +2][+0 +1 +2][+0 +1 +2]"},
      {MapObjective::Mcl, true, 64, 9954.133333333335, 14632,
       {12, 14, 6, 4, 21, 31, 29, 23, 13, 5, 15, 7, 27, 17, 25, 19, 18,
        16, 26, 24, 10, 0, 2, 8, 28, 30, 20, 22, 1, 11, 3, 9},
       "[+1 -0 +2][-0 -1 +2][+1 +0 +2][-1 +0 +2]"
       "[+1 +0 +2][-0 +1 +2][+0 +1 +2][+0 -1 +2]"},
      {MapObjective::HopBytes, false, 1, 857088, 128,
       {10, 8, 0, 2, 1, 11, 3, 9, 12, 14, 4, 6, 13, 7, 5, 15, 16, 18,
        24, 26, 25, 19, 27, 17, 28, 30, 20, 22, 21, 31, 29, 23},
       "[+1 +0 +2][-1 -0 +2][-0 -1 +2][+0 +1 +2]"
       "[+1 -0 +2][+1 +0 +2][+0 +1 +2][-1 +0 +2]"},
      {MapObjective::HopBytes, false, 4, 857088, 296,
       {2, 10, 8, 0, 9, 3, 1, 11, 4, 12, 6, 14, 5, 15, 7, 13, 18, 26,
        16, 24, 17, 27, 25, 19, 30, 22, 28, 20, 29, 23, 31, 21},
       "[-0 +1 +2][+0 -1 +2][-1 +0 +2][+1 -0 +2]"
       "[-0 -1 +2][+0 -1 +2][-1 +0 +2][-0 -1 +2]"},
      {MapObjective::HopBytes, false, 64, 856064, 3208,
       {10, 8, 0, 2, 1, 11, 3, 9, 4, 6, 12, 14, 13, 7, 5, 15, 16, 18,
        24, 26, 25, 19, 27, 17, 28, 30, 20, 22, 21, 31, 29, 23},
       "[+1 +0 +2][-1 -0 +2][+0 -1 +2][+0 +1 +2]"
       "[+1 -0 +2][+1 +0 +2][+0 +1 +2][-1 +0 +2]"},
      {MapObjective::HopBytes, true, 1, 789120, 520,
       {19, 17, 25, 27, 31, 21, 29, 23, 10, 8, 2, 0, 18, 24, 26, 16, 9,
        11, 1, 3, 7, 13, 5, 15, 28, 30, 20, 22, 12, 6, 4, 14},
       "[-1 +0 +2][+1 +0 +2][-0 +1 +2][-0 -1 +2]"
       "[-1 -0 +2][-1 -0 +2][+0 +1 +2][+1 +0 +2]"},
      {MapObjective::HopBytes, true, 4, 789120, 1192,
       {31, 23, 21, 29, 19, 25, 27, 17, 6, 14, 4, 12, 7, 13, 5, 15, 22,
        30, 20, 28, 18, 24, 26, 16, 3, 11, 1, 9, 0, 10, 2, 8},
       "[+0 +1 +2][-0 +1 +2][-1 -0 +2][+1 +0 +2]"
       "[-0 -1 +2][+0 +1 +2][+1 +0 +2][+0 -1 +2]"},
      {MapObjective::HopBytes, true, 64, 789120, 14632,
       {23, 31, 29, 21, 28, 22, 20, 30, 9, 1, 11, 3, 15, 5, 13, 7, 25,
        17, 27, 19, 26, 16, 18, 24, 12, 4, 14, 6, 8, 2, 10, 0},
       "[-0 +1 +2][+0 -1 +2][+1 +0 +2][-1 +0 +2]"
       "[+0 +1 +2][-0 +1 +2][-1 -0 +2][-0 -1 +2]"},
  };
  const MergeScenario sc = pruneScenario();
  for (const auto& r : recorded) {
    MergeConfig cfg;
    cfg.beamWidth = r.beam;
    cfg.allowRepositioning = r.repositioning;
    cfg.objective = r.objective;
    obs::MetricsRegistry reg;
    obs::setMetrics(&reg);
    const MergeResult res = mergeChildren(sc.region, sc.childShape,
                                          sc.childGrid, sc.children, sc.g, cfg);
    obs::setMetrics(nullptr);
    std::string orientations;
    for (const Orientation& o : res.orientationOfChild) {
      orientations += o.describe();
    }
    const std::string label =
        std::string(r.objective == MapObjective::Mcl ? "mcl" : "hop-bytes") +
        (r.repositioning ? " repositioning" : " pinned") + " beam " +
        std::to_string(r.beam);
    EXPECT_EQ(res.localNode, r.localNode) << label;
    EXPECT_EQ(res.objective, r.resultObjective) << label;
    EXPECT_EQ(orientations, r.orientations) << label;
    EXPECT_EQ(reg.counter("rahtm.merge.candidates").value(), r.candidates)
        << label;
  }
}

/// The root merge of the CI-scale solve: 32 one-node children on the
/// 2x2x2x2x2 torus. Every one of the 120 orientations of a one-node block
/// places it identically, so each (parent, slot) has one distinct
/// placement. Slots are a shuffled identity, flows random.
MergeScenario cube32Scenario() {
  MergeScenario s;
  s.region = Torus::torus(Shape{2, 2, 2, 2, 2});
  s.childShape = Shape{1, 1, 1, 1, 1};
  s.childGrid = Shape{2, 2, 2, 2, 2};
  s.g = CommGraph(32);
  Rng rng(7);
  std::vector<NodeId> slotOf(32);
  for (int i = 0; i < 32; ++i) slotOf[static_cast<std::size_t>(i)] = i;
  rng.shuffle(slotOf);
  for (int ci = 0; ci < 32; ++ci) {
    MergeChild c;
    c.clusters = {ci};
    c.localPos = {Coord{0, 0, 0, 0, 0}};
    c.slot = s.region.coordOf(slotOf[static_cast<std::size_t>(ci)]);
    s.children.push_back(c);
  }
  // A heavy ring in cluster order (which the shuffled pins scatter) under
  // light random traffic.
  for (RankId a = 0; a < 32; ++a) s.g.addExchange(a, (a + 1) % 32, 8192.0);
  for (int i = 0; i < 64; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(32));
    const auto b = static_cast<RankId>(rng.nextBounded(32));
    s.g.addFlow(a, b, static_cast<double>(rng.nextBounded(64) + 1) * 128.0);
  }
  return s;
}

/// Eight partly filled 2x2x1 blocks on a 4x4x2 torus. Occupancy cycles
/// through one cell (4 distinct placements of the 8 orientations), a
/// diagonal pair (4), an adjacent pair (8) and a full block (8), so some
/// children repeat placements and some do not.
MergeScenario partialScenario() {
  MergeScenario s;
  Rng rng(43);
  const Torus slots = Torus::mesh(s.childGrid);
  const std::vector<std::vector<Coord>> fills = {
      {Coord{0, 1, 0}},
      {Coord{0, 0, 0}, Coord{1, 1, 0}},
      {Coord{1, 0, 0}, Coord{1, 1, 0}},
      {Coord{0, 0, 0}, Coord{0, 1, 0}, Coord{1, 0, 0}, Coord{1, 1, 0}}};
  int next = 0;
  for (int ci = 0; ci < 8; ++ci) {
    MergeChild c;
    c.localPos = fills[static_cast<std::size_t>(ci % 4)];
    if (ci >= 4) rng.shuffle(c.localPos);
    for (std::size_t k = 0; k < c.localPos.size(); ++k) {
      c.clusters.push_back(next++);
    }
    c.slot = slots.coordOf(7 - ci);
    s.children.push_back(c);
  }
  s.g = CommGraph(next);
  for (int i = 0; i < 48; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(next));
    const auto b = static_cast<RankId>(rng.nextBounded(next));
    s.g.addFlow(a, b, static_cast<double>(rng.nextBounded(64) + 1) * 128.0);
  }
  return s;
}

/// One merge run and what it produced, recorded before orientation
/// classes existed.
struct RecordedMerge {
  MapObjective objective;
  bool repositioning;
  int beam;
  double resultObjective;
  std::int64_t candidates;
  std::vector<NodeId> localNode;
  /// Chosen orientation per child, as its index in
  /// enumerateOrientations(childShape).
  std::vector<int> orientation;
  /// Chosen slot per child, as its node id in the child grid.
  std::vector<NodeId> slot;
};

void expectRecorded(const MergeScenario& sc,
                    const std::vector<RecordedMerge>& recorded) {
  const std::vector<Orientation> orients =
      enumerateOrientations(sc.childShape);
  const Torus slots = Torus::mesh(sc.childGrid);
  for (const RecordedMerge& r : recorded) {
    MergeConfig cfg;
    cfg.beamWidth = r.beam;
    cfg.allowRepositioning = r.repositioning;
    cfg.objective = r.objective;
    obs::MetricsRegistry reg;
    obs::setMetrics(&reg);
    const MergeResult res = mergeChildren(sc.region, sc.childShape,
                                          sc.childGrid, sc.children, sc.g, cfg);
    obs::setMetrics(nullptr);
    std::vector<int> orientation;
    for (const Orientation& o : res.orientationOfChild) {
      orientation.push_back(static_cast<int>(
          std::find(orients.begin(), orients.end(), o) - orients.begin()));
    }
    std::vector<NodeId> slot;
    for (const Coord& c : res.slotOfChild) slot.push_back(slots.nodeId(c));
    const std::string label =
        std::string(r.objective == MapObjective::Mcl ? "mcl" : "hop-bytes") +
        (r.repositioning ? " repositioning" : " pinned") + " beam " +
        std::to_string(r.beam);
    EXPECT_EQ(res.localNode, r.localNode) << label;
    EXPECT_EQ(res.objective, r.resultObjective) << label;
    EXPECT_EQ(orientation, r.orientation) << label;
    EXPECT_EQ(slot, r.slot) << label;
    EXPECT_EQ(reg.counter("rahtm.merge.candidates").value(), r.candidates)
        << label;
  }
}

// Orientations whose placements coincide are evaluated once per (parent,
// slot) and the rest reuse that result in enumeration order, so the
// survivors, their order, every result field and the candidate count
// (which still counts each orientation) equal those recorded when every
// orientation was evaluated on its own.
TEST(Merge, OrientationClassesKeepRecordedCube32Results) {
  // Every run keeps the pinned lineage: the child ids land on their
  // (shuffled) pinned slots, and with one-node children the slot id is the
  // node id. The one child whose recorded orientation is the last of the
  // 120 (all of which tie) shows the tie order among equal placements.
  const std::vector<NodeId> pinned = {
      20, 31, 12, 10, 17, 19, 0, 5, 21, 14, 7, 13, 29, 24, 6, 4, 26, 30, 16,
      18, 15, 11, 3, 9, 2, 1, 23, 27, 28, 25, 8, 22};
  const auto lastOrientationAt = [](std::size_t child) {
    std::vector<int> o(32, 0);
    o[child] = 119;
    return o;
  };
  const std::vector<RecordedMerge> recorded = {
      {MapObjective::Mcl, false, 1, 12301.866666666674, 7592, pinned,
       lastOrientationAt(27), pinned},
      {MapObjective::Mcl, false, 4, 12301.866666666674, 18752, pinned,
       lastOrientationAt(27), pinned},
      {MapObjective::Mcl, false, 64, 12301.866666666674, 241952, pinned,
       lastOrientationAt(27), pinned},
      {MapObjective::Mcl, true, 1, 12301.866666666674, 33872, pinned,
       lastOrientationAt(27), pinned},
      {MapObjective::Mcl, true, 4, 12301.866666666674, 81392, pinned,
       lastOrientationAt(27), pinned},
      {MapObjective::Mcl, true, 64, 12301.866666666674, 1031792, pinned,
       lastOrientationAt(27), pinned},
      {MapObjective::HopBytes, false, 1, 1866368, 7592, pinned,
       lastOrientationAt(21), pinned},
      {MapObjective::HopBytes, false, 4, 1866368, 18752, pinned,
       lastOrientationAt(21), pinned},
      {MapObjective::HopBytes, false, 64, 1866368, 241952, pinned,
       lastOrientationAt(21), pinned},
      {MapObjective::HopBytes, true, 1, 1866368, 31712, pinned,
       lastOrientationAt(21), pinned},
      {MapObjective::HopBytes, true, 4, 1866368, 73112, pinned,
       lastOrientationAt(21), pinned},
      {MapObjective::HopBytes, true, 64, 1866368, 901112, pinned,
       lastOrientationAt(21), pinned},
  };
  expectRecorded(cube32Scenario(), recorded);
}

TEST(Merge, OrientationClassesKeepRecordedPartialBlockResults) {
  const std::vector<RecordedMerge> recorded = {
      {MapObjective::Mcl, false, 4, 11050.666666666666, 296,
       {31, 30, 20, 27, 25, 18, 16, 26, 24, 15, 12, 6, 9, 11, 2, 10, 0, 8},
       {6, 3, 2, 2, 6, 5, 0, 0},
       {7, 6, 5, 4, 3, 2, 1, 0}},
      {MapObjective::Mcl, true, 64, 8853.3333333333339, 14632,
       {19, 31, 21, 16, 24, 13, 15, 5, 7, 14, 30, 20, 9, 11, 2, 10, 0, 8},
       {7, 7, 6, 1, 6, 7, 0, 0},
       {5, 7, 4, 3, 2, 6, 1, 0}},
      {MapObjective::HopBytes, false, 4, 423552, 296,
       {31, 30, 20, 17, 25, 18, 16, 26, 24, 15, 4, 14, 9, 11, 2, 10, 0, 8},
       {6, 7, 6, 2, 1, 4, 0, 0},
       {7, 6, 5, 4, 3, 2, 1, 0}},
      {MapObjective::HopBytes, true, 64, 384256, 14632,
       {22, 8, 2, 6, 14, 27, 19, 25, 17, 23, 24, 18, 15, 13, 3, 1, 11, 9},
       {7, 1, 4, 7, 0, 5, 2, 7},
       {6, 0, 2, 5, 7, 4, 3, 1}},
  };
  expectRecorded(partialScenario(), recorded);
}

// The merge candidate loop beats its own heartbeat (batched per 64
// candidates, pruned ones included), so a long merge is never mistaken for
// a stall by the watchdog.
TEST(Merge, AdvancesMergeCandidatesPulse) {
  const MergeScenario sc = pruneScenario();
  obs::Heartbeats& hb = obs::Heartbeats::instance();
  const std::uint64_t before = hb.value(obs::Pulse::MergeCandidates);
  MergeConfig cfg;
  cfg.beamWidth = 4;
  mergeChildren(sc.region, sc.childShape, sc.childGrid, sc.children, sc.g,
                cfg);
  // 1192 candidates at this width (see BoundPruneKeepsRecordedResults):
  // 18 full batches of 64.
  EXPECT_EQ(hb.value(obs::Pulse::MergeCandidates) - before, 18u * 64u);
  EXPECT_STREQ(obs::pulseName(obs::Pulse::MergeCandidates),
               "merge_candidates");
}

}  // namespace
}  // namespace rahtm
