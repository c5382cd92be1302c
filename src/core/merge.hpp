#pragma once
/// \file merge.hpp
/// RAHTM phase 3 (§III-D): bottom-up incremental merging of mapped blocks
/// with rotation/reorientation search.
///
/// For one hierarchy node, the 2^d child blocks (each already mapped
/// internally and pseudo-pinned to a slot by phase 2) are merged one at a
/// time. The merge order is greedy by decreasing average pairwise
/// interaction; at each step every orientation of the incoming block (its
/// full signed-permutation symmetry group) is evaluated against each
/// retained partial merge, and the best N combinations survive (beam
/// search, N = 64 in the paper). Optionally the incoming block may also be
/// *repositioned* onto any free slot.
///
/// Exact bound prune: once the survivor list holds N candidates, its worst
/// objective bounds every later candidate. A full list rejects exactly the
/// objectives strictly above that worst — a tie still inserts and displaces
/// the old worst — so a candidate can be abandoned as soon as it provably
/// exceeds the bound, without changing the survivors or their order:
///  * a parent whose own objective already exceeds the bound is skipped,
///    since every extension of it starts there;
///  * a candidate stops routing once some channel's running load + delta
///    (or the running hop-bytes sum) exceeds the bound. Every routed
///    contribution is non-negative and rounding is monotone, so the final
///    value would exceed it too.
/// Pruned candidates still count in `rahtm.merge.candidates` and in the
/// `merge_candidates` heartbeat. The pinned-lineage candidate is always
/// kept, so it is evaluated without a bound.
///
/// Orientation classes: orientations that send every cluster of a child to
/// the same cell place it identically (all 120 orientations of a one-node
/// block do), so each child gets a class table once per call
/// (`orientationClasses`; a slot only translates the image, so the table
/// holds for every slot). Per (parent, slot) only the first orientation of
/// each class is placed and evaluated; every orientation still goes through
/// `consider` in enumeration order, a later class member reusing its
/// representative's result. This is exact because the bound never rises
/// within one child step: a representative abandoned at bound b exceeded
/// b >= today's bound, so its duplicate is abandoned too, and an exact
/// objective X is abandoned exactly when X > bound(). The inserts and
/// rejections, hence survivors, their order and the candidate count, are
/// those of evaluating every orientation.

#include <vector>

#include "core/subproblem.hpp"
#include "graph/comm_graph.hpp"
#include "topology/orientation.hpp"
#include "topology/torus.hpp"

namespace rahtm {

/// One child block entering a merge.
struct MergeChild {
  /// Global node-cluster ids living in this block.
  std::vector<ClusterId> clusters;
  /// Position of clusters[i] inside the child block (local coords).
  std::vector<Coord> localPos;
  /// Phase-2 pseudo-pinned slot in the parent's child grid.
  Coord slot;
  /// Pin-only internal layout (phase-2 pins composed recursively, no merge
  /// choices). Empty means localPos already is the pin layout. The beam
  /// always retains the lineage built from these at the pinned slots, so
  /// the merge result is never worse than the global pseudo-pin solution.
  std::vector<Coord> pinPos;
};

struct MergeConfig {
  int beamWidth = 64;             ///< N of §III-D
  /// Search free slots as well as orientations — the paper's second degree
  /// of freedom ("rotation and repositioning", §III-A). Costs a factor of
  /// (considered slots) per candidate but recovers from coarse phase-2 pins.
  bool allowRepositioning = true;
  /// Cap on alternative slots considered per child when repositioning: the
  /// pinned slot plus its nearest maxRepositionSlots neighbours in the slot
  /// grid. Bounds the candidate explosion on large hierarchy nodes.
  int maxRepositionSlots = 7;
  long maxOrientations = 1024;    ///< deterministic subsample cap
  MapObjective objective = MapObjective::Mcl;
  /// Optional provider of shared route tables (non-owning; must outlive the
  /// call). Null = build the region's route cache locally.
  ArtifactSource* artifacts = nullptr;
  /// Optional tiered route cache: dense tier for feasible region shapes,
  /// sparse global tier when the region IS the machine and the machine is
  /// past the complete-table ceiling.
  std::shared_ptr<TieredRouteCache> routeCache;
};

struct MergeResult {
  /// localNode[i] = node id (in the region topology) of cluster
  /// clustersInRegion[i].
  std::vector<ClusterId> clustersInRegion;
  std::vector<NodeId> localNode;
  double objective = 0;  ///< best achieved region objective
  /// Chosen orientation per child, indexed like the `children` input.
  std::vector<Orientation> orientationOfChild;
  std::vector<Coord> slotOfChild;
  /// The pin-only layout of the region (children's pinPos at their pinned
  /// slots), for threading the global pin lineage up the hierarchy.
  std::vector<NodeId> pinLocalNode;
};

/// Merge \p children inside a region of topology \p regionTopo, whose
/// child grid is \p childGrid with per-child block shape \p childShape
/// (childGrid[d] * childShape[d] == regionTopo.extent(d)). Flows of
/// \p clusterGraph with both endpoints inside the region drive the
/// objective; all other flows are ignored (the paper evaluates each
/// subproblem on its local communication).
MergeResult mergeChildren(const Torus& regionTopo, const Shape& childShape,
                          const Shape& childGrid,
                          const std::vector<MergeChild>& children,
                          const CommGraph& clusterGraph,
                          const MergeConfig& cfg);

}  // namespace rahtm
