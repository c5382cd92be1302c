#include "core/merge.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/delta_eval.hpp"
#include "routing/route_cache.hpp"

namespace rahtm {

namespace {

/// Scratch accumulator for candidate evaluation: a dense per-channel delta
/// with a touched list, so clearing costs O(touched).
class LoadDelta {
 public:
  explicit LoadDelta(std::int64_t slots)
      : dense_(static_cast<std::size_t>(slots), 0.0) {}

  /// Add \p v to channel \p c; returns the channel's new delta.
  double add(ChannelId c, double v) {
    auto& cell = dense_[static_cast<std::size_t>(c)];
    if (cell == 0.0 && v != 0.0) touched_.push_back(c);
    cell += v;
    return cell;
  }
  void clear() {
    for (const ChannelId c : touched_) dense_[static_cast<std::size_t>(c)] = 0;
    touched_.clear();
  }

 private:
  std::vector<double> dense_;
  std::vector<ChannelId> touched_;
};

/// A flow restricted to the merge region, in local cluster indices.
struct FlowRef {
  std::size_t a;  ///< local cluster index of src
  std::size_t b;  ///< local cluster index of dst
  double bytes;
};

struct BeamEntry {
  /// Local node of each region cluster (kInvalidNode while unplaced).
  std::vector<NodeId> localNode;
  /// Dense channel loads of all placed flows (Mcl objective only).
  std::vector<double> loads;
  double maxLoad = 0;   ///< objective so far (Mcl) ...
  double hopBytes = 0;  ///< ... or running sum (HopBytes)
  std::vector<Orientation> orientationOfChild;
  std::vector<Coord> slotOfChild;
  SmallVec<std::uint8_t, 64> slotUsed;  ///< per slot id
};

double entryObjective(const BeamEntry& e, MapObjective obj) {
  return obj == MapObjective::Mcl ? e.maxLoad : e.hopBytes;
}

}  // namespace

MergeResult mergeChildren(const Torus& regionTopo, const Shape& childShape,
                          const Shape& childGrid,
                          const std::vector<MergeChild>& children,
                          const CommGraph& clusterGraph,
                          const MergeConfig& cfg) {
  obs::ScopedSpan span(obs::tracer(), "rahtm.merge.region", "rahtm");
  span.attr("children", static_cast<std::int64_t>(children.size()));
  span.attr("beam_width", static_cast<std::int64_t>(cfg.beamWidth));
  std::int64_t candidatesEvaluated = 0;
  RAHTM_REQUIRE(!children.empty(), "mergeChildren: no children");
  RAHTM_REQUIRE(cfg.beamWidth >= 1, "mergeChildren: beam width must be >= 1");
  RAHTM_REQUIRE(childShape.size() == regionTopo.ndims() &&
                    childGrid.size() == regionTopo.ndims(),
                "mergeChildren: dimension mismatch");
  for (std::size_t d = 0; d < childShape.size(); ++d) {
    RAHTM_REQUIRE(childShape[d] * childGrid[d] == regionTopo.extent(d),
                  "mergeChildren: childShape * childGrid != region extent");
  }
  const Torus slotGrid = Torus::mesh(childGrid);
  RAHTM_REQUIRE(static_cast<std::int64_t>(children.size()) <=
                    slotGrid.numNodes(),
                "mergeChildren: more children than slots");

  // ---- Local cluster indexing -------------------------------------------
  std::unordered_map<ClusterId, std::size_t> localIdx;
  std::vector<ClusterId> regionClusters;
  for (const MergeChild& ch : children) {
    RAHTM_REQUIRE(ch.clusters.size() == ch.localPos.size(),
                  "mergeChildren: clusters/localPos size mismatch");
    for (const ClusterId c : ch.clusters) {
      RAHTM_REQUIRE(localIdx.emplace(c, regionClusters.size()).second,
                    "mergeChildren: cluster appears in two children");
      regionClusters.push_back(c);
    }
  }

  // Flows with both endpoints inside the region, as local indices.
  std::vector<FlowRef> flows;
  for (const Flow& f : clusterGraph.flows()) {
    const auto sa = localIdx.find(f.src);
    const auto sb = localIdx.find(f.dst);
    if (sa == localIdx.end() || sb == localIdx.end()) continue;
    flows.push_back({sa->second, sb->second, f.bytes});
  }
  // Flows grouped by child pair for fast incremental evaluation.
  std::vector<std::size_t> childOfCluster(regionClusters.size());
  std::vector<std::size_t> clusterBase(children.size(), 0);
  {
    std::size_t idx = 0;
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      clusterBase[ci] = idx;
      for (std::size_t k = 0; k < children[ci].clusters.size(); ++k) {
        childOfCluster[idx++] = ci;
      }
    }
  }
  // flowsTouching.of(ci) = flows with at least one endpoint in child ci.
  const FlowIncidence flowsTouching = FlowIncidence::build(
      flows.size(), children.size(), [&](std::size_t fi) {
        return std::pair<std::size_t, std::size_t>{childOfCluster[flows[fi].a],
                                                   childOfCluster[flows[fi].b]};
      });

  // ---- Orientations ------------------------------------------------------
  std::vector<Orientation> orients = enumerateOrientations(childShape);
  if (static_cast<long>(orients.size()) > cfg.maxOrientations) {
    // Deterministic stride subsample, always keeping the identity.
    std::vector<Orientation> kept;
    const double stride = static_cast<double>(orients.size()) /
                          static_cast<double>(cfg.maxOrientations);
    for (long i = 0; i < cfg.maxOrientations; ++i) {
      kept.push_back(orients[static_cast<std::size_t>(
          static_cast<double>(i) * stride)]);
    }
    orients = std::move(kept);
  }

  // Position of child ci's clusters under (orientation o, slot s).
  const auto placeChild = [&](std::size_t ci, const Orientation& o,
                              const Coord& slot, std::vector<NodeId>& out) {
    const MergeChild& ch = children[ci];
    out.resize(ch.clusters.size());
    Coord origin(childShape.size(), 0);
    for (std::size_t d = 0; d < childShape.size(); ++d) {
      origin[d] = slot[d] * childShape[d];
    }
    for (std::size_t k = 0; k < ch.clusters.size(); ++k) {
      Coord p = o.apply(ch.localPos[k], childShape);
      for (std::size_t d = 0; d < p.size(); ++d) p[d] += origin[d];
      out[k] = regionTopo.nodeId(p);
    }
  };

  // Pin-only placement of child ci: its pin layout (pinPos, falling back to
  // localPos) at its pinned slot, identity orientation.
  const auto placeChildPin = [&](std::size_t ci, std::vector<NodeId>& out) {
    const MergeChild& ch = children[ci];
    const auto& layout = ch.pinPos.empty() ? ch.localPos : ch.pinPos;
    out.resize(ch.clusters.size());
    Coord origin(childShape.size(), 0);
    for (std::size_t d = 0; d < childShape.size(); ++d) {
      origin[d] = ch.slot[d] * childShape[d];
    }
    for (std::size_t k = 0; k < ch.clusters.size(); ++k) {
      Coord p = layout[k];
      for (std::size_t d = 0; d < p.size(); ++d) p[d] += origin[d];
      out[k] = regionTopo.nodeId(p);
    }
  };

  // ---- Route source -------------------------------------------------------
  const bool useLoads = cfg.objective == MapObjective::Mcl;
  LoadDelta delta(regionTopo.numChannelSlots());
  // The region's one route source, read by the merge order and by every
  // candidate: a flat SoA route cache (shared engine infrastructure), built
  // lazily — one region call is single-threaded. A provider-supplied
  // complete table (cross-request cache) short-circuits the lazy build;
  // route contents are identical either way.
  std::shared_ptr<const RouteTable> sharedRoutes;
  std::shared_ptr<TieredRouteCache> tieredRoutes;
  if (useLoads && RouteTable::fullBuildFeasible(regionTopo)) {
    if (cfg.routeCache != nullptr) {
      sharedRoutes = cfg.routeCache->denseTier(regionTopo);
    } else if (cfg.artifacts != nullptr) {
      sharedRoutes = cfg.artifacts->routeTable(regionTopo);
    }
  } else if (useLoads && cfg.routeCache != nullptr &&
             cfg.routeCache->topology() == regionTopo) {
    // Top-level merge on a machine past the complete-table ceiling: the
    // sparse tier serves (and retains across the solve) the touched pairs.
    tieredRoutes = cfg.routeCache;
  }
  RouteTable routeTable(regionTopo);
  RouteScratch tierScratch;
  const auto forFlow = [&](NodeId src, NodeId dst, double volume, auto&& sink) {
    const RouteTable::Span r =
        sharedRoutes != nullptr ? sharedRoutes->find(src, dst)
        : tieredRoutes != nullptr ? tieredRoutes->read(src, dst, tierScratch)
                                  : routeTable.get(src, dst);
    for (std::size_t i = 0; i < r.size; ++i) {
      sink(r.channels[i], volume * r.fracs[i]);
    }
  };

  // ---- Merge order: decreasing average pairwise interaction --------------
  // Interaction(i,j): objective of just the i<->j flows with both children
  // at their pinned slots, identity orientation (a cheap proxy for the
  // paper's pairwise-best MCL table).
  std::vector<double> avgInteraction(children.size(), 0.0);
  {
    const Orientation ident = Orientation::identity(childShape.size());
    std::vector<std::vector<NodeId>> identPos(children.size());
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      placeChild(ci, ident, children[ci].slot, identPos[ci]);
    }
    std::vector<NodeId> clusterNode(regionClusters.size());
    {
      std::size_t idx = 0;
      for (std::size_t ci = 0; ci < children.size(); ++ci) {
        for (const NodeId n : identPos[ci]) clusterNode[idx++] = n;
      }
    }
    std::vector<std::vector<double>> pairVol(
        children.size(), std::vector<double>(children.size(), 0.0));
    for (const FlowRef& f : flows) {
      const std::size_t ca = childOfCluster[f.a];
      const std::size_t cb = childOfCluster[f.b];
      if (ca == cb) continue;
      const NodeId na = clusterNode[f.a];
      const NodeId nb = clusterNode[f.b];
      // Mcl: the flow's own maximum channel load, summed per channel in
      // route order (contributions are non-negative, so the running max
      // is the max of the final sums).
      double v = 0;
      if (!useLoads) {
        v = f.bytes * regionTopo.distance(na, nb);
      } else if (na != nb) {
        delta.clear();
        forFlow(na, nb, f.bytes, [&](ChannelId c, double x) {
          v = std::max(v, delta.add(c, x));
        });
      }
      pairVol[ca][cb] += v;
      pairVol[cb][ca] += v;
    }
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      double sum = 0;
      for (std::size_t cj = 0; cj < children.size(); ++cj) {
        sum += pairVol[ci][cj];
      }
      avgInteraction[ci] =
          children.size() > 1
              ? sum / static_cast<double>(children.size() - 1)
              : 0;
    }
  }
  std::vector<std::size_t> order(children.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return avgInteraction[a] > avgInteraction[b];
                   });

  // ---- Beam search --------------------------------------------------------
  const std::size_t slotCount = static_cast<std::size_t>(slotGrid.numNodes());
  const auto loadSlots = static_cast<std::size_t>(regionTopo.numChannelSlots());

  BeamEntry seed;
  seed.localNode.assign(regionClusters.size(), kInvalidNode);
  if (useLoads) seed.loads.assign(loadSlots, 0.0);
  seed.orientationOfChild.assign(children.size(),
                                 Orientation::identity(childShape.size()));
  seed.slotOfChild.assign(children.size(), Coord(childShape.size(), 0));
  seed.slotUsed.resize(slotCount, 0);
  std::vector<BeamEntry> beam{seed};

  // Anytime guarantee: the lineage that keeps every child at its phase-2
  // pinned slot with identity orientation always survives pruning, so the
  // merge result is never worse than the pseudo-pins it refines.
  std::size_t pinnedLineage = 0;

  std::vector<NodeId> childPos;

  struct Candidate {
    std::size_t parent;
    std::size_t orient;  ///< index into orients, or kPinOrient
    std::size_t slotId;
    double objective;
  };
  constexpr std::size_t kPinOrient = SIZE_MAX;
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  // Candidates count toward the merge pulse in batches of 64, like the
  // anneal's iterations, so the watchdog sees a long merge making progress.
  const auto countCandidates = [&](std::int64_t n) {
    const std::int64_t batchesBefore = candidatesEvaluated / 64;
    candidatesEvaluated += n;
    const std::int64_t batches = candidatesEvaluated / 64 - batchesBefore;
    if (batches > 0) {
      obs::Heartbeats::instance().beat(
          obs::Pulse::MergeCandidates,
          static_cast<std::uint64_t>(batches) * 64);
    }
  };

  // The one candidate evaluator: the objective of placing child ci at
  // childPos on top of `entry`, or kUnbounded as soon as it provably
  // exceeds `bound`. Every routed contribution (fraction x bytes) is
  // positive and rounding is monotone, so a channel's running
  // load + delta only grows towards its final value, and the running max
  // over all additions equals max(partial + delta) exactly.
  const auto evaluate = [&](std::size_t ci, const BeamEntry& entry,
                            double bound) {
    const auto nodeOf = [&](std::size_t cluster) {
      return childOfCluster[cluster] == ci
                 ? childPos[cluster - clusterBase[ci]]
                 : entry.localNode[cluster];
    };
    if (!useLoads) {
      double hb = entry.hopBytes;
      for (const std::uint32_t fi : flowsTouching.of(ci)) {
        const FlowRef& f = flows[fi];
        const NodeId na = nodeOf(f.a);
        const NodeId nb = nodeOf(f.b);
        if (na == kInvalidNode || nb == kInvalidNode) continue;
        hb += f.bytes * regionTopo.distance(na, nb);
        if (hb > bound) return kUnbounded;
      }
      return hb;
    }
    delta.clear();
    double m = entry.maxLoad;
    // Route the new block's incident flows whose peer is placed (or inside
    // the block itself).
    for (const std::uint32_t fi : flowsTouching.of(ci)) {
      const FlowRef& f = flows[fi];
      const NodeId na = nodeOf(f.a);
      const NodeId nb = nodeOf(f.b);
      if (na == kInvalidNode || nb == kInvalidNode || na == nb) continue;
      forFlow(na, nb, f.bytes, [&](ChannelId c, double v) {
        m = std::max(m, entry.loads[static_cast<std::size_t>(c)] +
                            delta.add(c, v));
      });
      if (m > bound) return kUnbounded;
    }
    return m;
  };

  // Result of each class representative at the current (parent, slot).
  std::vector<double> classResult(orients.size());
  for (const std::size_t ci : order) {
    const std::vector<std::size_t> classOf =
        orientationClasses(orients, children[ci].localPos, childShape);
    std::vector<Candidate> best;  // kept sorted ascending, max beamWidth
    const auto beamFull = [&] {
      return best.size() >= static_cast<std::size_t>(cfg.beamWidth);
    };
    // A full beam rejects exactly the objectives above its worst member
    // (ties still insert), so that worst is an exact pruning bound.
    const auto bound = [&] {
      return beamFull() ? best.back().objective : kUnbounded;
    };
    const auto consider = [&](const Candidate& c) {
      const auto pos = std::lower_bound(
          best.begin(), best.end(), c.objective,
          [](const Candidate& x, double v) { return x.objective < v; });
      if (pos == best.end() && beamFull()) return;
      best.insert(pos, c);
      if (best.size() > static_cast<std::size_t>(cfg.beamWidth)) {
        best.pop_back();
      }
    };

    const std::size_t pinnedSlot =
        static_cast<std::size_t>(slotGrid.nodeId(children[ci].slot));

    // Slots considered for this child: the pin plus (when repositioning is
    // on) its nearest maxRepositionSlots neighbours in the slot grid.
    std::vector<std::size_t> slotChoices{pinnedSlot};
    if (cfg.allowRepositioning) {
      std::vector<std::size_t> others;
      for (std::size_t s = 0; s < slotCount; ++s) {
        if (s != pinnedSlot) others.push_back(s);
      }
      std::stable_sort(others.begin(), others.end(),
                       [&](std::size_t a, std::size_t b) {
                         return slotGrid.distance(static_cast<NodeId>(a),
                                                  static_cast<NodeId>(pinnedSlot)) <
                                slotGrid.distance(static_cast<NodeId>(b),
                                                  static_cast<NodeId>(pinnedSlot));
                       });
      const auto keep = std::min<std::size_t>(
          others.size(), static_cast<std::size_t>(
                             std::max(0, cfg.maxRepositionSlots)));
      slotChoices.insert(slotChoices.end(), others.begin(),
                         others.begin() + static_cast<long>(keep));
    }

    for (std::size_t bi = 0; bi < beam.size(); ++bi) {
      const BeamEntry& entry = beam[bi];
      // Every extension of this parent starts at its objective, so none
      // can beat a full beam's worst once the parent itself exceeds it.
      if (entryObjective(entry, cfg.objective) > bound()) {
        std::int64_t freeSlots = 0;
        for (const std::size_t slotId : slotChoices) {
          if (!entry.slotUsed[slotId]) ++freeSlots;
        }
        countCandidates(freeSlots * static_cast<std::int64_t>(orients.size()));
        continue;
      }
      for (const std::size_t slotId : slotChoices) {
        if (entry.slotUsed[slotId]) continue;
        const Coord slot = slotGrid.coordOf(static_cast<NodeId>(slotId));
        for (std::size_t oi = 0; oi < orients.size(); ++oi) {
          const std::size_t rep = classOf[oi];
          if (rep == oi) {
            placeChild(ci, orients[oi], slot, childPos);
            classResult[oi] = evaluate(ci, entry, bound());
          }
          countCandidates(1);
          // A later class member reuses the representative's result, which
          // is exact because bound() never rises within a child step: an
          // abandoned representative exceeded a bound >= today's, and an
          // exact X is abandoned now iff X > bound().
          const double objective =
              classResult[rep] > bound() ? kUnbounded : classResult[rep];
          if (objective != kUnbounded) consider({bi, oi, slotId, objective});
        }
      }
    }
    RAHTM_REQUIRE(!best.empty(), "mergeChildren: no feasible candidate");

    // Force the pinned-lineage extension (pin-only internals at the pinned
    // slot) into the survivor set, guaranteeing the global pseudo-pin
    // solution survives to the end. It is always kept, so never pruned.
    placeChildPin(ci, childPos);
    best.push_back({pinnedLineage, kPinOrient, pinnedSlot,
                    evaluate(ci, beam[pinnedLineage], kUnbounded)});
    countCandidates(1);

    // Materialize survivors into the next beam.
    std::vector<BeamEntry> next;
    next.reserve(best.size());
    std::size_t nextPinned = SIZE_MAX;
    for (const Candidate& c : best) {
      BeamEntry e = beam[c.parent];
      const Coord slot = slotGrid.coordOf(static_cast<NodeId>(c.slotId));
      if (c.orient == kPinOrient) {
        placeChildPin(ci, childPos);
      } else {
        placeChild(ci, orients[c.orient], slot, childPos);
      }
      const std::size_t base = clusterBase[ci];
      for (std::size_t k = 0; k < childPos.size(); ++k) {
        e.localNode[base + k] = childPos[k];
      }
      if (useLoads) {
        for (const std::uint32_t fi : flowsTouching.of(ci)) {
          const FlowRef& f = flows[fi];
          const NodeId na = e.localNode[f.a];
          const NodeId nb = e.localNode[f.b];
          // Only flows fully placed *now* and not counted before: exactly
          // those touching ci with both endpoints placed.
          if (na == kInvalidNode || nb == kInvalidNode || na == nb) continue;
          forFlow(na, nb, f.bytes, [&e](ChannelId ch, double v) {
            e.loads[static_cast<std::size_t>(ch)] += v;
          });
        }
        e.maxLoad = c.objective;
      } else {
        e.hopBytes = c.objective;
      }
      e.orientationOfChild[ci] = c.orient == kPinOrient
                                     ? Orientation::identity(childShape.size())
                                     : orients[c.orient];
      e.slotOfChild[ci] = slot;
      e.slotUsed[c.slotId] = 1;
      if (c.parent == pinnedLineage && c.orient == kPinOrient &&
          nextPinned == SIZE_MAX) {
        nextPinned = next.size();
      }
      next.push_back(std::move(e));
    }
    RAHTM_REQUIRE(nextPinned != SIZE_MAX,
                  "mergeChildren: pinned lineage lost");
    pinnedLineage = nextPinned;
    beam = std::move(next);
  }

  // Best entry is the lowest-objective member of the beam (the survivor
  // list is sorted, but the appended pinned candidate may sit anywhere).
  std::size_t winnerIdx = 0;
  for (std::size_t i = 1; i < beam.size(); ++i) {
    if (entryObjective(beam[i], cfg.objective) <
        entryObjective(beam[winnerIdx], cfg.objective)) {
      winnerIdx = i;
    }
  }
  const BeamEntry& winner = beam[winnerIdx];
  MergeResult result;
  result.clustersInRegion = regionClusters;
  result.localNode = winner.localNode;
  result.objective = entryObjective(winner, cfg.objective);
  result.orientationOfChild = winner.orientationOfChild;
  result.slotOfChild = winner.slotOfChild;
  result.pinLocalNode.resize(regionClusters.size());
  for (std::size_t ci = 0; ci < children.size(); ++ci) {
    placeChildPin(ci, childPos);
    for (std::size_t k = 0; k < childPos.size(); ++k) {
      result.pinLocalNode[clusterBase[ci] + k] = childPos[k];
    }
  }
  span.attr("candidates", candidatesEvaluated);
  span.attr("objective", result.objective);
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("rahtm.merge.regions").add(1);
    reg->counter("rahtm.merge.candidates").add(candidatesEvaluated);
  }
  return result;
}

}  // namespace rahtm
