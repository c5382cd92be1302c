#include "routing/delta_eval.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "routing/oblivious.hpp"
#include "routing/route_cache.hpp"

namespace rahtm {

namespace {

/// Above this node count the N^2 dense pair index would dominate memory;
/// fall back to a hash index (the arena layout is unchanged).
constexpr std::int64_t kDenseIndexNodeCap = 1024;

/// Eager full-table builds are reserved for subproblem-sized topologies
/// (every (src,dst) pair is enumerated; cubes re-anneal thousands of times
/// and amortize the build across restarts and threads).
constexpr std::int64_t kEagerBuildNodeCap = 128;

/// Cancellation-residue scrub threshold, relative to the channel's peak
/// applied load. An absolute cutoff (the old -1e-7) misclassifies
/// legitimately tiny loads on low-volume workloads and misses residue on
/// large-volume ones; a few-ulp remainder of +/- cancellation is always
/// tiny *relative to what the channel has carried*.
constexpr double kResidueRelEps = 1e-12;

inline double scrubResidue(double v, double peak) {
  return std::abs(v) < kResidueRelEps * peak ? 0.0 : v;
}

inline std::uint64_t pairKey(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

}  // namespace

// ---- RouteTable -----------------------------------------------------------

RouteTable::RouteTable(const Torus& topo) : topo_(topo) {
  denseIndex_ = topo.numNodes() <= kDenseIndexNodeCap;
  if (denseIndex_) {
    dense_.resize(static_cast<std::size_t>(topo.numNodes() * topo.numNodes()));
  }
  accountBytes();
}

void RouteTable::accountBytes() {
  std::size_t b = dense_.capacity() * sizeof(Slice) +
                  channels_.capacity() * sizeof(ChannelId) +
                  fracs_.capacity() * sizeof(double);
  // Hash-index fallback: node size (pair + two pointers of chaining
  // overhead) per entry plus the bucket array. An estimate, but the arena
  // dominates at any scale where the sparse index is active.
  b += sparse_.size() *
           (sizeof(std::pair<const std::uint64_t, Slice>) + 2 * sizeof(void*)) +
       sparse_.bucket_count() * sizeof(void*);
  mem_.set(static_cast<std::int64_t>(b));
}

RouteTable::Slice& RouteTable::sliceOf(NodeId src, NodeId dst) {
  if (denseIndex_) {
    return dense_[static_cast<std::size_t>(
        static_cast<std::int64_t>(src) * topo_.numNodes() + dst)];
  }
  return sparse_[pairKey(src, dst)];
}

const RouteTable::Slice* RouteTable::findSlice(NodeId src, NodeId dst) const {
  if (denseIndex_) {
    return &dense_[static_cast<std::size_t>(
        static_cast<std::int64_t>(src) * topo_.numNodes() + dst)];
  }
  const auto it = sparse_.find(pairKey(src, dst));
  return it == sparse_.end() ? nullptr : &it->second;
}

RouteTable::Span RouteTable::get(NodeId src, NodeId dst) {
  Slice& s = sliceOf(src, dst);
  if (s.start < 0) {
    RAHTM_REQUIRE(!complete_, "RouteTable: miss on a complete table");
    s.start = static_cast<std::int64_t>(channels_.size());
    forEachUniformMinimalLoad(
        topo_, topo_.coordOf(src), topo_.coordOf(dst), 1.0,
        [this](ChannelId c, double frac) {
          channels_.push_back(c);
          fracs_.push_back(frac);
        });
    s.len = static_cast<std::int64_t>(channels_.size()) - s.start;
    accountBytes();  // capacity-based: atomics touched only on arena growth
  }
  return {channels_.data() + s.start, fracs_.data() + s.start,
          static_cast<std::size_t>(s.len)};
}

RouteTable::Span RouteTable::find(NodeId src, NodeId dst) const {
  const Slice* s = findSlice(src, dst);
  RAHTM_REQUIRE(s != nullptr && s->start >= 0,
                "RouteTable::find: route not built (table not complete?)");
  return {channels_.data() + s->start, fracs_.data() + s->start,
          static_cast<std::size_t>(s->len)};
}

void RouteTable::buildAll() {
  const NodeId n = static_cast<NodeId>(topo_.numNodes());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) get(s, d);
  }
  complete_ = true;
  accountBytes();
}

bool RouteTable::fullBuildFeasible(const Torus& topo) {
  return topo.numNodes() <= kEagerBuildNodeCap;
}

std::shared_ptr<const RouteTable> RouteTable::buildFull(const Torus& topo) {
  auto table = std::make_shared<RouteTable>(topo);
  table->buildAll();
  return table;
}

// ---- DeltaPlacementEval ---------------------------------------------------

DeltaPlacementEval::DeltaPlacementEval(
    const Torus& topo, const CommGraph& graph, std::vector<NodeId> placement,
    Config cfg, std::shared_ptr<const RouteTable> routes,
    std::shared_ptr<const FlowIncidence> incidence,
    std::shared_ptr<TieredRouteCache> tieredRoutes)
    : topo_(&topo),
      graph_(&graph),
      cfg_(cfg),
      placement_(std::move(placement)),
      sharedIncidence_(std::move(incidence)),
      sharedRoutes_(std::move(routes)),
      tieredRoutes_(std::move(tieredRoutes)) {
  if (sharedIncidence_ != nullptr) {
    incidence_ = sharedIncidence_.get();
  } else {
    ownIncidence_ = buildFlowIncidence(graph);
    incidence_ = &ownIncidence_;
  }
  RAHTM_REQUIRE(
      placement_.size() >= static_cast<std::size_t>(graph.numRanks()),
      "DeltaPlacementEval: placement too small");
  if (sharedRoutes_ != nullptr) {
    RAHTM_REQUIRE(sharedRoutes_->complete(),
                  "DeltaPlacementEval: shared route table must be complete");
  } else if (tieredRoutes_ != nullptr) {
    RAHTM_REQUIRE(tieredRoutes_->topology() == topo,
                  "DeltaPlacementEval: tiered cache serves another topology");
  } else if (cfg_.trackLoads) {
    ownRoutes_ = std::make_unique<RouteTable>(topo);
  }
  if (cfg_.trackLoads) {
    const auto slots = static_cast<std::size_t>(topo.numChannelSlots());
    loads_.assign(slots, 0.0);
    peak_.assign(slots, 0.0);
    delta_.assign(slots, 0.0);
  }
  rebuild();
  accountBytes();
}

void DeltaPlacementEval::accountBytes() {
  const std::size_t b =
      placement_.capacity() * sizeof(NodeId) +
      loads_.capacity() * sizeof(double) + peak_.capacity() * sizeof(double) +
      delta_.capacity() * sizeof(double);
  mem_.set(static_cast<std::int64_t>(b));
}

RouteTable::Span DeltaPlacementEval::route(NodeId src, NodeId dst) {
  if (sharedRoutes_ != nullptr) return sharedRoutes_->find(src, dst);
  // Every caller fully consumes one span before asking for the next, so the
  // tiered copy-out scratch is safe to reuse per lookup.
  if (tieredRoutes_ != nullptr) {
    return tieredRoutes_->read(src, dst, tierScratch_);
  }
  return ownRoutes_->get(src, dst);
}

void DeltaPlacementEval::rebuild() {
  pending_ = Pending::None;
  if (cfg_.trackLoads) {
    std::fill(loads_.begin(), loads_.end(), 0.0);
    for (const Flow& f : graph_->flows()) {
      const NodeId u = placement_[static_cast<std::size_t>(f.src)];
      const NodeId v = placement_[static_cast<std::size_t>(f.dst)];
      RAHTM_REQUIRE(u >= 0 && v >= 0, "DeltaPlacementEval: unmapped vertex");
      if (u == v || f.bytes == 0) continue;
      const RouteTable::Span r = route(u, v);
      for (std::size_t i = 0; i < r.size; ++i) {
        loads_[static_cast<std::size_t>(r.channels[i])] += r.fracs[i] * f.bytes;
      }
    }
    for (std::size_t c = 0; c < loads_.size(); ++c) {
      peak_[c] = std::max(peak_[c], std::abs(loads_[c]));
    }
    sweepStats();
  }
  if (cfg_.trackHopBytes) {
    double hb = 0;
    for (const Flow& f : graph_->flows()) {
      const NodeId u = placement_[static_cast<std::size_t>(f.src)];
      const NodeId v = placement_[static_cast<std::size_t>(f.dst)];
      RAHTM_REQUIRE(u >= 0 && v >= 0, "DeltaPlacementEval: unmapped vertex");
      hb += f.bytes * static_cast<double>(topo_->distance(u, v));
    }
    cur_.hopBytes = hb;
  }
  ++denseSweeps_;
}

void DeltaPlacementEval::sweepStats() {
  double mx = 0;
  double sq = 0;
  for (const double v : loads_) {
    mx = std::max(mx, v);
    sq += v * v;
  }
  cur_.mcl = mx;
  cur_.sumSquares = sq;
}

void DeltaPlacementEval::accumulateRoute(NodeId src, NodeId dst,
                                         double bytes) {
  const RouteTable::Span r = route(src, dst);
  for (std::size_t i = 0; i < r.size; ++i) {
    delta_[static_cast<std::size_t>(r.channels[i])] += r.fracs[i] * bytes;
  }
}

void DeltaPlacementEval::probeFlows(RankId a, RankId b, NodeId nodeA,
                                    NodeId nodeB) {
  // Placement of vertex r after the pending move.
  const auto nodeAfter = [&](RankId r) {
    if (r == a) return nodeA;
    if (b != kInvalidRank && r == b) return nodeB;
    return placement_[static_cast<std::size_t>(r)];
  };
  double hbDelta = 0;
  const auto& flows = graph_->flows();
  const auto processFlow = [&](const Flow& f) {
    if (f.bytes == 0) return;
    const NodeId u0 = placement_[static_cast<std::size_t>(f.src)];
    const NodeId v0 = placement_[static_cast<std::size_t>(f.dst)];
    const NodeId u1 = nodeAfter(f.src);
    const NodeId v1 = nodeAfter(f.dst);
    if (u0 == u1 && v0 == v1) return;
    if (cfg_.trackLoads) {
      // Subtracting frac * bytes and adding frac * -bytes round identically.
      if (u0 != v0) accumulateRoute(u0, v0, -f.bytes);
      if (u1 != v1) accumulateRoute(u1, v1, f.bytes);
    }
    if (cfg_.trackHopBytes) {
      hbDelta += f.bytes * static_cast<double>(topo_->distance(u1, v1)) -
                 f.bytes * static_cast<double>(topo_->distance(u0, v0));
    }
  };
  for (const std::uint32_t fi : incidence_->of(static_cast<std::size_t>(a))) {
    processFlow(flows[fi]);
  }
  if (b != kInvalidRank) {
    for (const std::uint32_t fi : incidence_->of(static_cast<std::size_t>(b))) {
      const Flow& f = flows[fi];
      // Flows between a and b were already handled in a's list.
      if (f.src == a || f.dst == a) continue;
      processFlow(f);
    }
  }
  if (cfg_.trackHopBytes) {
    pendingSummary_.hopBytes = cur_.hopBytes + hbDelta;
  }
}

void DeltaPlacementEval::beginProbe() {
  ++probes_;
  pendingSummary_ = cur_;
  if (cfg_.trackLoads) std::fill(delta_.begin(), delta_.end(), 0.0);
}

void DeltaPlacementEval::finishProbe() {
  if (!cfg_.trackLoads) return;
  double mx = 0;
  double sq = cur_.sumSquares;
  for (std::size_t c = 0; c < loads_.size(); ++c) {
    double v = loads_[c];
    if (delta_[c] != 0.0) {
      const double newV = scrubResidue(v + delta_[c], peak_[c]);
      sq += newV * newV - v * v;
      v = newV;
    }
    mx = std::max(mx, v);
  }
  pendingSummary_.mcl = mx;
  pendingSummary_.sumSquares = sq;
}

const DeltaPlacementEval::Summary& DeltaPlacementEval::probeSwap(RankId a,
                                                                 RankId b) {
  RAHTM_REQUIRE(a != b, "probeSwap: identical vertices");
  pending_ = Pending::Swap;
  pendA_ = a;
  pendB_ = b;
  beginProbe();
  probeFlows(a, b, placement_[static_cast<std::size_t>(b)],
             placement_[static_cast<std::size_t>(a)]);
  finishProbe();
  return pendingSummary_;
}

const DeltaPlacementEval::Summary& DeltaPlacementEval::probeMove(RankId a,
                                                                 NodeId node) {
  pending_ = Pending::Move;
  pendA_ = a;
  pendB_ = kInvalidRank;
  pendNode_ = node;
  beginProbe();
  probeFlows(a, kInvalidRank, node, kInvalidNode);
  finishProbe();
  return pendingSummary_;
}

void DeltaPlacementEval::commit() {
  RAHTM_REQUIRE(pending_ != Pending::None, "commit: no pending probe");
  // Same arithmetic as the probe: commit is bit-identical by construction.
  for (std::size_t c = 0; c < delta_.size(); ++c) {
    if (delta_[c] == 0.0) continue;
    const double newV = scrubResidue(loads_[c] + delta_[c], peak_[c]);
    loads_[c] = newV;
    peak_[c] = std::max(peak_[c], std::abs(newV));
  }
  if (pending_ == Pending::Swap) {
    std::swap(placement_[static_cast<std::size_t>(pendA_)],
              placement_[static_cast<std::size_t>(pendB_)]);
  } else {
    placement_[static_cast<std::size_t>(pendA_)] = pendNode_;
  }
  cur_ = pendingSummary_;
  pending_ = Pending::None;
  ++commits_;
}

}  // namespace rahtm
