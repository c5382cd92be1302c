#pragma once
/// \file delta_eval.hpp
/// Incremental (delta-evaluated) placement evaluation for the local-search
/// phases.
///
/// The refine and anneal hot loops evaluate millions of candidate moves that
/// each touch only two vertices. Re-deriving the full channel-load vector per
/// candidate re-routes every flow; this engine re-routes only the flows of
/// the moved vertices and finishes each probe with one pass over the
/// channel vector:
///
///  * `RouteTable` — a flat structure-of-arrays route cache: for each
///    (src,dst) node pair the uniform-minimal path decomposition as a
///    contiguous (channel[], fraction[]) slice, keyed by the flattened pair
///    index. Built once per topology; an eagerly built table is immutable
///    and safe to share read-only across annealing restarts and
///    exec::ThreadPool workers. Replaces the per-restart
///    `std::unordered_map` + `std::function` sinks of the former
///    SwapState/MclEvaluator caches.
///
///  * `DeltaPlacementEval` — probe-then-commit evaluation of swap and
///    relocation moves. Channel loads live in a dense vector. A probe adds
///    the moved flows' routes straight into a per-channel delta (zeroed
///    once per probe), then one sweep over the channels yields the new
///    maximum and the new sum of squared loads (the MCL plateau
///    tie-breaker); hop-bytes is a running value with an O(degree) delta.
///    `commit` applies the same per-channel arithmetic. A sparse variant
///    (epoch-marked touched channels with a lazy max-heap) was measured
///    slower at every size from 384 to 5120 channel slots: routes of the
///    moved flows touch enough channels that heap upkeep costs more than
///    the sweep (see DESIGN.md).
///
/// Determinism: all updates are value-deterministic functions of the move
/// sequence, so searches driven by pre-split RNG streams stay bit-identical
/// for any thread count. Incrementally maintained stats can drift from a
/// from-scratch evaluation by a few ulps (floating-point addition is not
/// associative); `rebuild()` resynchronizes exactly, and probe/commit are
/// bit-identical to each other by construction.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/comm_graph.hpp"
#include "obs/mem.hpp"
#include "topology/torus.hpp"

namespace rahtm {

/// Flat per-(src,dst) route cache over a fixed topology. Entries are the
/// unit-volume uniform-minimal channel fractions in the router's canonical
/// enumeration order (so accumulating `frac * bytes` reproduces
/// placementLoads() bit for bit).
class RouteTable {
 public:
  explicit RouteTable(const Torus& topo);

  const Torus& topology() const { return topo_; }

  /// Parallel views into the channel / fraction arrays of one route.
  struct Span {
    const ChannelId* channels = nullptr;
    const double* fracs = nullptr;
    std::size_t size = 0;
  };

  /// Route of (src,dst), building it on first use. NOT thread-safe unless
  /// the table is complete().
  Span get(NodeId src, NodeId dst);

  /// Read-only lookup on a complete table (thread-safe).
  Span find(NodeId src, NodeId dst) const;

  /// Eagerly build every (src,dst) route; afterwards the table is
  /// immutable and find()/get() are safe to call concurrently.
  void buildAll();
  bool complete() const { return complete_; }

  /// Whether an eager buildAll() is cheap enough to be worthwhile
  /// (subproblem cubes: yes; full machines: build lazily per owner).
  static bool fullBuildFeasible(const Torus& topo);

  /// Convenience: an eagerly built table ready for read-only sharing.
  static std::shared_ptr<const RouteTable> buildFull(const Torus& topo);

  std::size_t entryCount() const { return channels_.size(); }

  /// Bytes currently charged to the route_table account for this table.
  std::int64_t footprintBytes() const { return mem_.bytes(); }

 private:
  struct Slice {
    std::int64_t start = -1;  ///< -1: not built yet
    std::int64_t len = 0;
  };
  Slice& sliceOf(NodeId src, NodeId dst);
  const Slice* findSlice(NodeId src, NodeId dst) const;
  /// Recompute the footprint charged to the route_table account (capacity
  /// based, so it only moves — and only then touches atomics — on growth).
  void accountBytes();

  /// Owned copy: a shared table (artifact cache) must stay valid after the
  /// caller's topology object is gone.
  Torus topo_;
  bool complete_ = false;
  /// Dense pair index (src * numNodes + dst) when the topology is small
  /// enough; hash-map fallback above kDenseIndexNodeCap nodes.
  bool denseIndex_ = true;
  std::vector<Slice> dense_;
  std::unordered_map<std::uint64_t, Slice> sparse_;
  // Arena (structure of arrays): all routes back to back.
  std::vector<ChannelId> channels_;
  std::vector<double> fracs_;
  obs::MemAccount mem_{obs::MemAccountId::RouteTable};
};

/// Caller-owned copy-out buffer for TieredRouteCache sparse reads (defined
/// here so consumers of the tiered tier need only the forward declaration).
/// One per reader thread; reusing it across reads amortizes the allocation.
struct RouteScratch {
  std::vector<ChannelId> channels;
  std::vector<double> fracs;
};

/// Provider of immutable, shareable per-topology / per-graph artifacts.
/// The solver phases take a non-owning pointer (null = build locally, the
/// historical behavior); a cross-request cache implements this to amortize
/// `RouteTable::buildFull` and `buildFlowIncidence` across solves. Returned
/// objects are complete and read-only, so sharing them across threads is
/// safe and the consumer's arithmetic is bit-identical to a local build.
class TieredRouteCache;

class ArtifactSource {
 public:
  virtual ~ArtifactSource() = default;
  /// A complete (eagerly built) route table for \p topo. Only called when
  /// RouteTable::fullBuildFeasible(topo); never returns null.
  virtual std::shared_ptr<const RouteTable> routeTable(const Torus& topo) = 0;
  /// The per-vertex flow incidence of \p graph; never returns null.
  virtual std::shared_ptr<const FlowIncidence> flowIncidence(
      const CommGraph& graph) = 0;
  /// A tiered route cache whose sparse tier serves \p machine — the scale
  /// path past fullBuildFeasible(). Null (the default) means the caller
  /// builds its own tiers; a cross-request cache returns a shared instance
  /// so sparse working sets survive between solves.
  virtual std::shared_ptr<TieredRouteCache> routeCache(const Torus& machine) {
    (void)machine;
    return nullptr;
  }
};

struct DeltaEvalConfig {
  bool trackLoads = true;      ///< maintain channel loads, MCL, sum-squares
  bool trackHopBytes = false;  ///< maintain the hop-bytes total
};

/// Probe-then-commit incremental evaluation of one placement.
///
/// The engine owns a placement of `graph`'s vertices onto nodes of `topo`
/// (several vertices may share a node; co-located flows add no load) and
/// maintains, as configured, the dense channel loads with their maximum
/// (MCL) and sum of squares, and/or the hop-bytes total. `probeSwap` /
/// `probeMove` return the statistics the placement WOULD have after the
/// move without observably changing any state; `commit()` adopts the most
/// recent probe. A probe that is not committed costs nothing further — the
/// next probe simply overwrites the pending delta.
class DeltaPlacementEval {
 public:
  using Config = DeltaEvalConfig;

  struct Summary {
    double mcl = 0;
    double sumSquares = 0;
    double hopBytes = 0;
  };

  /// \p routes: optional complete table shared read-only (e.g. across
  /// annealing restarts); the engine builds its own lazy table when null.
  /// \p incidence: optional pre-built incidence of \p graph's flows over its
  /// vertices, shared read-only; the engine builds its own when null.
  /// \p tieredRoutes: optional tiered cache whose sparse tier serves \p topo
  /// — the scale path when no complete table is feasible. Consulted only
  /// when \p routes is null; routes are copied out per lookup, so results
  /// stay bit-identical even when the cache evicts and refaults underneath.
  DeltaPlacementEval(const Torus& topo, const CommGraph& graph,
                     std::vector<NodeId> placement, Config cfg = {},
                     std::shared_ptr<const RouteTable> routes = nullptr,
                     std::shared_ptr<const FlowIncidence> incidence = nullptr,
                     std::shared_ptr<TieredRouteCache> tieredRoutes = nullptr);

  const Torus& topology() const { return *topo_; }
  const std::vector<NodeId>& placement() const { return placement_; }
  const Summary& current() const { return cur_; }
  double mcl() const { return cur_.mcl; }
  double sumSquares() const { return cur_.sumSquares; }
  double hopBytes() const { return cur_.hopBytes; }

  /// Candidate statistics if vertices a and b exchanged nodes.
  const Summary& probeSwap(RankId a, RankId b);
  /// Candidate statistics if vertex a relocated to \p node (which must not
  /// host any other vertex — the caller tracks empty nodes).
  const Summary& probeMove(RankId a, NodeId node);
  /// Adopt the most recent probe. Requires a pending probe.
  void commit();

  /// From-scratch reconstruction of loads and statistics (the dense
  /// sweep). Resynchronizes any accumulated floating-point drift; the
  /// resulting loads are bit-identical to placementLoads().
  void rebuild();

  /// Debug/test view of the dense channel loads (trackLoads only).
  const std::vector<double>& loads() const { return loads_; }

  // ---- Instrumentation ----------------------------------------------------
  std::uint64_t probes() const { return probes_; }
  std::uint64_t commits() const { return commits_; }
  /// From-scratch rebuilds performed (the initial build included; the
  /// per-probe sweep over the delta is not counted).
  std::uint64_t denseSweeps() const { return denseSweeps_; }

 private:
  RouteTable::Span route(NodeId src, NodeId dst);
  /// Add \p bytes along the (src,dst) route into the pending delta.
  void accumulateRoute(NodeId src, NodeId dst, double bytes);
  void beginProbe();
  void probeFlows(RankId a, RankId b, NodeId nodeA, NodeId nodeB);
  /// Pending MCL and sum of squares from the accumulated delta.
  void finishProbe();
  void sweepStats();
  /// Recompute the footprint charged to the mapper account (the dense
  /// vectors); capacity based like RouteTable's.
  void accountBytes();

  const Torus* topo_;
  const CommGraph* graph_;
  Config cfg_;
  std::vector<NodeId> placement_;
  FlowIncidence ownIncidence_;  ///< built locally when no shared incidence
  std::shared_ptr<const FlowIncidence> sharedIncidence_;
  const FlowIncidence* incidence_ = nullptr;  ///< shared or own

  std::shared_ptr<const RouteTable> sharedRoutes_;
  std::unique_ptr<RouteTable> ownRoutes_;
  std::shared_ptr<TieredRouteCache> tieredRoutes_;
  RouteScratch tierScratch_;  ///< copy-out buffer for tiered lookups

  // Dense loads (trackLoads).
  std::vector<double> loads_;
  std::vector<double> peak_;  ///< per-channel peak |load| ever applied

  // Pending probe.
  std::vector<double> delta_;  ///< per-channel probe delta
  enum class Pending { None, Swap, Move };
  Pending pending_ = Pending::None;
  RankId pendA_ = kInvalidRank;
  RankId pendB_ = kInvalidRank;  ///< swap partner
  NodeId pendNode_ = kInvalidNode;  ///< move target
  Summary pendingSummary_;

  Summary cur_;
  std::uint64_t probes_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t denseSweeps_ = 0;
  obs::MemAccount mem_{obs::MemAccountId::Mapper};
};

}  // namespace rahtm
