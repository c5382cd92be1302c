// Tests for the torus topology model, channel indexing, minimal offsets,
// subcube views and the orientation (signed permutation) group.

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "topology/orientation.hpp"
#include "topology/presets.hpp"
#include "topology/subcube.hpp"
#include "topology/torus.hpp"

namespace rahtm {
namespace {

TEST(Torus, NodeIdRoundTrip) {
  const Torus t = Torus::torus(Shape{4, 3, 2});
  EXPECT_EQ(t.numNodes(), 24);
  for (NodeId n = 0; n < t.numNodes(); ++n) {
    EXPECT_EQ(t.nodeId(t.coordOf(n)), n);
  }
  // Row-major: last dimension fastest.
  EXPECT_EQ(t.nodeId(Coord{0, 0, 1}), 1);
  EXPECT_EQ(t.nodeId(Coord{0, 1, 0}), 2);
  EXPECT_EQ(t.nodeId(Coord{1, 0, 0}), 6);
}

TEST(Torus, NeighborWrapsOnTorusOnly) {
  const Torus t = Torus::torus(Shape{4});
  const Torus m = Torus::mesh(Shape{4});
  EXPECT_EQ((*t.neighbor(Coord{3}, 0, Dir::Plus))[0], 0);
  EXPECT_EQ((*t.neighbor(Coord{0}, 0, Dir::Minus))[0], 3);
  EXPECT_FALSE(m.neighbor(Coord{3}, 0, Dir::Plus).has_value());
  EXPECT_FALSE(m.neighbor(Coord{0}, 0, Dir::Minus).has_value());
  EXPECT_EQ((*m.neighbor(Coord{2}, 0, Dir::Plus))[0], 3);
}

TEST(Torus, DegenerateDimensionHasNoChannels) {
  const Torus t = Torus::torus(Shape{4, 1});
  EXPECT_FALSE(t.neighbor(Coord{0, 0}, 1, Dir::Plus).has_value());
  EXPECT_EQ(t.numChannels(), 8);  // only the 4-ring, both directions
}

TEST(Torus, TwoAryTorusHasDoubleLinks) {
  // A 2-node torus ring has two physical links in each direction
  // (the "double-wide link" of §III-C).
  const Torus t = Torus::torus(Shape{2});
  EXPECT_EQ(t.numChannels(), 4);
  EXPECT_TRUE(t.channelValid(0, 0, Dir::Plus));
  EXPECT_TRUE(t.channelValid(0, 0, Dir::Minus));
  EXPECT_EQ(t.channelDst(t.channelId(0, 0, Dir::Plus)), 1);
  EXPECT_EQ(t.channelDst(t.channelId(0, 0, Dir::Minus)), 1);
  // The mesh version has only one.
  EXPECT_EQ(Torus::mesh(Shape{2}).numChannels(), 2);
}

TEST(Torus, ChannelRefRoundTrip) {
  const Torus t = Torus::torus(Shape{3, 2});
  for (NodeId n = 0; n < t.numNodes(); ++n) {
    for (std::size_t d = 0; d < t.ndims(); ++d) {
      for (const Dir dir : {Dir::Plus, Dir::Minus}) {
        if (!t.channelValid(n, d, dir)) continue;
        const ChannelId id = t.channelId(n, d, dir);
        const auto ref = t.channelRef(id);
        EXPECT_EQ(ref.node, n);
        EXPECT_EQ(ref.dim, d);
        EXPECT_EQ(ref.dir, dir);
      }
    }
  }
}

TEST(Torus, MinimalOffsetTorus) {
  const Torus t = Torus::torus(Shape{8});
  auto off = t.minimalOffset(Coord{1}, Coord{3}, 0);
  EXPECT_EQ(off.steps, 2);
  EXPECT_EQ(off.dir, Dir::Plus);
  EXPECT_FALSE(off.tie);
  off = t.minimalOffset(Coord{1}, Coord{7}, 0);
  EXPECT_EQ(off.steps, 2);
  EXPECT_EQ(off.dir, Dir::Minus);
  off = t.minimalOffset(Coord{0}, Coord{4}, 0);  // exactly half the ring
  EXPECT_EQ(off.steps, 4);
  EXPECT_TRUE(off.tie);
}

TEST(Torus, MinimalOffsetMeshNeverTies) {
  const Torus m = Torus::mesh(Shape{8});
  const auto off = m.minimalOffset(Coord{0}, Coord{4}, 0);
  EXPECT_EQ(off.steps, 4);
  EXPECT_EQ(off.dir, Dir::Plus);
  EXPECT_FALSE(off.tie);
  const auto back = m.minimalOffset(Coord{6}, Coord{1}, 0);
  EXPECT_EQ(back.steps, 5);
  EXPECT_EQ(back.dir, Dir::Minus);
}

TEST(Torus, DistanceAndDiameter) {
  const Torus t = Torus::torus(Shape{4, 4});
  EXPECT_EQ(t.distance(Coord{0, 0}, Coord{2, 3}), 3);  // 2 + 1 (wrap)
  EXPECT_EQ(t.diameter(), 4);
  const Torus m = Torus::mesh(Shape{4, 4});
  EXPECT_EQ(m.distance(Coord{0, 0}, Coord{3, 3}), 6);
  EXPECT_EQ(m.diameter(), 6);
  EXPECT_EQ(bgqPartition512().diameter(), 2 + 2 + 2 + 2 + 1);
}

TEST(Torus, Describe) {
  EXPECT_EQ(Torus::torus(Shape{4, 2}).describe(), "torus 4x2");
  EXPECT_EQ(Torus::mesh(Shape{3}).describe(), "mesh 3");
}

TEST(Torus, Presets) {
  EXPECT_EQ(bgqPartition512().numNodes(), 512);
  EXPECT_EQ(bgqPartition128().numNodes(), 128);
  EXPECT_EQ(torus32().numNodes(), 32);
}

TEST(Torus, InvalidInputsThrow) {
  EXPECT_THROW(Torus::torus(Shape{}), PreconditionError);
  EXPECT_THROW(Torus::torus(Shape{0}), PreconditionError);
  const Torus t = Torus::torus(Shape{2, 2});
  EXPECT_THROW(t.nodeId(Coord{2, 0}), PreconditionError);
  EXPECT_THROW(t.coordOf(4), PreconditionError);
  EXPECT_THROW(t.minimalOffset(Coord{0, 0}, Coord{0, 0}, 2), PreconditionError);
}

// ---- Orientations ----------------------------------------------------------

TEST(Orientation, GroupSizeIsHyperoctahedral) {
  // |B_n| = 2^n n!.
  EXPECT_EQ(enumerateOrientations(Shape{2, 2}).size(), 8u);
  EXPECT_EQ(enumerateOrientations(Shape{2, 2, 2}).size(), 48u);
  EXPECT_EQ(countOrientations(Shape{2, 2, 2, 2}), 384);
  EXPECT_EQ(enumerateOrientations(Shape{2, 2, 2, 2}).size(), 384u);
}

TEST(Orientation, DegenerateAndUnequalDims) {
  // Extent-1 dims neither permute with extent-2 dims nor flip.
  EXPECT_EQ(enumerateOrientations(Shape{2, 1}).size(), 2u);
  EXPECT_EQ(countOrientations(Shape{2, 1}), 2);
  // 4x2: no swap possible, both flips available.
  EXPECT_EQ(enumerateOrientations(Shape{4, 2}).size(), 4u);
  // 4x4x2: swap of the two 4s times 3 flips.
  EXPECT_EQ(countOrientations(Shape{4, 4, 2}), 2 * 8);
  EXPECT_EQ(enumerateOrientations(Shape{4, 4, 2}).size(), 16u);
}

TEST(Orientation, EnumerationHasNoDuplicates) {
  const auto all = enumerateOrientations(Shape{2, 2, 2});
  std::set<std::string> seen;
  for (const Orientation& o : all) seen.insert(o.describe());
  EXPECT_EQ(seen.size(), all.size());
}

TEST(Orientation, ApplyIsBijective) {
  const Shape shape{2, 3, 2};
  const Torus t = Torus::mesh(shape);
  for (const Orientation& o : enumerateOrientations(shape)) {
    std::set<NodeId> image;
    for (NodeId n = 0; n < t.numNodes(); ++n) {
      const Coord mapped = o.apply(t.coordOf(n), shape);
      EXPECT_TRUE(t.contains(mapped)) << o.describe();
      image.insert(t.nodeId(mapped));
    }
    EXPECT_EQ(image.size(), static_cast<std::size_t>(t.numNodes()))
        << o.describe();
  }
}

TEST(Orientation, InverseUndoesApply) {
  const Shape shape{2, 2, 2};
  const Torus t = Torus::mesh(shape);
  for (const Orientation& o : enumerateOrientations(shape)) {
    const Orientation inv = o.inverse();
    for (NodeId n = 0; n < t.numNodes(); ++n) {
      const Coord c = t.coordOf(n);
      EXPECT_EQ(inv.apply(o.apply(c, shape), o.applyToShape(shape)), c)
          << o.describe();
    }
  }
}

TEST(Orientation, CompositionMatchesSequentialApplication) {
  const Shape shape{2, 2};
  const auto all = enumerateOrientations(shape);
  const Torus t = Torus::mesh(shape);
  for (const Orientation& a : all) {
    for (const Orientation& b : all) {
      const Orientation ab = a.then(b);
      for (NodeId n = 0; n < t.numNodes(); ++n) {
        const Coord c = t.coordOf(n);
        EXPECT_EQ(ab.apply(c, shape),
                  b.apply(a.apply(c, shape), a.applyToShape(shape)))
            << a.describe() << " then " << b.describe();
      }
    }
  }
}

TEST(Orientation, PreservesAdjacency) {
  // Orientations are graph automorphisms of the block.
  const Shape shape{2, 2, 2};
  const Torus t = Torus::mesh(shape);
  for (const Orientation& o : enumerateOrientations(shape)) {
    for (NodeId n = 0; n < t.numNodes(); ++n) {
      const Coord c = t.coordOf(n);
      for (std::size_t d = 0; d < t.ndims(); ++d) {
        const auto nb = t.neighbor(c, d, Dir::Plus);
        if (!nb) continue;
        EXPECT_EQ(t.distance(o.apply(c, shape), o.apply(*nb, shape)), 1)
            << o.describe();
      }
    }
  }
}

/// Class table of \p positions in a block of \p shape over the block's full
/// orientation group, checked against the definition: rep[i] is the first
/// orientation whose image of every position equals orientation i's.
std::vector<std::size_t> checkedClasses(const Shape& shape,
                                        const std::vector<Coord>& positions) {
  const std::vector<Orientation> orients = enumerateOrientations(shape);
  const std::vector<std::size_t> rep =
      orientationClasses(orients, positions, shape);
  EXPECT_EQ(rep.size(), orients.size());
  const auto sameImage = [&](std::size_t i, std::size_t j) {
    for (const Coord& p : positions) {
      if (!(orients[i].apply(p, shape) == orients[j].apply(p, shape))) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t i = 0; i < rep.size(); ++i) {
    std::size_t first = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (sameImage(i, j)) {
        first = j;
        break;
      }
    }
    EXPECT_EQ(rep[i], first) << orients[i].describe();
  }
  return rep;
}

std::size_t classCount(const std::vector<std::size_t>& rep) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < rep.size(); ++i) n += rep[i] == i ? 1 : 0;
  return n;
}

TEST(OrientationClasses, OneNodeBlockIsOneClass) {
  // Every orientation of a one-node block puts its cluster on that node.
  const auto rep = checkedClasses(Shape{1, 1, 1, 1, 1}, {Coord{0, 0, 0, 0, 0}});
  EXPECT_EQ(rep.size(), 120u);
  EXPECT_EQ(classCount(rep), 1u);
  for (const std::size_t r : rep) EXPECT_EQ(r, 0u);
}

TEST(OrientationClasses, FlipOfTwoClustersIsItsOwnClass) {
  // 4! permutations of the degenerate dims x the one flip: the flip swaps
  // the two clusters, which is a different placement.
  const auto rep = checkedClasses(
      Shape{2, 1, 1, 1, 1}, {Coord{0, 0, 0, 0, 0}, Coord{1, 0, 0, 0, 0}});
  EXPECT_EQ(rep.size(), 48u);
  EXPECT_EQ(classCount(rep), 2u);
}

TEST(OrientationClasses, FullBlockHasOneClassPerOrientation) {
  const Shape shape{2, 2, 2};
  const Torus t = Torus::mesh(shape);
  std::vector<Coord> all;
  for (NodeId n = 0; n < t.numNodes(); ++n) all.push_back(t.coordOf(n));
  const auto rep = checkedClasses(shape, all);
  EXPECT_EQ(classCount(rep), 48u);
  for (std::size_t i = 0; i < rep.size(); ++i) EXPECT_EQ(rep[i], i);
}

TEST(OrientationClasses, PartiallyFilledBlock) {
  const Shape shape{2, 2, 2};
  // One corner reaches each of the 8 corners; an ordered edge each of the
  // 12 edges in both directions; an empty block has one placement.
  EXPECT_EQ(classCount(checkedClasses(shape, {Coord{0, 1, 0}})), 8u);
  EXPECT_EQ(classCount(checkedClasses(shape, {Coord{0, 0, 0}, Coord{0, 0, 1}})),
            24u);
  EXPECT_EQ(classCount(checkedClasses(shape, {})), 1u);
  // Unequal extents: a 4x2 block has 4 orientations; one cell at (1, 0)
  // reaches (1,0), (1,1), (2,0), (2,1).
  EXPECT_EQ(classCount(checkedClasses(Shape{4, 2}, {Coord{1, 0}})), 4u);
}

// ---- Subcubes ---------------------------------------------------------------

TEST(Subcube, CoordinateTranslation) {
  const Torus t = Torus::torus(Shape{4, 4});
  const SubcubeView block(t, Coord{2, 0}, Shape{2, 2});
  EXPECT_EQ(block.numNodes(), 4);
  EXPECT_EQ(block.toParent(Coord{0, 0}), (Coord{2, 0}));
  EXPECT_EQ(block.toParent(Coord{1, 1}), (Coord{3, 1}));
  EXPECT_EQ(block.toLocal(Coord{3, 1}), (Coord{1, 1}));
  EXPECT_TRUE(block.containsParent(Coord{2, 1}));
  EXPECT_FALSE(block.containsParent(Coord{1, 1}));
  EXPECT_THROW(block.toLocal(Coord{0, 0}), PreconditionError);
}

TEST(Subcube, ProperSubcubeIsMesh) {
  const Torus t = Torus::torus(Shape{4, 4});
  const SubcubeView block(t, Coord{0, 0}, Shape{2, 2});
  const Torus local = block.localTopology();
  EXPECT_FALSE(local.wraps(0));
  EXPECT_FALSE(local.wraps(1));
  // A block spanning a full wrapped dimension keeps the wrap.
  const SubcubeView full(t, Coord{0, 0}, Shape{4, 2});
  EXPECT_TRUE(full.localTopology().wraps(0));
  EXPECT_FALSE(full.localTopology().wraps(1));
}

TEST(Subcube, PartitionCoversMachineExactlyOnce) {
  const Torus t = bgqPartition128();  // 4x4x4x2
  const auto blocks = partitionIntoBlocks(t, Shape{2, 2, 2, 1});
  EXPECT_EQ(blocks.size(), 16u);
  std::set<NodeId> covered;
  for (const SubcubeView& b : blocks) {
    for (NodeId local = 0; local < b.numNodes(); ++local) {
      EXPECT_TRUE(covered.insert(b.parentNodeOf(local)).second);
    }
  }
  EXPECT_EQ(covered.size(), static_cast<std::size_t>(t.numNodes()));
}

TEST(Subcube, BadPartitionsThrow) {
  const Torus t = Torus::torus(Shape{4, 4});
  EXPECT_THROW(partitionIntoBlocks(t, Shape{3, 1}), PreconditionError);
  EXPECT_THROW(partitionIntoBlocks(t, Shape{2}), PreconditionError);
  EXPECT_THROW(SubcubeView(t, Coord{3, 0}, Shape{2, 2}), PreconditionError);
}

}  // namespace
}  // namespace rahtm
