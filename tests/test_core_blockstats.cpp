/**
 * @file
 * Unit tests for block-level statistics (paper Fig. 17 machinery).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/blockstats.hpp"
#include "core/prune.hpp"
#include "mask_util.hpp"
#include "util/rng.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc::core;
using tbstc::testutil::makeMask;
using tbstc::util::Rng;

TEST(BlockStats, ClassifyKinds)
{
    EXPECT_EQ(classifyBlock({0, SparsityDim::Reduction}, 8),
              BlockKind::Other);
    EXPECT_EQ(classifyBlock({8, SparsityDim::Independent}, 8),
              BlockKind::Other);
    EXPECT_EQ(classifyBlock({4, SparsityDim::Reduction}, 8),
              BlockKind::RowSparse);
    EXPECT_EQ(classifyBlock({2, SparsityDim::Independent}, 8),
              BlockKind::ColSparse);
}

TEST(BlockStats, DistributionSumsToOne)
{
    // Structured (channel/region-scaled) weights, like a trained net.
    const Matrix w =
        tbstc::workload::synthWeights({"bs-probe", 128, 128, 1}, 1);
    const Matrix s = magnitudeScores(w);
    const MaskOutput res = makeMask(Pattern::TBS, s, 0.6);
    const DirectionDistribution d = directionDistribution(res.meta);
    EXPECT_NEAR(d.rowFrac + d.colFrac + d.otherFrac, 1.0, 1e-9);
    EXPECT_EQ(d.blocks, 16u * 16u);
    // At a moderate sparsity all three categories appear.
    EXPECT_GT(d.rowFrac, 0.0);
    EXPECT_GT(d.colFrac, 0.0);
    EXPECT_GT(d.otherFrac, 0.0);
}

TEST(BlockStats, EmptyMetaSafe)
{
    const DirectionDistribution d = directionDistribution(TbsMeta{});
    EXPECT_EQ(d.blocks, 0u);
    EXPECT_EQ(d.rowFrac, 0.0);
}

TEST(BlockStats, BlockNnzCounts)
{
    Mask m(16, 16);
    for (size_t c = 0; c < 8; ++c)
        m.at(0, c) = 1; // 8 in block (0,0).
    m.at(8, 8) = 1;     // 1 in block (1,1).
    const auto nnz = blockNnz(m, 8);
    ASSERT_EQ(nnz.size(), 4u);
    EXPECT_EQ(nnz[0], 8u);
    EXPECT_EQ(nnz[1], 0u);
    EXPECT_EQ(nnz[2], 0u);
    EXPECT_EQ(nnz[3], 1u);
}

TEST(BlockStats, NaiveUtilisationBounds)
{
    // Uniform blocks -> perfect utilisation.
    std::vector<size_t> uniform(16, 32);
    EXPECT_NEAR(naiveInterBlockUtilisation(uniform, 4, 8), 1.0, 1e-9);

    // Highly skewed blocks -> poor utilisation.
    std::vector<size_t> skewed{64, 0, 0, 0};
    const double u = naiveInterBlockUtilisation(skewed, 4, 8);
    EXPECT_NEAR(u, 0.25, 1e-9);

    // Bounds in general.
    Rng rng(3);
    std::vector<size_t> random(64);
    for (auto &v : random)
        v = rng.below(65);
    const double ur = naiveInterBlockUtilisation(random, 16, 8);
    EXPECT_GT(ur, 0.0);
    EXPECT_LE(ur, 1.0);
}

TEST(BlockStats, MixedSparsityShowsImbalance)
{
    // The paper's motivation: ~45% utilisation under direct mapping of
    // a mixed-N TBS layout. Construct blocks with N in {0,1,2,4,8}.
    Rng rng(5);
    std::vector<size_t> nnz;
    const size_t ns[] = {0, 8, 16, 32, 64};
    for (size_t i = 0; i < 256; ++i)
        nnz.push_back(ns[rng.below(5)]);
    const double u = naiveInterBlockUtilisation(nnz, 16, 8);
    EXPECT_LT(u, 0.6);
    EXPECT_GT(u, 0.2);
}

} // namespace
