/**
 * @file
 * Property-based sweeps over the mask generators: structural
 * invariants must hold for every (pattern, sparsity, block size,
 * matrix shape) combination.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "mask_util.hpp"
#include "util/rng.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc::core;
using tbstc::testutil::makeMask;
using tbstc::testutil::maskOf;
using tbstc::util::Rng;

Matrix
randomScores(size_t r, size_t c, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    for (auto &v : m.data())
        v = static_cast<float>(std::fabs(rng.heavyTail()));
    return m;
}

// ---------------------------------------------------------------------
// Sparsity sweep: every pattern respects its structure and lands near
// the requested target at any sparsity degree.
// ---------------------------------------------------------------------

class SparsitySweep
    : public ::testing::TestWithParam<std::tuple<Pattern, double>>
{
};

TEST_P(SparsitySweep, StructureAndTargetHold)
{
    const auto [pattern, sparsity] = GetParam();
    const size_t m = 8;
    const Matrix s = randomScores(96, 96, 101);
    const Mask mask = maskOf(pattern, s, sparsity, m);

    EXPECT_NEAR(mask.sparsity(), sparsity, 0.06);

    if (pattern == Pattern::TBS) {
        const MaskOutput res = makeMask(Pattern::TBS, s, sparsity, m);
        EXPECT_TRUE(validateTbs(res.mask, res.meta));
    }
    if (pattern == Pattern::US) {
        // US hits the target exactly (top-k).
        const auto expect = static_cast<size_t>(
            std::llround((1.0 - sparsity) * 96.0 * 96.0));
        EXPECT_EQ(mask.nnz(), expect);
    }
}

std::string
sparsitySweepName(
    const ::testing::TestParamInfo<std::tuple<Pattern, double>> &info)
{
    std::string name = patternName(std::get<0>(info.param)) + "_s"
        + std::to_string(static_cast<int>(std::get<1>(info.param) * 1000));
    std::erase(name, '-'); // gtest only allows alphanumerics.
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    PatternsBySparsity, SparsitySweep,
    ::testing::Combine(
        ::testing::Values(Pattern::US, Pattern::TS, Pattern::RSV,
                          Pattern::RSH, Pattern::TBS),
        ::testing::Values(0.25, 0.375, 0.5, 0.625, 0.75, 0.875)),
    sparsitySweepName);

// ---------------------------------------------------------------------
// Block-size sweep: TBS invariants hold for every power-of-two M.
// ---------------------------------------------------------------------

class BlockSizeSweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(BlockSizeSweep, TbsValidAtAllBlockSizes)
{
    const size_t m = GetParam();
    const Matrix s = randomScores(2 * m * 4, m * 8, 300 + m);
    const MaskOutput res = makeMask(Pattern::TBS, s, 0.5, m);
    EXPECT_TRUE(validateTbs(res.mask, res.meta));
    EXPECT_NEAR(res.mask.sparsity(), 0.5, 0.05);
}

TEST_P(BlockSizeSweep, SimilarityToUsGrowsWithSmallerBlocks)
{
    // Finer blocks track the unstructured mask at least as well as a
    // single coarse block (not strictly monotone per sample, so
    // compare the extremes).
    const size_t m = GetParam();
    if (m > 8)
        return; // Only check the fine end.
    const Matrix w =
        tbstc::workload::synthWeights({"bss-probe", 64, 64, 1}, 77);
    const Matrix s = magnitudeScores(w);
    const Mask us = maskOf(Pattern::US, s, 0.5);
    const auto tbs_m =
        makeMask(Pattern::TBS, s, 0.5, m).mask.overlap(us);
    const auto tbs_32 =
        makeMask(Pattern::TBS, s, 0.5, 32).mask.overlap(us);
    EXPECT_GE(tbs_m + 0.02, tbs_32);
}

std::string
blockSizeName(const ::testing::TestParamInfo<size_t> &info)
{
    std::string name = "M";
    name += std::to_string(info.param);
    return name;
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeSweep,
                         ::testing::Values(4, 8, 16, 32),
                         blockSizeName);

// ---------------------------------------------------------------------
// Criterion sweep: pattern structure is independent of the criterion
// (the paper's orthogonality note).
// ---------------------------------------------------------------------

class CriterionSweep : public ::testing::TestWithParam<Criterion>
{
};

TEST_P(CriterionSweep, TbsValidUnderAllCriteria)
{
    Rng rng(55);
    Matrix w(48, 48);
    for (auto &v : w.data())
        v = static_cast<float>(rng.heavyTail() * 0.05);
    Matrix acts(96, 48);
    for (auto &v : acts.data())
        v = static_cast<float>(std::max(0.0, rng.gaussian()));

    const Matrix scores = criterionScores(GetParam(), w, acts);
    const MaskOutput res = makeMask(Pattern::TBS, scores, 0.5);
    EXPECT_TRUE(validateTbs(res.mask, res.meta));
    EXPECT_NEAR(res.mask.sparsity(), 0.5, 0.05);
}

std::string
criterionSweepName(const ::testing::TestParamInfo<Criterion> &info)
{
    return criterionName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Criteria, CriterionSweep,
                         ::testing::Values(Criterion::Magnitude,
                                           Criterion::Wanda,
                                           Criterion::SparseGpt),
                         criterionSweepName);

// ---------------------------------------------------------------------
// Similarity ordering: the paper's Fig. 4(b) claim — TBS tracks US
// better than the row-wise patterns, which beat tile-wise — must hold
// across sparsity degrees and seeds.
// ---------------------------------------------------------------------

class SimilarityOrdering
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>>
{
};

TEST_P(SimilarityOrdering, TbsTracksUsBest)
{
    const auto [sparsity, seed] = GetParam();
    const Matrix s = randomScores(128, 128, seed);
    const Mask us = maskOf(Pattern::US, s, sparsity);
    const double sim_ts =
        maskOf(Pattern::TS, s, sparsity).overlap(us);
    const double sim_rsv =
        maskOf(Pattern::RSV, s, sparsity).overlap(us);
    const double sim_tbs =
        maskOf(Pattern::TBS, s, sparsity).overlap(us);
    EXPECT_GT(sim_tbs, sim_ts);
    EXPECT_GE(sim_tbs + 0.01, sim_rsv);
}

std::string
similarityName(
    const ::testing::TestParamInfo<std::tuple<double, uint64_t>> &info)
{
    std::string name = "s";
    name += std::to_string(static_cast<int>(std::get<0>(info.param) * 1000));
    name += "_seed";
    name += std::to_string(std::get<1>(info.param));
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    SimilaritySweep, SimilarityOrdering,
    ::testing::Combine(::testing::Values(0.5, 0.625, 0.75),
                       ::testing::Values(uint64_t{1001}, uint64_t{1002},
                                         uint64_t{1003})),
    similarityName);

} // namespace
