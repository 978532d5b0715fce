/**
 * @file
 * Unit tests for the mask generators, including paper Algorithm 1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "mask_util.hpp"
#include "util/rng.hpp"

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

TEST(UsMask, HitsExactTarget)
{
    const Matrix s = randomScores(32, 32, 1);
    const Mask m = maskOf(Pattern::US, s, 0.75);
    EXPECT_EQ(m.nnz(), 256u);
}

TEST(UsMask, KeepsLargestScores)
{
    Matrix s(1, 8, {1, 8, 2, 7, 3, 6, 4, 5});
    const Mask m = maskOf(Pattern::US, s, 0.5);
    EXPECT_EQ(m.at(0, 1), 1);
    EXPECT_EQ(m.at(0, 3), 1);
    EXPECT_EQ(m.at(0, 5), 1);
    EXPECT_EQ(m.at(0, 7), 1);
    EXPECT_EQ(m.at(0, 0), 0);
}

TEST(UsMask, ZeroAndFullSparsity)
{
    const Matrix s = randomScores(8, 8, 2);
    EXPECT_EQ(maskOf(Pattern::US, s, 0.0).nnz(), 64u);
    EXPECT_EQ(maskOf(Pattern::US, s, 1.0).nnz(), 0u);
}

TEST(TsMask, RespectsTileConstraint)
{
    const Matrix s = randomScores(16, 32, 3);
    const Mask m = maskOf(Pattern::TS, s, 0.5);
    EXPECT_TRUE(validateTs(m, 4, 8));
    EXPECT_EQ(m.nnz(), 16u * 32u / 2u); // Exactly 4 per tile of 8.
}

TEST(TsMask, KeepsTileTopScores)
{
    Matrix s(1, 8, {0.9f, 0.1f, 0.8f, 0.2f, 0.7f, 0.3f, 0.6f, 0.4f});
    const Mask m = maskOf(Pattern::TS, s, 0.75);
    EXPECT_EQ(m.at(0, 0), 1);
    EXPECT_EQ(m.at(0, 2), 1);
    EXPECT_EQ(m.nnz(), 2u);
}

TEST(TsMask, RejectsNonDivisible)
{
    const Matrix s = randomScores(8, 12, 4);
    MaskRequest req;
    req.pattern = Pattern::TS;
    EXPECT_EQ(tryMakeMask(s, req).error().kind,
              MaskErrorKind::NotDivisible);
}

TEST(RsvMask, PerRowUniformNAndNearTarget)
{
    const Matrix s = randomScores(64, 64, 5);
    const auto cand = defaultCandidates(8);
    const Mask m = maskOf(Pattern::RSV, s, 0.5);

    // Every row must use one N from the candidate set across all its
    // tiles (VEGETA's constraint).
    for (size_t r = 0; r < 64; ++r) {
        size_t max_tile = 0;
        for (size_t t = 0; t < 64; t += 8) {
            size_t nnz = 0;
            for (size_t i = 0; i < 8; ++i)
                nnz += m.at(r, t + i);
            max_tile = std::max(max_tile, nnz);
        }
        bool is_candidate = false;
        for (uint8_t c : cand)
            is_candidate |= c == max_tile;
        EXPECT_TRUE(is_candidate) << "row " << r;
    }
    EXPECT_NEAR(m.sparsity(), 0.5, 0.03);
}

TEST(RshMask, NearTargetAndRowStructured)
{
    const Matrix s = randomScores(64, 128, 6);
    const Mask m = maskOf(Pattern::RSH, s, 0.6);
    EXPECT_NEAR(m.sparsity(), 0.6, 0.04);
    // Tiles are either empty, half-dense, or dense.
    for (size_t r = 0; r < 64; ++r) {
        for (size_t t = 0; t < 128; t += 8) {
            size_t nnz = 0;
            for (size_t i = 0; i < 8; ++i)
                nnz += m.at(r, t + i);
            EXPECT_TRUE(nnz == 0 || nnz == 4 || nnz == 8)
                << "row " << r << " tile " << t << " nnz " << nnz;
        }
    }
}

TEST(TbsMask, SatisfiesStructuralInvariant)
{
    const Matrix s = randomScores(64, 64, 7);
    const MaskOutput res = makeMask(Pattern::TBS, s, 0.5);
    EXPECT_TRUE(validateTbs(res.mask, res.meta));
    EXPECT_EQ(res.meta.blockRows, 8u);
    EXPECT_EQ(res.meta.blockCols, 8u);
}

TEST(TbsMask, HitsTargetSparsity)
{
    const Matrix s = randomScores(128, 128, 8);
    for (double sp : {0.3, 0.5, 0.75}) {
        const MaskOutput res = makeMask(Pattern::TBS, s, sp);
        EXPECT_NEAR(res.mask.sparsity(), sp, 0.02) << sp;
    }
}

TEST(TbsMask, EachGroupKeepsExactlyN)
{
    const Matrix s = randomScores(32, 32, 9);
    const MaskOutput res = makeMask(Pattern::TBS, s, 0.5);
    for (size_t br = 0; br < res.meta.blockRows; ++br) {
        for (size_t bc = 0; bc < res.meta.blockCols; ++bc) {
            const BlockInfo &info = res.meta.block(br, bc);
            for (size_t g = 0; g < 8; ++g) {
                size_t nnz = 0;
                for (size_t e = 0; e < 8; ++e) {
                    const size_t r =
                        info.dim == SparsityDim::Reduction ? g : e;
                    const size_t c =
                        info.dim == SparsityDim::Reduction ? e : g;
                    nnz += res.mask.at(br * 8 + r, bc * 8 + c);
                }
                EXPECT_EQ(nnz, info.n);
            }
        }
    }
}

TEST(TbsMask, UsesBothDirections)
{
    // On heavy-tailed scores at 50% sparsity, TBS should exercise both
    // the reduction and the independent direction.
    const Matrix s = randomScores(128, 128, 10);
    const MaskOutput res = makeMask(Pattern::TBS, s, 0.5);
    size_t row_dir = 0;
    size_t col_dir = 0;
    for (const auto &b : res.meta.blocks) {
        if (b.n > 0 && b.n < 8) {
            row_dir += b.dim == SparsityDim::Reduction;
            col_dir += b.dim == SparsityDim::Independent;
        }
    }
    EXPECT_GT(row_dir, 0u);
    EXPECT_GT(col_dir, 0u);
}

TEST(TbsMask, CloserToUsThanTs)
{
    // The motivating claim: TBS's mask overlaps US far more than TS's.
    const Matrix s = randomScores(128, 128, 11);
    const Mask us = maskOf(Pattern::US, s, 0.5);
    const Mask ts = maskOf(Pattern::TS, s, 0.5);
    const MaskOutput tbs = makeMask(Pattern::TBS, s, 0.5);
    EXPECT_GT(tbs.mask.overlap(us), ts.overlap(us));
}

/**
 * L1 distance to the unstructured mask @p us of the closest mask that
 * keeps exactly @p n per group of one m x m block (groups are rows
 * when @p rows, else columns). Keeping min(us_g, n) survivors in each
 * group is optimal, so the distance is
 * n*m + us_nnz - 2 * sum_g min(us_g, n).
 */
size_t
exactNDistance(const Mask &us, size_t br, size_t bc, size_t m, size_t n,
               bool rows)
{
    size_t us_nnz = 0;
    size_t kept = 0;
    for (size_t g = 0; g < m; ++g) {
        size_t us_g = 0;
        for (size_t i = 0; i < m; ++i)
            us_g += rows ? us.at(br * m + g, bc * m + i)
                         : us.at(br * m + i, bc * m + g);
        us_nnz += us_g;
        kept += std::min(us_g, n);
    }
    return n * m + us_nnz - 2 * kept;
}

TEST(TbsMask, DirectionChoiceMinimizesL1)
{
    // Per block, greedy's distance to the unstructured mask equals the
    // exact-N optimum in its declared direction and is no worse than
    // the optimum in the other direction: Algorithm 1 is already the
    // closest mask at the block's N, on random and heavily tied scores.
    for (const size_t m : {4u, 8u, 16u}) {
        for (const bool tied : {false, true}) {
            Matrix s = randomScores(128, 128, 12 + m);
            if (tied) {
                Rng rng(100 + m);
                for (auto &v : s.data())
                    v = static_cast<float>(rng.below(4));
            }
            for (const double sp : {0.5, 0.625, 0.75, 0.875}) {
                const MaskOutput res =
                    makeMask(Pattern::TBS, s, sp, m);
                const Mask us = maskOf(Pattern::US, s, sp);
                for (size_t br = 0; br < res.meta.blockRows; ++br) {
                    for (size_t bc = 0; bc < res.meta.blockCols; ++bc) {
                        const auto info = res.meta.block(br, bc);
                        const bool rows =
                            info.dim == SparsityDim::Reduction;
                        size_t dist = 0;
                        for (size_t r = 0; r < m; ++r)
                            for (size_t c = 0; c < m; ++c)
                                dist += res.mask.at(br * m + r, bc * m + c)
                                    != us.at(br * m + r, bc * m + c);
                        EXPECT_EQ(dist, exactNDistance(us, br, bc, m,
                                                       info.n, rows))
                            << "m=" << m << " tied=" << tied
                            << " s=" << sp << " block (" << br << ", "
                            << bc << ")";
                        EXPECT_LE(dist, exactNDistance(us, br, bc, m,
                                                       info.n, !rows))
                            << "m=" << m << " tied=" << tied
                            << " s=" << sp << " block (" << br << ", "
                            << bc << ")";
                    }
                }
            }
        }
    }
}

TEST(PatternMask, DispatchesAllPatterns)
{
    const Matrix s = randomScores(64, 64, 13);
    const auto cand = defaultCandidates(8);
    for (Pattern p : {Pattern::Dense, Pattern::US, Pattern::TS,
                      Pattern::RSV, Pattern::RSH, Pattern::TBS}) {
        const Mask m = patternMask(p, s, 0.5, 8, cand);
        if (p == Pattern::Dense) {
            EXPECT_EQ(m.nnz(), 64u * 64u);
        } else {
            EXPECT_NEAR(m.sparsity(), 0.5, 0.05) << patternName(p);
        }
    }
}

TEST(PatternMask, Deterministic)
{
    const Matrix s = randomScores(64, 64, 14);
    const auto cand = defaultCandidates(8);
    EXPECT_EQ(patternMask(Pattern::TBS, s, 0.5, 8, cand),
              patternMask(Pattern::TBS, s, 0.5, 8, cand));
}

TEST(Validate, DetectsViolations)
{
    Mask m(8, 8);
    for (size_t c = 0; c < 8; ++c)
        m.at(0, c) = 1; // 8 in one tile.
    EXPECT_FALSE(validateTs(m, 4, 8));

    TbsMeta meta;
    meta.m = 8;
    meta.blockRows = 1;
    meta.blockCols = 1;
    meta.blocks = {{2, SparsityDim::Reduction}};
    EXPECT_FALSE(validateTbs(m, meta));
}

TEST(DefaultCandidates, PowersOfTwoPlusZero)
{
    const auto c = defaultCandidates(8);
    EXPECT_EQ(c, (std::vector<uint8_t>{0, 1, 2, 4, 8}));
    const auto c16 = defaultCandidates(16);
    EXPECT_EQ(c16, (std::vector<uint8_t>{0, 1, 2, 4, 8, 16}));
}

} // namespace
