/**
 * @file
 * Tests for the mask-search request API: tryMakeMask's closed strategy
 * vocabulary and error surface, and the SlideSparse pattern family
 * (docs/mask_search.md).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/mask_search.hpp"
#include "core/maskspace.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace tbstc::core;
using tbstc::util::FatalError;
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

TEST(MaskSearch, UnknownStrategyIsAnError)
{
    const Matrix s = randomScores(16, 16, 41);
    // Only "" and "greedy" are strategies; everything else is a typo.
    for (const char *name : {"simulated-annealing", "optimal", "Greedy"}) {
        MaskRequest req;
        req.strategy = name;
        const auto res = tryMakeMask(s, req);
        ASSERT_FALSE(res.ok()) << name;
        EXPECT_EQ(res.error().kind, MaskErrorKind::UnknownStrategy)
            << name;
        EXPECT_STREQ(maskErrorKindName(res.error().kind),
                     "unknown_strategy");
        EXPECT_FALSE(isMaskStrategy(name)) << name;
    }
    EXPECT_TRUE(isMaskStrategy(""));
    EXPECT_TRUE(isMaskStrategy(kGreedyStrategy));
}

TEST(MaskSearch, ValidatesRequestFields)
{
    const Matrix s = randomScores(16, 16, 42);
    MaskRequest req;
    req.sparsity = 1.5;
    EXPECT_EQ(tryMakeMask(s, req).error().kind,
              MaskErrorKind::BadSparsity);

    req = {};
    req.m = 0;
    EXPECT_EQ(tryMakeMask(s, req).error().kind,
              MaskErrorKind::BadBlockSize);

    req = {};
    req.m = 5;
    req.pattern = Pattern::SS;
    EXPECT_EQ(tryMakeMask(s, req).error().kind,
              MaskErrorKind::BadBlockSize);

    req = {};
    req.candidates = {3, 9}; // 9 > m.
    EXPECT_EQ(tryMakeMask(s, req).error().kind,
              MaskErrorKind::BadCandidates);

    const Matrix odd = randomScores(12, 16, 43);
    req = {};
    EXPECT_EQ(tryMakeMask(odd, req).error().kind,
              MaskErrorKind::NotDivisible);
}

TEST(MaskSearch, EmptyAndGreedyMatchLegacyTbsMask)
{
    const Matrix s = randomScores(32, 32, 44);
    const TbsResult legacy =
        tbsMask(s, 0.75, 8, defaultCandidates(8));
    for (const char *name : {"", kGreedyStrategy}) {
        MaskRequest req;
        req.strategy = name;
        req.sparsity = 0.75;
        const auto res = tryMakeMask(s, req);
        ASSERT_TRUE(res.ok()) << name;
        EXPECT_EQ(res->mask.hamming(legacy.mask), 0u) << name;
        EXPECT_EQ(res->usHamming, legacy.usHamming) << name;
        EXPECT_EQ(res->meta.blocks.size(), 16u) << name;
    }
}

TEST(MaskSearch, NonTbsPatternsAcceptKnownStrategies)
{
    const Matrix s = randomScores(16, 16, 46);
    MaskRequest req;
    req.pattern = Pattern::TS;
    req.strategy = kGreedyStrategy; // Known: accepted, ignored.
    const auto res = tryMakeMask(s, req);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(validateTs(res->mask, 4, 8));
    EXPECT_EQ(res->usHamming,
              res->mask.hamming(usMask(s, req.sparsity)));

    for (const char *name : {"nope", "optimal"}) {
        req.strategy = name; // Unknown: an error even off-TBS.
        EXPECT_EQ(tryMakeMask(s, req).error().kind,
                  MaskErrorKind::UnknownStrategy)
            << name;
    }
}

TEST(MaskSearch, NonTbsColumnsNeedNotDivide)
{
    // TS constrains row tiles only; 12 rows x 16 cols is legal there
    // but not for TBS's square blocks.
    const Matrix s = randomScores(12, 16, 47);
    MaskRequest req;
    req.pattern = Pattern::TS;
    EXPECT_TRUE(tryMakeMask(s, req).ok());
    req.pattern = Pattern::TBS;
    EXPECT_EQ(tryMakeMask(s, req).error().kind,
              MaskErrorKind::NotDivisible);
}

TEST(SlideSparse, GeneratedMasksValidateAcrossBlockSizes)
{
    for (const size_t m : {4u, 8u, 16u}) {
        const Matrix s = randomScores(2 * m, 4 * m, 50 + m);
        for (const double sp : {0.5, 0.75}) {
            const Mask mask = ssMask(s, sp, m);
            EXPECT_TRUE(validateSlideSparse(mask, m))
                << "m=" << m << " s=" << sp;
            const auto size = static_cast<double>(mask.size());
            const double capacity =
                static_cast<double>(m - 2) / static_cast<double>(m);
            EXPECT_LE(static_cast<double>(mask.nnz()),
                      size * capacity);
            // Near the per-tile capacity (m = 4 keeps at most 2 of 4,
            // i.e. 50% density) the target is unreachable whenever
            // tile densities vary, so only check the hit when there
            // is headroom.
            if (1.0 - sp <= 0.8 * capacity) {
                EXPECT_NEAR(static_cast<double>(mask.nnz()),
                            size * (1.0 - sp), 0.1 * size)
                    << "m=" << m << " s=" << sp;
            }
        }
    }
}

TEST(SlideSparse, ValidatorRejectsOverfullTile)
{
    const size_t m = 8;
    const Matrix s = randomScores(m, 2 * m, 60);
    Mask mask = ssMask(s, 0.5, m);
    ASSERT_TRUE(validateSlideSparse(mask, m));
    // Saturate tile 0 of row 0: m kept > the 2N-2 = m-2 cap.
    for (size_t c = 0; c < m; ++c)
        mask.at(0, c) = 1;
    EXPECT_FALSE(validateSlideSparse(mask, m));
}

TEST(SlideSparse, TileCapIsTwoBelowM)
{
    const size_t m = 8;
    const Matrix s = randomScores(4 * m, 4 * m, 61);
    const Mask mask = ssMask(s, 0.25, m); // Dense enough to saturate.
    for (size_t r = 0; r < mask.rows(); ++r)
        for (size_t t = 0; t < mask.cols(); t += m)
            EXPECT_LE(mask.rangeNnz(r, t, m), m - 2)
                << "row " << r << " tile " << t;
}

TEST(SlideSparse, CandidateLadderIsContiguous)
{
    const auto cand = slideSparseCandidates(8);
    ASSERT_EQ(cand.size(), 7u);
    for (size_t i = 0; i < cand.size(); ++i)
        EXPECT_EQ(cand[i], i);
    EXPECT_THROW(slideSparseCandidates(3), FatalError);
    EXPECT_THROW(slideSparseCandidates(2), FatalError);
    EXPECT_THROW(slideSparseCandidates(7), FatalError);
}

TEST(SlideSparse, PatternMaskDispatches)
{
    const Matrix s = randomScores(16, 16, 62);
    const Mask direct = ssMask(s, 0.75, 8);
    const Mask via = patternMask(Pattern::SS, s, 0.75, 8,
                                 defaultCandidates(8));
    EXPECT_EQ(direct.hamming(via), 0u);
}

TEST(SlideSparse, MaskSpaceMatchesBruteForceAtM4)
{
    // A 4-element tile with at most 2N-2 = 2 kept positions has
    // C(4,0) + C(4,1) + C(4,2) = 11 = 2^4 - 4 - 1 legal states; a
    // 4x4 matrix is 4 such tiles.
    const double per_tile = std::log2(11.0);
    EXPECT_NEAR(log2MaskSpace(Pattern::SS, 4, 4, 4), 4.0 * per_tile,
                1e-9);
    // Family ordering at the paper's geometry: TS < TBS < SS < US.
    const double ts = log2MaskSpace(Pattern::TS, 256, 256, 8);
    const double tbs = log2MaskSpace(Pattern::TBS, 256, 256, 8);
    const double ss = log2MaskSpace(Pattern::SS, 256, 256, 8);
    const double us = log2MaskSpace(Pattern::US, 256, 256, 8);
    EXPECT_LT(ts, tbs);
    EXPECT_LT(tbs, ss);
    EXPECT_LT(ss, us);
}

} // namespace
