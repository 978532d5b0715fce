/**
 * @file
 * Tests for the mask-search request API: tryMakeMask's closed strategy
 * vocabulary and error surface, and the SlideSparse pattern family
 * (docs/mask_search.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/mask_search.hpp"
#include "core/maskspace.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "mask_util.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace tbstc::core;
using tbstc::testutil::maskOf;
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
    // "" and "greedy" both name Algorithm 1: the same mask and grid.
    const Matrix s = randomScores(32, 32, 44);
    MaskRequest req;
    req.sparsity = 0.75;
    const auto empty = tryMakeMask(s, req);
    req.strategy = kGreedyStrategy;
    const auto greedy = tryMakeMask(s, req);
    ASSERT_TRUE(empty.ok());
    ASSERT_TRUE(greedy.ok());
    EXPECT_EQ(empty->mask, greedy->mask);
    EXPECT_EQ(empty->meta.blocks.size(), 16u);
    EXPECT_TRUE(validateTbs(greedy->mask, greedy->meta));
    for (size_t i = 0; i < empty->meta.blocks.size(); ++i) {
        EXPECT_EQ(empty->meta.blocks[i].n, greedy->meta.blocks[i].n);
        EXPECT_EQ(empty->meta.blocks[i].dim, greedy->meta.blocks[i].dim);
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
    EXPECT_TRUE(res->meta.blocks.empty());
    EXPECT_EQ(res->meta.m, 8u);

    for (const char *name : {"nope", "optimal"}) {
        req.strategy = name; // Unknown: an error even off-TBS.
        EXPECT_EQ(tryMakeMask(s, req).error().kind,
                  MaskErrorKind::UnknownStrategy)
            << name;
    }
}

TEST(MaskSearch, PatternMaskAndTryMakeMaskAgree)
{
    // patternMask is tryMakeMask's throwing form: for every family and
    // every request, it throws exactly when tryMakeMask reports an
    // error, and otherwise returns the same mask.
    struct Case
    {
        size_t rows;
        size_t cols;
        double sparsity;
        size_t m;
        std::vector<uint8_t> candidates;
    };
    const Case cases[] = {
        {16, 16, 0.5, 8, {}},    {32, 64, 0.75, 8, {}},
        {16, 16, 0.0, 8, {}},    {16, 16, 1.0, 8, {}},
        {12, 16, 0.5, 8, {}},    {100, 100, 0.5, 8, {}},
        {16, 12, 0.5, 4, {}},    {16, 16, 1.5, 8, {}},
        {16, 16, -0.1, 8, {}},   {16, 16, 0.5, 0, {}},
        {16, 15, 0.5, 5, {}},    {16, 16, 0.5, 8, {0, 3, 9}},
        {16, 16, 0.5, 8, {2, 6}}, {16, 16, 0.5, 2, {}},
        {16, 14, 0.5, 7, {}},    {0, 0, 0.5, 8, {}},
    };
    for (const Pattern p :
         {Pattern::Dense, Pattern::US, Pattern::TS, Pattern::RSV,
          Pattern::RSH, Pattern::TBS, Pattern::SS}) {
        for (const Case &c : cases) {
            const Matrix s = randomScores(c.rows, c.cols, 48);
            MaskRequest req;
            req.pattern = p;
            req.sparsity = c.sparsity;
            req.m = c.m;
            req.candidates = c.candidates;
            const auto res = tryMakeMask(s, req);
            const std::string where = patternName(p) + " "
                + std::to_string(c.rows) + "x" + std::to_string(c.cols)
                + " s=" + std::to_string(c.sparsity)
                + " m=" + std::to_string(c.m);
            if (res.ok())
                EXPECT_EQ(patternMask(p, s, c.sparsity, c.m, c.candidates),
                          res->mask)
                    << where;
            else
                EXPECT_THROW(
                    patternMask(p, s, c.sparsity, c.m, c.candidates),
                    FatalError)
                    << where;
        }
    }
}

TEST(MaskSearch, DenseAndUsHaveNoTilingRule)
{
    // Dense and US have no tiles: a 100x100 matrix at m = 8 is a
    // valid request for them, but for no tile family.
    const Matrix s = randomScores(100, 100, 49);
    MaskRequest req;
    req.pattern = Pattern::Dense;
    const auto res = tryMakeMask(s, req);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res->mask.nnz(), 100u * 100u);
    req.pattern = Pattern::US;
    EXPECT_EQ(tryMakeMask(s, req)->mask.nnz(), 100u * 100u / 2);
    for (const Pattern p : {Pattern::TS, Pattern::RSV, Pattern::RSH,
                            Pattern::TBS, Pattern::SS}) {
        req.pattern = p;
        EXPECT_EQ(tryMakeMask(s, req).error().kind,
                  MaskErrorKind::NotDivisible)
            << patternName(p);
    }
}

TEST(MaskSearch, BlockSizeAbove255IsRejectedWhereNIsAByte)
{
    // TBS and RS-V keep each block's N in a uint8_t, and RS-H each
    // tile's, so at m = 256 the top N would wrap to 0: a TBS request
    // at sparsity 0 kept half the weights, RS-H none. All three reject
    // the block size instead.
    const Matrix s = randomScores(256, 256, 50);
    MaskRequest req;
    req.sparsity = 0.0;
    req.m = 256;
    for (const Pattern p : {Pattern::TBS, Pattern::RSV, Pattern::RSH}) {
        req.pattern = p;
        const auto res = tryMakeMask(s, req);
        ASSERT_FALSE(res.ok()) << patternName(p);
        EXPECT_EQ(res.error().kind, MaskErrorKind::BadBlockSize)
            << patternName(p);
        EXPECT_STREQ(maskErrorKindName(res.error().kind),
                     "bad_block_size");
    }
    // TS and SS have no stored N and still take m = 256.
    req.pattern = Pattern::TS;
    const auto ts = tryMakeMask(s, req);
    ASSERT_TRUE(ts.ok());
    EXPECT_EQ(ts->mask.nnz(), 256u * 256u);
    req.pattern = Pattern::SS;
    EXPECT_TRUE(tryMakeMask(s, req).ok());
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
            const Mask mask = maskOf(Pattern::SS, s, sp, m);
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
    Mask mask = maskOf(Pattern::SS, s, 0.5, m);
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
    // Dense enough to saturate.
    const Mask mask = maskOf(Pattern::SS, s, 0.25, m);
    for (size_t r = 0; r < mask.rows(); ++r)
        for (size_t t = 0; t < mask.cols(); t += m)
            EXPECT_LE(mask.rangeNnz(r, t, m), m - 2)
                << "row " << r << " tile " << t;
}

TEST(SlideSparse, CandidateLadderIsContiguous)
{
    // Per-tile keep counts come from the contiguous 0..m-2 ladder, not
    // the power-of-two default candidates: 3 and 5 of 8 both occur.
    const size_t m = 8;
    const Matrix s = randomScores(32, 32 * m, 63);
    const Mask mask = maskOf(Pattern::SS, s, 0.5, m);
    std::vector<bool> seen(m + 1);
    for (size_t r = 0; r < mask.rows(); ++r)
        for (size_t t = 0; t < mask.cols(); t += m)
            seen[mask.rangeNnz(r, t, m)] = true;
    EXPECT_TRUE(seen[3]);
    EXPECT_TRUE(seen[5]);
    EXPECT_FALSE(seen[m - 1]);
    EXPECT_FALSE(seen[m]);
    // The ladder needs an even m >= 4 (m = 2N) of at most 256.
    MaskRequest req;
    req.pattern = Pattern::SS;
    for (const size_t bad : {3u, 2u, 7u, 258u}) {
        req.m = bad;
        EXPECT_EQ(tryMakeMask(s, req).error().kind,
                  MaskErrorKind::BadBlockSize)
            << bad;
    }
}

TEST(SlideSparse, PatternMaskDispatches)
{
    const Matrix s = randomScores(16, 16, 62);
    const Mask direct = maskOf(Pattern::SS, s, 0.75);
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
