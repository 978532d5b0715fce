/**
 * @file
 * Pins the selection order every mask family shares with Algorithm 1:
 * keep the top N scores under (score descending, index ascending),
 * where scores compare as floats (-0.0 ties +0.0, the lower index
 * wins). The reference is a naive stable sort, so these tests do not
 * depend on how the generators find their top-N sets.
 *
 * usMask is checked whole. The tile families (TS, RSV, RSH, SS) fit a
 * per-tile keep count first; the tests read that count off the mask
 * and check the tile keeps exactly the reference top-count, which pins
 * the order without re-deriving the count fit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "core/pattern.hpp"
#include "core/sparsify.hpp"
#include "mask_util.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace tbstc::core;
using tbstc::testutil::maskOf;
using tbstc::util::Rng;

/** Indices of vals sorted by (value desc, index asc). */
std::vector<size_t>
referenceOrder(std::span<const float> vals)
{
    std::vector<size_t> idx(vals.size());
    std::iota(idx.begin(), idx.end(), size_t{0});
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
        return vals[a] > vals[b];
    });
    return idx;
}

enum class Dist
{
    Gaussian,  ///< Continuous, mixed signs.
    Quantized, ///< Few distinct values, heavy ties, negatives.
    SignedZero ///< Mostly -0.0 / +0.0 with a few +-1.
};

Matrix
makeScores(size_t rows, size_t cols, Dist d, uint64_t seed)
{
    Rng rng(seed);
    Matrix s(rows, cols);
    for (auto &v : s.data()) {
        switch (d) {
          case Dist::Gaussian:
            v = static_cast<float>(rng.gaussian());
            break;
          case Dist::Quantized:
            v = 0.5f * static_cast<float>(static_cast<int>(rng.below(5)) - 2);
            break;
          case Dist::SignedZero: {
            const uint64_t k = rng.below(8);
            v = k < 3 ? -0.0f : k < 6 ? 0.0f : k == 6 ? 1.0f : -1.0f;
            break;
          }
        }
    }
    return s;
}

constexpr Dist kDists[] = {Dist::Gaussian, Dist::Quantized,
                           Dist::SignedZero};
constexpr double kSparsities[] = {0.0, 0.3, 0.5, 0.75, 0.9, 1.0};

/**
 * Every m-wide row tile of @p mask keeps exactly the reference top-c
 * of its scores, c being the tile's kept count. Returns the number of
 * tiles checked.
 */
size_t
expectTilesFollowOrder(const Matrix &scores, const Mask &mask, size_t m)
{
    EXPECT_EQ(mask.rows(), scores.rows());
    EXPECT_EQ(mask.cols(), scores.cols());
    std::vector<float> tile(m);
    size_t tiles = 0;
    for (size_t r = 0; r < scores.rows(); ++r) {
        for (size_t t = 0; t < scores.cols(); t += m) {
            size_t kept = 0;
            for (size_t i = 0; i < m; ++i) {
                tile[i] = scores.at(r, t + i);
                kept += mask.at(r, t + i);
            }
            std::vector<uint8_t> want(m, 0);
            const std::vector<size_t> order = referenceOrder(tile);
            for (size_t i = 0; i < kept; ++i)
                want[order[i]] = 1;
            for (size_t i = 0; i < m; ++i)
                if (mask.at(r, t + i) != want[i]) {
                    ADD_FAILURE() << "row " << r << " tile at " << t
                                  << " keeps " << kept
                                  << " but not the reference top-"
                                  << kept << " (col " << t + i << ")";
                    return tiles;
                }
            ++tiles;
        }
    }
    return tiles;
}

TEST(SelectionOrder, UsMaskMatchesStableSortReference)
{
    const struct
    {
        size_t rows, cols;
    } shapes[] = {{1, 1}, {3, 5}, {13, 72}, {40, 64}, {7, 200}};
    uint64_t seed = 1;
    for (const Dist d : kDists) {
        for (const auto &sh : shapes) {
            const Matrix s = makeScores(sh.rows, sh.cols, d, ++seed);
            const std::vector<size_t> order = referenceOrder(s.data());
            for (const double sp : kSparsities) {
                SCOPED_TRACE(testing::Message()
                             << "dist " << static_cast<int>(d) << " "
                             << sh.rows << "x" << sh.cols << " sp=" << sp);
                const auto k = static_cast<size_t>(std::llround(
                    (1.0 - sp) * static_cast<double>(s.size())));
                std::vector<uint8_t> want(s.size(), 0);
                for (size_t i = 0; i < k; ++i)
                    want[order[i]] = 1;
                EXPECT_EQ(maskOf(Pattern::US, s, sp).toBytes(), want);
            }
        }
    }
}

TEST(SelectionOrder, UsMaskChunksAgreeAtAnyThreadCount)
{
    // Large enough for several row chunks, so threshold ties straddle
    // chunk boundaries and the per-chunk tie budgets matter.
    uint64_t seed = 50;
    for (const Dist d : kDists) {
        const Matrix s = makeScores(300, 520, d, ++seed);
        const std::vector<size_t> order = referenceOrder(s.data());
        for (const double sp : {0.1, 0.5, 0.8}) {
            SCOPED_TRACE(testing::Message()
                         << "dist " << static_cast<int>(d)
                         << " sp=" << sp);
            const auto k = static_cast<size_t>(std::llround(
                (1.0 - sp) * static_cast<double>(s.size())));
            std::vector<uint8_t> want(s.size(), 0);
            for (size_t i = 0; i < k; ++i)
                want[order[i]] = 1;
            for (const size_t threads : {1u, 4u}) {
                tbstc::util::ThreadScope scope(threads);
                EXPECT_EQ(maskOf(Pattern::US, s, sp).toBytes(), want)
                    << threads << " threads";
            }
        }
    }
}

TEST(SelectionOrder, TsMaskMatchesStableSortReference)
{
    uint64_t seed = 100;
    for (const size_t m : {4u, 8u, 16u, 64u, 128u}) {
        for (const Dist d : kDists) {
            // Ragged row count: row-wise families need no row padding.
            const Matrix s = makeScores(7, 2 * m, d, ++seed);
            for (const size_t n : {size_t{0}, size_t{1}, m / 2, m - 1, m}) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " n=" << n << " dist "
                             << static_cast<int>(d));
                // TS keeps the N nearest the target density.
                const Mask mask = maskOf(
                    Pattern::TS, s,
                    1.0 - static_cast<double>(n) / static_cast<double>(m),
                    m);
                EXPECT_EQ(mask.nnz(), n * s.size() / m);
                EXPECT_EQ(expectTilesFollowOrder(s, mask, m),
                          s.size() / m);
            }
        }
    }
}

TEST(SelectionOrder, RowFamiliesMatchStableSortReference)
{
    uint64_t seed = 200;
    for (const size_t m : {4u, 8u, 16u, 64u, 128u}) {
        for (const Dist d : kDists) {
            // Ragged rows; RSH super-groups of m tiles end short when
            // the row holds fewer than m tiles.
            const Matrix s = makeScores(9, 3 * m, d, ++seed);
            for (const double sp : kSparsities) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " sp=" << sp << " dist "
                             << static_cast<int>(d));
                expectTilesFollowOrder(s, maskOf(Pattern::RSV, s, sp, m), m);
                expectTilesFollowOrder(s, maskOf(Pattern::RSH, s, sp, m), m);
                const Mask ss = maskOf(Pattern::SS, s, sp, m);
                EXPECT_TRUE(validateSlideSparse(ss, m));
                expectTilesFollowOrder(s, ss, m);
            }
        }
    }
}

} // namespace
