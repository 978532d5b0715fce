/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using tbstc::util::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowIsUnbiasedAndBounded)
{
    Rng rng(11);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 70000; ++i) {
        const uint64_t v = rng.below(7);
        ASSERT_LT(v, 7u);
        ++counts[v];
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 450);
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.below(0), tbstc::util::PanicError);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, HeavyTailHasOutliers)
{
    Rng rng(19);
    int big = 0;
    for (int i = 0; i < 20000; ++i)
        big += std::fabs(rng.heavyTail(0.05, 8.0)) > 4.0;
    // A pure unit Gaussian would give ~0.006%; the mixture gives ~3%.
    EXPECT_GT(big, 200);
    EXPECT_LT(big, 2000);
}

TEST(Rng, PermutationIsValid)
{
    Rng rng(23);
    const auto p = rng.permutation(257);
    std::set<size_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), 257u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, PermutationShuffles)
{
    Rng rng(29);
    const auto p = rng.permutation(100);
    size_t fixed = 0;
    for (size_t i = 0; i < p.size(); ++i)
        fixed += p[i] == i;
    EXPECT_LT(fixed, 10u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, JumpMatchesStepping)
{
    Rng picker(41);
    std::vector<uint64_t> lengths = {0, 1, 2, 255, 256, 257, 100003};
    for (int i = 0; i < 6; ++i)
        lengths.push_back(picker.below(300000));
    for (const uint64_t n : lengths) {
        Rng stepped(43);
        for (uint64_t i = 0; i < n; ++i)
            stepped.next();
        Rng jumped(43);
        jumped.jump(n);
        EXPECT_TRUE(jumped == stepped) << "n = " << n;
        EXPECT_EQ(jumped.next(), stepped.next()) << "n = " << n;
    }

    // Jumps compose: jump(a) then jump(b) is jump(a + b).
    for (int i = 0; i < 16; ++i) {
        const uint64_t a = picker.below(uint64_t{1} << 40);
        const uint64_t b = picker.below(uint64_t{1} << 40);
        Rng twice(47);
        twice.jump(a);
        twice.jump(b);
        Rng once(47);
        once.jump(a + b);
        EXPECT_TRUE(twice == once) << a << " + " << b;
    }
}

TEST(Rng, JumpDropsPendingSpareAndEqualityComparesIt)
{
    Rng a(53);
    Rng b(53);
    (void)a.gaussian(); // Two draws, a spare pending.
    b.next();
    b.next();
    EXPECT_FALSE(a == b);
    (void)a.gaussian(); // Consumes the spare, no draw.
    EXPECT_TRUE(a == b);
    (void)a.gaussian();
    a.jump(0);
    b.next();
    b.next();
    EXPECT_TRUE(a == b);
}

} // namespace
