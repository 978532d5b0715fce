/**
 * @file
 * Tests for chunked weight synthesis: every chunking, thread count and
 * verifier path reproduces one serial pass of the generator bit for
 * bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/matrix.hpp"
#include "core/prune.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/synth.hpp"

namespace {

using tbstc::core::Matrix;
using tbstc::util::Rng;
using namespace tbstc::workload;

/**
 * synthWeights as one serial pass of the generator: the loop the
 * chunked fill must reproduce, kept verbatim as the reference.
 */
Matrix
serialReference(const GemmShape &shape, uint64_t seed, uint64_t max_rows)
{
    uint64_t rows = shape.x;
    if (max_rows > 0)
        rows = std::min<uint64_t>(rows, max_rows);
    Rng rng(seed ^ nameHash(shape.name));
    Matrix w(rows, shape.y);
    std::vector<double> col_scale(shape.y);
    for (auto &s : col_scale)
        s = std::exp(rng.gaussian(0.0, 0.25));
    std::vector<double> col_block_scale((shape.y + 7) / 8);
    for (auto &s : col_block_scale)
        s = std::exp(rng.gaussian(0.0, 0.35));
    double row_block = 1.0;
    for (uint64_t r = 0; r < rows; ++r) {
        if (r % 8 == 0)
            row_block = std::exp(rng.gaussian(0.0, 0.7));
        const double row_scale =
            std::exp(rng.gaussian(0.0, 0.6)) * row_block;
        for (uint64_t c = 0; c < shape.y; ++c) {
            w.at(r, c) = static_cast<float>(
                rng.heavyTail() * 0.02 * row_scale * col_scale[c]
                * col_block_scale[c / 8]);
        }
    }
    return w;
}

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float))
        == 0;
}

TEST(Synth, ChunkedFillMatchesSerialReference)
{
    struct Case
    {
        GemmShape shape;
        uint64_t cap;
        size_t chunks;
    };
    const Case cases[] = {
        {{"synth-square", 4096, 4096, 8}, 2048, 32},
        {{"synth-wide", 4096, 16384, 8}, 512, 32},
        {{"synth-ragged", 1003, 777, 8}, 0, 3},
        {{"synth-flat", 3, 100000, 8}, 0, 1},
        {{"synth-tiny", 9, 5, 8}, 0, 1},
    };
    for (const auto &[shape, cap, chunks] : cases) {
        for (const uint64_t seed : {1u, 7u, 21u}) {
            EXPECT_EQ(detail::SynthPlan(shape, seed, cap).chunks(), chunks)
                << shape.name;
            const Matrix ref = serialReference(shape, seed, cap);
            for (const size_t threads : {1u, 3u, 8u}) {
                const tbstc::util::ThreadScope scope(threads);
                EXPECT_TRUE(sameBits(synthWeights(shape, seed, cap), ref))
                    << shape.name << " seed " << seed << " threads "
                    << threads;
            }
        }
    }
}

TEST(Synth, JumpedStartsMatchPredecessorEnds)
{
    // settleChunks would repair a wrong jump by refilling serially, so
    // check the jump itself: every chunk must start exactly where its
    // predecessor ended. The column counts cover both spare parities
    // at the column-scale boundary and at chunk boundaries.
    for (const uint64_t cols :
         {1u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 777u, 4096u}) {
        const uint64_t chunk_rows = detail::SynthPlan(
            {"jump-probe", 1, cols, 8}, 3, 0).chunkRows;
        const GemmShape shape{"jump-probe", 3 * chunk_rows + 5, cols, 8};
        const detail::SynthPlan plan(shape, 3, 0);
        ASSERT_EQ(plan.chunks(), 4u);
        std::vector<float> w(plan.rows * plan.cols);
        for (size_t k = 0; k + 1 < plan.chunks(); ++k) {
            const Rng end = plan.fill(k, plan.chunkStart(k), w.data(),
                                      detail::SynthPlan::Output::Weights);
            EXPECT_TRUE(end == plan.chunkStart(k + 1))
                << "cols " << cols << " chunk " << k + 1;
        }
    }
}

TEST(Synth, ChunkGeometry)
{
    // Multiples of 8 rows, at least 2^18 elements, so every layer of
    // at most 2^18 elements stays one chunk.
    for (const uint64_t cols : {1u, 5u, 128u, 777u, 4096u, 100000u}) {
        const detail::SynthPlan plan({"geometry", 1, cols, 8}, 1, 0);
        EXPECT_EQ(plan.chunkRows % 8, 0u);
        EXPECT_GE(plan.chunkRows * cols, detail::kSynthChunkElements);
        EXPECT_LT((plan.chunkRows - 8) * cols, detail::kSynthChunkElements);
    }
    EXPECT_EQ(detail::SynthPlan({"one", 512, 512, 8}, 1, 0).chunks(), 1u);
    EXPECT_EQ(detail::SynthPlan({"two", 520, 512, 8}, 1, 0).chunks(), 2u);
    EXPECT_EQ(detail::SynthPlan({"none", 0, 512, 8}, 1, 0).chunks(), 0u);
    EXPECT_EQ(synthWeights({"none", 0, 512, 8}, 1).size(), 0u);
}

TEST(Synth, BoundaryMismatchRefillsSerially)
{
    // A real start-state mismatch needs gaussian() to redraw a zero
    // uniform (p = 2^-53 per pair); hand the verifier one instead.
    const GemmShape shape{"synth-refill", 1003, 777, 8};
    const detail::SynthPlan plan(shape, 7, 0);
    const size_t chunks = plan.chunks();
    ASSERT_EQ(chunks, 3u);
    const Matrix ref = serialReference(shape, 7, 0);
    const Matrix ref_scores = tbstc::core::magnitudeScores(ref);

    using Output = detail::SynthPlan::Output;
    for (const Output what : {Output::Weights, Output::Magnitudes}) {
        const Matrix &want = what == Output::Weights ? ref : ref_scores;
        for (size_t bad = 0; bad <= chunks; ++bad) {
            Matrix out(plan.rows, plan.cols);
            std::vector<Rng> starts(chunks);
            std::vector<Rng> ends(chunks);
            for (size_t k = 0; k < chunks; ++k) {
                starts[k] = plan.chunkStart(k);
                if (k == bad)
                    starts[k].jump(1); // One draw off, as after a redraw.
                ends[k] = plan.fill(k, starts[k], out.data().data(), what);
            }
            // bad == chunks corrupts nothing: the fill is already exact.
            EXPECT_EQ(sameBits(out, want), bad == chunks)
                << "bad chunk " << bad;
            EXPECT_EQ(detail::settleChunks(plan, starts, ends,
                                           out.data().data(), what),
                      bad);
            EXPECT_TRUE(sameBits(out, want)) << "bad chunk " << bad;
        }
    }
}

} // namespace
