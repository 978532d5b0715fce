/**
 * @file
 * Golden equivalence suite for the bit-packed mask kernels.
 *
 * The packed Mask representation and the incremental (rank-table)
 * block scoring are pure layout/algorithm changes: every mask family
 * must produce byte-for-byte the masks the original byte-per-element
 * implementation produced. The hashes below were captured from the
 * pre-packing build (FNV-1a over the row-major byte image, and over
 * the TbsMeta block table) and pin that contract — any drift in a
 * family's mask (every one made through core::tryMakeMask) or in the
 * per-block direction choice fails here first.
 *
 * The second half cross-checks every packed kernel (popcount nnz,
 * word-wise combinators, agreement/overlap/hamming, blockNnz,
 * forEachSet/forEachDropped, rowBits round-trips, rangeNnz) against a
 * naive per-element reference on irregular shapes, including
 * non-multiple-of-64 widths where the pad-bits-zero invariant matters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/blockstats.hpp"
#include "core/prune.hpp"
#include "mask_util.hpp"
#include "util/rng.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;
using core::Mask;
using core::Matrix;
using testutil::makeMask;
using testutil::maskOf;

uint64_t
fnv(const uint8_t *p, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
maskHash(const Mask &m)
{
    const std::vector<uint8_t> bytes = m.toBytes();
    return fnv(bytes.data(), bytes.size());
}

uint64_t
metaHash(const core::TbsMeta &meta)
{
    std::vector<uint8_t> bytes;
    bytes.push_back(static_cast<uint8_t>(meta.m));
    bytes.push_back(static_cast<uint8_t>(meta.blockRows));
    bytes.push_back(static_cast<uint8_t>(meta.blockCols));
    for (const auto &b : meta.blocks) {
        bytes.push_back(b.n);
        bytes.push_back(static_cast<uint8_t>(b.dim));
    }
    return fnv(bytes.data(), bytes.size());
}

struct Golden
{
    size_t rows;
    size_t cols;
    double sparsity;
    uint64_t seed;
    uint64_t us, ts, rsv, rsh, tbs, tbsMeta, ss;
};

// Captured from the byte-per-element implementation (see file
// comment); treat as a wire contract, do not regenerate casually. The
// SS column came later (SlideSparse postdates the packing) and was
// captured from the nth_element selection, before the histogram
// threshold and tile rank tables replaced it.
constexpr Golden kGolden[] = {
    {64, 64, 0.75, 7,
     0xee70fc3eff05feadull, 0xb98cc29640f01331ull, 0x7f1e49a8e7b34a7full,
     0xf9739bef9138e965ull, 0x91567d811db2da77ull, 0x466a376fd7c81d23ull,
     0x34cbd816cde995b1ull},
    {128, 64, 0.5, 11,
     0xf65095781effea11ull, 0x33509c9d6c9a7d33ull, 0xe85eab8473b3a025ull,
     0xb864a185c66c8bc9ull, 0x3460b3a21264f6cfull, 0xb50fadd054ae1dd7ull,
     0x82d9f8e78cbd1a0dull},
    {96, 192, 0.625, 3,
     0x53d83fe9c5770917ull, 0xd977e2eea54907ebull, 0x0803e89e6205045full,
     0x33ff78ca594c9825ull, 0x22bc9210714dd933ull, 0x94a2cd3a8e986ea5ull,
     0xfdc03ca749ccd609ull},
};

TEST(MaskGolden, EveryFamilyMatchesPrePackingBuild)
{
    using core::Pattern;
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(testing::Message()
                     << g.rows << "x" << g.cols << " sp=" << g.sparsity);
        const Matrix w = workload::synthWeights(
            {"golden-mask", g.rows, g.cols, 1}, g.seed);
        const Matrix scores = core::magnitudeScores(w);
        const auto hash = [&](Pattern p, double sparsity) {
            return maskHash(maskOf(p, scores, sparsity));
        };

        EXPECT_EQ(hash(Pattern::US, g.sparsity), g.us);
        EXPECT_EQ(hash(Pattern::TS, 0.5), g.ts); // TS's fixed 4:8.
        EXPECT_EQ(hash(Pattern::RSV, g.sparsity), g.rsv);
        EXPECT_EQ(hash(Pattern::RSH, g.sparsity), g.rsh);
        const core::MaskOutput tbs =
            makeMask(Pattern::TBS, scores, g.sparsity);
        EXPECT_EQ(maskHash(tbs.mask), g.tbs);
        EXPECT_EQ(metaHash(tbs.meta), g.tbsMeta);
        EXPECT_EQ(hash(Pattern::SS, g.sparsity), g.ss);
    }
}

/** Random mask with roughly @p density kept bits, via the accessors. */
Mask
randomMask(size_t rows, size_t cols, double density, uint64_t seed)
{
    util::Rng rng(seed);
    Mask m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            m.at(r, c) = rng.uniform() < density ? 1 : 0;
    return m;
}

// Irregular widths: word-aligned, sub-word, and straddling widths
// exercise the pad-bit masking in every kernel.
constexpr struct
{
    size_t rows, cols;
} kShapes[] = {{8, 64}, {16, 8}, {24, 72}, {5, 3}, {32, 200}, {64, 127}};

TEST(MaskPackedOps, CountsMatchByteReference)
{
    uint64_t seed = 100;
    for (const auto &shape : kShapes) {
        const Mask a = randomMask(shape.rows, shape.cols, 0.4, ++seed);
        const Mask b = randomMask(shape.rows, shape.cols, 0.7, ++seed);

        size_t nnz = 0;
        size_t ham = 0;
        size_t both = 0;
        for (size_t r = 0; r < a.rows(); ++r)
            for (size_t c = 0; c < a.cols(); ++c) {
                nnz += a.at(r, c);
                ham += a.at(r, c) != b.at(r, c);
                both += a.at(r, c) & b.at(r, c);
            }
        EXPECT_EQ(a.nnz(), nnz);
        EXPECT_EQ(a.hamming(b), ham);
        EXPECT_DOUBLE_EQ(a.agreement(b),
                         1.0
                             - static_cast<double>(ham)
                                   / static_cast<double>(a.size()));
        if (b.nnz() > 0) {
            EXPECT_DOUBLE_EQ(a.overlap(b),
                             static_cast<double>(both)
                                 / static_cast<double>(b.nnz()));
        }
    }
}

TEST(MaskPackedOps, CombinatorsMatchByteReference)
{
    uint64_t seed = 300;
    for (const auto &shape : kShapes) {
        const Mask a = randomMask(shape.rows, shape.cols, 0.5, ++seed);
        const Mask b = randomMask(shape.rows, shape.cols, 0.5, ++seed);

        Mask and_m = a;
        and_m &= b;
        Mask or_m = a;
        or_m |= b;
        Mask xor_m = a;
        xor_m ^= b;
        for (size_t r = 0; r < a.rows(); ++r)
            for (size_t c = 0; c < a.cols(); ++c) {
                EXPECT_EQ(and_m.at(r, c), a.at(r, c) & b.at(r, c));
                EXPECT_EQ(or_m.at(r, c), a.at(r, c) | b.at(r, c));
                EXPECT_EQ(xor_m.at(r, c), a.at(r, c) ^ b.at(r, c));
            }

        // The word images must keep pad bits zero (operator== and
        // popcount kernels rely on it).
        EXPECT_EQ(xor_m.nnz(), a.hamming(b));
        const Mask t = a.transposed();
        EXPECT_EQ(t.rows(), a.cols());
        EXPECT_EQ(t.nnz(), a.nnz());
        for (size_t r = 0; r < a.rows(); ++r)
            for (size_t c = 0; c < a.cols(); ++c)
                EXPECT_EQ(t.at(c, r), a.at(r, c));
    }
}

TEST(MaskPackedOps, BlockNnzMatchesByteReference)
{
    uint64_t seed = 500;
    for (const size_t m : {4u, 8u, 16u}) {
        const Mask a = randomMask(8 * m, 16 * m, 0.55, ++seed);
        const std::vector<size_t> packed = core::blockNnz(a, m);
        ASSERT_EQ(packed.size(), (a.rows() / m) * (a.cols() / m));
        for (size_t br = 0; br < a.rows() / m; ++br)
            for (size_t bc = 0; bc < a.cols() / m; ++bc) {
                size_t ref = 0;
                for (size_t r = 0; r < m; ++r)
                    for (size_t c = 0; c < m; ++c)
                        ref += a.at(br * m + r, bc * m + c);
                EXPECT_EQ(packed[br * (a.cols() / m) + bc], ref)
                    << "m=" << m << " block " << br << "," << bc;
            }
    }
}

TEST(MaskPackedOps, IterationAndRowBitsRoundTrip)
{
    uint64_t seed = 700;
    for (const auto &shape : kShapes) {
        const Mask a = randomMask(shape.rows, shape.cols, 0.3, ++seed);
        for (size_t r = 0; r < a.rows(); ++r) {
            std::vector<size_t> set;
            std::vector<size_t> dropped;
            a.forEachSet(r, [&](size_t c) { set.push_back(c); });
            a.forEachDropped(r, [&](size_t c) { dropped.push_back(c); });
            EXPECT_EQ(set.size() + dropped.size(), a.cols());
            size_t si = 0;
            size_t di = 0;
            for (size_t c = 0; c < a.cols(); ++c) {
                if (a.at(r, c)) {
                    EXPECT_EQ(set[si++], c);
                } else {
                    EXPECT_EQ(dropped[di++], c);
                }
            }
        }

        // rowBits/setRowBits at every sub-word offset, including
        // word-straddling windows.
        Mask b = a;
        for (size_t r = 0; r < a.rows(); ++r)
            for (size_t c0 = 0; c0 < a.cols(); c0 += 7) {
                const size_t len = std::min<size_t>(61, a.cols() - c0);
                const uint64_t bits = a.rowBits(r, c0, len);
                for (size_t i = 0; i < len; ++i)
                    EXPECT_EQ((bits >> i) & 1u, a.at(r, c0 + i));
                b.setRowBits(r, c0, len, bits);
            }
        EXPECT_EQ(b, a);

        // rangeNnz at any length: one word, a word and a bit, several
        // words, from aligned and unaligned starts.
        for (size_t r = 0; r < a.rows(); ++r)
            for (const size_t c0 : {0u, 1u, 37u, 64u})
                for (const size_t len : {0u, 1u, 63u, 64u, 65u, 130u}) {
                    if (c0 + len > a.cols())
                        continue;
                    size_t want = 0;
                    for (size_t c = c0; c < c0 + len; ++c)
                        want += a.at(r, c);
                    EXPECT_EQ(a.rangeNnz(r, c0, len), want)
                        << "row " << r << " [" << c0 << ", +" << len
                        << ")";
                }

        // toBytes is the row-major byte image.
        const std::vector<uint8_t> bytes = a.toBytes();
        ASSERT_EQ(bytes.size(), a.size());
        for (size_t i = 0; i < bytes.size(); ++i)
            EXPECT_EQ(bytes[i], a.bit(i));
    }
}

} // namespace
