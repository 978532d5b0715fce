/**
 * @file
 * Cross-ISA equivalence suite for the dispatched kernel backend.
 *
 * The scalar kernels are the specification: every other ISA level the
 * host can run must be bit-identical on every input, including empty
 * and non-multiple-of-vector-width tails. The suite exercises each
 * reachable level two ways: the raw tables side by side (via
 * kernelTableFor, no global state), and the full library paths
 * (masking, DDC serialization, CRC) under setIsa with golden hashes
 * pinning that the bytes produced do not depend on the machine.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/prune.hpp"
#include "mask_util.hpp"
#include "format/serialize.hpp"
#include "kernels/kernels.hpp"
#include "util/crc32.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;
using kernels::Isa;
using kernels::KernelTable;
using tbstc::testutil::makeMask;

/** Every level this host can run beyond scalar. */
std::vector<const KernelTable *>
vectorLevels()
{
    std::vector<const KernelTable *> out;
    for (Isa isa : kernels::supportedIsas())
        if (isa != Isa::Scalar)
            out.push_back(kernels::kernelTableFor(isa));
    return out;
}

/** Restores the dispatched level even when a test fails mid-way. */
struct IsaGuard
{
    Isa saved = kernels::activeIsa();
    ~IsaGuard() { kernels::setIsa(saved); }
};

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

TEST(KernelDispatch, ScalarAlwaysAvailable)
{
    ASSERT_NE(kernels::kernelTableFor(Isa::Scalar), nullptr);
    EXPECT_TRUE(kernels::isaSupported(Isa::Scalar));
    const auto levels = kernels::supportedIsas();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), Isa::Scalar);
    EXPECT_TRUE(kernels::isaSupported(kernels::bestSupportedIsa()));
}

TEST(KernelDispatch, ParseNames)
{
    Isa isa = Isa::Scalar;
    EXPECT_TRUE(kernels::parseIsa("scalar", isa));
    EXPECT_EQ(isa, Isa::Scalar);
    EXPECT_TRUE(kernels::parseIsa("native", isa));
    EXPECT_EQ(isa, kernels::bestSupportedIsa());
    EXPECT_FALSE(kernels::parseIsa("sse9", isa));
    EXPECT_FALSE(kernels::parseIsa("", isa));
    for (Isa level : kernels::supportedIsas()) {
        Isa back = Isa::Scalar;
        ASSERT_TRUE(kernels::parseIsa(kernels::isaName(level), back));
        EXPECT_EQ(back, level);
    }
}

TEST(KernelDispatch, SetIsaSwitchesAndRejects)
{
    IsaGuard guard;
    for (Isa level : kernels::supportedIsas()) {
        ASSERT_TRUE(kernels::setIsa(level));
        EXPECT_EQ(kernels::activeIsa(), level);
        EXPECT_EQ(kernels::active().isa, level);
    }
    // Every unreachable level must be refused without changing state.
    for (int raw = 0; raw <= 3; ++raw) {
        const Isa level = static_cast<Isa>(raw);
        if (kernels::isaSupported(level))
            continue;
        const Isa before = kernels::activeIsa();
        EXPECT_FALSE(kernels::setIsa(level));
        EXPECT_EQ(kernels::activeIsa(), before);
    }
}

TEST(KernelEquivalence, PopcountFamily)
{
    const auto levels = vectorLevels();
    const KernelTable *s = kernels::kernelTableFor(Isa::Scalar);
    std::mt19937_64 rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        // Sizes straddle every vector width boundary, including 0.
        const size_t n = static_cast<size_t>(rng() % 70);
        std::vector<uint64_t> a(n), b(n), acc(n);
        for (auto &x : a)
            x = rng();
        for (auto &x : b)
            x = rng();
        for (auto &x : acc)
            x = rng() % 0x10;
        for (const KernelTable *t : levels) {
            EXPECT_EQ(t->popcount(a.data(), n), s->popcount(a.data(), n))
                << t->name << " n=" << n;
            EXPECT_EQ(t->popcountAnd(a.data(), b.data(), n),
                      s->popcountAnd(a.data(), b.data(), n))
                << t->name << " n=" << n;
            EXPECT_EQ(t->popcountXor(a.data(), b.data(), n),
                      s->popcountXor(a.data(), b.data(), n))
                << t->name << " n=" << n;

            auto c0 = a, c1 = a;
            s->andInplace(c0.data(), b.data(), n);
            t->andInplace(c1.data(), b.data(), n);
            EXPECT_EQ(c0, c1) << t->name << " and n=" << n;
            c0 = a;
            c1 = a;
            s->orInplace(c0.data(), b.data(), n);
            t->orInplace(c1.data(), b.data(), n);
            EXPECT_EQ(c0, c1) << t->name << " or n=" << n;
            c0 = a;
            c1 = a;
            s->xorInplace(c0.data(), b.data(), n);
            t->xorInplace(c1.data(), b.data(), n);
            EXPECT_EQ(c0, c1) << t->name << " xor n=" << n;

            auto a0 = acc, a1 = acc;
            s->bytePopcountAccum(a.data(), n, a0.data());
            t->bytePopcountAccum(a.data(), n, a1.data());
            EXPECT_EQ(a0, a1) << t->name << " bytePop n=" << n;
        }
    }
}

TEST(KernelEquivalence, Rank8x8)
{
    const auto levels = vectorLevels();
    const KernelTable *s = kernels::kernelTableFor(Isa::Scalar);
    std::mt19937_64 rng(43);
    for (int trial = 0; trial < 500; ++trial) {
        // Alternate tie-heavy and spread-out score distributions: the
        // tie-break (equal value, lower index wins) is where a vector
        // reformulation would diverge first.
        std::uniform_int_distribution<int> d(0, trial % 2 ? 5 : 1000);
        float blk[64];
        for (auto &v : blk)
            v = static_cast<float>(d(rng)) * 0.25f;
        uint16_t rr0[64], rc0[64], rr1[64], rc1[64];
        s->rank8x8(blk, rr0, rc0);
        for (const KernelTable *t : levels) {
            t->rank8x8(blk, rr1, rc1);
            EXPECT_EQ(0, std::memcmp(rr0, rr1, sizeof rr0))
                << t->name << " rows, trial " << trial;
            EXPECT_EQ(0, std::memcmp(rc0, rc1, sizeof rc0))
                << t->name << " cols, trial " << trial;
        }
    }
}

TEST(KernelEquivalence, RankTiles8)
{
    const auto levels = vectorLevels();
    const KernelTable *s = kernels::kernelTableFor(Isa::Scalar);
    std::mt19937_64 rng(47);
    for (int trial = 0; trial < 300; ++trial) {
        // Tie-heavy, spread-out and signed-zero tiles; odd tile counts
        // (including 0 and 1) cover every loop tail.
        const size_t tiles = static_cast<size_t>(rng() % 40);
        std::vector<float> v(tiles * 8);
        std::uniform_int_distribution<int> d(-(trial % 3 ? 3 : 1000),
                                             trial % 3 ? 3 : 1000);
        for (auto &x : v) {
            x = static_cast<float>(d(rng)) * 0.25f;
            if (x == 0.0f && (rng() & 1))
                x = -0.0f;
        }
        std::vector<uint8_t> r0(v.size(), 0xAA);
        s->rankTiles8(v.data(), tiles, r0.data());
        // The scalar level is the order's definition: within each tile
        // the ranks are a permutation of 0..7 with rank[i] counting
        // larger values plus equal values at lower indices.
        for (size_t t = 0; t < tiles; ++t)
            for (size_t i = 0; i < 8; ++i) {
                unsigned want = 0;
                for (size_t j = 0; j < 8; ++j)
                    want += v[t * 8 + j] > v[t * 8 + i]
                        || (v[t * 8 + j] == v[t * 8 + i] && j < i);
                ASSERT_EQ(r0[t * 8 + i], want)
                    << "scalar tile " << t << " lane " << i;
            }
        for (const KernelTable *t : levels) {
            std::vector<uint8_t> r1(v.size(), 0x55);
            t->rankTiles8(v.data(), tiles, r1.data());
            EXPECT_EQ(r0, r1) << t->name << ", trial " << trial;
        }
    }
}

TEST(KernelEquivalence, PackUnpackIdx)
{
    const auto levels = vectorLevels();
    const KernelTable *s = kernels::kernelTableFor(Isa::Scalar);
    std::mt19937_64 rng(44);
    for (int trial = 0; trial < 300; ++trial) {
        const unsigned bits = 1 + static_cast<unsigned>(rng() % 8);
        const size_t n = static_cast<size_t>(rng() % 100);
        std::vector<uint8_t> vals(n);
        for (auto &v : vals)
            v = static_cast<uint8_t>(rng() & ((1u << bits) - 1));
        const size_t nbytes = (n * bits + 7) / 8;

        // Packed bytes must match exactly (the stream is CRC'd and
        // cached by content hash), not merely round-trip.
        std::vector<uint8_t> p0(nbytes, 0xAA), u0(n, 0xAA);
        s->packIdx(vals.data(), n, bits, p0.data());
        s->unpackIdx(p0.data(), n, bits, u0.data());
        EXPECT_EQ(u0, vals) << "scalar round-trip bits=" << bits;
        for (const KernelTable *t : levels) {
            std::vector<uint8_t> p1(nbytes, 0xAA), u1(n, 0xAA);
            t->packIdx(vals.data(), n, bits, p1.data());
            EXPECT_EQ(p0, p1)
                << t->name << " pack bits=" << bits << " n=" << n;
            t->unpackIdx(p0.data(), n, bits, u1.data());
            EXPECT_EQ(u1, vals)
                << t->name << " unpack bits=" << bits << " n=" << n;
        }
    }
}

TEST(KernelEquivalence, Crc32)
{
    const auto levels = vectorLevels();
    const KernelTable *s = kernels::kernelTableFor(Isa::Scalar);

    // The zlib check value pins the polynomial and reflection.
    const uint8_t kat[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(s->crc32(kat, sizeof kat, 0), 0xCBF43926u);
    EXPECT_EQ(s->crc32(nullptr, 0, 0x1234u), 0x1234u);

    std::mt19937_64 rng(45);
    for (int trial = 0; trial < 300; ++trial) {
        // Lengths cross the PCLMUL fold threshold (64) and its
        // 16-byte chunking in both directions.
        const size_t n = static_cast<size_t>(rng() % 300);
        const auto seed = static_cast<uint32_t>(rng());
        std::vector<uint8_t> bytes(n);
        for (auto &b : bytes)
            b = static_cast<uint8_t>(rng());
        const uint32_t want = s->crc32(bytes.data(), n, seed);
        for (const KernelTable *t : levels)
            EXPECT_EQ(t->crc32(bytes.data(), n, seed), want)
                << t->name << " n=" << n;

        // Chaining: crc(a+b) == crc(b, seed=crc(a)).
        const size_t cut = n / 2;
        const uint32_t head = s->crc32(bytes.data(), cut, seed);
        for (const KernelTable *t : levels)
            EXPECT_EQ(t->crc32(bytes.data() + cut, n - cut, head), want)
                << t->name << " chained n=" << n;
    }
}

/**
 * The full library paths under every reachable level: masks, the
 * serialized DDC stream, and util::crc32 must be byte-identical
 * regardless of the dispatched ISA. The FNV hash of the scalar run is
 * the reference; test_core_mask_golden pins scalar against the
 * original pre-kernel implementation, so together these pin every
 * level to the original bytes.
 */
TEST(KernelGolden, MaskAndStreamBytesAreIsaInvariant)
{
    IsaGuard guard;
    const auto w = workload::synthWeights({"kern-golden", 64, 96, 1}, 7);
    const auto scores = core::magnitudeScores(w);

    uint64_t maskHash = 0, streamHash = 0;
    uint32_t streamCrc = 0;
    bool first = true;
    for (Isa level : kernels::supportedIsas()) {
        ASSERT_TRUE(kernels::setIsa(level));
        const auto tbs = makeMask(core::Pattern::TBS, scores, 0.5);
        const auto maskBytes = tbs.mask.toBytes();
        const auto stream = format::serializeDdc(w, tbs.mask, tbs.meta);
        const uint64_t mh = fnv(maskBytes.data(), maskBytes.size());
        const uint64_t sh = fnv(stream.data(), stream.size());
        const uint32_t sc = util::crc32(stream, 0);
        const auto parsed = format::tryDeserializeDdc(stream);
        ASSERT_TRUE(parsed.ok()) << kernels::isaName(level);
        if (first) {
            maskHash = mh;
            streamHash = sh;
            streamCrc = sc;
            first = false;
        } else {
            EXPECT_EQ(mh, maskHash) << kernels::isaName(level);
            EXPECT_EQ(sh, streamHash) << kernels::isaName(level);
            EXPECT_EQ(sc, streamCrc) << kernels::isaName(level);
        }
    }
}

/**
 * Truncation sweep of the bit-packed index section under every level:
 * the batch BitReader's bounds check must fire identically whichever
 * ISA unpacks the stream (the fault-injection harness proper runs in
 * test_format_fault under the dispatched level).
 */
TEST(KernelGolden, TruncatedIndexSectionFailsUnderEveryIsa)
{
    IsaGuard guard;
    const auto w = workload::synthWeights({"kern-fault", 64, 64, 1}, 9);
    const auto tbs =
        makeMask(core::Pattern::TBS, core::magnitudeScores(w), 0.5);
    const auto stream = format::serializeDdc(w, tbs.mask, tbs.meta);
    for (Isa level : kernels::supportedIsas()) {
        ASSERT_TRUE(kernels::setIsa(level));
        for (size_t cut = 1; cut <= 16; ++cut) {
            std::vector<uint8_t> trunc(stream.begin(),
                                       stream.end() - cut);
            EXPECT_FALSE(format::tryDeserializeDdc(trunc).ok())
                << kernels::isaName(level) << " cut=" << cut;
        }
        EXPECT_TRUE(format::tryDeserializeDdc(stream).ok())
            << kernels::isaName(level);
    }
}

} // namespace
