/**
 * @file
 * Tests for the byte-exact DDC serializer (paper Fig. 8 layout).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "core/prune.hpp"
#include "mask_util.hpp"
#include "format/encoding.hpp"
#include "format/serialize.hpp"
#include "util/fp16.hpp"
#include "util/logging.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;
using core::Matrix;
using format::DecodeErrorKind;
using tbstc::testutil::makeMask;

struct Fixture
{
    Matrix w;
    core::MaskOutput tbs;

    explicit Fixture(uint64_t seed, size_t rows = 64, size_t cols = 64,
                     double sparsity = 0.5)
    {
        w = workload::synthWeights({"ser-probe", rows, cols, 1}, seed);
        tbs = makeMask(core::Pattern::TBS, core::magnitudeScores(w),
                       sparsity);
    }
};

/** fp16-round every element (the serializer's payload precision). */
Matrix
fp16Rounded(const Matrix &m)
{
    Matrix out = m;
    for (auto &v : out.data())
        v = util::fp16Round(v);
    return out;
}

/** Decode a stream the test serialized itself; errors fail the test. */
format::DdcParsed
decodeValid(std::span<const uint8_t> bytes)
{
    auto parsed = format::tryDeserializeDdc(bytes);
    EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
    return parsed.ok() ? std::move(*parsed) : format::DdcParsed{};
}

/** The kind @p bytes is rejected with; nullopt when it decodes. */
std::optional<DecodeErrorKind>
rejection(std::span<const uint8_t> bytes)
{
    const auto parsed = format::tryDeserializeDdc(bytes);
    if (parsed.ok())
        return std::nullopt;
    return parsed.error().kind;
}

TEST(SerializeDdc, RoundTripMatrix)
{
    Fixture f(1);
    const auto bytes = format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto parsed = decodeValid(bytes);
    EXPECT_EQ(parsed.matrix,
              fp16Rounded(core::applyMask(f.w, f.tbs.mask)));
}

TEST(SerializeDdc, RoundTripMeta)
{
    Fixture f(2);
    const auto bytes = format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto parsed = decodeValid(bytes);
    ASSERT_EQ(parsed.meta.blocks.size(), f.tbs.meta.blocks.size());
    EXPECT_EQ(parsed.meta.m, f.tbs.meta.m);
    for (size_t b = 0; b < parsed.meta.blocks.size(); ++b) {
        EXPECT_EQ(parsed.meta.blocks[b].n, f.tbs.meta.blocks[b].n);
        EXPECT_EQ(parsed.meta.blocks[b].dim, f.tbs.meta.blocks[b].dim);
    }
}

TEST(SerializeDdc, RoundTripMask)
{
    // Synthetic weights are never exactly zero, so the mask survives.
    Fixture f(3, 64, 64, 0.75);
    const auto bytes = format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto parsed = decodeValid(bytes);
    EXPECT_EQ(parsed.mask, f.tbs.mask);
}

TEST(SerializeDdc, LargeMatrixCrossesGroups)
{
    // 1024 blocks > the 63-block offset group: exercises group bases.
    Fixture f(4, 256, 256, 0.625);
    const auto bytes = format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto parsed = decodeValid(bytes);
    EXPECT_EQ(parsed.matrix,
              fp16Rounded(core::applyMask(f.w, f.tbs.mask)));
    EXPECT_EQ(parsed.mask, f.tbs.mask);
}

TEST(SerializeDdc, ByteSizeTracksEncodingModel)
{
    // The real stream should be close to the cost model's estimate
    // (header + group bases are the only extras).
    Fixture f(5, 128, 128, 0.75);
    const auto bytes = format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto model =
        format::encodeDdc(f.w, f.tbs.mask, f.tbs.meta)->storageBytes();
    EXPECT_GT(bytes.size(), model);
    EXPECT_LT(bytes.size(), model + 256);
}

TEST(SerializeDdc, InfoTableBitLayout)
{
    // One 16x8 matrix with two blocks: verify the 1/3/12-bit fields
    // land where Fig. 8 puts them.
    Matrix w(16, 8);
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(i + 1);
    // Fully dense: 8:8.
    const auto res =
        makeMask(core::Pattern::TBS, core::magnitudeScores(w), 0.0);
    const auto bytes = format::serializeDdc(w, res.mask, res.meta);

    // Locate the info table via the v2 section map (header and group
    // bases carry CRC32 fields, so offsets are layout-derived).
    const auto layout = format::ddcLayout(bytes);
    ASSERT_TRUE(layout.ok());
    const size_t info_at = layout->infoAt;
    const uint16_t e0 = static_cast<uint16_t>(
        bytes[info_at] | (bytes[info_at + 1] << 8));
    const uint16_t e1 = static_cast<uint16_t>(
        bytes[info_at + 2] | (bytes[info_at + 3] << 8));
    EXPECT_EQ(e0 & 0x8000, 0);      // Reduction dim.
    EXPECT_EQ((e0 >> 12) & 7, 0);   // Ladder index 0 (N = 8).
    EXPECT_EQ(e0 & 0x0fff, 0);      // First block at offset 0.
    EXPECT_EQ(e1 & 0x0fff, 64u);    // Second block after 64 elements.
}

TEST(SerializeDdc, BlockSize16RoundTrips)
{
    // 128 blocks of up to 256 elements: a 63-block offset group would
    // overflow the 12-bit info offset, so m = 16 groups 16 blocks.
    const Matrix w =
        workload::synthWeights({"ser-probe-m16", 128, 256, 1}, 6);
    const auto tbs =
        makeMask(core::Pattern::TBS, core::magnitudeScores(w), 0.75, 16);
    const auto bytes = format::serializeDdc(w, tbs.mask, tbs.meta);
    const auto parsed = decodeValid(bytes);
    EXPECT_EQ(parsed.matrix, fp16Rounded(core::applyMask(w, tbs.mask)));
    EXPECT_EQ(parsed.mask, tbs.mask);
    EXPECT_EQ(parsed.meta.m, 16u);
    const auto layout = format::ddcLayout(bytes);
    ASSERT_TRUE(layout.ok());
    EXPECT_EQ(layout->groups, 128u / 16u);

    // m <= 8 keeps the 63-block groups (and so its bytes).
    Fixture f(4, 256, 256, 0.625);
    const auto m8 = format::ddcLayout(
        format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta));
    ASSERT_TRUE(m8.ok());
    EXPECT_EQ(m8->groups, (1024u + 62u) / 63u);
}

TEST(SerializeDdc, RejectsInvalidMask)
{
    Fixture f(6);
    core::Mask bad = f.tbs.mask;
    // Overfill one group beyond its N.
    for (size_t c = 0; c < 8; ++c)
        bad.at(0, c) = 1;
    if (f.tbs.meta.block(0, 0).n < 8) {
        EXPECT_THROW(format::serializeDdc(f.w, bad, f.tbs.meta),
                     util::FatalError);
    }
}

TEST(DeserializeDdc, RejectsCorruption)
{
    Fixture f(7);
    auto bytes = format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta);
    EXPECT_EQ(rejection(bytes), std::nullopt);

    // Bad magic.
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_EQ(rejection(bad_magic), DecodeErrorKind::BadMagic);

    // Truncation.
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + 16);
    EXPECT_EQ(rejection(truncated), DecodeErrorKind::Truncated);

    // Corrupt an info-table offset: the section CRC catches the raw
    // flip; with the CRC fixed up, the offset chain check trips.
    const auto layout = format::ddcLayout(bytes);
    ASSERT_TRUE(layout.ok());
    auto bad_info = bytes;
    bad_info[layout->infoAt + 2] ^= 0x01; // Second entry's offset bit 0.
    EXPECT_EQ(rejection(bad_info), DecodeErrorKind::ChecksumMismatch);
    ASSERT_TRUE(format::ddcFixupCrcs(bad_info));
    EXPECT_EQ(rejection(bad_info), DecodeErrorKind::OffsetInconsistent);
}

TEST(DeserializeDdc, TryVariantNeverThrows)
{
    Fixture f(8);
    const auto bytes = format::serializeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto good = format::tryDeserializeDdc(bytes);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good->mask, f.tbs.mask);

    auto bad = bytes;
    bad[1] ^= 0x40;
    const auto err = format::tryDeserializeDdc(bad);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.error().kind, format::DecodeErrorKind::BadMagic);
}

TEST(SerializeDdc, NegativeZeroSurvives)
{
    // -0.0 encodes to fp16 0x8000 (non-zero bits), so it stays a kept
    // position after the round trip.
    Matrix w(8, 8);
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] = 1.0f;
    w.at(0, 0) = -0.0f;
    const auto res =
        makeMask(core::Pattern::TBS, core::magnitudeScores(w), 0.0);
    const auto parsed =
        decodeValid(format::serializeDdc(w, res.mask, res.meta));
    EXPECT_EQ(parsed.mask.at(0, 0), 1);
    EXPECT_TRUE(std::signbit(parsed.matrix.at(0, 0)));
}

} // namespace
