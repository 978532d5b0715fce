/**
 * @file
 * Unit tests for the sparse storage formats (Dense/SDC/CSR/DDC/Bitmap).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/prune.hpp"
#include "mask_util.hpp"
#include "format/encoding.hpp"
#include "util/rng.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc::core;
using namespace tbstc::format;
using tbstc::testutil::makeMask;
using tbstc::testutil::maskOf;
using tbstc::util::Rng;

struct Fixture
{
    Matrix w;
    Matrix scores;
    Mask us;
    MaskOutput tbs;

    explicit Fixture(uint64_t seed, size_t rows = 64, size_t cols = 64,
                     double sparsity = 0.5)
    {
        w = tbstc::workload::synthWeights(
            {"fmt-probe", rows, cols, 1}, seed);
        scores = magnitudeScores(w);
        us = maskOf(Pattern::US, scores, sparsity);
        tbs = makeMask(Pattern::TBS, scores, sparsity);
    }
};

TEST(DenseEncoding, RoundTripAndBytes)
{
    Fixture f(1);
    const auto enc = encodeDense(f.w);
    EXPECT_EQ(enc->format(), StorageFormat::Dense);
    EXPECT_EQ(enc->decode(), f.w);
    EXPECT_EQ(enc->storageBytes(), 64u * 64u * 2u);
}

TEST(DenseEncoding, StreamIsFullyUseful)
{
    Fixture f(2);
    const auto p = encodeDense(f.w)->streamProfile(8);
    EXPECT_EQ(p.payloadBytes, p.usefulBytes);
    EXPECT_DOUBLE_EQ(p.redundancy(), 0.0);
    EXPECT_GT(p.segments, 1u); // Block walk breaks rows.
}

TEST(SdcEncoding, RoundTrip)
{
    Fixture f(3);
    const auto enc = encodeSdc(f.w, f.tbs.mask);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(SdcEncoding, PaddingRedundancyOnTbs)
{
    // TBS has non-uniform per-row occupancy, so SDC's row padding
    // creates redundant traffic (paper Fig. 7(a)); at 75% sparsity
    // the paper reports > 61% redundancy.
    Fixture f(4, 128, 128, 0.75);
    const auto p = encodeSdc(f.w, f.tbs.mask)->streamProfile(8);
    EXPECT_GT(p.redundancy(), 0.35);
    EXPECT_EQ(p.segments, 1u); // But fully contiguous.
}

TEST(SdcEncoding, NoPaddingOnUniformTs)
{
    // A fixed 4:8 tile mask gives every row identical occupancy: SDC
    // becomes padding-free (why STC ships it).
    Fixture f(5);
    const Mask ts = maskOf(Pattern::TS, f.scores, 0.5);
    const auto p = encodeSdc(f.w, ts)->streamProfile(8);
    EXPECT_NEAR(p.redundancy(), 0.0, 1e-9);
}

TEST(CsrEncoding, RoundTrip)
{
    Fixture f(6);
    const auto enc = encodeCsr(f.w, f.tbs.mask);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(CsrEncoding, MinimalBytesButFragmented)
{
    Fixture f(7, 128, 128, 0.75);
    const auto csr = encodeCsr(f.w, f.tbs.mask)->streamProfile(8);
    const auto sdc = encodeSdc(f.w, f.tbs.mask)->streamProfile(8);
    // CSR carries fewer bytes than padded SDC...
    EXPECT_LT(csr.payloadBytes, sdc.payloadBytes);
    // ...but in thousands of short runs instead of one.
    EXPECT_GT(csr.segments, 1000u);
    EXPECT_LT(csr.avgSegmentBytes(), 64.0);
}

TEST(DdcEncoding, RoundTrip)
{
    Fixture f(8);
    const auto enc = encodeDdc(f.w, f.tbs.mask, f.tbs.meta);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(DdcEncoding, RoundTripAtHighSparsity)
{
    Fixture f(9, 64, 64, 0.875);
    const auto enc = encodeDdc(f.w, f.tbs.mask, f.tbs.meta);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(DdcEncoding, ContiguousAndUnpadded)
{
    Fixture f(10, 128, 128, 0.75);
    const auto p =
        encodeDdc(f.w, f.tbs.mask, f.tbs.meta)->streamProfile(8);
    EXPECT_DOUBLE_EQ(p.redundancy(), 0.0);
    EXPECT_EQ(p.segments, 2u);
}

TEST(DdcEncoding, SmallerThanSdcOnTbs)
{
    Fixture f(11, 128, 128, 0.75);
    const auto ddc = encodeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto sdc = encodeSdc(f.w, f.tbs.mask);
    EXPECT_LT(ddc->storageBytes(), sdc->storageBytes());
}

TEST(DdcEncoding, InfoTableAccounted)
{
    // Storage must include the 16-bit info entry per block plus packed
    // 3-bit indices: check against a hand computation for a fully
    // dense "TBS" matrix (every block 8:8).
    Matrix w(16, 16);
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(i + 1);
    const Matrix scores = magnitudeScores(w);
    const MaskOutput res = makeMask(Pattern::TBS, scores, 0.0);
    const auto enc = encodeDdc(w, res.mask, res.meta);
    const uint64_t blocks = 4;
    const uint64_t values = 16 * 16 * 2;
    const uint64_t indices = (16 * 16 * 3 + 7) / 8;
    EXPECT_EQ(enc->storageBytes(), blocks * 2 + values + indices);
}

TEST(BitmapEncoding, RoundTrip)
{
    Fixture f(12);
    const auto enc = encodeBitmap(f.w, f.us);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.us));
}

TEST(BitmapEncoding, BytesAreValuesPlusBitmap)
{
    Fixture f(13);
    const auto enc = encodeBitmap(f.w, f.us);
    EXPECT_EQ(enc->storageBytes(),
              f.us.nnz() * 2 + (64 * 64 + 7) / 8);
    const auto p = enc->streamProfile(8);
    EXPECT_EQ(p.segments, 2u);
    EXPECT_DOUBLE_EQ(p.redundancy(), 0.0);
}

TEST(FormatName, AllNamed)
{
    EXPECT_EQ(formatName(StorageFormat::Dense), "Dense");
    EXPECT_EQ(formatName(StorageFormat::SDC), "SDC");
    EXPECT_EQ(formatName(StorageFormat::CSR), "CSR");
    EXPECT_EQ(formatName(StorageFormat::DDC), "DDC");
    EXPECT_EQ(formatName(StorageFormat::Bitmap), "Bitmap");
}

/** Field-by-field equality of two stream profiles. */
void
expectSameStream(const StreamProfile &got, const StreamProfile &want)
{
    EXPECT_EQ(got.payloadBytes, want.payloadBytes);
    EXPECT_EQ(got.usefulBytes, want.usefulBytes);
    EXPECT_EQ(got.segments, want.segments);
}

/**
 * format::streamProfile(fmt, mask, meta) against the stream profile of
 * the encoding built from @p w, for all five formats.
 */
void
expectStructureMatchesEncoders(const Matrix &w, const Mask &mask,
                               const TbsMeta &meta)
{
    const size_t m = meta.m;
    const std::pair<StorageFormat, std::unique_ptr<Encoding>> encs[] = {
        {StorageFormat::Dense, encodeDense(w)},
        {StorageFormat::SDC, encodeSdc(w, mask)},
        {StorageFormat::CSR, encodeCsr(w, mask)},
        {StorageFormat::DDC, encodeDdc(w, mask, meta)},
        {StorageFormat::Bitmap, encodeBitmap(w, mask)},
    };
    for (const auto &[fmt, enc] : encs) {
        SCOPED_TRACE(formatName(fmt));
        expectSameStream(streamProfile(fmt, mask, meta),
                         enc->streamProfile(m));
    }
}

TEST(StreamProfile, StructureMatchesEncoders)
{
    const Pattern patterns[] = {Pattern::Dense, Pattern::US,
                                Pattern::TS,    Pattern::RSV,
                                Pattern::RSH,   Pattern::TBS,
                                Pattern::SS};
    // 80 columns leave a partial mask word in every row.
    for (const auto &[rows, cols] :
         {std::pair<size_t, size_t>{64, 96}, {48, 80}}) {
        const Matrix w = tbstc::workload::synthWeights(
            {"stream-structure", rows, cols, 1}, 5);
        const Matrix scores = magnitudeScores(w);
        for (const size_t m : {4u, 8u, 16u}) {
            for (const Pattern p : patterns) {
                for (const double sparsity : {0.5, 0.75}) {
                    SCOPED_TRACE(patternName(p) + " m " + std::to_string(m)
                                 + " sparsity " + std::to_string(sparsity)
                                 + " " + std::to_string(rows) + "x"
                                 + std::to_string(cols));
                    const auto out = makeMask(p, scores, sparsity, m);
                    const TbsMeta meta = p == Pattern::TBS
                        ? out.meta
                        : tbstc::workload::deriveMeta(out.mask, m);
                    expectStructureMatchesEncoders(w, out.mask, meta);
                }
            }
            Mask empty(rows, cols);
            Mask full(rows, cols);
            for (size_t r = 0; r < rows; ++r)
                for (size_t c = 0; c < cols; ++c)
                    full.at(r, c) = 1;
            for (const Mask *mask : {&empty, &full}) {
                SCOPED_TRACE((mask == &empty ? "empty m " : "full m ")
                             + std::to_string(m));
                expectStructureMatchesEncoders(
                    w, *mask, tbstc::workload::deriveMeta(*mask, m));
            }
        }
    }
}

/** Merges a walk's (start, len) reads into contiguous runs. */
struct ReferenceWalk
{
    bool open = false;
    uint64_t end = 0;
    uint64_t bytes = 0;
    uint64_t segments = 0;

    void
    read(uint64_t start, uint64_t len)
    {
        if (len == 0)
            return;
        segments += !(open && start == end);
        open = true;
        end = start + len;
        bytes += len;
    }
};

TEST(StreamProfile, WalksMatchReference)
{
    // Dense and CSR derive their runs from structure without walking
    // the bytes; walk them here, read by read, block by block, on
    // shapes that do and do not tile by m.
    Rng rng(11);
    for (const size_t m : {1u, 2u, 3u, 4u, 8u, 16u}) {
        for (const size_t rows : {1u, 5u, 8u, 17u, 33u}) {
            for (const size_t cols : {1u, 3u, 8u, 20u, 65u}) {
                SCOPED_TRACE(std::to_string(rows) + "x"
                             + std::to_string(cols) + " m "
                             + std::to_string(m));
                Mask mask(rows, cols);
                for (size_t r = 0; r < rows; ++r)
                    for (size_t c = 0; c < cols; ++c)
                        mask.at(r, c) = rng.uniform() < 0.4 ? 1 : 0;
                TbsMeta meta;
                meta.m = m;

                ReferenceWalk dense;
                const uint64_t row_bytes = cols * 2;
                for (size_t br = 0; br < rows; br += m)
                    for (size_t bc = 0; bc < cols; bc += m)
                        for (size_t r = br; r < std::min(br + m, rows); ++r)
                            dense.read(r * row_bytes + bc * 2,
                                       std::min(m, cols - bc) * 2);
                const auto d =
                    streamProfile(StorageFormat::Dense, mask, meta);
                EXPECT_EQ(d.payloadBytes, dense.bytes);
                EXPECT_EQ(d.segments, dense.segments);

                // CSR position of each kept (r, c); reads are
                // 4-byte (value, index) pairs.
                std::vector<uint64_t> pos(rows * cols);
                uint64_t next = 0;
                for (size_t r = 0; r < rows; ++r)
                    for (size_t c = 0; c < cols; ++c)
                        if (mask.at(r, c))
                            pos[r * cols + c] = next++;
                ReferenceWalk csr;
                for (size_t br = 0; br < rows; br += m)
                    for (size_t bc = 0; bc < cols; bc += m)
                        for (size_t r = br; r < std::min(br + m, rows); ++r)
                            for (size_t c = bc; c < std::min(bc + m, cols);
                                 ++c)
                                if (mask.at(r, c))
                                    csr.read(pos[r * cols + c] * 4, 4);
                const auto p = streamProfile(StorageFormat::CSR, mask, meta);
                EXPECT_EQ(p.payloadBytes, csr.bytes + (rows + 1) * 4);
                EXPECT_EQ(p.segments, csr.segments + 1);
                expectSameStream(p, encodeCsr(Matrix(rows, cols), mask)
                                        ->streamProfile(m));
            }
        }
    }
}

TEST(ColumnLimit, WidestSdcAndCsrRoundTripAndOneMoreIsRejected)
{
    // SDC and CSR store 16-bit column indices (SDC reserves 0xffff
    // for padding). At their widest they must still decode exactly and
    // walk as format::streamProfile says; one column more must fail
    // with the typed error instead of wrapping.
    EXPECT_EQ(maxEncodableCols(StorageFormat::SDC), 65535u);
    EXPECT_EQ(maxEncodableCols(StorageFormat::CSR), 65536u);
    EXPECT_EQ(maxEncodableCols(StorageFormat::DDC), SIZE_MAX);
    for (const StorageFormat f : {StorageFormat::SDC, StorageFormat::CSR}) {
        SCOPED_TRACE(formatName(f));
        const auto encode = [f](const Matrix &w, const Mask &mask) {
            return f == StorageFormat::SDC ? encodeSdc(w, mask)
                                           : encodeCsr(w, mask);
        };
        const size_t cols = maxEncodableCols(f);
        Matrix w(2, cols);
        Mask mask(2, cols);
        for (size_t r = 0; r < 2; ++r)
            for (size_t c = r; c < cols; c += 7 + r) {
                mask.at(r, c) = 1;
                w.at(r, c) = static_cast<float>(c + 1);
            }
        for (size_t r = 0; r < 2; ++r) {
            mask.at(r, cols - 1) = 1;
            w.at(r, cols - 1) = -1.0f;
        }
        const auto enc = encode(w, mask);
        EXPECT_EQ(enc->decode(), w);
        TbsMeta meta;
        meta.m = 8;
        expectSameStream(streamProfile(f, mask, meta),
                         enc->streamProfile(8));

        Matrix wide(2, cols + 1);
        Mask wideMask(2, cols + 1);
        wideMask.at(0, cols) = 1;
        wide.at(0, cols) = 1.0f;
        EXPECT_THROW(encode(wide, wideMask), ColumnLimitError);
    }
}

} // namespace
