/**
 * @file
 * Deterministic fault-injection harness for DDC ingestion.
 *
 * Sweeps thousands of seeded corruptions — bit flips, truncations at
 * and around every section boundary, targeted field mutations with
 * checksums fixed up, section swaps, trailing garbage — over
 * serialized ResNet/BERT-shaped layers and asserts every outcome is
 * either a byte-exact round-trip or a typed DecodeError: never a
 * crash, hang, or silently wrong matrix. Also pins the per-field
 * error taxonomy (which header/info field yields which
 * DecodeErrorKind) and rejects v1 (pre-integrity) golden streams.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/prune.hpp"
#include "mask_util.hpp"
#include "format/serialize.hpp"
#include "util/contentstore.hpp"
#include "util/faultinject.hpp"
#include "util/logging.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;
using core::Matrix;
using format::DecodeErrorKind;
using tbstc::testutil::makeMask;
using util::FaultInjector;

struct Layer
{
    const char *name;
    size_t rows;
    size_t cols;
    double sparsity;
};

// ResNet-conv-, BERT-attention-, and group-crossing-shaped layers.
constexpr Layer kLayers[] = {
    {"resnet-conv", 64, 64, 0.5},
    {"bert-ffn", 96, 192, 0.75},
    {"crosses-groups", 256, 256, 0.625},
};

struct Stream
{
    Matrix w;
    core::MaskOutput tbs;
    std::vector<uint8_t> bytes;
    format::DdcParsed parsed;
    format::DdcLayout layout;

    explicit Stream(const Layer &l, uint64_t seed = 11)
    {
        w = workload::synthWeights({l.name, l.rows, l.cols, 1}, seed);
        tbs =
            makeMask(core::Pattern::TBS, core::magnitudeScores(w), l.sparsity);
        bytes = format::serializeDdc(w, tbs.mask, tbs.meta);
        auto decoded = format::tryDeserializeDdc(bytes);
        if (!decoded.ok())
            util::panic("fixture stream does not decode");
        parsed = std::move(*decoded);
        auto lay = format::ddcLayout(bytes);
        if (!lay.ok())
            util::panic("fixture stream has no layout");
        layout = *lay;
    }
};

bool
sameParse(const format::DdcParsed &a, const format::DdcParsed &b)
{
    return a.matrix == b.matrix && a.mask == b.mask
        && a.meta.m == b.meta.m && a.meta.blockRows == b.meta.blockRows
        && a.meta.blockCols == b.meta.blockCols
        && a.meta.blocks == b.meta.blocks;
}

/**
 * The harness invariant: a corrupted stream must either decode to a
 * typed error or parse to exactly what the pristine stream parses to.
 * Returns so the sweep can count corruptions exercised.
 */
void
expectSafe(const Stream &s, const std::vector<uint8_t> &corrupted,
           size_t &cases)
{
    ++cases;
    const auto r = format::tryDeserializeDdc(corrupted);
    if (!r.ok()) {
        EXPECT_FALSE(r.error().message.empty());
        return;
    }
    EXPECT_TRUE(sameParse(*r, s.parsed))
        << "corruption accepted with a different decode";
}

/** Assert a specific taxonomy entry for a targeted corruption. */
void
expectError(const std::vector<uint8_t> &corrupted, DecodeErrorKind kind,
            const char *what)
{
    const auto r = format::tryDeserializeDdc(corrupted);
    ASSERT_FALSE(r.ok()) << what << ": corruption was accepted";
    EXPECT_EQ(r.error().kind, kind)
        << what << ": got " << format::decodeErrorName(r.error().kind)
        << " at byte " << r.error().offset << ": "
        << r.error().message;
}

/** Overwrite the little-endian u32 at @p at. */
std::vector<uint8_t>
withU32(const std::vector<uint8_t> &bytes, size_t at, uint32_t v)
{
    auto out = bytes;
    out[at] = static_cast<uint8_t>(v);
    out[at + 1] = static_cast<uint8_t>(v >> 8);
    out[at + 2] = static_cast<uint8_t>(v >> 16);
    out[at + 3] = static_cast<uint8_t>(v >> 24);
    return out;
}

/** Overwrite a u32 header field and repair every CRC. */
std::vector<uint8_t>
withU32Fixed(const std::vector<uint8_t> &bytes, size_t at, uint32_t v)
{
    auto out = withU32(bytes, at, v);
    format::ddcFixupCrcs(out); // May fail for unparseable layouts;
                               // the decode still must reject cleanly.
    return out;
}

// Fixed v2 header field offsets (the wire contract under test).
constexpr size_t kRowsAt = 4;
constexpr size_t kColsAt = 8;
constexpr size_t kMAt = 12;
constexpr size_t kGroupAt = 16;
constexpr size_t kTotalAt = 20;
constexpr size_t kLadderSizeAt = 24;

TEST(FaultSweep, ThousandsOfCorruptionsNeverCrash)
{
    size_t cases = 0;
    uint64_t seed = 1000;
    for (const Layer &layer : kLayers) {
        const Stream s(layer);
        FaultInjector fi(++seed);

        // Single- and multi-bit flips anywhere in the stream.
        for (int i = 0; i < 160; ++i)
            expectSafe(s, fi.flipBits(s.bytes, 1), cases);
        for (int i = 0; i < 80; ++i)
            expectSafe(s, fi.flipBits(s.bytes, 2 + fi.rng().below(8)),
                       cases);

        // Truncation at (and around) every section boundary, plus
        // random cuts. Every truncation must be a typed error.
        const size_t boundaries[] = {
            0, 1, 3, 4, s.layout.headerCrcAt, s.layout.groupBasesAt,
            s.layout.infoAt, s.layout.infoAt + 1, s.layout.valuesAt,
            s.layout.valuesAt + 1, s.layout.indicesAt,
            s.layout.end - 4, s.layout.end - 1};
        for (size_t b : boundaries) {
            ++cases;
            expectError(fi.truncate(s.bytes, b),
                        DecodeErrorKind::Truncated,
                        "section-boundary truncation");
        }
        for (int i = 0; i < 60; ++i) {
            auto cut = fi.truncateRandom(s.bytes);
            if (cut.size() == s.bytes.size())
                continue; // A no-op cut is not a corruption.
            ++cases;
            expectError(cut, DecodeErrorKind::Truncated,
                        "random truncation");
        }

        // Targeted byte mutations and trailing garbage.
        for (int i = 0; i < 60; ++i)
            expectSafe(s, fi.mutateRandomByte(s.bytes), cases);
        for (int i = 0; i < 20; ++i) {
            ++cases;
            expectError(fi.extend(s.bytes, 1 + fi.rng().below(16)),
                        DecodeErrorKind::PayloadOverrun,
                        "trailing garbage");
        }

        // Section swaps: exchange chunks across section boundaries.
        for (int i = 0; i < 10; ++i) {
            const size_t len = 4 + fi.rng().below(8);
            const size_t a = s.layout.groupBasesAt
                + fi.rng().below(s.layout.infoAt - s.layout.groupBasesAt
                                 - len);
            const size_t b = s.layout.valuesAt
                + fi.rng().below(s.layout.indicesAt - s.layout.valuesAt
                                 - len);
            expectSafe(s, fi.swapRanges(s.bytes, a, b, len), cases);
        }

        // Bit flips in the structural sections (header, group bases,
        // info table) with checksums repaired afterwards: exercises
        // the validators behind the CRC layer. An accepted stream
        // must be a *canonical* serialization of what was decoded —
        // never a silently wrong matrix.
        for (int i = 0; i < 80; ++i) {
            const size_t bit = fi.rng().below(s.layout.valuesAt * 8);
            auto mutated = fi.setByte(
                s.bytes, bit / 8,
                static_cast<uint8_t>(s.bytes[bit / 8]
                                     ^ (1u << (bit % 8))));
            format::ddcFixupCrcs(mutated); // False if unparseable;
                                           // decode must still reject.
            ++cases;
            const auto r = format::tryDeserializeDdc(mutated);
            if (!r.ok())
                continue; // Typed rejection.
            const auto again =
                format::serializeDdc(r->matrix, r->mask, r->meta);
            EXPECT_EQ(again, mutated)
                << "accepted post-fixup mutation is not canonical";
        }
    }
    // The acceptance bar: >= 1000 distinct corruption cases swept.
    EXPECT_GE(cases, 1000u);
}

TEST(FaultTaxonomy, HeaderFields)
{
    const Stream s(kLayers[0]);
    const auto &bytes = s.bytes;

    // Magic and version (checked before the header CRC).
    expectError(withU32(bytes, 0, 0x21434444), DecodeErrorKind::BadMagic,
                "magic");
    expectError(withU32(bytes, 0, format::kDdcMagicV1),
                DecodeErrorKind::BadVersion, "version");

    // Geometry: non-multiple rows/cols, zero/oversized/non-divisor m.
    expectError(withU32Fixed(bytes, kRowsAt, 65),
                DecodeErrorKind::GeometryOverflow, "rows");
    expectError(withU32Fixed(bytes, kColsAt, 63),
                DecodeErrorKind::GeometryOverflow, "cols");
    expectError(withU32Fixed(bytes, kMAt, 0),
                DecodeErrorKind::GeometryOverflow, "m=0");
    expectError(withU32Fixed(bytes, kMAt, 17),
                DecodeErrorKind::GeometryOverflow, "m=17");
    expectError(withU32Fixed(bytes, kMAt, 3),
                DecodeErrorKind::GeometryOverflow, "m=3");

    // A huge declared geometry must be rejected as truncation (the
    // stream cannot contain its info table), never over-allocate.
    expectError(withU32Fixed(withU32(bytes, kColsAt, 0xfffffff8u),
                             kRowsAt, 0xfffffff8u),
                DecodeErrorKind::Truncated, "allocation bomb");

    // Offset-group size.
    expectError(withU32Fixed(bytes, kGroupAt, 0),
                DecodeErrorKind::GeometryOverflow, "group=0");

    // Declared payload total: grows -> truncated; shrinks -> overrun.
    const uint32_t total = s.layout.totalValues;
    expectError(withU32Fixed(bytes, kTotalAt, total + 8),
                DecodeErrorKind::Truncated, "total+8");
    expectError(withU32Fixed(bytes, kTotalAt, total - 8),
                DecodeErrorKind::PayloadOverrun, "total-8");

    // Candidate ladder: size out of range, N > M, unsorted.
    auto bad = bytes;
    bad[kLadderSizeAt] = 0;
    expectError(bad, DecodeErrorKind::BadLadder, "ladder size 0");
    bad[kLadderSizeAt] = 9;
    expectError(bad, DecodeErrorKind::BadLadder, "ladder size 9");
    bad = bytes;
    bad[kLadderSizeAt + 1] = 200; // First N, far above M = 8.
    expectError(bad, DecodeErrorKind::BadLadder, "ladder N > M");
    if (bytes[kLadderSizeAt] >= 2) {
        bad = bytes;
        bad[kLadderSizeAt + 2] = bad[kLadderSizeAt + 1]; // Duplicate.
        expectError(bad, DecodeErrorKind::BadLadder, "ladder unsorted");
    }

    // Header CRC itself.
    auto crc = bytes;
    crc[s.layout.headerCrcAt] ^= 0xff;
    expectError(crc, DecodeErrorKind::ChecksumMismatch, "header crc");
}

TEST(FaultTaxonomy, SectionCrcsCoverEverySection)
{
    const Stream s(kLayers[0]);
    const struct
    {
        const char *name;
        size_t at; // First byte of the section.
    } sections[] = {
        {"group bases", s.layout.groupBasesAt},
        {"info table", s.layout.infoAt},
        {"values", s.layout.valuesAt},
        {"indices", s.layout.indicesAt},
    };
    for (const auto &sec : sections) {
        auto bad = s.bytes;
        bad[sec.at] ^= 0x01;
        expectError(bad, DecodeErrorKind::ChecksumMismatch, sec.name);
    }
    // The stored CRC fields themselves are covered too.
    auto bad = s.bytes;
    bad[s.layout.end - 2] ^= 0x01; // Inside the index-section CRC.
    expectError(bad, DecodeErrorKind::ChecksumMismatch, "stored crc");
}

TEST(FaultTaxonomy, InfoTableBitRanges)
{
    // Use the group-crossing layer so group bases matter.
    const Stream s(kLayers[2]);
    const size_t info_at = s.layout.infoAt;
    const size_t ladder_size = s.bytes[kLadderSizeAt];

    // Ratio field (bits 14:12) beyond the ladder.
    if (ladder_size < 8) {
        auto bad = s.bytes;
        bad[info_at + 1] = static_cast<uint8_t>(
            (bad[info_at + 1] & 0x8f) | 0x70); // Ratio = 7.
        ASSERT_TRUE(format::ddcFixupCrcs(bad));
        expectError(bad, DecodeErrorKind::InfoFieldRange, "ratio");
    }

    // Offset field (bits 11:0): break the chain on a later entry.
    auto bad = s.bytes;
    bad[info_at + 2] ^= 0x01; // Second entry, offset bit 0.
    ASSERT_TRUE(format::ddcFixupCrcs(bad));
    expectError(bad, DecodeErrorKind::OffsetInconsistent, "offset");

    // Group bases participate in the same chain.
    bad = s.bytes;
    bad[s.layout.groupBasesAt] ^= 0x01; // Base of group 0 becomes 1.
    ASSERT_TRUE(format::ddcFixupCrcs(bad));
    expectError(bad, DecodeErrorKind::OffsetInconsistent, "group base");

    // The dim bit (15) is semantic, not structural: flipping it yields
    // a *valid* stream that must decode and re-serialize canonically.
    size_t occupied = 0; // First block carrying values.
    while (s.parsed.meta.blocks[occupied].n == 0)
        ++occupied;
    bad = s.bytes;
    bad[info_at + occupied * 2 + 1] ^= 0x80;
    ASSERT_TRUE(format::ddcFixupCrcs(bad));
    const auto r = format::tryDeserializeDdc(bad);
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r->matrix, s.parsed.matrix);
    EXPECT_EQ(format::serializeDdc(r->matrix, r->mask, r->meta), bad);
}

TEST(FaultGolden, V1StreamRejectedWithVersionError)
{
    // Byte-accurate v1 stream (pre-integrity layout) for a dense 8x8
    // single-block matrix: header without total/CRCs, one group base,
    // one info entry, payload count, 64 fp16 values, 3-bit indices.
    std::vector<uint8_t> v1;
    const auto u8 = [&](uint8_t v) { v1.push_back(v); };
    const auto u16 = [&](uint16_t v) {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    };
    const auto u32 = [&](uint32_t v) {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    };
    u32(format::kDdcMagicV1);
    u32(8);  // rows
    u32(8);  // cols
    u32(8);  // m
    u32(63); // group blocks
    u8(1);   // ladder size
    u8(8);   // ladder: N = 8
    u32(0);  // group base
    u16(0);  // info entry: dim row, ratio 0, offset 0
    u32(64); // payload count
    for (int i = 0; i < 64; ++i)
        u16(0x3c00); // fp16 1.0
    uint32_t acc = 0;
    unsigned bits = 0;
    for (int g = 0; g < 8; ++g) {
        for (uint32_t e = 0; e < 8; ++e) { // 3-bit packed indices.
            acc |= e << bits;
            bits += 3;
            while (bits >= 8) {
                u8(static_cast<uint8_t>(acc));
                acc >>= 8;
                bits -= 8;
            }
        }
    }

    expectError(v1, DecodeErrorKind::BadVersion, "v1 golden");
    const auto r = format::tryDeserializeDdc(v1);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("version 1"), std::string::npos);
}

TEST(FaultGolden, EmptyAndTinyStreams)
{
    expectError({}, DecodeErrorKind::Truncated, "empty");
    expectError({0x44}, DecodeErrorKind::Truncated, "one byte");
    expectError({0x44, 0x44, 0x43, 0x32}, DecodeErrorKind::Truncated,
                "magic only");
    expectError({0, 0, 0, 0}, DecodeErrorKind::BadMagic, "zero magic");
}

// ---------------------------------------------------------------------
// On-disk profile-cache blobs get the same treatment as DDC streams:
// any corruption must be rejected and the result recomputed, never
// trusted. The sweep drives the real end-to-end path — corrupt the
// file, invalidate the memory map, rebuild through the public API —
// and asserts the returned profile is always the uncorrupted one.
// ---------------------------------------------------------------------

std::vector<uint8_t>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        util::panic("cannot read '{}'", path);
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

void
writeAll(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        util::panic("cannot write '{}'", path);
    // bytes.data() may be null when empty (truncate-to-zero faults);
    // fwrite declares its buffer nonnull, so skip the call entirely.
    if (!bytes.empty()
        && std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size())
        util::panic("short write '{}'", path);
    std::fclose(f);
}

bool
sameProfile(const sim::LayerProfile &a, const sim::LayerProfile &b)
{
    if (a.x != b.x || a.y != b.y || a.nb != b.nb || a.m != b.m
        || a.aNnz != b.aNnz || a.sampleScale != b.sampleScale
        || a.aStream.payloadBytes != b.aStream.payloadBytes
        || a.aStream.usefulBytes != b.aStream.usefulBytes
        || a.aStream.segments != b.aStream.segments
        || a.blocks.size() != b.blocks.size())
        return false;
    for (size_t i = 0; i < a.blocks.size(); ++i)
        if (a.blocks[i].nnz != b.blocks[i].nnz
            || a.blocks[i].n != b.blocks[i].n
            || a.blocks[i].independentDim != b.blocks[i].independentDim
            || a.blocks[i].nonemptyRows != b.blocks[i].nonemptyRows)
            return false;
    return true;
}

TEST(FaultSweep, CacheBlobsNeverTrusted)
{
    util::ContentStore &store = util::ContentStore::instance();
    const std::string dir = testing::TempDir() + "tbstc-fault-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    store.setEnabled(true);
    store.setDiskDir(dir);
    store.clearMemory();

    workload::ProfileSpec spec;
    spec.shape = {"fault-cache", 64, 128, 16};
    spec.sparsity = 0.75;
    spec.seed = 17;

    // Cold build files the blob; the uncached result is the oracle.
    const sim::LayerProfile reference = workload::buildLayerProfile(spec);
    std::string blob_path;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        blob_path = e.path().string();
    ASSERT_FALSE(blob_path.empty()) << "cold build wrote no blob";
    const std::vector<uint8_t> pristine = readAll(blob_path);

    FaultInjector fi(2025);
    size_t cases = 0;
    size_t rejected = 0;
    const auto sweep = [&](const std::vector<uint8_t> &corrupted) {
        if (corrupted == pristine)
            return; // A no-op mutation is not a corruption.
        ++cases;
        const uint64_t rejects_before = store.stats().diskRejects;
        writeAll(blob_path, corrupted);
        store.clearMemory();
        const sim::LayerProfile rebuilt =
            workload::buildLayerProfile(spec);
        EXPECT_TRUE(sameProfile(rebuilt, reference))
            << "corrupt cache blob altered a profile";
        rejected += store.stats().diskRejects > rejects_before;
        // The rebuild refiled a valid blob; restore the pristine image
        // so each case corrupts from the same base.
        writeAll(blob_path, pristine);
    };

    for (int i = 0; i < 60; ++i)
        sweep(fi.flipBits(pristine, 1));
    for (int i = 0; i < 30; ++i)
        sweep(fi.flipBits(pristine, 2 + fi.rng().below(16)));
    // Truncations at and around the 36-byte header boundary and the
    // tail, plus random cuts.
    for (const size_t cut : {size_t{0}, size_t{1}, size_t{4}, size_t{8},
                             size_t{35}, size_t{36}, size_t{37},
                             pristine.size() - 1})
        sweep(fi.truncate(pristine, cut));
    for (int i = 0; i < 20; ++i)
        sweep(fi.truncateRandom(pristine));
    for (int i = 0; i < 30; ++i)
        sweep(fi.mutateRandomByte(pristine));
    for (int i = 0; i < 10; ++i)
        sweep(fi.extend(pristine, 1 + fi.rng().below(16)));
    // Cross-section swaps: header <-> payload.
    for (int i = 0; i < 10; ++i) {
        const size_t len = 4 + fi.rng().below(4);
        const size_t a = fi.rng().below(36 - len);
        const size_t b =
            36 + fi.rng().below(pristine.size() - 36 - len);
        sweep(fi.swapRanges(pristine, a, b, len));
    }
    // An empty and a foreign file.
    sweep({});
    sweep(std::vector<uint8_t>(pristine.size(), 0x44));

    EXPECT_GE(cases, 150u);
    // Every corruption that reached the parser was rejected (cuts that
    // only removed the file are misses, not rejects — count those out).
    EXPECT_EQ(rejected, cases);

    store.setDiskDir("");
    store.clearMemory();
    std::filesystem::remove_all(dir);
}

} // namespace
