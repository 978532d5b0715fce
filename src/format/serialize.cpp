#include "serialize.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "util/checked.hpp"
#include "util/crc32.hpp"
#include "util/fp16.hpp"
#include "util/logging.hpp"

namespace tbstc::format {

using core::Mask;
using core::Matrix;
using core::SparsityDim;
using core::TbsMeta;
using util::checkedAdd;
using util::checkedMul;
using util::crc32;
using util::ensure;
using util::fatal;
using util::Result;
using util::unexpected;

const char *
decodeErrorName(DecodeErrorKind kind)
{
    switch (kind) {
    case DecodeErrorKind::Truncated: return "truncated";
    case DecodeErrorKind::BadMagic: return "bad-magic";
    case DecodeErrorKind::BadVersion: return "bad-version";
    case DecodeErrorKind::GeometryOverflow: return "geometry-overflow";
    case DecodeErrorKind::BadLadder: return "bad-ladder";
    case DecodeErrorKind::InfoFieldRange: return "info-field-range";
    case DecodeErrorKind::OffsetInconsistent: return "offset-inconsistent";
    case DecodeErrorKind::ChecksumMismatch: return "checksum-mismatch";
    case DecodeErrorKind::PayloadOverrun: return "payload-overrun";
    }
    return "unknown";
}

namespace {

/// Most blocks per offset group (the group size of every stream with
/// m <= 8; larger blocks get smaller groups, see offsetGroupBlocks()).
constexpr uint32_t kMaxGroupBlocks = 63;

/**
 * Blocks per offset group at block size @p m: the 12-bit element
 * offset must reach the group's last block, and a block holds at most
 * m * m elements, so the last block must start at or below 4095.
 */
uint32_t
offsetGroupBlocks(size_t m)
{
    return static_cast<uint32_t>(
        std::min<size_t>(kMaxGroupBlocks, 4095 / (m * m) + 1));
}

/// Fixed header bytes before the candidate ladder: magic, rows, cols,
/// m, group size, declared payload element count, ladder size.
constexpr size_t kFixedHeaderBytes = 4 * 6 + 1;

/**
 * Internal non-abort error channel: thrown by the decode helpers and
 * converted to a Result at the tryDeserializeDdc()/ddcLayout()
 * boundary. Never escapes this translation unit.
 */
struct DecodeFail
{
    DecodeError err;
};

[[noreturn]] void
failDecode(DecodeErrorKind kind, size_t offset, std::string message)
{
    throw DecodeFail{{kind, offset, std::move(message)}};
}

/** Little-endian byte writer. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    /**
     * Append a CRC32 of everything written since byte @p from —
     * the v2 stream's header and per-section integrity fields.
     */
    void
    sealCrc(size_t from)
    {
        u32(crc32(std::span(bytes_).subspan(from)));
    }

    size_t size() const { return bytes_.size(); }

    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/** Little-endian bounds-checked reader reporting structured errors. */
class Reader
{
  public:
    explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

    uint8_t
    u8()
    {
        if (pos_ >= bytes_.size())
            failDecode(DecodeErrorKind::Truncated, pos_,
                       util::formatStr("stream truncated at byte {}",
                                       pos_));
        return bytes_[pos_++];
    }

    uint16_t
    u16()
    {
        const uint16_t lo = u8();
        return static_cast<uint16_t>(lo | (u16_t(u8()) << 8));
    }

    uint32_t
    u32()
    {
        const uint32_t lo = u16();
        return lo | (static_cast<uint32_t>(u16()) << 16);
    }

    size_t pos() const { return pos_; }

  private:
    using u16_t = uint16_t;
    std::span<const uint8_t> bytes_;
    size_t pos_ = 0;
};

/** Read a little-endian u32 at an absolute, already-validated offset. */
uint32_t
u32At(std::span<const uint8_t> bytes, size_t at)
{
    return static_cast<uint32_t>(bytes[at]) | (bytes[at + 1] << 8)
        | (bytes[at + 2] << 16)
        | (static_cast<uint32_t>(bytes[at + 3]) << 24);
}

void
putU32At(std::vector<uint8_t> &bytes, size_t at, uint32_t v)
{
    bytes[at] = static_cast<uint8_t>(v);
    bytes[at + 1] = static_cast<uint8_t>(v >> 8);
    bytes[at + 2] = static_cast<uint8_t>(v >> 16);
    bytes[at + 3] = static_cast<uint8_t>(v >> 24);
}

/**
 * Collector for the intra-group index stream. Values are staged
 * byte-wide and bit-packed in one batch through the dispatched
 * kernels::packIdx (LSB-first, the same layout the old bit-at-a-time
 * writer produced), so the serializer's inner loop never touches
 * individual bits.
 */
class BitWriter
{
  public:
    explicit BitWriter(unsigned bits) : bits_(bits) {}

    void put(uint32_t value) { vals_.push_back(static_cast<uint8_t>(value)); }

    /** Pack everything staged so far into the wire byte stream. */
    std::vector<uint8_t>
    packed() const
    {
        std::vector<uint8_t> bytes((vals_.size() * bits_ + 7) / 8, 0);
        kernels::active().packIdx(vals_.data(), vals_.size(), bits_,
                                  bytes.data());
        return bytes;
    }

  private:
    unsigned bits_;
    std::vector<uint8_t> vals_;
};

/**
 * Reader over the index section [start, end): the whole section is
 * bit-unpacked in one batch (kernels::unpackIdx) and consumed value
 * by value. parseHeader has already reconciled the section size
 * against count*bits exactly, but the bound is still re-checked here
 * so a future layout change cannot turn a short section into an
 * out-of-bounds read.
 */
class BitReader
{
  public:
    BitReader(std::span<const uint8_t> bytes, size_t start, size_t end,
              size_t count, unsigned bits)
        : vals_(count)
    {
        if (start > end || end > bytes.size()
            || end - start < (count * static_cast<uint64_t>(bits) + 7) / 8)
            failDecode(DecodeErrorKind::Truncated, end,
                       "index stream truncated");
        kernels::active().unpackIdx(bytes.data() + start, count, bits,
                                    vals_.data());
    }

    uint32_t
    get()
    {
        if (next_ >= vals_.size())
            failDecode(DecodeErrorKind::Truncated, next_,
                       "index stream truncated");
        return vals_[next_++];
    }

  private:
    std::vector<uint8_t> vals_;
    size_t next_ = 0;
};

unsigned
idxBits(size_t m)
{
    unsigned bits = 0;
    while ((1u << bits) < m)
        ++bits;
    return std::max(bits, 1u);
}

/** Header fields plus the derived (size-checked) section map. */
struct ParsedHeader
{
    uint32_t rows = 0;
    uint32_t cols = 0;
    uint32_t m = 0;
    uint32_t groupBlocks = 0;
    std::vector<uint8_t> ladder;
    DdcLayout layout;
};

/**
 * Parse and validate the v2 header and compute the section map. All
 * derived sizes use overflow-checked arithmetic and are reconciled
 * against the actual stream length before anything is allocated, so a
 * hostile header cannot trigger an allocation bomb. Throws DecodeFail.
 */
ParsedHeader
parseHeader(std::span<const uint8_t> bytes)
{
    Reader in(bytes);
    const uint32_t magic = in.u32();
    if (magic == kDdcMagicV1)
        failDecode(DecodeErrorKind::BadVersion, 0,
                   "version 1 stream (no integrity fields); "
                   "re-serialize with the current library");
    if (magic != kDdcMagicV2)
        failDecode(DecodeErrorKind::BadMagic, 0,
                   util::formatStr("bad magic {}", magic));

    ParsedHeader h;
    h.rows = in.u32();
    h.cols = in.u32();
    h.m = in.u32();
    h.groupBlocks = in.u32();
    h.layout.totalValues = in.u32();
    if (h.m == 0 || h.m > kDdcMaxBlockSize)
        failDecode(DecodeErrorKind::GeometryOverflow, 12,
                   util::formatStr("block size {} outside the format's "
                                   "4-bit intra-group index budget",
                                   h.m));
    if (h.groupBlocks == 0)
        failDecode(DecodeErrorKind::GeometryOverflow, 16,
                   "offset group size is zero");
    if (h.rows % h.m != 0 || h.cols % h.m != 0)
        failDecode(DecodeErrorKind::GeometryOverflow, 4,
                   util::formatStr("geometry {}x{} not a multiple of "
                                   "block size {}",
                                   h.rows, h.cols, h.m));

    const uint8_t ladder_size = in.u8();
    if (ladder_size == 0 || ladder_size > 8)
        failDecode(DecodeErrorKind::BadLadder, kFixedHeaderBytes - 1,
                   util::formatStr("candidate ladder size {} outside "
                                   "[1, 8]",
                                   ladder_size));
    h.ladder.resize(ladder_size);
    for (size_t i = 0; i < h.ladder.size(); ++i) {
        h.ladder[i] = in.u8();
        if (h.ladder[i] > h.m)
            failDecode(DecodeErrorKind::BadLadder, in.pos() - 1,
                       util::formatStr("candidate N {} exceeds M {}",
                                       h.ladder[i], h.m));
        if (i > 0 && h.ladder[i] <= h.ladder[i - 1])
            failDecode(DecodeErrorKind::BadLadder, in.pos() - 1,
                       "candidate ladder not strictly increasing");
    }

    // Section map, reconciled against the stream length with checked
    // arithmetic before any allocation happens.
    DdcLayout &lay = h.layout;
    lay.headerCrcAt = in.pos();
    lay.groupBasesAt = lay.headerCrcAt + 4;
    uint64_t blocks = 0;
    uint64_t groups = 0;
    if (!checkedMul(h.rows / h.m, h.cols / h.m, blocks)
        || !checkedAdd(blocks, h.groupBlocks - 1, groups))
        failDecode(DecodeErrorKind::GeometryOverflow, 4,
                   "block count overflows");
    groups /= h.groupBlocks;
    lay.blocks = static_cast<size_t>(blocks);
    lay.groups = static_cast<size_t>(groups);

    const uint64_t values_bytes = uint64_t{lay.totalValues} * 2;
    const uint64_t idx_bytes =
        (uint64_t{lay.totalValues} * idxBits(h.m) + 7) / 8;
    uint64_t bases_bytes = 0;
    uint64_t info_bytes = 0;
    if (!checkedMul(groups, 4, bases_bytes)
        || !checkedMul(blocks, 2, info_bytes))
        failDecode(DecodeErrorKind::GeometryOverflow, 4,
                   "section sizes overflow");
    uint64_t end = lay.groupBasesAt;
    // Each section is followed by its 4-byte CRC32.
    for (const uint64_t section :
         {bases_bytes, info_bytes, values_bytes, idx_bytes}) {
        if (!checkedAdd(end, section, end)
            || !checkedAdd(end, 4, end))
            failDecode(DecodeErrorKind::GeometryOverflow, 4,
                       "section sizes overflow");
    }
    if (end > bytes.size())
        failDecode(DecodeErrorKind::Truncated, bytes.size(),
                   util::formatStr("stream has {} bytes but the header "
                                   "declares {}",
                                   bytes.size(), end));
    if (end < bytes.size())
        failDecode(DecodeErrorKind::PayloadOverrun,
                   static_cast<size_t>(end),
                   util::formatStr("{} trailing bytes after the index "
                                   "section",
                                   bytes.size() - end));
    lay.infoAt = lay.groupBasesAt + lay.groups * 4 + 4;
    lay.valuesAt = lay.infoAt + lay.blocks * 2 + 4;
    lay.indicesAt = lay.valuesAt + static_cast<size_t>(values_bytes) + 4;
    lay.end = static_cast<size_t>(end);
    return h;
}

/** Verify the header CRC and every per-section CRC. Throws DecodeFail. */
void
checkCrcs(std::span<const uint8_t> bytes, const DdcLayout &lay)
{
    struct Section
    {
        const char *name;
        size_t begin;
        size_t end; // CRC32 field lives at `end`.
    };
    const Section sections[] = {
        {"header", 0, lay.headerCrcAt},
        {"group bases", lay.groupBasesAt, lay.infoAt - 4},
        {"info table", lay.infoAt, lay.valuesAt - 4},
        {"values", lay.valuesAt, lay.indicesAt - 4},
        {"indices", lay.indicesAt, lay.end - 4},
    };
    for (const auto &s : sections) {
        const uint32_t stored = u32At(bytes, s.end);
        const uint32_t actual =
            crc32(bytes.subspan(s.begin, s.end - s.begin));
        if (stored != actual)
            failDecode(DecodeErrorKind::ChecksumMismatch, s.end,
                       util::formatStr("{} CRC32 mismatch", s.name));
    }
}

/** Full decode behind the Result boundary. Throws DecodeFail. */
DdcParsed
decodeImpl(std::span<const uint8_t> bytes)
{
    const ParsedHeader h = parseHeader(bytes);
    const DdcLayout &lay = h.layout;
    checkCrcs(bytes, lay);

    DdcParsed out;
    out.meta.m = h.m;
    out.meta.blockRows = h.rows / h.m;
    out.meta.blockCols = h.cols / h.m;
    out.meta.blocks.resize(lay.blocks);

    std::vector<uint32_t> group_base(lay.groups);
    for (size_t g = 0; g < lay.groups; ++g)
        group_base[g] = u32At(bytes, lay.groupBasesAt + g * 4);

    uint64_t running = 0;
    for (size_t b = 0; b < lay.blocks; ++b) {
        const size_t entry_at = lay.infoAt + b * 2;
        const uint16_t entry = static_cast<uint16_t>(
            bytes[entry_at] | (bytes[entry_at + 1] << 8));
        const auto ratio = static_cast<size_t>((entry >> 12) & 0x7);
        if (ratio >= h.ladder.size())
            failDecode(DecodeErrorKind::InfoFieldRange, entry_at,
                       util::formatStr("block {} ratio index {} out of "
                                       "range (ladder has {})",
                                       b, ratio, h.ladder.size()));
        core::BlockInfo &bi = out.meta.blocks[b];
        bi.n = h.ladder[ratio];
        bi.dim = entry & 0x8000 ? SparsityDim::Independent
                                : SparsityDim::Reduction;
        // Validate the offset chain against the group bases.
        const uint32_t offset = entry & 0x0fff;
        const int64_t expect = static_cast<int64_t>(running)
            - group_base[b / h.groupBlocks];
        if (expect != offset)
            failDecode(DecodeErrorKind::OffsetInconsistent, entry_at,
                       util::formatStr("block {} offset {} != expected "
                                       "{}",
                                       b, offset, expect));
        running += uint64_t{bi.n} * h.m;
    }
    if (running != lay.totalValues)
        failDecode(DecodeErrorKind::PayloadOverrun, lay.valuesAt,
                   util::formatStr("info table totals {} payload "
                                   "elements but the header declares "
                                   "{}",
                                   running, lay.totalValues));

    const unsigned bits = idxBits(h.m);
    BitReader idx(bytes, lay.indicesAt, lay.end - 4, lay.totalValues,
                  bits);

    out.matrix = Matrix(h.rows, h.cols);
    out.mask = Mask(h.rows, h.cols);
    size_t cursor = lay.valuesAt;
    for (size_t br = 0; br < out.meta.blockRows; ++br) {
        for (size_t bc = 0; bc < out.meta.blockCols; ++bc) {
            const auto &bi = out.meta.block(br, bc);
            for (size_t g = 0; g < h.m; ++g) {
                // Within a group, non-zero entries must arrive in
                // strictly increasing index order (the serializer's
                // canonical order): an out-of-order or duplicate index
                // would silently overwrite a decoded element.
                int last = -1;
                for (size_t k = 0; k < bi.n; ++k) {
                    const uint16_t half = static_cast<uint16_t>(
                        bytes[cursor] | (bytes[cursor + 1] << 8));
                    cursor += 2;
                    const uint32_t e = idx.get();
                    if (e >= h.m)
                        failDecode(DecodeErrorKind::PayloadOverrun,
                                   cursor - 2,
                                   util::formatStr("intra-group index "
                                                   "{} out of range",
                                                   e));
                    if (half == 0)
                        continue; // Padding (or a dropped +0.0).
                    if (static_cast<int>(e) <= last)
                        failDecode(DecodeErrorKind::OffsetInconsistent,
                                   cursor - 2,
                                   util::formatStr(
                                       "block ({}, {}) group {} index "
                                       "{} not strictly increasing",
                                       br, bc, g, e));
                    last = static_cast<int>(e);
                    const size_t r =
                        bi.dim == SparsityDim::Reduction ? g : e;
                    const size_t c =
                        bi.dim == SparsityDim::Reduction ? e : g;
                    out.matrix.at(br * h.m + r, bc * h.m + c) =
                        util::fp16ToFloat(half);
                    out.mask.at(br * h.m + r, bc * h.m + c) = 1;
                }
            }
        }
    }
    return out;
}

} // namespace

std::vector<uint8_t>
serializeDdc(const Matrix &w, const Mask &mask, const TbsMeta &meta)
{
    const size_t m = meta.m;
    ensure(w.rows() == mask.rows() && w.cols() == mask.cols(),
           "serializeDdc: shape mismatch");
    ensure(w.rows() == meta.blockRows * m && w.cols() == meta.blockCols * m,
           "serializeDdc: metadata grid mismatch");
    if (m == 0 || m > kDdcMaxBlockSize)
        fatal("serializeDdc: block size {} outside the format's 4-bit "
              "intra-group index budget (1 <= m <= {})",
              m, kDdcMaxBlockSize);

    // Candidate ladder: the distinct Ns in use, sorted; the 3-bit
    // ratio field indexes it.
    std::vector<uint8_t> ladder;
    for (const auto &b : meta.blocks)
        ladder.push_back(b.n);
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
    if (ladder.size() > 8)
        fatal("serializeDdc: {} distinct N values exceed the 3-bit "
              "sparsity-ratio field", ladder.size());

    const size_t blocks = meta.blocks.size();
    if (blocks >= uint64_t{1} << 32)
        fatal("serializeDdc: {} blocks exceed the format's 32-bit "
              "geometry fields", blocks);
    const uint32_t group_blocks = offsetGroupBlocks(m);
    const size_t groups = (blocks + group_blocks - 1) / group_blocks;

    // First pass: payload sizes per block -> group bases, offsets, and
    // the total element count the header declares.
    std::vector<uint32_t> group_base(groups, 0);
    std::vector<uint16_t> info(blocks, 0);
    uint32_t total_values = 0;
    {
        uint32_t element = 0;
        uint32_t base = 0;
        for (size_t b = 0; b < blocks; ++b) {
            if (b % group_blocks == 0) {
                base = element;
                group_base[b / group_blocks] = base;
            }
            const auto &bi = meta.blocks[b];
            const uint32_t offset = element - base;
            ensure(offset < 4096,
                   "serializeDdc: group offset overflow (internal)");
            const auto ratio = static_cast<uint16_t>(
                std::lower_bound(ladder.begin(), ladder.end(), bi.n)
                - ladder.begin());
            info[b] = static_cast<uint16_t>(
                (bi.dim == SparsityDim::Independent ? 0x8000u : 0u)
                | (ratio << 12) | offset);
            element += static_cast<uint32_t>(bi.n) * m;
        }
        total_values = element;
    }

    Writer out;
    out.u32(kDdcMagicV2);
    out.u32(static_cast<uint32_t>(w.rows()));
    out.u32(static_cast<uint32_t>(w.cols()));
    out.u32(static_cast<uint32_t>(m));
    out.u32(group_blocks);
    out.u32(total_values);
    out.u8(static_cast<uint8_t>(ladder.size()));
    for (uint8_t n : ladder)
        out.u8(n);
    out.sealCrc(0);

    size_t section_at = out.size();
    for (uint32_t base : group_base)
        out.u32(base);
    out.sealCrc(section_at);

    section_at = out.size();
    for (uint16_t i : info)
        out.u16(i);
    out.sealCrc(section_at);

    // Second pass: values (fp16) and packed intra-group indices, in
    // block walk order; groups run along each block's own dimension.
    const unsigned bits = idxBits(m);
    BitWriter idx(bits);
    section_at = out.size();
    uint32_t emitted_values = 0;
    for (size_t br = 0; br < meta.blockRows; ++br) {
        for (size_t bc = 0; bc < meta.blockCols; ++bc) {
            const auto &bi = meta.block(br, bc);
            for (size_t g = 0; g < m; ++g) {
                size_t count = 0;
                for (size_t e = 0; e < m; ++e) {
                    const size_t r =
                        bi.dim == SparsityDim::Reduction ? g : e;
                    const size_t c =
                        bi.dim == SparsityDim::Reduction ? e : g;
                    if (!mask.at(br * m + r, bc * m + c))
                        continue;
                    if (count >= bi.n)
                        fatal("serializeDdc: group ({}, {})/{} holds "
                              "more than N = {} elements — not a "
                              "valid TBS mask", br, bc, g, bi.n);
                    const uint16_t half = util::fp16FromFloat(
                        w.at(br * m + r, bc * m + c));
                    out.u16(half);
                    idx.put(static_cast<uint32_t>(e));
                    ++count;
                    ++emitted_values;
                }
                for (; count < bi.n; ++count) {
                    // Pad short groups (the TBS search never makes
                    // them, but this keeps the format total-function).
                    out.u16(0);
                    idx.put(0);
                    ++emitted_values;
                }
            }
        }
    }
    ensure(emitted_values == total_values,
           "serializeDdc: pass disagreement (internal)");
    out.sealCrc(section_at);

    section_at = out.size();
    for (uint8_t b : idx.packed())
        out.u8(b);
    out.sealCrc(section_at);
    return out.take();
}

Result<DdcParsed, DecodeError>
tryDeserializeDdc(std::span<const uint8_t> bytes)
{
    try {
        return decodeImpl(bytes);
    } catch (const DecodeFail &f) {
        return unexpected(f.err);
    }
}

Result<DdcLayout, DecodeError>
ddcLayout(std::span<const uint8_t> bytes)
{
    try {
        return parseHeader(bytes).layout;
    } catch (const DecodeFail &f) {
        return unexpected(f.err);
    }
}

bool
ddcFixupCrcs(std::vector<uint8_t> &bytes)
{
    const auto lay = ddcLayout(bytes);
    if (!lay)
        return false;
    const auto seal = [&](size_t begin, size_t end) {
        putU32At(bytes, end,
                 crc32(std::span(bytes).subspan(begin, end - begin)));
    };
    seal(0, lay->headerCrcAt);
    seal(lay->groupBasesAt, lay->infoAt - 4);
    seal(lay->infoAt, lay->valuesAt - 4);
    seal(lay->valuesAt, lay->indicesAt - 4);
    seal(lay->indicesAt, lay->end - 4);
    return true;
}

} // namespace tbstc::format
