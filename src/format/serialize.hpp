/**
 * @file
 * Byte-exact serialization of the DDC storage format (paper Fig. 8).
 *
 * The DdcEncoding class models the format's costs; this module
 * materializes the actual byte stream a DMA engine would fetch
 * (format version 2, "DDC2"):
 *
 *   header      magic/version, matrix geometry, block size, group
 *               size, declared payload element count, the N-candidate
 *               ladder, then a CRC32 of the header bytes
 *   group bases one u32 element base per group of blocks (the paper's
 *               12-bit element offsets address within a group; bases
 *               extend them to arbitrarily large matrices) + CRC32
 *   info table  one 16-bit entry per block:
 *                 bit  15     sparsity dimension (0 row / 1 column)
 *                 bits 14-12  sparsity ratio: index into the
 *                             candidate ladder (the paper's 3-bit
 *                             "Sparsity ratio")
 *                 bits 11-0   element offset within the block's group
 *               + CRC32
 *   values      fp16, exactly N x M per block, group order + CRC32
 *   indices     ceil(log2 M)-bit intra-group positions, bit-packed
 *               + CRC32
 *
 * Values are stored in fp16 (the datapath precision), so serialization
 * round-trips fp16-rounded weights bit-exactly.
 *
 * Ingestion is hardened: tryDeserializeDdc() validates every field
 * with checked arithmetic and returns a structured DecodeError instead
 * of throwing, so a corrupted or hostile stream can never crash,
 * over-allocate, or decode to a silently wrong matrix. Version-1
 * streams (no integrity fields) are rejected with
 * DecodeErrorKind::BadVersion.
 */

#ifndef TBSTC_FORMAT_SERIALIZE_HPP
#define TBSTC_FORMAT_SERIALIZE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "core/pattern.hpp"
#include "format/decode_error.hpp"
#include "util/result.hpp"

namespace tbstc::format {

/** Magic of the unsupported v1 layout (no integrity fields). */
constexpr uint32_t kDdcMagicV1 = 0x31434444; // "DDC1" little-endian.

/** Magic of the current v2 layout (header + per-section CRC32). */
constexpr uint32_t kDdcMagicV2 = 0x32434444; // "DDC2" little-endian.

/**
 * Largest block size m a DDC2 stream holds: intra-group indices are at
 * most 4 bits wide.
 */
constexpr size_t kDdcMaxBlockSize = 16;

/** Result of parsing a serialized DDC stream. */
struct DdcParsed
{
    core::Matrix matrix; ///< Reconstructed (masked, fp16) matrix.
    core::Mask mask;     ///< Kept positions.
    core::TbsMeta meta;  ///< Per-block info recovered from the table.
};

/**
 * Section map of a v2 stream, derived from the header alone (sizes
 * are checked, but no CRC or content validation is performed). Each
 * *At offset names the first byte of a section; every section is
 * followed by its 4-byte CRC32.
 */
struct DdcLayout
{
    size_t headerCrcAt = 0;  ///< Header CRC32 (header spans [0, here)).
    size_t groupBasesAt = 0; ///< u32 per group.
    size_t infoAt = 0;       ///< u16 per block.
    size_t valuesAt = 0;     ///< fp16 payload.
    size_t indicesAt = 0;    ///< Bit-packed intra-group indices.
    size_t end = 0;          ///< One past the final section CRC.
    size_t groups = 0;       ///< Offset-group count.
    size_t blocks = 0;       ///< Info-table entry count.
    uint32_t totalValues = 0; ///< Declared payload element count.
};

/**
 * Serialize a TBS-masked matrix into the DDC byte stream.
 *
 * @param w Weight matrix.
 * @param mask TBS keep-mask (groups must hold exactly N elements, as
 *     core::tryMakeMask produces for TBS; validated).
 * @param meta Block metadata.
 * @note fatal() if the mask violates the metadata or the geometry
 *     cannot be represented (m above kDdcMaxBlockSize, or more blocks
 *     than the 32-bit geometry fields count). Each offset group holds
 *     min(63, floor(4095 / m^2) + 1) blocks, so every block's element
 *     offset fits the info entry's 12 bits at any m the format holds.
 */
std::vector<uint8_t> serializeDdc(const core::Matrix &w,
                                  const core::Mask &mask,
                                  const core::TbsMeta &meta);

/**
 * Parse a DDC byte stream produced by serializeDdc() without ever
 * throwing or aborting: any malformed, truncated, or corrupted input
 * yields a DecodeError naming the failure class and byte offset.
 * All size/offset arithmetic is overflow-checked and every allocation
 * is bounded by the input length, so hostile headers cannot trigger
 * allocation bombs or out-of-bounds access.
 */
util::Result<DdcParsed, DecodeError>
tryDeserializeDdc(std::span<const uint8_t> bytes);

/**
 * Compute the section map of @p bytes from its header. Validates
 * magic/version, geometry ranges, and that the declared sections fit
 * the stream exactly — but not CRCs or section contents, so tooling
 * (fsck reporting, fault injection) can locate sections inside
 * partially corrupted streams.
 */
util::Result<DdcLayout, DecodeError>
ddcLayout(std::span<const uint8_t> bytes);

/**
 * Recompute the header and all section CRC32 fields of @p bytes in
 * place. Used by the fault-injection harness to build streams whose
 * checksums are valid but whose fields are hostile, exercising the
 * structural validators behind the CRC layer.
 *
 * @return false when the stream is too malformed to locate the
 *     sections (the bytes are left untouched).
 */
bool ddcFixupCrcs(std::vector<uint8_t> &bytes);

} // namespace tbstc::format

#endif // TBSTC_FORMAT_SERIALIZE_HPP
