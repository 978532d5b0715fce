/**
 * @file
 * Adaptive codec unit (paper Sec. V-B, Figs. 8(b)/9).
 *
 * Blocks whose N:M sparsity runs along the independent dimension are
 * stored column-compressed (minimal storage) but must be consumed
 * row-grouped (the computation format). The codec unit performs this
 * conversion on the fly with a group of queues indexed by the
 * reduction-dimension index (Rid), a merger network that resolves
 * output conflicts, and a final merge of leftover elements.
 *
 * This model executes the conversion element by element and reports
 * the cycle count, so the simulator can overlap (hide) conversion
 * within the block pipeline exactly as the paper's Fig. 14 does.
 */

#ifndef TBSTC_FORMAT_CODEC_HPP
#define TBSTC_FORMAT_CODEC_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "format/decode_error.hpp"
#include "util/result.hpp"

namespace tbstc::format {

/** One storage-format element entering the codec. */
struct StorageElem
{
    float value = 0.0f;
    uint8_t rid = 0; ///< Reduction-dimension index (row within block).
    uint8_t iid = 0; ///< Independent-dimension index (column).
};

/** Conversion result: computation-format stream plus cycle cost. */
struct CodecOutput
{
    std::vector<float> values;  ///< Emitted values, computation order.
    std::vector<uint8_t> rids;  ///< Row group of each emitted value.
    std::vector<uint8_t> iids;  ///< Column index of each emitted value.
    uint64_t cycles = 0;        ///< Timesteps the conversion occupied.
};

/** Codec unit geometry. */
struct CodecConfig
{
    size_t m = 8;         ///< Block edge; number of queues.
    size_t lanes = 2;     ///< Elements ingested per timestep.
    size_t threshold = 2; ///< Queue occupancy that triggers an output.
};

/**
 * Convert one independent-dimension block from storage format
 * (column-major element order, as DDC stores it) to computation
 * format (row-grouped). See paper Fig. 9(c) for the worked example.
 *
 * The block may be untrusted (e.g. straight off a deserialized
 * stream): an invalid config or an element whose Rid/Iid falls
 * outside the block geometry yields a structured DecodeError, never
 * an abort.
 */
util::Result<CodecOutput, DecodeError>
tryDecodeBlock(const std::vector<StorageElem> &storage,
               const CodecConfig &cfg);

/**
 * Cycle cost of passing a reduction-dimension block through the codec
 * unchanged (no conversion; pure streaming at `lanes` per timestep).
 */
uint64_t passthroughCycles(size_t nnz, const CodecConfig &cfg);

} // namespace tbstc::format

#endif // TBSTC_FORMAT_CODEC_HPP
