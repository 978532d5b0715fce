/**
 * @file
 * Synthetic weight/activation generation.
 *
 * The paper profiles pruned checkpoints of public models; we cannot
 * ship weights, so each layer's weights are drawn from a heavy-tailed
 * Gaussian scale mixture — the magnitude distribution regime in which
 * magnitude-based mask selection behaves like it does on trained DNNs
 * (most weights small, a minority dominant). Generation is keyed by
 * (layer name, seed) so every bench sees identical matrices.
 */

#ifndef TBSTC_WORKLOAD_SYNTH_HPP
#define TBSTC_WORKLOAD_SYNTH_HPP

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "models.hpp"
#include "util/rng.hpp"

namespace tbstc::workload {

/** Deterministic 64-bit hash of a string (FNV-1a). */
uint64_t nameHash(const std::string &name);

/**
 * Synthesize weights for @p shape (rows = x, cols = y), optionally
 * row-sampled to at most @p max_rows rows (0 = no cap). Layers of more
 * than detail::kSynthChunkElements elements fill their rows in chunks
 * on the thread pool; the matrix is bit-identical to one serial pass
 * of the generator at any thread count.
 */
core::Matrix synthWeights(const GemmShape &shape, uint64_t seed,
                          uint64_t max_rows = 0);

/**
 * core::magnitudeScores(synthWeights(@p shape, @p seed, @p max_rows)),
 * bit for bit, shared with every concurrent caller asking for the same
 * inputs. Profiles read only |w|: the mask search ranks magnitudes,
 * and the stream profile depends on the mask alone, so the signed
 * weights are never materialized.
 * Single-flight: the first caller for a key synthesizes (outside any
 * lock); a later caller that arrives while it is in flight claims and
 * fills the flight's unfilled row chunks, then shares the one result.
 * If synthesis throws, every waiter gets the same exception.
 * Nothing is retained: the process-wide map holds only a weak
 * reference, so a layer lives exactly as long as its last holder and
 * the next caller after that synthesizes again.
 */
std::shared_ptr<const core::Matrix> synthShared(const GemmShape &shape,
                                                uint64_t seed,
                                                uint64_t max_rows = 0);

namespace detail {

/** A layer of at most this many elements is synthesized as one chunk. */
inline constexpr uint64_t kSynthChunkElements = uint64_t{1} << 18;

/**
 * The serial part of synthWeights and its row-chunk geometry. The
 * column scales are drawn up front; the rows are then split into
 * chunks of chunkRows rows (a multiple of 8, so each chunk starts on
 * a row-block refresh, and at least kSynthChunkElements elements).
 * Chunk k's generator state follows from rng by a closed-form draw
 * count and one Rng::jump, so chunks fill in any order.
 */
struct SynthPlan
{
    /** What a fill writes: the weights w, or their magnitudes |w|. */
    enum class Output { Weights, Magnitudes };

    SynthPlan(const GemmShape &shape, uint64_t seed, uint64_t max_rows);

    uint64_t rows = 0;
    uint64_t cols = 0;
    uint64_t chunkRows = 0;
    std::vector<double> colScale;
    std::vector<double> colBlockScale; ///< One per 8 columns.
    util::Rng rng; ///< Generator state before row 0.

    size_t chunks() const;

    /** Generator state before chunk @p k's first row. */
    util::Rng chunkStart(size_t k) const;

    /**
     * Fill chunk @p k's rows of the row-major rows x cols buffer @p out
     * with @p what, drawing from @p gen. Each magnitude is std::fabs of
     * the float weight, as core::magnitudeScores computes it. Returns
     * the generator state after the chunk's last row.
     */
    util::Rng fill(size_t k, util::Rng gen, float *out, Output what) const;
};

/**
 * Make a chunked fill exact. @p starts[k] is the state chunk k was
 * filled from and @p ends[k] the state it ended in. Chunk 0 is right
 * iff starts[0] == plan.rng, and chunk k + 1 iff chunk k is and
 * starts[k + 1] == ends[k]; from the first wrong chunk on, every chunk
 * is refilled serially from the true state into @p out (with
 * @p what, as the chunks were filled). Returns the first
 * refilled chunk, or plan.chunks() when the fill was already exact.
 */
size_t settleChunks(const SynthPlan &plan, std::span<const util::Rng> starts,
                    std::span<const util::Rng> ends, float *out,
                    SynthPlan::Output what);

} // namespace detail

/** Synthesize a calibration activation batch (samples x features). */
core::Matrix synthActivations(uint64_t samples, uint64_t features,
                              uint64_t seed);

} // namespace tbstc::workload

#endif // TBSTC_WORKLOAD_SYNTH_HPP
