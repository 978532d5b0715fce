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
#include <string>

#include "core/matrix.hpp"
#include "models.hpp"

namespace tbstc::workload {

/** Deterministic 64-bit hash of a string (FNV-1a). */
uint64_t nameHash(const std::string &name);

/**
 * Synthesize weights for @p shape (rows = x, cols = y), optionally
 * row-sampled to at most @p max_rows rows (0 = no cap).
 */
core::Matrix synthWeights(const GemmShape &shape, uint64_t seed,
                          uint64_t max_rows = 0);

/** One layer's synthesized weights and their magnitude scores. */
struct SynthLayer
{
    core::Matrix w;
    core::Matrix scores; ///< core::magnitudeScores(w).
};

/**
 * synthWeights(@p shape, @p seed, @p max_rows) and its magnitude
 * scores, shared with every concurrent caller asking for the same
 * inputs. Single-flight: the first caller for a key synthesizes
 * (outside any lock) while later callers wait for and share its
 * result; if synthesis throws, every waiter gets the same exception.
 * Nothing is retained: the process-wide map holds only a weak
 * reference, so a layer lives exactly as long as its last holder and
 * the next caller after that synthesizes again. Serial callers
 * therefore compute exactly what synthWeights + magnitudeScores do.
 */
std::shared_ptr<const SynthLayer> synthShared(const GemmShape &shape,
                                              uint64_t seed,
                                              uint64_t max_rows = 0);

/** Synthesize a calibration activation batch (samples x features). */
core::Matrix synthActivations(uint64_t samples, uint64_t features,
                              uint64_t seed);

} // namespace tbstc::workload

#endif // TBSTC_WORKLOAD_SYNTH_HPP
