/**
 * @file
 * Mask validators, and patternMask: the throwing form of tryMakeMask.
 *
 * Every mask, whatever its pattern family, comes from
 * core::tryMakeMask (mask_search.hpp). Its generators, including the
 * paper's Algorithm 1 (TBS sparsification), are internal to
 * sparsify.cpp; docs/patterns.md describes each family's.
 */

#ifndef TBSTC_CORE_SPARSIFY_HPP
#define TBSTC_CORE_SPARSIFY_HPP

#include <span>

#include "matrix.hpp"
#include "pattern.hpp"

namespace tbstc::core {

/**
 * tryMakeMask({p, "", sparsity, m, candidates}).mask, throwing
 * util::FatalError with the MaskError's message when the request is
 * invalid. Empty @p candidates means defaultCandidates(m).
 */
Mask patternMask(Pattern p, const Matrix &scores, double sparsity,
                 size_t m, std::span<const uint8_t> candidates);

/**
 * Verify the structural invariant of a TBS mask against its metadata:
 * every block group (row or column per its dim) has at most N non-zeros.
 * @return true when the mask is a valid TBS mask.
 */
bool validateTbs(const Mask &mask, const TbsMeta &meta);

/** Verify a tile-wise N:M constraint over all row tiles. */
bool validateTs(const Mask &mask, size_t n, size_t m);

/**
 * Verify the SlideSparse invariant: m is even and >= 4, columns tile
 * by m, and every aligned m-element row tile keeps at most m-2
 * elements.
 */
bool validateSlideSparse(const Mask &mask, size_t m);

} // namespace tbstc::core

#endif // TBSTC_CORE_SPARSIFY_HPP
