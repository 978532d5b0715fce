/**
 * @file
 * Mask generators for every sparsity-pattern family, including the
 * paper's Algorithm 1 (TBS sparsification).
 *
 * All generators take a saliency score matrix (see prune.hpp) and a
 * target sparsity degree, and return a keep-mask that satisfies the
 * pattern's structural constraints while matching the target as closely
 * as the candidate N set permits.
 *
 * Matrix dimensions must be multiples of the block size M; hardware
 * (and our workload layer) pads shapes to the block grid, exactly as
 * real tensor-core kernels do.
 *
 * These generators expect validated inputs; tryMakeMask in
 * mask_search.hpp validates a request and reports structured errors
 * before calling them.
 */

#ifndef TBSTC_CORE_SPARSIFY_HPP
#define TBSTC_CORE_SPARSIFY_HPP

#include <span>

#include "matrix.hpp"
#include "pattern.hpp"

namespace tbstc::core {

/** TBS sparsification output: the mask plus per-block (N, dim) info. */
struct TbsResult
{
    Mask mask;
    TbsMeta meta;
    /**
     * Hamming distance between the TBS mask and the unstructured mask
     * of Algorithm 1 step 1 — a free by-product of the per-block
     * direction scoring. workload::maskSimilarity derives the paper's
     * mask-similarity metric from it without re-running usMask.
     */
    size_t usHamming = 0;
};

/** Unstructured mask: keep the global top-k scores. */
Mask usMask(const Matrix &scores, double sparsity);

/**
 * Tile-wise N:M mask (NVIDIA STC style): every M-element row tile keeps
 * its top @p n scores. 4:8 reproduces STC's supported pattern.
 */
Mask tsMask(const Matrix &scores, size_t n, size_t m);

/**
 * Row-wise N:M with per-row N (VEGETA). Each row picks the candidate N
 * closest to its unstructured density; a global largest-remainder pass
 * nudges rows so the whole matrix hits the target sparsity.
 */
Mask rsvMask(const Matrix &scores, double sparsity, size_t m,
             std::span<const uint8_t> candidates);

/**
 * Row-wise hierarchical N:M (HighLight). Each super-group of M row
 * tiles keeps T of its M tiles (tile-level N:M), and surviving tiles
 * keep N0 of M elements, with (T, N0) chosen per super-group to match
 * its unstructured density.
 */
Mask rshMask(const Matrix &scores, double sparsity, size_t m,
             std::span<const uint8_t> candidates);

/**
 * Transposable block-wise N:M (paper Algorithm 1):
 *  1. unstructured prune to the target sparsity;
 *  2. per M x M block, choose N from @p candidates nearest the block's
 *     unstructured density (with a global balance pass so the matrix
 *     hits the target);
 *  3. per block, build the reduction-direction mask (top-N per row) and
 *     the independent-direction mask (top-N per column) and keep the one
 *     with the smaller L1 distance to the unstructured block mask.
 *
 * The unstructured mask is a global top-k under the same (score desc,
 * index asc) order as the per-group top-N, so each group's top-N holds
 * min(us_g, N) unstructured survivors. Step 3's distance is therefore
 * N*m + us_nnz - 2*sum_g min(us_g, N), the minimum over every mask
 * keeping exactly N per group in that direction.
 */
TbsResult tbsMask(const Matrix &scores, double sparsity, size_t m,
                  std::span<const uint8_t> candidates);

/**
 * SlideSparse (2N-2):2N mask (arxiv 2603.05232), with m = 2N. Every
 * m-element row tile keeps at most m-2 elements; the per-tile keep
 * count is chosen from the contiguous 0..m-2 ladder nearest the tile's
 * unstructured density, with the usual global largest-remainder pass
 * toward the target. Requires an even m >= 4; targets sparser than
 * 2/m are unreachable (the cap bites) and the mask saturates at m-2
 * per tile.
 */
Mask ssMask(const Matrix &scores, double sparsity, size_t m);

/** Per-tile candidate keep counts of SlideSparse: {0, 1, ..., m-2}. */
std::vector<uint8_t> slideSparseCandidates(size_t m);

/**
 * Dispatch by pattern family. TS derives its fixed N from the target
 * density (e.g. 50% -> 4:8); Dense returns an all-keep mask.
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
