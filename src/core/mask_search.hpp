/**
 * @file
 * The one way to produce a sparsity mask.
 *
 * tryMakeMask() validates a MaskRequest once, then switches on the
 * pattern family to its generator (all internal to sparsify.cpp).
 * TBS has one search, paper Algorithm 1: per block, rank-table top-N
 * in each direction, keep the direction with the smaller L1 distance
 * to the unstructured mask. At the block's exact N that choice is
 * already the L1 optimum (docs/mask_search.md), so the strategy
 * vocabulary is closed: "" and "greedy" both name it.
 *
 * Following the try*-primary convention (see serialize.hpp), the
 * function never throws for bad requests: it returns
 * Result<MaskOutput, MaskError> with a machine-readable error kind.
 * patternMask (sparsify.hpp) is its throwing form.
 */

#ifndef TBSTC_CORE_MASK_SEARCH_HPP
#define TBSTC_CORE_MASK_SEARCH_HPP

#include <string>
#include <vector>

#include "matrix.hpp"
#include "pattern.hpp"
#include "sparsify.hpp"
#include "util/result.hpp"

namespace tbstc::core {

/** The one TBS search strategy name (paper Algorithm 1). */
inline constexpr const char *kGreedyStrategy = "greedy";

/**
 * One mask request. `strategy` names the TBS search: "" or "greedy".
 * It is accepted (and ignored) for non-TBS patterns, which each have
 * a single generator; any other name is always an error, so a typo
 * can never silently fall back to greedy. Empty `candidates` means
 * defaultCandidates(m).
 */
struct MaskRequest
{
    Pattern pattern = Pattern::TBS;
    std::string strategy;
    double sparsity = 0.5;
    size_t m = 8;
    std::vector<uint8_t> candidates;
};

/**
 * A produced mask. `meta` carries the per-block (N, dim) grid for TBS
 * and is an empty grid (blocks.empty(), m set) for the other families.
 */
struct MaskOutput
{
    Mask mask;
    TbsMeta meta;
};

/** Machine-readable class of a rejected MaskRequest. */
enum class MaskErrorKind : uint8_t
{
    UnknownStrategy, ///< Strategy is neither "" nor "greedy".
    BadSparsity,     ///< Sparsity outside [0, 1].
    BadBlockSize,    ///< m == 0, or illegal for the pattern (SS: even,
                     ///< 4 <= m <= 256; TBS, RS-V, RS-H: m <= 255).
    NotDivisible,    ///< Matrix does not tile by m as the pattern needs
                     ///< (columns; TBS rows too; never Dense or US).
    BadCandidates,   ///< A candidate N exceeds m.
};

/** Stable name of a MaskErrorKind ("unknown_strategy", ...). */
const char *maskErrorKindName(MaskErrorKind kind);

/** Why a MaskRequest was rejected. */
struct MaskError
{
    MaskErrorKind kind = MaskErrorKind::UnknownStrategy;
    std::string message;
};

/** Whether @p name is a strategy tryMakeMask accepts ("" or "greedy"). */
bool isMaskStrategy(const std::string &name);

/**
 * Validate @p req and produce the mask. The rules, checked in this
 * order: a known strategy, sparsity in [0, 1], m >= 1 (SS: even and
 * 4 <= m <= 256; TBS, RS-V and RS-H, whose per-block or per-tile N
 * is a uint8_t: m <= 255), columns divisible by m (TBS: rows too; Dense and US
 * have no tiles, so no tiling rule), and every candidate N <= m.
 * Errors come back as a MaskError instead of a thrown FatalError.
 */
util::Result<MaskOutput, MaskError> tryMakeMask(const Matrix &scores,
                                                const MaskRequest &req);

} // namespace tbstc::core

#endif // TBSTC_CORE_MASK_SEARCH_HPP
