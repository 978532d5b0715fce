/**
 * @file
 * Validated mask-search surface.
 *
 * tryMakeMask() is the primary entry point for producing a sparsity
 * mask: it validates a MaskRequest and dispatches the pattern family
 * to its generator. TBS has one search, paper Algorithm 1 (tbsMask):
 * per block, rank-table top-N in each direction, keep the direction
 * with the smaller L1 distance to the unstructured mask. At the
 * block's exact N that choice is already the L1 optimum
 * (docs/mask_search.md), so the strategy vocabulary is closed: "" and
 * "greedy" both name it.
 *
 * Following the try*-primary convention (see serialize.hpp), the
 * function never throws for bad requests: it returns
 * Result<MaskOutput, MaskError> with a machine-readable error kind.
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
 * A produced mask plus what the search learned on the way. `meta`
 * carries the per-block (N, dim) grid for TBS and is an empty grid
 * (blocks.empty()) for the other families; `usHamming` is the L1
 * distance to the same-sparsity unstructured mask for every family.
 */
struct MaskOutput
{
    Mask mask;
    TbsMeta meta;
    size_t usHamming = 0;
};

/** Machine-readable class of a rejected MaskRequest. */
enum class MaskErrorKind : uint8_t
{
    UnknownStrategy, ///< Strategy is neither "" nor "greedy".
    BadSparsity,     ///< Sparsity outside [0, 1].
    BadBlockSize,    ///< m == 0, or illegal for the pattern (SS parity).
    NotDivisible,    ///< Matrix does not tile by m as the pattern needs.
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
 * Validate @p req and produce the mask. See the file comment for the
 * dispatch semantics; errors come back as a MaskError instead of a
 * thrown FatalError.
 */
util::Result<MaskOutput, MaskError> tryMakeMask(const Matrix &scores,
                                                const MaskRequest &req);

} // namespace tbstc::core

#endif // TBSTC_CORE_MASK_SEARCH_HPP
