/**
 * @file
 * Test shorthand for core::tryMakeMask, the one mask entry point.
 */

#ifndef TBSTC_TESTS_MASK_UTIL_HPP
#define TBSTC_TESTS_MASK_UTIL_HPP

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/mask_search.hpp"

namespace tbstc::testutil {

/**
 * tryMakeMask({pattern, "", sparsity, m, candidates}); an invalid
 * request throws std::runtime_error, which fails the calling test.
 * Empty @p candidates means defaultCandidates(m).
 */
inline core::MaskOutput
makeMask(core::Pattern pattern, const core::Matrix &scores,
         double sparsity, size_t m = 8,
         std::vector<uint8_t> candidates = {})
{
    core::MaskRequest req;
    req.pattern = pattern;
    req.sparsity = sparsity;
    req.m = m;
    req.candidates = std::move(candidates);
    auto res = core::tryMakeMask(scores, req);
    if (!res)
        throw std::runtime_error(res.error().message);
    return std::move(*res);
}

/** makeMask(...).mask. */
inline core::Mask
maskOf(core::Pattern pattern, const core::Matrix &scores, double sparsity,
       size_t m = 8, std::vector<uint8_t> candidates = {})
{
    return makeMask(pattern, scores, sparsity, m, std::move(candidates))
        .mask;
}

} // namespace tbstc::testutil

#endif // TBSTC_TESTS_MASK_UTIL_HPP
