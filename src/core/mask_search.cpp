#include "mask_search.hpp"

#include "util/fmt.hpp"
#include "util/logging.hpp"

namespace tbstc::core {

using util::unexpected;

namespace {

util::Unexpected<MaskError>
fail(MaskErrorKind kind, std::string message)
{
    return unexpected(MaskError{kind, std::move(message)});
}

} // namespace

const char *
maskErrorKindName(MaskErrorKind kind)
{
    switch (kind) {
      case MaskErrorKind::UnknownStrategy: return "unknown_strategy";
      case MaskErrorKind::BadSparsity:     return "bad_sparsity";
      case MaskErrorKind::BadBlockSize:    return "bad_block_size";
      case MaskErrorKind::NotDivisible:    return "not_divisible";
      case MaskErrorKind::BadCandidates:   return "bad_candidates";
    }
    util::panic("unknown MaskErrorKind");
}

bool
isMaskStrategy(const std::string &name)
{
    return name.empty() || name == kGreedyStrategy;
}

util::Result<MaskOutput, MaskError>
tryMakeMask(const Matrix &scores, const MaskRequest &req)
{
    // Check the strategy even for non-TBS patterns: a typo'd strategy
    // must never silently degrade to the default.
    if (!isMaskStrategy(req.strategy))
        return fail(MaskErrorKind::UnknownStrategy,
                    util::formatStr("unknown mask strategy \"{}\"",
                                    req.strategy));

    if (!(req.sparsity >= 0.0 && req.sparsity <= 1.0))
        return fail(MaskErrorKind::BadSparsity,
                    util::formatStr("sparsity {} is outside [0, 1]",
                                    req.sparsity));
    if (req.m == 0)
        return fail(MaskErrorKind::BadBlockSize, "block size m is 0");
    if (req.pattern == Pattern::SS && (req.m < 4 || req.m % 2 != 0))
        return fail(
            MaskErrorKind::BadBlockSize,
            util::formatStr(
                "SlideSparse requires an even block size >= 4; got {}",
                req.m));

    const bool blockwise = req.pattern == Pattern::TBS;
    if (scores.cols() % req.m != 0
        || (blockwise && scores.rows() % req.m != 0))
        return fail(MaskErrorKind::NotDivisible,
                    util::formatStr(
                        "matrix {}x{} does not tile by m = {} as {} "
                        "requires; pad the workload first",
                        scores.rows(), scores.cols(), req.m,
                        patternName(req.pattern)));

    std::vector<uint8_t> candidates = req.candidates;
    if (candidates.empty())
        candidates = defaultCandidates(req.m);
    for (const uint8_t c : candidates) {
        if (c > req.m)
            return fail(MaskErrorKind::BadCandidates,
                        util::formatStr(
                            "candidate N = {} exceeds block size m = {}",
                            c, req.m));
    }

    MaskOutput out;
    if (req.pattern == Pattern::TBS) {
        TbsResult r = tbsMask(scores, req.sparsity, req.m, candidates);
        out.mask = std::move(r.mask);
        out.meta = std::move(r.meta);
        out.usHamming = r.usHamming;
        return out;
    }
    // Single-generator families: the strategy has nothing to select.
    // Dense skips the Pattern::Dense sparsity==0 mismatch question
    // entirely: its mask keeps everything.
    out.mask = patternMask(req.pattern, scores, req.sparsity, req.m,
                           candidates);
    out.meta.m = req.m;
    out.usHamming =
        out.mask.hamming(usMask(scores, req.sparsity));
    return out;
}

} // namespace tbstc::core
