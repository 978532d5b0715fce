#include "profile_builder.hpp"

#include <algorithm>
#include <optional>

#include "core/mask_search.hpp"
#include "obs/obs.hpp"
#include "synth.hpp"
#include "util/contentstore.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace tbstc::workload {

using core::Mask;
using core::Matrix;
using core::Pattern;
using core::SparsityDim;
using core::TbsMeta;
using sim::BlockTask;
using sim::LayerProfile;

core::TbsMeta
deriveMeta(const Mask &mask, size_t m)
{
    util::ensure(mask.rows() % m == 0 && mask.cols() % m == 0,
                 "deriveMeta requires block-divisible mask");
    TbsMeta meta;
    meta.m = m;
    meta.blockRows = mask.rows() / m;
    meta.blockCols = mask.cols() / m;
    meta.blocks.resize(meta.blockRows * meta.blockCols);
    for (size_t br = 0; br < meta.blockRows; ++br) {
        for (size_t bc = 0; bc < meta.blockCols; ++bc) {
            size_t max_row = 0;
            for (size_t r = 0; r < m; ++r)
                max_row = std::max(max_row,
                                   mask.rangeNnz(br * m + r, bc * m, m));
            meta.block(br, bc) = {static_cast<uint8_t>(max_row),
                                  SparsityDim::Reduction};
        }
    }
    return meta;
}

std::vector<uint8_t>
serializeProfile(const LayerProfile &p)
{
    util::ByteWriter w;
    w.u64(p.x);
    w.u64(p.y);
    w.u64(p.nb);
    w.u64(p.m);
    w.u64(p.aNnz);
    w.f64(p.sampleScale);
    w.u64(p.aStream.payloadBytes);
    w.u64(p.aStream.usefulBytes);
    w.u64(p.aStream.segments);
    w.u64(p.blocks.size());
    for (const BlockTask &b : p.blocks) {
        w.u16(b.nnz);
        w.u8(b.n);
        w.u8(b.independentDim ? 1 : 0);
        w.u8(b.nonemptyRows);
    }
    return w.bytes();
}

namespace {

/**
 * Content key of one profile build. Every ProfileSpec field feeds the
 * hash (the build is a pure function of the spec), plus a schema tag
 * so a payload-layout change can never be misread by an older binary.
 */
uint64_t
profileCacheKey(const ProfileSpec &spec)
{
    util::Hasher h;
    // v3: "" and "greedy" name one mask search and hash as one key
    // (under v2 each spelling built and stored its own copy).
    h.str("tbstc.cache.profile.v3");
    h.str(spec.shape.name);
    h.u64(spec.shape.x).u64(spec.shape.y).u64(spec.shape.nb);
    h.u64(static_cast<uint64_t>(spec.pattern));
    h.f64(spec.sparsity);
    h.u64(spec.m);
    h.str(spec.maskStrategy.empty() ? core::kGreedyStrategy
                                    : spec.maskStrategy);
    h.u64(static_cast<uint64_t>(spec.fmt));
    h.u64(spec.densifyIndependent ? 1 : 0);
    h.u64(spec.seed);
    h.u64(spec.maxElements);
    return h.digest();
}

std::optional<LayerProfile>
deserializeProfile(std::span<const uint8_t> bytes)
{
    util::ByteReader r(bytes);
    LayerProfile p;
    p.x = r.u64();
    p.y = r.u64();
    p.nb = r.u64();
    p.m = r.u64();
    p.aNnz = r.u64();
    p.sampleScale = r.f64();
    p.aStream.payloadBytes = r.u64();
    p.aStream.usefulBytes = r.u64();
    p.aStream.segments = r.u64();
    const uint64_t blocks = r.u64();
    if (!r.ok() || blocks > bytes.size()) // Each block is >= 1 byte.
        return std::nullopt;
    p.blocks.resize(blocks);
    for (auto &b : p.blocks) {
        b.nnz = r.u16();
        b.n = r.u8();
        b.independentDim = r.u8() != 0;
        b.nonemptyRows = r.u8();
    }
    if (!r.done())
        return std::nullopt;
    return p;
}

LayerProfile buildLayerProfileUncached(const ProfileSpec &spec);

} // namespace

LayerProfile
buildLayerProfile(const ProfileSpec &spec)
{
    util::ContentStore &store = util::ContentStore::instance();
    if (!store.enabled())
        return buildLayerProfileUncached(spec);
    const uint64_t key = profileCacheKey(spec);
    auto [bytes, outcome] = store.getOrCompute(
        "profile", key,
        [&] { return serializeProfile(buildLayerProfileUncached(spec)); });
    if (obs::metricsEnabled()) {
        static const util::CacheCounters counters("profile");
        counters.count(outcome);
    }
    if (auto profile = deserializeProfile(bytes))
        return std::move(*profile);
    // Defensive: an undecodable payload (e.g. a hash collision across
    // schema revisions) falls back to a fresh build.
    util::warn("profile cache payload undecodable; rebuilding");
    return buildLayerProfileUncached(spec);
}

namespace {

LayerProfile
buildLayerProfileUncached(const ProfileSpec &spec)
{
    const size_t m = spec.m;
    const GemmShape &shape = spec.shape;

    // Row-sample huge layers on the block grid.
    uint64_t rows = shape.x;
    if (spec.maxElements > 0 && shape.x * shape.y > spec.maxElements) {
        rows = std::max<uint64_t>(m,
                                  spec.maxElements / shape.y / m * m);
    }
    // A block's N and nonempty-row count are 8-bit and its nnz 16-bit
    // (core::BlockInfo, sim::BlockTask): from m = 256 on, a dense block
    // wraps them in every family.
    if (m > 255)
        util::fatal("block size m = {} exceeds the profile's 8-bit block "
                    "fields (m <= 255)",
                    m);
    // Every family's block grid (TBS's own, the others' derived meta)
    // needs whole m x m blocks: one check, one message, before paying
    // for synthesis.
    if (m == 0 || rows % m != 0 || shape.y % m != 0)
        util::fatal("weight matrix {}x{} does not tile by m = {}; pad "
                    "the workload first",
                    shape.x, shape.y, m);
    const double scale =
        static_cast<double>(shape.x) / static_cast<double>(rows);

    // Every accelerator building this layer at the same time shares
    // one synthesis (the weights depend only on shape and seed). The
    // profile reads only |w|: the mask ranks it, and the stream
    // profile is a function of the mask.
    const auto shared = synthShared(shape, spec.seed, rows);
    const Matrix &scores = *shared;

    core::MaskRequest req;
    req.pattern = spec.pattern;
    req.strategy = spec.maskStrategy;
    req.sparsity = spec.sparsity;
    req.m = m;
    auto res = core::tryMakeMask(scores, req);
    if (!res)
        util::fatal("mask search failed: {}", res.error().message);
    Mask mask = std::move(res->mask);
    // Only TBS carries its block grid; every other family's is read
    // back from the mask.
    TbsMeta meta = spec.pattern == Pattern::TBS ? std::move(res->meta)
                                                : deriveMeta(mask, m);

    if (spec.densifyIndependent) {
        // Hardware without codec/MBD support cannot exploit (or even
        // index) independent-dimension blocks; they fall back to dense.
        for (size_t br = 0; br < meta.blockRows; ++br) {
            for (size_t bc = 0; bc < meta.blockCols; ++bc) {
                auto &info = meta.block(br, bc);
                if (info.dim == SparsityDim::Independent && info.n > 0
                    && info.n < m) {
                    info = {static_cast<uint8_t>(m),
                            SparsityDim::Reduction};
                    for (size_t r = 0; r < m; ++r)
                        for (size_t c0 = 0; c0 < m; c0 += 64)
                            mask.setRowBits(br * m + r, bc * m + c0,
                                            std::min<size_t>(64, m - c0),
                                            ~uint64_t{0});
                }
            }
        }
    }

    // Block tasks.
    LayerProfile profile;
    profile.x = shape.x;
    profile.y = shape.y;
    profile.nb = shape.nb;
    profile.m = m;
    profile.sampleScale = scale;
    profile.aNnz = mask.nnz();
    // Per-block task derivation only reads the (frozen) mask and
    // writes its own slot — scan blocks in parallel.
    profile.blocks.resize(meta.blocks.size());
    util::parallelFor(
        meta.blocks.size(), 0, [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
            const size_t br = u / meta.blockCols;
            const size_t bc = u % meta.blockCols;
            const auto &info = meta.block(br, bc);
            BlockTask task;
            size_t nnz = 0;
            size_t nonempty = 0;
            for (size_t r = 0; r < m; ++r) {
                const size_t row_nnz = mask.rangeNnz(br * m + r, bc * m, m);
                nnz += row_nnz;
                nonempty += row_nnz > 0;
            }
            task.nnz = static_cast<uint16_t>(nnz);
            task.n = info.n;
            task.nonemptyRows = static_cast<uint8_t>(nonempty);
            task.independentDim = info.dim == SparsityDim::Independent
                && info.n > 0 && info.n < m;
            profile.blocks[u] = task;
        }
    });

    profile.aStream = format::streamProfile(spec.fmt, mask, meta);
    return profile;
}

} // namespace

} // namespace tbstc::workload
