#include "replay.hpp"

#include <algorithm>

#include "common.hpp"
#include "core/mask_search.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "format/serialize.hpp"
#include "util/contentstore.hpp"
#include "util/crc32.hpp"
#include "workload/synth.hpp"

namespace perfbench {

using namespace tbstc;
using core::Pattern;
using format::StorageFormat;

namespace {

/** Row cap of the sparsify path (serve/exec.cpp, kSparsifyMaxRows). */
constexpr uint64_t kSparsifyMaxRows = 4096;

/** Stage time replayed inside replay.layer, and the real call's time. */
double gStageMs = 0.0;
double gProfileMs = 0.0;

const char *
patternKey(Pattern p)
{
    switch (p) {
      case Pattern::Dense: return "dense";
      case Pattern::US:    return "us";
      case Pattern::TS:    return "ts";
      case Pattern::RSV:   return "rsv";
      case Pattern::RSH:   return "rsh";
      case Pattern::TBS:   return "tbs";
      case Pattern::SS:    return "ss";
    }
    return "unknown";
}

const char *
formatKey(StorageFormat f)
{
    switch (f) {
      case StorageFormat::Dense:  return "dense";
      case StorageFormat::SDC:    return "sdc";
      case StorageFormat::CSR:    return "csr";
      case StorageFormat::DDC:    return "ddc";
      case StorageFormat::Bitmap: return "bitmap";
    }
    return "unknown";
}

/** Run @p fn inside a Span and add its wall time to @p acc (ms). */
template <typename Fn>
auto
stage(const std::string &name, uint64_t id, double &acc, Fn fn)
{
    const Span span(name, id);
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += msSince(t0);
    } else {
        auto out = fn();
        acc += msSince(t0);
        return out;
    }
}

} // namespace

UncachedScope::UncachedScope()
    : saved_(util::ContentStore::instance().enabled())
{
    util::ContentStore::instance().setEnabled(false);
}

UncachedScope::~UncachedScope()
{
    util::ContentStore::instance().setEnabled(saved_);
}

workload::ProfileSpec
layerSpec(accel::AccelKind kind, const workload::GemmShape &shape,
          double sparsity, uint64_t seed, const std::string &strategy)
{
    // Mirrors accel::runLayer's spec construction for a plain request.
    const Pattern pattern = accel::accelPattern(kind);
    workload::ProfileSpec spec;
    spec.shape = shape;
    spec.pattern = pattern;
    spec.sparsity = kind == accel::AccelKind::STC ? 0.5 : sparsity;
    spec.maskStrategy = strategy;
    spec.fmt = accel::accelFormat(kind);
    spec.densifyIndependent =
        pattern == Pattern::TBS && !accel::supportsIndependentDim(kind);
    spec.seed = seed;
    return spec;
}

void
replayLayer(accel::AccelKind kind, const workload::ProfileSpec &spec,
            uint64_t id)
{
    const Span outer("replay.layer", id);
    const size_t m = spec.m;
    const auto &shape = spec.shape;
    uint64_t rows = shape.x;
    if (spec.maxElements > 0 && shape.x * shape.y > spec.maxElements)
        rows = std::max<uint64_t>(m, spec.maxElements / shape.y / m * m);

    double stages = 0.0;
    const core::Matrix w = stage("workload.synth", id, stages, [&] {
        return workload::synthWeights(shape, spec.seed, rows);
    });
    const core::Matrix scores = stage("core.scores", id, stages, [&] {
        return core::magnitudeScores(w);
    });
    const auto cand = core::defaultCandidates(m);
    core::Mask mask;
    core::TbsMeta meta;
    const std::string maskSpan =
        std::string("core.mask.") + patternKey(spec.pattern);
    if (spec.pattern == Pattern::TBS) {
        core::MaskRequest req;
        req.pattern = Pattern::TBS;
        req.strategy = spec.maskStrategy;
        req.sparsity = spec.sparsity;
        req.m = m;
        req.candidates = cand;
        auto res = stage(maskSpan, id, stages,
                         [&] { return core::tryMakeMask(scores, req); });
        if (res) {
            mask = std::move(res->mask);
            meta = std::move(res->meta);
        }
    } else {
        mask = stage(maskSpan, id, stages, [&] {
            return core::patternMask(spec.pattern, scores, spec.sparsity,
                                     m, cand);
        });
        meta = stage("workload.derive_meta", id, stages,
                     [&] { return workload::deriveMeta(mask, m); });
    }
    stage(std::string("format.encode.") + formatKey(spec.fmt), id, stages,
          [&] {
              std::unique_ptr<format::Encoding> enc;
              switch (spec.fmt) {
                case StorageFormat::Dense:
                  enc = format::encodeDense(w);
                  break;
                case StorageFormat::SDC:
                  enc = format::encodeSdc(w, mask);
                  break;
                case StorageFormat::CSR:
                  enc = format::encodeCsr(w, mask);
                  break;
                case StorageFormat::DDC:
                  enc = format::encodeDdc(w, mask, meta);
                  break;
                case StorageFormat::Bitmap:
                  enc = format::encodeBitmap(w, mask);
                  break;
              }
              return enc->streamProfile(m);
          });

    const UncachedScope uncached;
    double profileMs = 0.0;
    const sim::LayerProfile profile =
        stage("workload.profile", id, profileMs,
              [&] { return workload::buildLayerProfile(spec); });
    double simMs = 0.0;
    stage("sim.simulate", id, simMs, [&] {
        return sim::simulateLayer(profile, accel::accelConfig(kind));
    });
    gStageMs += stages;
    gProfileMs += profileMs;
}

void
replaySparsify(const serve::SparsifySpec &spec, uint64_t id)
{
    const Span outer("replay.sparsify", id);
    const auto shape = serve::tryParseLayer(spec.layer, "cli.formats");
    if (!shape)
        return;
    double unused = 0.0;
    const core::Matrix w = stage("workload.synth", id, unused, [&] {
        return workload::synthWeights(*shape, spec.seed, kSparsifyMaxRows);
    });
    const core::Matrix scores = stage("core.scores", id, unused, [&] {
        return core::magnitudeScores(w);
    });
    core::MaskRequest req;
    req.pattern = Pattern::TBS;
    req.strategy = spec.strategy;
    req.sparsity = spec.sparsity;
    req.m = static_cast<size_t>(spec.m);
    const auto tbs = stage("core.mask.tbs", id, unused,
                           [&] { return core::tryMakeMask(scores, req); });
    if (!tbs)
        return;
    const auto bytes = stage("format.serialize_ddc", id, unused, [&] {
        return format::serializeDdc(w, tbs->mask, tbs->meta);
    });
    stage("util.crc32", id, unused, [&] { return util::crc32(bytes); });
}

std::map<std::string, double>
stageMetrics()
{
    static const char *kStages[] = {
        "workload.synth", "core.scores", "core.mask.", "workload.derive_meta",
        "format.encode.", "format.serialize_ddc", "util.crc32",
        "workload.profile", "sim.simulate"};
    std::map<std::string, double> out;
    for (const auto &[name, ms] : Recorder::instance().selfMsByName())
        for (const char *stage : kStages)
            if (name.rfind(stage, 0) == 0)
                out[name + ".ms"] = ms;
    out["workload.profile.replay_coverage"] =
        gProfileMs > 0.0 ? gStageMs / gProfileMs : 0.0;
    return out;
}

} // namespace perfbench
