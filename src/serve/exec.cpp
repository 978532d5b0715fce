#include "exec.hpp"

#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "core/prune.hpp"
#include "format/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/contentstore.hpp"
#include "util/crc32.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "workload/synth.hpp"

namespace tbstc::serve {

namespace {

using accel::AccelKind;
using workload::ModelId;

/** Row cap of the sparsify pipeline (`tbstc formats`, daemon sparsify). */
constexpr uint64_t kSparsifyMaxRows = 4096;

template <typename T>
struct Named
{
    const char *name;
    T value;
};

/** Wire/CLI accelerator names, in help order. */
constexpr Named<accel::AccelKind> kAccelNames[] = {
    {"tc", AccelKind::TC},         {"stc", AccelKind::STC},
    {"vegeta", AccelKind::Vegeta}, {"highlight", AccelKind::HighLight},
    {"rmstc", AccelKind::RmStc},   {"sgcn", AccelKind::Sgcn},
    {"tbstc", AccelKind::TbStc},   {"fan", AccelKind::TbStcFan},
};

/** Wire/CLI model names, in help order. */
constexpr Named<workload::ModelId> kModelNames[] = {
    {"resnet50", ModelId::ResNet50}, {"resnet18", ModelId::ResNet18},
    {"bert", ModelId::BertBase},     {"opt", ModelId::Opt67b},
    {"llama", ModelId::Llama27b},
};

template <typename T, size_t N>
std::optional<T>
lookup(const Named<T> (&table)[N], const std::string &name)
{
    for (const Named<T> &e : table)
        if (name == e.name)
            return e.value;
    return std::nullopt;
}

template <typename T, size_t N>
std::string
nameList(const Named<T> (&table)[N])
{
    std::string out;
    for (const Named<T> &e : table)
        out += out.empty() ? e.name : std::string(" ") + e.name;
    return out;
}

/**
 * CRC-32 over the five section seals of a DDC2 stream, in stream
 * order. Every byte of the stream feeds one seal, so the value moves
 * with the content. The CRC-32 of the whole stream does not: a message
 * followed by its own CRC-32 always leaves the same CRC register, so
 * that value depends only on the section lengths.
 */
uint32_t
sealsCrc32(std::span<const uint8_t> bytes)
{
    const auto lay = format::ddcLayout(bytes);
    util::ensure(lay.ok(), "sealsCrc32: not a DDC2 stream");
    uint32_t crc = 0;
    for (const size_t at : {lay->headerCrcAt, lay->infoAt - 4,
                            lay->valuesAt - 4, lay->indicesAt - 4,
                            lay->end - 4})
        crc = util::crc32(bytes.subspan(at, 4), crc);
    return crc;
}

std::string
badLayerMessage(const std::string &layer)
{
    return "layer spec must be XxYxNB, got '" + layer + "'";
}

/**
 * Content key of one sparsify answer: every input trySparsify reads,
 * plus a schema tag. "" and "greedy" name one search and one key.
 */
uint64_t
sparsifyCacheKey(const workload::GemmShape &shape,
                 const SparsifySpec &spec)
{
    util::Hasher h;
    h.str("tbstc.cache.sparsify.v1");
    h.str(shape.name);
    h.u64(shape.x).u64(shape.y).u64(shape.nb);
    h.u64(kSparsifyMaxRows);
    h.u64(spec.seed);
    h.f64(spec.sparsity);
    h.u64(spec.m);
    h.str(spec.strategy.empty() ? core::kGreedyStrategy : spec.strategy);
    return h.digest();
}

std::vector<uint8_t>
serializeSparsify(const SparsifyResult &r)
{
    util::ByteWriter w;
    w.u64(r.rows);
    w.u64(r.cols);
    w.u64(r.nnz);
    w.u64(r.ddcBytes);
    w.u64(r.ddcCrc32);
    return w.bytes();
}

std::optional<SparsifyResult>
deserializeSparsify(std::span<const uint8_t> bytes)
{
    util::ByteReader r(bytes);
    SparsifyResult out;
    out.rows = r.u64();
    out.cols = r.u64();
    out.nnz = r.u64();
    out.ddcBytes = r.u64();
    const uint64_t crc = r.u64();
    if (!r.done() || crc > UINT32_MAX)
        return std::nullopt;
    out.ddcCrc32 = static_cast<uint32_t>(crc);
    return out;
}

SparsifyResult
executeSparsifyUncached(const SparsifySpec &spec)
{
    const auto layer = trySparsify(spec);
    if (!layer)
        throw std::invalid_argument(layer.error());
    const core::MaskOutput &tbs = layer->tbs;
    const auto bytes = format::serializeDdc(layer->w, tbs.mask, tbs.meta);

    SparsifyResult out;
    out.rows = layer->w.rows();
    out.cols = layer->w.cols();
    out.nnz = tbs.mask.nnz();
    out.ddcBytes = bytes.size();
    out.ddcCrc32 = sealsCrc32(bytes);
    return out;
}

} // namespace

std::optional<accel::AccelKind>
tryParseAccel(const std::string &name)
{
    return lookup(kAccelNames, name);
}

std::string
accelWireName(accel::AccelKind kind)
{
    for (const auto &e : kAccelNames)
        if (e.value == kind)
            return e.name;
    return "tbstc";
}

std::string
accelNames()
{
    return nameList(kAccelNames);
}

std::optional<workload::ModelId>
tryParseModel(const std::string &name)
{
    return lookup(kModelNames, name);
}

std::string
modelNames()
{
    return nameList(kModelNames);
}

std::optional<workload::GemmShape>
tryParseLayer(const std::string &spec, const std::string &name)
{
    uint64_t x = 0;
    uint64_t y = 0;
    uint64_t nb = 0;
    if (std::sscanf(spec.c_str(), "%llux%llux%llu",
                    reinterpret_cast<unsigned long long *>(&x),
                    reinterpret_cast<unsigned long long *>(&y),
                    reinterpret_cast<unsigned long long *>(&nb))
        != 3)
        return std::nullopt;
    if (x == 0 || y == 0 || nb == 0)
        return std::nullopt;
    return workload::GemmShape{name, x, y, nb};
}

sim::RunStats
executeRun(const RunSpec &spec)
{
    // The protocol/CLI layers reject unknown strategies up front; this
    // backstop covers programmatic callers building specs directly.
    if (!core::isMaskStrategy(spec.strategy))
        throw std::invalid_argument("unknown mask strategy '"
                                    + spec.strategy + "'");
    std::optional<sim::ArchConfig> override;
    if (spec.bw) {
        auto cfg = accel::accelConfig(spec.kind);
        cfg.dramGbps = *spec.bw;
        override = cfg;
    }

    if (!spec.layer.empty()) {
        const auto shape = tryParseLayer(spec.layer, "cli.layer");
        if (!shape)
            throw std::invalid_argument(badLayerMessage(spec.layer));
        accel::RunRequest req;
        req.shape = *shape;
        req.sparsity = spec.sparsity;
        req.seed = spec.seed;
        req.int8Weights = spec.int8Weights;
        req.configOverride = override;
        return accel::runLayer(spec.kind, req);
    }
    if (spec.model.empty())
        throw std::invalid_argument("need model or layer");
    const auto model = tryParseModel(spec.model);
    if (!model)
        throw std::invalid_argument("unknown model '" + spec.model + "'");
    if (spec.full) {
        // Full inference pass: weight GEMMs + dense attention GEMMs.
        return accel::runInference(spec.kind, *model, spec.sparsity,
                                   spec.seq, spec.int8Weights, spec.seed);
    }
    if (override) {
        sim::RunStats total;
        for (const auto &shape :
             workload::modelLayers(*model, spec.seq)) {
            accel::RunRequest req;
            req.shape = shape;
            req.sparsity = spec.sparsity;
            req.seed = spec.seed;
            req.int8Weights = spec.int8Weights;
            req.configOverride = override;
            total.accumulate(accel::runLayer(spec.kind, req));
        }
        return total;
    }
    return accel::runModel(spec.kind, *model, spec.sparsity, spec.seq,
                           spec.int8Weights, spec.seed);
}

util::Result<SparsifiedLayer, std::string>
trySparsify(const SparsifySpec &spec, const std::string &shapeName)
{
    const auto shape = tryParseLayer(spec.layer, shapeName);
    if (!shape)
        return util::unexpected(badLayerMessage(spec.layer));
    if (spec.m == 0 || spec.m > format::kDdcMaxBlockSize)
        return util::unexpected(util::formatStr(
            "block size m = {} outside [1, {}], the DDC stream's range",
            spec.m, format::kDdcMaxBlockSize));

    SparsifiedLayer out;
    out.w = workload::synthWeights(*shape, spec.seed, kSparsifyMaxRows);
    // The validated search: "" and "greedy" both run Algorithm 1.
    core::MaskRequest req;
    req.pattern = core::Pattern::TBS;
    req.strategy = spec.strategy;
    req.sparsity = spec.sparsity;
    req.m = static_cast<size_t>(spec.m);
    auto tbs = core::tryMakeMask(core::magnitudeScores(out.w), req);
    if (!tbs)
        return util::unexpected(tbs.error().message);
    out.tbs = std::move(*tbs);
    return out;
}

SparsifyResult
executeSparsify(const SparsifySpec &spec)
{
    // A malformed layer never reaches the store.
    const auto shape = tryParseLayer(spec.layer, kSparsifyShapeName);
    if (!shape)
        throw std::invalid_argument(badLayerMessage(spec.layer));
    // A disabled store computes and files nothing (CacheOutcome::Disabled).
    auto [bytes, outcome] = util::ContentStore::instance().getOrCompute(
        "sparsify", sparsifyCacheKey(*shape, spec),
        [&] { return serializeSparsify(executeSparsifyUncached(spec)); });
    if (obs::metricsEnabled()) {
        static const util::CacheCounters counters("sparsify");
        counters.count(outcome);
    }
    if (const auto result = deserializeSparsify(bytes))
        return *result;
    util::warn("sparsify cache payload undecodable; recomputing");
    return executeSparsifyUncached(spec);
}

std::string
formatStats(const std::string &label, const sim::RunStats &s, bool csv)
{
    char buf[256];
    if (csv) {
        std::snprintf(buf, sizeof buf,
                      "%s,%.0f,%.6e,%.6e,%.6e,%.4f,%.4f\n",
                      label.c_str(), s.cycles, s.seconds,
                      s.energy.totalJ(), s.edp, s.computeUtilisation,
                      s.bwUtilisation);
        return buf;
    }
    std::snprintf(buf, sizeof buf,
                  "%-10s cycles=%.0f time=%.3f ms energy=%.3f mJ "
                  "EDP=%.4e computeUtil=%.1f%% bwUtil=%.1f%%\n",
                  label.c_str(), s.cycles, s.seconds * 1e3,
                  s.energy.totalJ() * 1e3, s.edp,
                  s.computeUtilisation * 100.0,
                  s.bwUtilisation * 100.0);
    return buf;
}

std::string
statsCsvHeader()
{
    return "accel,cycles,seconds,energyJ,edp,computeUtil,bwUtil\n";
}

} // namespace tbstc::serve
