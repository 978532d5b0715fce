#include "exec.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "core/mask_search.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "format/serialize.hpp"
#include "util/crc32.hpp"
#include "workload/synth.hpp"

namespace tbstc::serve {

namespace {

/** Row cap used by the formats/sparsify pipeline (matches the CLI). */
constexpr uint64_t kSparsifyMaxRows = 4096;

} // namespace

std::optional<accel::AccelKind>
tryParseAccel(const std::string &name)
{
    static const std::map<std::string, accel::AccelKind> kinds{
        {"tc", accel::AccelKind::TC},
        {"stc", accel::AccelKind::STC},
        {"vegeta", accel::AccelKind::Vegeta},
        {"highlight", accel::AccelKind::HighLight},
        {"rmstc", accel::AccelKind::RmStc},
        {"sgcn", accel::AccelKind::Sgcn},
        {"tbstc", accel::AccelKind::TbStc},
        {"fan", accel::AccelKind::TbStcFan},
    };
    const auto it = kinds.find(name);
    if (it == kinds.end())
        return std::nullopt;
    return it->second;
}

std::string
accelWireName(accel::AccelKind kind)
{
    switch (kind) {
      case accel::AccelKind::TC:        return "tc";
      case accel::AccelKind::STC:       return "stc";
      case accel::AccelKind::Vegeta:    return "vegeta";
      case accel::AccelKind::HighLight: return "highlight";
      case accel::AccelKind::RmStc:     return "rmstc";
      case accel::AccelKind::Sgcn:      return "sgcn";
      case accel::AccelKind::TbStc:     return "tbstc";
      case accel::AccelKind::TbStcFan:  return "fan";
    }
    return "tbstc";
}

std::optional<workload::ModelId>
tryParseModel(const std::string &name)
{
    static const std::map<std::string, workload::ModelId> models{
        {"resnet50", workload::ModelId::ResNet50},
        {"resnet18", workload::ModelId::ResNet18},
        {"bert", workload::ModelId::BertBase},
        {"opt", workload::ModelId::Opt67b},
        {"llama", workload::ModelId::Llama27b},
    };
    const auto it = models.find(name);
    if (it == models.end())
        return std::nullopt;
    return it->second;
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
            throw std::invalid_argument(
                "layer spec must be XxYxNB, got '" + spec.layer + "'");
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

SparsifyResult
executeSparsify(const SparsifySpec &spec)
{
    const auto shape = tryParseLayer(spec.layer, "cli.formats");
    if (!shape)
        throw std::invalid_argument(
            "layer spec must be XxYxNB, got '" + spec.layer + "'");
    if (spec.m == 0 || spec.m > 64)
        throw std::invalid_argument("block size m out of range");

    const auto w =
        workload::synthWeights(*shape, spec.seed, kSparsifyMaxRows);
    const auto scores = core::magnitudeScores(w);
    // The validated search: "" and "greedy" both run core::tbsMask.
    core::MaskRequest req;
    req.pattern = core::Pattern::TBS;
    req.strategy = spec.strategy;
    req.sparsity = spec.sparsity;
    req.m = static_cast<size_t>(spec.m);
    const auto tbs = core::tryMakeMask(scores, req);
    if (!tbs)
        throw std::invalid_argument(tbs.error().message);
    const auto bytes = format::serializeDdc(w, tbs->mask, tbs->meta);

    SparsifyResult out;
    out.rows = w.rows();
    out.cols = w.cols();
    out.nnz = tbs->mask.nnz();
    out.ddcBytes = bytes.size();
    out.ddcCrc32 = util::crc32(bytes);
    return out;
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
