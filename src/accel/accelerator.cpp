#include "accelerator.hpp"

#include <map>
#include <tuple>

#include "obs/obs.hpp"
#include "util/fmt.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "workload/graph.hpp"

namespace tbstc::accel {

using core::Pattern;
using format::StorageFormat;
using sim::ArchConfig;
using sim::InterSched;
using sim::IntraMap;
using sim::RunStats;
using workload::ProfileSpec;

std::string
accelName(AccelKind kind)
{
    switch (kind) {
      case AccelKind::TC:        return "TC";
      case AccelKind::STC:       return "STC";
      case AccelKind::Vegeta:    return "VEGETA";
      case AccelKind::HighLight: return "HighLight";
      case AccelKind::RmStc:     return "RM-STC";
      case AccelKind::Sgcn:      return "SGCN";
      case AccelKind::TbStc:     return "TB-STC";
      case AccelKind::TbStcFan:  return "DVPE+FAN";
    }
    util::panic("unknown AccelKind");
}

core::Pattern
accelPattern(AccelKind kind)
{
    switch (kind) {
      case AccelKind::TC:        return Pattern::Dense;
      case AccelKind::STC:       return Pattern::TS;
      case AccelKind::Vegeta:    return Pattern::RSV;
      case AccelKind::HighLight: return Pattern::RSH;
      case AccelKind::RmStc:     return Pattern::US;
      case AccelKind::Sgcn:      return Pattern::US;
      case AccelKind::TbStc:     return Pattern::TBS;
      case AccelKind::TbStcFan:  return Pattern::TBS;
    }
    util::panic("unknown AccelKind");
}

format::StorageFormat
accelFormat(AccelKind kind)
{
    switch (kind) {
      case AccelKind::TC:        return StorageFormat::Dense;
      case AccelKind::STC:       return StorageFormat::SDC;
      case AccelKind::Vegeta:    return StorageFormat::Bitmap;
      case AccelKind::HighLight: return StorageFormat::Bitmap;
      case AccelKind::RmStc:     return StorageFormat::Bitmap;
      case AccelKind::Sgcn:      return StorageFormat::Bitmap;
      case AccelKind::TbStc:     return StorageFormat::DDC;
      case AccelKind::TbStcFan:  return StorageFormat::DDC;
    }
    util::panic("unknown AccelKind");
}

bool
supportsIndependentDim(AccelKind kind)
{
    return kind == AccelKind::TbStc || kind == AccelKind::TbStcFan;
}

sim::ArchConfig
accelConfig(AccelKind kind)
{
    ArchConfig cfg; // Defaults are the paper's common geometry.
    switch (kind) {
      case AccelKind::TC:
      case AccelKind::STC:
        cfg.codecUnit = false;
        cfg.mbdUnit = false;
        cfg.alternateUnit = false;
        cfg.interSched = InterSched::Naive; // Uniform blocks anyway.
        break;
      case AccelKind::Vegeta:
        cfg.codecUnit = false;
        cfg.mbdUnit = false;
        cfg.alternateUnit = false;
        cfg.interSched = InterSched::Naive; // Row-wave dispatch.
        break;
      case AccelKind::HighLight:
        cfg.codecUnit = false;
        cfg.mbdUnit = false;
        cfg.alternateUnit = false;
        // Hierarchical metadata gives coarse (tile-level) balancing:
        // aware dispatch, but with a much shallower buffer than
        // TB-STC's scheduling unit, and two-level metadata decode
        // overhead in the issue path.
        cfg.interSched = InterSched::Aware;
        cfg.schedLookahead = 2;
        cfg.beatOverheadScale = 1.10;
        break;
      case AccelKind::RmStc:
        cfg.codecUnit = false;
        cfg.mbdUnit = false;
        cfg.alternateUnit = false;
        cfg.interSched = InterSched::Aware; // Row merging balances.
        // Gather/union modules: higher switching energy per MAC and
        // always-on overhead (paper Fig. 6(d)); slight beat overhead
        // from merge bubbles.
        cfg.computeEnergyScale = 2.10;
        cfg.extraStaticW = 0.045;
        cfg.beatOverheadScale = 1.05;
        cfg.elementGranular = true;
        break;
      case AccelKind::Sgcn:
        cfg.codecUnit = false;
        cfg.mbdUnit = false;
        cfg.alternateUnit = false;
        cfg.interSched = InterSched::Aware;
        // High-sparsity design point: generous bandwidth, but an
        // element-granular pipeline that cannot reach structured
        // throughput at moderate density (paper Sec. VII-D4).
        cfg.dramGbps = 256.0;
        cfg.beatOverheadScale = 1.35;
        cfg.computeEnergyScale = 1.40;
        cfg.extraStaticW = 0.015;
        cfg.elementGranular = true;
        break;
      case AccelKind::TbStc:
        break; // Full feature set.
      case AccelKind::TbStcFan:
        // SIGMA's forwarding adder network in place of the DVPE
        // reduction network: element-level forwarding burns energy and
        // adds arbitration bubbles (paper Sec. VII-E2: 1.61x EDP).
        cfg.computeEnergyScale = 2.0;
        cfg.extraStaticW = 0.030;
        cfg.beatOverheadScale = 1.25;
        break;
    }
    return cfg;
}

RunStats
runLayer(AccelKind kind, const RunRequest &req)
{
    const obs::ScopedSpan span(util::formatStr(
        "accel.runLayer {} {}x{}x{}", accelName(kind), req.shape.x,
        req.shape.y, req.shape.nb));
    const Pattern pattern =
        req.patternOverride.value_or(accelPattern(kind));

    ProfileSpec spec;
    spec.shape = req.shape;
    spec.pattern = pattern;
    spec.sparsity = kind == AccelKind::STC && !req.patternOverride
        ? 0.5 // STC's datapath is hard-wired 4:8.
        : req.sparsity;
    spec.m = req.m;
    spec.maskStrategy = req.maskStrategy;
    spec.fmt = req.formatOverride.value_or(accelFormat(kind));
    // Structured-only datapaths cannot express independent-dimension
    // blocks and fall back to dense; unstructured-capable ones
    // (RM-STC, SGCN) consume any mask natively.
    spec.densifyIndependent = pattern == Pattern::TBS
        && !supportsIndependentDim(kind)
        && accelPattern(kind) != Pattern::US;
    spec.seed = req.seed;

    const ArchConfig cfg =
        req.configOverride.value_or(accelConfig(kind));
    const util::ThreadScope threads(cfg.hostThreads);
    const sim::LayerProfile profile = workload::buildLayerProfile(spec);
    sim::RunOptions opts;
    opts.int8Weights = req.int8Weights;
    return sim::simulateLayer(profile, cfg, sim::EnergyParams{}, opts);
}

RunStats
runModel(AccelKind kind, workload::ModelId model, double sparsity,
         uint64_t seq, bool int8_weights, uint64_t seed,
         const std::string &maskStrategy)
{
    const obs::ScopedSpan span(util::formatStr(
        "accel.runModel {} model={} seq={}", accelName(kind),
        workload::modelName(model), seq));
    // Group identically shaped layers; simulate one representative and
    // scale. Statistically the synthetic weights of same-shape layers
    // are interchangeable, and this turns 32-layer LLMs into a handful
    // of simulations.
    std::map<std::tuple<uint64_t, uint64_t, uint64_t>,
             std::pair<workload::GemmShape, double>> groups;
    for (const auto &shape : workload::modelLayers(model, seq)) {
        auto key = std::make_tuple(shape.x, shape.y, shape.nb);
        auto [it, inserted] = groups.try_emplace(key, shape, 0.0);
        it->second.second += 1.0;
    }
    // Representatives are independent simulator runs: simulate them in
    // parallel, then accumulate in the map's (sorted-key) order so the
    // floating-point totals match the serial path bit for bit. Every
    // accelerator walks a model's shapes in that same order, so cells of
    // one model running side by side (the fig13 grid) ask for the same
    // layer at about the same time and share its weight synthesis
    // (workload::synthShared).
    std::vector<std::pair<workload::GemmShape, double>> reps;
    reps.reserve(groups.size());
    for (const auto &[key, entry] : groups)
        reps.push_back(entry);
    const auto stats = util::parallelMap<RunStats>(
        reps.size(), [&](size_t i) {
            RunRequest req;
            req.shape = reps[i].first;
            req.sparsity = sparsity;
            req.seed = seed;
            req.int8Weights = int8_weights;
            req.maskStrategy = maskStrategy;
            return runLayer(kind, req).scaled(reps[i].second);
        });
    RunStats total;
    for (const auto &s : stats)
        total.accumulate(s);
    return total;
}

RunStats
runInference(AccelKind kind, workload::ModelId model, double sparsity,
             uint64_t seq, bool int8_weights, uint64_t seed,
             const std::string &maskStrategy)
{
    const obs::ScopedSpan span(util::formatStr(
        "accel.runInference {} model={} seq={}", accelName(kind),
        workload::modelName(model), seq));
    RunStats total = runModel(kind, model, sparsity, seq, int8_weights,
                              seed, maskStrategy);
    std::vector<workload::InferenceOp> acts;
    for (const auto &op : workload::inferenceGraph(model, seq)) {
        if (!op.weightOp) // Weight ops are covered by runModel().
            acts.push_back(op);
    }
    const auto stats = util::parallelMap<RunStats>(
        acts.size(), [&](size_t i) {
            RunRequest req;
            req.shape = acts[i].shape;
            req.sparsity = 0.0;
            req.seed = seed;
            // Activation GEMMs are dense whatever the weight pattern.
            req.patternOverride = Pattern::Dense;
            req.formatOverride = StorageFormat::Dense;
            return runLayer(kind, req).scaled(acts[i].count);
        });
    for (const auto &s : stats)
        total.accumulate(s);
    return total;
}

} // namespace tbstc::accel
