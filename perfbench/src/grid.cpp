#include "grid.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "common.hpp"
#include "obs/obs.hpp"
#include "replay.hpp"
#include "serve/jsonv.hpp"
#include "serve_load.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/accuracy_model.hpp"

namespace perfbench {

using namespace tbstc;
using accel::AccelKind;
using workload::ModelId;

std::vector<GridCell>
gridCells()
{
    struct Model
    {
        ModelId model;
        uint64_t seq;
        double usSparsity; ///< Sparsity the US accuracy target runs at.
    };
    const Model models[] = {
        {ModelId::ResNet50, 0, 0.75},
        {ModelId::BertBase, 128, 0.50},
        {ModelId::Opt67b, 256, 0.50},
    };
    const AccelKind kinds[] = {AccelKind::TC,        AccelKind::STC,
                               AccelKind::Vegeta,    AccelKind::HighLight,
                               AccelKind::RmStc,     AccelKind::TbStc};
    std::vector<GridCell> cells;
    for (const Model &m : models) {
        const double target = workload::proxyAccuracy(
            m.model, core::Pattern::US, m.usSparsity);
        for (const AccelKind kind : kinds) {
            const core::Pattern p = accel::accelPattern(kind);
            double sparsity = 0.0;
            if (kind == AccelKind::STC)
                sparsity = 0.5; // Hard-wired 4:8.
            else if (p != core::Pattern::Dense)
                sparsity = workload::isoAccuracySparsity(m.model, p, target);
            cells.push_back({m.model, m.seq, kind, sparsity});
        }
    }
    return cells;
}

namespace {

/** Host counter @p name from an obs metrics export (0 when absent). */
double
hostCounter(const serve::JsonValue &doc, const std::string &name)
{
    return doc.get("host").get("counters").get(name).asNumber();
}

double
hitRatio(const serve::JsonValue &doc, const std::string &kind)
{
    const double hits = hostCounter(doc, "cache." + kind + ".hits");
    const double misses = hostCounter(doc, "cache." + kind + ".misses");
    return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

} // namespace

std::string
runGrid(uint64_t seed, bool traced)
{
    if (traced) {
        Recorder::instance().enable();
        obs::setMetricsEnabled(true); // Host cache counters.
    }
    const std::vector<GridCell> cells = gridCells();
    struct CellResult
    {
        sim::RunStats stats;
        double ms = 0.0; ///< Cell duration.
    };

    const int64_t dispatchNs = nowNs();
    const double cpu0 = selfCpuSeconds();
    const auto t0 = Clock::now();
    const auto results = util::parallelMap<CellResult>(
        cells.size(), [&](size_t i) {
            const GridCell &c = cells[i];
            const Span span("accel.cell", i);
            const auto c0 = Clock::now();
            CellResult r;
            r.stats = accel::runModel(c.kind, c.model, c.sparsity, c.seq,
                                      false, seed);
            r.ms = msSince(c0);
            return r;
        });
    const double wallS = msSince(t0) / 1e3;
    const double cpuS = selfCpuSeconds() - cpu0;

    std::vector<double> speedups, edpGains, cellMs;
    std::string cellJson = "[";
    for (size_t i = 0; i < cells.size(); ++i) {
        const GridCell &c = cells[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"model\": \"%s\", \"accel\": \"%s\", "
                      "\"ms\": %s, \"digest\": \"%016llx\"}",
                      i ? ", " : "", workload::modelName(c.model).c_str(),
                      accel::accelName(c.kind).c_str(),
                      jsonNum(results[i].ms).c_str(),
                      static_cast<unsigned long long>(
                          statsDigest(results[i].stats)));
        cellJson += buf;
        cellMs.push_back(results[i].ms);
        if (c.kind != AccelKind::TbStc)
            continue;
        // The TC cell of the same model is the dense reference.
        for (size_t j = 0; j < cells.size(); ++j)
            if (cells[j].model == c.model && cells[j].kind == AccelKind::TC) {
                speedups.push_back(results[j].stats.cycles
                                   / results[i].stats.cycles);
                edpGains.push_back(results[j].stats.edp
                                   / results[i].stats.edp);
            }
    }

    JsonOut j;
    j.integer("dispatch_ns", static_cast<uint64_t>(dispatchNs));
    j.num("wall_s", wallS);
    j.num("cpu_s", cpuS);
    j.integer("threads", util::effectiveThreads());
    j.num("sim_speedup_geomean", util::geomean(speedups));
    j.num("sim_edp_gain_geomean", util::geomean(edpGains));
    // Cell latency: one cell's own runModel time, whatever waited before
    // it was dispatched. Over 18 cells the nearest-rank p95 is the
    // slowest cell.
    j.num("latency_p50_ms", median(cellMs));
    j.num("latency_p95_ms", percentile(cellMs, 95.0));
    j.raw("cells", cellJson + "]");

    if (traced) {
        std::map<std::string, double> layers;
        layers["accel.cell.p50_ms"] = median(cellMs);
        layers["accel.cell.max_ms"] = percentile(cellMs, 100.0);
        layers["parallel.utilisation"] =
            cpuS / (wallS * static_cast<double>(util::effectiveThreads()));
        if (const auto doc = serve::parseJson(obs::metricsJson(true))) {
            layers["cache.profile.hit_ratio"] = hitRatio(*doc, "profile");
            layers["cache.sim.hit_ratio"] = hitRatio(*doc, "sim");
        }
        obs::setMetricsEnabled(false);

        // Stage replay of every cell's distinct layer shapes, in the
        // order runModel groups them; cache off, one cell at a time.
        for (size_t i = 0; i < cells.size(); ++i) {
            const GridCell &c = cells[i];
            const Span span("replay.cell", i);
            std::set<std::tuple<uint64_t, uint64_t, uint64_t>> shapes;
            for (const auto &shape : workload::modelLayers(c.model, c.seq))
                if (shapes.emplace(shape.x, shape.y, shape.nb).second)
                    replayLayer(c.kind,
                                layerSpec(c.kind, shape, c.sparsity, seed),
                                i);
        }
        for (const auto &[k, v] : stageMetrics())
            layers[k] = v;
        layers["cache.hit.us"] = cacheHitUs(seed);
        JsonOut lj;
        for (const auto &[k, v] : layers)
            lj.num(k, v);
        j.raw("layers", lj.render());
    }
    j.integer("peak_rss_kb", static_cast<uint64_t>(selfPeakRssKb()));
    return j.render();
}

} // namespace perfbench
