/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper:
 * it runs the real pipeline (masks -> encodings -> simulator or the
 * nn trainer), prints the measured rows next to the paper's reported
 * values, and exits. Results are deterministic.
 */

#ifndef TBSTC_BENCH_BENCH_UTIL_HPP
#define TBSTC_BENCH_BENCH_UTIL_HPP

#include <chrono>
#include <cstdio>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "accel/accelerator.hpp"
#include "core/mask_search.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace tbstc::bench {

/** core::tryMakeMask at m = 8 with the default candidates. */
inline core::MaskOutput
makeMask(core::Pattern pattern, const core::Matrix &scores,
         double sparsity)
{
    core::MaskRequest req;
    req.pattern = pattern;
    req.sparsity = sparsity;
    auto res = core::tryMakeMask(scores, req);
    if (!res)
        util::fatal("{}", res.error().message);
    return std::move(*res);
}

/**
 * Machine-readable bench output. Every bench main() constructs one and
 * registers its tables; when the bench was invoked with `--json <path>`
 * the destructor dumps all measured rows plus the bench wall-time as
 * JSON, so BENCH_*.json perf/result trajectories can be tracked across
 * commits. Without the flag this is a no-op shell around the bench.
 */
class BenchReport
{
  public:
    BenchReport(int argc, char **argv, std::string bench)
        : bench_(std::move(bench)), start_(Clock::now())
    {
        for (int i = 1; i + 1 < argc; ++i)
            if (std::string(argv[i]) == "--json")
                path_ = argv[i + 1];
        // JSON reports carry the deterministic metrics of the run, so
        // perf trajectories can attribute a wall-time shift to cycle,
        // byte, or scheduling changes.
        if (!path_.empty()) {
            obs::setMetricsEnabled(true);
            obs::resetMetrics();
        }
    }

    /** Record one named table (no-op unless --json was given). */
    void
    addTable(const std::string &name, const util::Table &t)
    {
        if (path_.empty())
            return;
        std::string json = "    {\"name\": " + quote(name)
            + ", \"header\": " + cells(t.header()) + ", \"rows\": [";
        for (size_t r = 0; r < t.data().size(); ++r)
            json += (r ? ", " : "") + cells(t.data()[r]);
        json += "]}";
        tables_.push_back(std::move(json));
    }

    ~BenchReport()
    {
        if (path_.empty())
            return;
        const double wall =
            std::chrono::duration<double>(Clock::now() - start_).count();
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            util::warn("cannot write --json file '{}'", path_);
            return;
        }
        // Peak RSS covers the whole process so far; for a bench binary
        // that is the figure's own working set (ru_maxrss is KiB on
        // Linux).
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        std::string metrics = obs::metricsJson();
        if (!metrics.empty() && metrics.back() == '\n')
            metrics.pop_back();
        std::fprintf(f,
                     "{\n  \"bench\": %s,\n  \"wall_seconds\": %.6f,\n"
                     "  \"wall_ms\": %.3f,\n  \"peak_rss_kb\": %ld,\n"
                     "  \"threads\": %zu,\n  \"metrics\": %s,\n"
                     "  \"tables\": [\n",
                     quote(bench_).c_str(), wall, wall * 1e3,
                     ru.ru_maxrss, util::effectiveThreads(),
                     metrics.c_str());
        for (size_t i = 0; i < tables_.size(); ++i)
            std::fprintf(f, "%s%s\n", tables_[i].c_str(),
                         i + 1 < tables_.size() ? "," : "");
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
    }

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

  private:
    using Clock = std::chrono::steady_clock;

    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (const char c : s) {
            switch (c) {
              case '"':  out += "\\\""; break;
              case '\\': out += "\\\\"; break;
              case '\n': out += "\\n"; break;
              case '\t': out += "\\t"; break;
              case '\r': out += "\\r"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
            }
        }
        return out + "\"";
    }

    static std::string
    cells(const std::vector<std::string> &row)
    {
        std::string out = "[";
        for (size_t i = 0; i < row.size(); ++i)
            out += (i ? ", " : "") + quote(row[i]);
        return out + "]";
    }

    std::string bench_;
    std::string path_;
    Clock::time_point start_;
    std::vector<std::string> tables_;
};

/** The baseline set of paper Sec. VII-A2 (without the ablation FAN). */
inline std::vector<accel::AccelKind>
paperBaselines()
{
    using accel::AccelKind;
    return {AccelKind::TC,       AccelKind::STC,   AccelKind::Vegeta,
            AccelKind::HighLight, AccelKind::RmStc, AccelKind::TbStc};
}

/** Sparse baselines compared in the layer-wise study (Fig. 12). */
inline std::vector<accel::AccelKind>
sparseBaselines()
{
    using accel::AccelKind;
    return {AccelKind::STC, AccelKind::Vegeta, AccelKind::HighLight,
            AccelKind::RmStc, AccelKind::TbStc};
}

/** "1.23x"-style ratio formatting. */
inline std::string
fmtRatio(double v, int precision = 2)
{
    return util::fmtDouble(v, precision) + "x";
}

/** Percentage formatting. */
inline std::string
fmtPct(double v, int precision = 1)
{
    return util::fmtDouble(v * 100.0, precision) + "%";
}

} // namespace tbstc::bench

#endif // TBSTC_BENCH_BENCH_UTIL_HPP
