/**
 * @file
 * tbstc_perfbench: the compiled half of the repository benchmark
 * (perfbench/run.py is the other half and the entry point).
 *
 *   tbstc_perfbench grid --seed N [--trace FILE]
 *   tbstc_perfbench serve --tbstc PATH --workload repeat|unique
 *       --seed N --seconds S [--log FILE] [--trace FILE]
 *   tbstc_perfbench selftest
 *
 * grid and serve print one JSON document on stdout. --trace FILE turns
 * on the traced run: spans around the library calls, the stage replay
 * and the per-layer metrics, with the spans written as a Chrome trace.
 * Exit status: 0 ok, 1 failed check or run, 2 usage error.
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "common.hpp"
#include "grid.hpp"
#include "replay.hpp"
#include "serve_load.hpp"

using namespace perfbench;

namespace {

struct Args
{
    std::string cmd;
    std::string tbstc;
    std::string workload;
    std::string log = "/dev/null";
    std::string trace;
    uint64_t seed = 1;
    double seconds = 10.0;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.cmd = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--tbstc")
            a.tbstc = v;
        else if (k == "--workload")
            a.workload = v;
        else if (k == "--log")
            a.log = v;
        else if (k == "--trace")
            a.trace = v;
        else
            return false;
    }
    return true;
}

int gFailures = 0;

void
check(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++gFailures;
    }
}

int
selftest()
{
    // Nearest-rank percentile on known vectors.
    const std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    check(percentile(ten, 50) == 5, "p50 of 1..10 is 5");
    check(percentile(ten, 90) == 9, "p90 of 1..10 is 9");
    check(percentile(ten, 99) == 10, "p99 of 1..10 is 10");
    check(percentile(ten, 10) == 1, "p10 of 1..10 is 1");
    check(percentile({}, 50) == 0, "empty input gives 0");
    check(percentile({3, 1, 2}, 50) == 2, "p50 of {3,1,2} is 2");
    check(std::isinf(percentile({1, 2, INFINITY}, 99)),
          "a failed (infinite) sample misses p99");
    check(percentile({1, 2, INFINITY}, 50) == 2, "p50 ignores one failure");

    // The arrival schedule and request stream depend only on the seed.
    const auto s1 = arrivalSchedule(2000, 100.0, 7);
    check(s1 == arrivalSchedule(2000, 100.0, 7), "schedule repeats");
    check(s1 != arrivalSchedule(2000, 100.0, 8), "schedule follows seed");
    const double meanGap = s1.back() / static_cast<double>(s1.size() - 1);
    check(std::fabs(meanGap - 0.01) < 0.001, "schedule mean gap is 1/rate");
    std::vector<std::string> a, b;
    for (const auto &r : buildStream(Traffic::Repeat, 500, 7))
        a.push_back(tbstc::serve::serializeRequest(r));
    for (const auto &r : buildStream(Traffic::Repeat, 500, 7))
        b.push_back(tbstc::serve::serializeRequest(r));
    check(a == b, "request stream repeats");

    // serve_repeat: buildMix's 24 run + 2 sparsify design points;
    // serve_unique: every request its own signature.
    std::set<std::string> rep, uni;
    for (const auto &r : buildStream(Traffic::Repeat, 2000, 7))
        rep.insert(signature(r));
    check(rep.size() == 26, "serve_repeat has 26 distinct requests");
    const auto unique = buildStream(Traffic::Unique, 5000, 7);
    for (const auto &r : unique)
        uni.insert(signature(r));
    check(uni.size() == unique.size(), "serve_unique signatures distinct");

    // Replay coverage on a small layer is reported.
    Recorder::instance().enable();
    tbstc::workload::GemmShape shape{"selftest", 256, 256, 1};
    replayLayer(tbstc::accel::AccelKind::TbStc,
                layerSpec(tbstc::accel::AccelKind::TbStc, shape, 0.5, 7), 1);
    const auto m = stageMetrics();
    const double cov = m.at("workload.profile.replay_coverage");
    check(cov > 0.0 && std::isfinite(cov), "replay coverage reported");
    check(m.count("core.mask.tbs.ms") && m.count("format.encode.ddc.ms"),
          "TB-STC replay records its mask and encode stages");

    std::printf("%s\n", JsonOut()
                            .str("selftest", gFailures ? "failed" : "ok")
                            .integer("failures", gFailures)
                            .num("replay_coverage_256x256", cov)
                            .render()
                            .c_str());
    return gFailures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, a))
            throw std::invalid_argument("bad arguments");
    } catch (const std::exception &) {
        std::fprintf(stderr, "usage: see the file comment of main.cpp\n");
        return 2;
    }
    const bool traced = !a.trace.empty();
    if (a.cmd == "selftest")
        return selftest();
    std::string out;
    bool ok = true;
    if (a.cmd == "grid") {
        out = runGrid(a.seed, traced);
    } else if (a.cmd == "serve") {
        if (a.tbstc.empty()
            || (a.workload != "repeat" && a.workload != "unique")) {
            std::fprintf(stderr, "serve needs --tbstc and --workload\n");
            return 2;
        }
        if (traced)
            Recorder::instance().enable();
        ServeLoadOptions o;
        o.tbstc = a.tbstc;
        o.logPath = a.log;
        o.traffic = a.workload == "repeat" ? Traffic::Repeat
                                           : Traffic::Unique;
        o.seed = a.seed;
        o.seconds = a.seconds;
        o.traced = traced;
        out = runServeLoad(o, ok);
    } else {
        std::fprintf(stderr, "unknown command '%s'\n", a.cmd.c_str());
        return 2;
    }
    if (traced && !Recorder::instance().writeChromeTrace(a.trace)) {
        std::fprintf(stderr, "cannot write %s\n", a.trace.c_str());
        ok = false;
    }
    std::printf("%s\n", out.c_str());
    return ok ? 0 : 1;
}
