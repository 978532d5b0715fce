/**
 * @file
 * The serve workloads: spawns `tbstc serve` several times in turn and
 * drives each of the last few daemons with its windows of an open-loop
 * arrival schedule and of a closed-loop phase over two pipelined
 * connections, checks every answer it can against in-process
 * serve::executeRun / executeSparsify, and reports latency and
 * throughput as medians over the windows, the daemons' median peak RSS,
 * and their summed CPU time and counters.
 */

#ifndef TBSTC_PERFBENCH_SERVE_LOAD_HPP
#define TBSTC_PERFBENCH_SERVE_LOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

/** The two traffic mixes. */
enum class Traffic : uint8_t
{
    Repeat, ///< serve::buildMix as is: a few distinct design points.
    Unique, ///< Same distribution, a fresh weight seed per request.
};

/**
 * The measured request stream of a workload: serve::buildMix(n, seed)
 * with every request's weight seed set from the benchmark seed (Repeat)
 * or made unique per request (Unique). Ids are 1..n.
 */
std::vector<tbstc::serve::Request> buildStream(Traffic t, size_t n,
                                               uint64_t seed);

/**
 * Open-loop arrival offsets in seconds for @p n requests at @p rate
 * req/s. Gaps are drawn from @p seed, uniform on [0.5, 1.5] / rate:
 * a steady offered load whose queueing comes from the requests' own
 * costs, not from arrival bursts (with Poisson gaps, the p99 of a
 * 1000-request run hinges on a handful of coincident arrivals).
 */
std::vector<double> arrivalSchedule(size_t n, double rate, uint64_t seed);

/** Batcher signature of a request (serialized with id/deadline 0). */
std::string signature(const tbstc::serve::Request &req);

/**
 * Median µs of a warm buildLayerProfile + simulateLayer over the
 * serve mix's distinct run requests (the cache-hit path).
 */
double cacheHitUs(uint64_t seed);

struct ServeLoadOptions
{
    std::string tbstc;   ///< Path of the tbstc CLI binary.
    std::string logPath; ///< Daemon stderr goes here.
    Traffic traffic = Traffic::Repeat;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
};

/**
 * Run one serve workload; returns the result JSON document. Sets
 * @p ok false when the daemon could not be driven at all.
 */
std::string runServeLoad(const ServeLoadOptions &opts, bool &ok);

} // namespace perfbench

#endif // TBSTC_PERFBENCH_SERVE_LOAD_HPP
