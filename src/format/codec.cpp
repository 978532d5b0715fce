#include "codec.hpp"

#include <deque>

#include "obs/obs.hpp"
#include "util/fmt.hpp"
#include "util/logging.hpp"

namespace tbstc::format {

using util::ensure;
using util::Result;
using util::unexpected;

Result<CodecOutput, DecodeError>
tryDecodeBlock(const std::vector<StorageElem> &storage,
               const CodecConfig &cfg)
{
    if (cfg.m == 0 || cfg.m > 256 || cfg.lanes == 0 || cfg.threshold == 0)
        return unexpected(DecodeError{
            DecodeErrorKind::GeometryOverflow, 0,
            util::formatStr("invalid codec config m={} lanes={} "
                            "threshold={}",
                            cfg.m, cfg.lanes, cfg.threshold)});
    for (size_t i = 0; i < storage.size(); ++i) {
        if (storage[i].rid >= cfg.m || storage[i].iid >= cfg.m)
            return unexpected(DecodeError{
                DecodeErrorKind::InfoFieldRange, i,
                util::formatStr("element {} index ({}, {}) outside "
                                "the {}-wide block",
                                i, storage[i].rid, storage[i].iid,
                                cfg.m)});
    }

    CodecOutput out;
    out.values.reserve(storage.size());
    out.rids.reserve(storage.size());
    out.iids.reserve(storage.size());

    std::vector<std::deque<StorageElem>> queues(cfg.m);
    size_t cursor = 0;   // Next storage element to ingest.
    size_t pending = storage.size();
    size_t scan = 0;     // Round-robin output arbiter position.

    auto emit = [&](const StorageElem &e) {
        out.values.push_back(e.value);
        out.rids.push_back(e.rid);
        out.iids.push_back(e.iid);
        --pending;
    };

    // Queue-group occupancy telemetry, sampled once per timestep.
    const bool sample = obs::metricsEnabled();
    static const obs::Histogram occupancy = obs::histogram(
        "format.codec.queue_occupancy", 0.0, 64.0, 16);
    static const obs::Gauge occupancy_peak =
        obs::gauge("format.codec.queue_peak");

    while (pending > 0) {
        ++out.cycles;
        if (sample) {
            // Elements sitting in the Rid queues right now.
            const auto queued = static_cast<int64_t>(
                cursor - (storage.size() - pending));
            occupancy.observe(static_cast<double>(queued));
            occupancy_peak.record(queued);
        }

        // Ingest up to `lanes` elements into the Rid-indexed queues.
        for (size_t l = 0; l < cfg.lanes && cursor < storage.size(); ++l) {
            const StorageElem &e = storage[cursor++];
            queues[e.rid].push_back(e);
        }

        if (cursor < storage.size()) {
            // Steady state: the merger grants one queue per timestep,
            // chosen round-robin among queues at or above threshold.
            for (size_t probe = 0; probe < cfg.m; ++probe) {
                auto &q = queues[(scan + probe) % cfg.m];
                if (q.size() >= cfg.threshold) {
                    for (size_t k = 0; k < cfg.threshold; ++k) {
                        emit(q.front());
                        q.pop_front();
                    }
                    scan = (scan + probe + 1) % cfg.m;
                    break;
                }
            }
        } else {
            // Drain phase: ingest is finished, so the merger network
            // combines leftovers across queues into full output groups
            // (paper: "merges the remaining elements at the final
            // timestep"). One output group per timestep.
            size_t emitted = 0;
            for (size_t q = 0; q < cfg.m && emitted < cfg.threshold; ++q) {
                while (!queues[q].empty() && emitted < cfg.threshold) {
                    emit(queues[q].front());
                    queues[q].pop_front();
                    ++emitted;
                }
            }
        }
    }

    if (sample) {
        static const obs::Counter blocks =
            obs::counter("format.codec.blocks_converted");
        static const obs::Counter elems =
            obs::counter("format.codec.elements");
        static const obs::Counter cycles =
            obs::counter("format.codec.cycles");
        blocks.add();
        elems.add(storage.size());
        cycles.add(out.cycles);
    }
    return out;
}

uint64_t
passthroughCycles(size_t nnz, const CodecConfig &cfg)
{
    ensure(cfg.lanes > 0, "invalid CodecConfig");
    return (nnz + cfg.lanes - 1) / cfg.lanes;
}

} // namespace tbstc::format
