#include "synth.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <tuple>

#include "core/prune.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace tbstc::workload {

using core::Matrix;
using util::Rng;

uint64_t
nameHash(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

Matrix
synthWeights(const GemmShape &shape, uint64_t seed, uint64_t max_rows)
{
    uint64_t rows = shape.x;
    if (max_rows > 0)
        rows = std::min<uint64_t>(rows, max_rows);
    Rng rng(seed ^ nameHash(shape.name));
    Matrix w(rows, shape.y);

    // Trained DNN weights are not i.i.d.: magnitudes vary per output
    // channel (row), per input feature (column), and regionally (e.g.
    // filter groups). This structured variance is what makes whole
    // blocks dense or empty after global-threshold pruning — the
    // effect paper Fig. 17 measures — and what makes SDC's row
    // padding expensive. Log-normal scale fields reproduce it.
    // Output-channel (row) variance dominates in trained nets, which
    // is why the paper's Fig. 17 finds mostly column-direction blocks:
    // a block whose kept mass sits in a few hot rows is matched best
    // by a per-column top-N mask.
    std::vector<double> col_scale(shape.y);
    for (auto &s : col_scale)
        s = std::exp(rng.gaussian(0.0, 0.25));
    std::vector<double> col_block_scale((shape.y + 7) / 8);
    for (auto &s : col_block_scale)
        s = std::exp(rng.gaussian(0.0, 0.35));

    double row_block = 1.0;
    for (uint64_t r = 0; r < rows; ++r) {
        // Row-block (region) scale refreshes every 8 rows so it is
        // identical whether or not later rows get sampled away.
        if (r % 8 == 0)
            row_block = std::exp(rng.gaussian(0.0, 0.7));
        const double row_scale =
            std::exp(rng.gaussian(0.0, 0.6)) * row_block;
        for (uint64_t c = 0; c < shape.y; ++c) {
            w.at(r, c) = static_cast<float>(
                rng.heavyTail() * 0.02 * row_scale * col_scale[c]
                * col_block_scale[c / 8]);
        }
    }
    return w;
}

namespace {

using SharedLayer = std::shared_ptr<const SynthLayer>;

/** Every input synthWeights reads: name, x, y, row cap, seed. */
using SynthKey =
    std::tuple<std::string, uint64_t, uint64_t, uint64_t, uint64_t>;

struct SynthEntry
{
    std::weak_ptr<const SynthLayer> layer; ///< Set once produced.
    std::shared_future<SharedLayer> inflight; ///< Valid while producing.
};

struct SynthFlights
{
    std::mutex m;
    std::map<SynthKey, SynthEntry> entries;
};

SynthFlights &
synthFlights()
{
    static SynthFlights flights;
    return flights;
}

/** Host-domain: how often a caller shared is schedule-dependent. */
void
countSynth(bool shared)
{
    if (!obs::metricsEnabled())
        return;
    static const obs::Counter synthesized =
        obs::counter("workload.weights.synthesized", obs::Domain::Host);
    static const obs::Counter reused =
        obs::counter("workload.weights.shared", obs::Domain::Host);
    (shared ? reused : synthesized).add();
}

} // namespace

std::shared_ptr<const SynthLayer>
synthShared(const GemmShape &shape, uint64_t seed, uint64_t max_rows)
{
    SynthFlights &flights = synthFlights();
    const SynthKey key{shape.name, shape.x, shape.y, max_rows, seed};
    std::promise<SharedLayer> promise;
    {
        std::unique_lock lk(flights.m);
        const auto it = flights.entries.find(key);
        if (it != flights.entries.end()) {
            if (SharedLayer layer = it->second.layer.lock()) {
                countSynth(true);
                return layer;
            }
            if (it->second.inflight.valid()) {
                const auto flight = it->second.inflight;
                lk.unlock();
                countSynth(true);
                return flight.get(); // Rethrows the producer's error.
            }
        }
        // Entries whose layer died hold nothing but their key.
        std::erase_if(flights.entries, [](const auto &e) {
            return !e.second.inflight.valid() && e.second.layer.expired();
        });
        flights.entries[key].inflight = promise.get_future().share();
    }

    countSynth(false);
    SharedLayer layer;
    try {
        Matrix w = synthWeights(shape, seed, max_rows);
        Matrix scores = core::magnitudeScores(w);
        layer = std::make_shared<const SynthLayer>(
            SynthLayer{std::move(w), std::move(scores)});
    } catch (...) {
        {
            const std::lock_guard lk(flights.m);
            flights.entries.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    {
        // Drop the future from the map before fulfilling it: the
        // future's shared state holds the layer, and only waiters that
        // already copied it may keep that alive.
        const std::lock_guard lk(flights.m);
        SynthEntry &entry = flights.entries.at(key);
        entry.layer = layer;
        entry.inflight = {};
    }
    promise.set_value(layer);
    return layer;
}

Matrix
synthActivations(uint64_t samples, uint64_t features, uint64_t seed)
{
    Rng rng(seed ^ 0x9d2c5680u);
    Matrix x(samples, features);
    // Activations after a ReLU-ish nonlinearity: non-negative, with
    // per-feature scale diversity (some channels systematically hot),
    // which is exactly what the Wanda criterion exploits.
    std::vector<double> channel_scale(features);
    for (auto &s : channel_scale)
        s = std::exp(rng.gaussian(0.0, 0.7));
    for (uint64_t i = 0; i < samples; ++i)
        for (uint64_t f = 0; f < features; ++f)
            x.at(i, f) = static_cast<float>(
                std::max(0.0, rng.gaussian(0.0, channel_scale[f])));
    return x;
}

} // namespace tbstc::workload
