#include "synth.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
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

namespace detail {

SynthPlan::SynthPlan(const GemmShape &shape, uint64_t seed,
                     uint64_t max_rows)
    : rows(max_rows > 0 ? std::min<uint64_t>(shape.x, max_rows)
                        : shape.x),
      cols(shape.y), rng(seed ^ nameHash(shape.name))
{
    const uint64_t width = std::max<uint64_t>(cols, 1);
    chunkRows = ((kSynthChunkElements + width - 1) / width + 7) / 8 * 8;

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
    colScale.resize(cols);
    for (auto &s : colScale)
        s = std::exp(rng.gaussian(0.0, 0.25));
    colBlockScale.resize((cols + 7) / 8);
    for (auto &s : colBlockScale)
        s = std::exp(rng.gaussian(0.0, 0.35));
}

size_t
SynthPlan::chunks() const
{
    return (rows + chunkRows - 1) / chunkRows;
}

Rng
SynthPlan::chunkStart(size_t k) const
{
    Rng start = rng;
    if (k == 0)
        return start;
    // Row r makes `cols` uniform calls and cols + 1 + [r % 8 == 0]
    // gaussian calls, and a gaussian call takes two draws exactly
    // when it finds no spare. The column scales leave a spare behind
    // iff they made an odd number of gaussian calls.
    const uint64_t first = k * chunkRows;
    const uint64_t uniforms = first * cols;
    const uint64_t gaussians = first * (cols + 1) + first / 8;
    const uint64_t spare0 = (cols + colBlockScale.size()) % 2;
    const uint64_t draws = uniforms + 2 * ((gaussians - spare0 + 1) / 2);
    if ((spare0 + gaussians) % 2 == 0) {
        start.jump(draws);
        return start;
    }
    // A spare is pending at the boundary: the row's last gaussian call
    // drew a fresh pair, so rebuild it from those two draws through
    // gaussian()'s own Box-Muller code.
    start.jump(draws - 2);
    (void)start.gaussian();
    return start;
}

Rng
SynthPlan::fill(size_t k, Rng gen, float *out, Output what) const
{
    const uint64_t first = k * chunkRows;
    const uint64_t last = std::min(rows, first + chunkRows);
    double row_block = 1.0;
    for (uint64_t r = first; r < last; ++r) {
        // Row-block (region) scale refreshes every 8 rows so it is
        // identical whether or not later rows get sampled away.
        if (r % 8 == 0)
            row_block = std::exp(gen.gaussian(0.0, 0.7));
        const double row_scale =
            std::exp(gen.gaussian(0.0, 0.6)) * row_block;
        float *row = out + r * cols;
        for (uint64_t c = 0; c < cols; ++c) {
            const auto x = static_cast<float>(
                gen.heavyTail() * 0.02 * row_scale * colScale[c]
                * colBlockScale[c / 8]);
            row[c] = what == Output::Magnitudes ? std::fabs(x) : x;
        }
    }
    return gen;
}

size_t
settleChunks(const SynthPlan &plan, std::span<const Rng> starts,
             std::span<const Rng> ends, float *out, SynthPlan::Output what)
{
    const size_t chunks = plan.chunks();
    util::ensure(starts.size() == chunks && ends.size() == chunks,
                 "settleChunks: one start and end state per chunk");
    // gaussian() redraws a zero uniform (p = 2^-53 per pair), which
    // shifts every later chunk's true start by one draw.
    Rng expected = plan.rng;
    for (size_t k = 0; k < chunks; ++k) {
        if (starts[k] == expected) {
            expected = ends[k];
            continue;
        }
        for (size_t j = k; j < chunks; ++j)
            expected = plan.fill(j, expected, out, what);
        return k;
    }
    return chunks;
}

} // namespace detail

namespace {

/**
 * One synthesis: its plan, output buffer and a claim counter over
 * the plan's row chunks. Any thread may claim and fill chunks; the
 * owner's finish() returns once every chunk is filled and settled.
 */
class SynthWork
{
  public:
    using Output = detail::SynthPlan::Output;

    /** Draw the plan and allocate the output. */
    void
    plan(const GemmShape &shape, uint64_t seed, uint64_t max_rows,
         Output what)
    {
        detail::SynthPlan plan(shape, seed, max_rows);
        // Every element is written by exactly one chunk fill, so the
        // buffer is paged in as the chunks fill it, not up front.
        Matrix buffer(plan.rows, plan.cols, Matrix::Uninitialized{});
        {
            const std::lock_guard lk(m_);
            starts_.resize(plan.chunks());
            ends_.resize(plan.chunks());
            plan_.emplace(std::move(plan));
            out = std::move(buffer);
            what_ = what;
            state_ = State::Ready;
        }
        cv_.notify_all();
    }

    /** Planning threw: release helpers waiting for the plan. */
    void
    abandon()
    {
        {
            const std::lock_guard lk(m_);
            if (state_ == State::Planning)
                state_ = State::Abandoned;
        }
        cv_.notify_all();
    }

    /**
     * Wait for the plan, then claim and fill chunks until none is
     * left. Returns how many this caller filled.
     */
    size_t
    help()
    {
        {
            std::unique_lock lk(m_);
            cv_.wait(lk, [&] { return state_ != State::Planning; });
            if (state_ == State::Abandoned)
                return 0;
        }
        size_t filled = 0;
        while (fillNext())
            ++filled;
        return filled;
    }

    /**
     * The owner's part: fan the chunks over the pool (inline when
     * nested), wait for the chunks helpers claimed, then settle.
     */
    void
    finish()
    {
        const size_t chunks = plan_->chunks();
        util::runChunked(chunks, [&](size_t) { fillNext(); });
        {
            std::unique_lock lk(m_);
            cv_.wait(lk, [&] { return filled_ == chunks; });
        }
        detail::settleChunks(*plan_, starts_, ends_, out.data().data(),
                             what_);
    }

    Matrix out;

  private:
    enum class State { Planning, Ready, Abandoned };

    /** Claim one chunk and fill it; false once none is left. */
    bool
    fillNext()
    {
        const size_t k = next_.fetch_add(1);
        if (k >= plan_->chunks())
            return false;
        starts_[k] = plan_->chunkStart(k);
        ends_[k] = plan_->fill(k, starts_[k], out.data().data(), what_);
        bool last = false;
        {
            const std::lock_guard lk(m_);
            last = ++filled_ == plan_->chunks();
        }
        if (last)
            cv_.notify_all();
        return true;
    }

    std::mutex m_;
    std::condition_variable cv_;
    State state_ = State::Planning;
    Output what_ = Output::Weights;
    size_t filled_ = 0;
    std::atomic<size_t> next_{0};
    std::optional<detail::SynthPlan> plan_;
    std::vector<Rng> starts_;
    std::vector<Rng> ends_;
};

} // namespace

Matrix
synthWeights(const GemmShape &shape, uint64_t seed, uint64_t max_rows)
{
    SynthWork work;
    work.plan(shape, seed, max_rows, SynthWork::Output::Weights);
    work.finish();
    return std::move(work.out);
}

namespace {

using SharedLayer = std::shared_ptr<const Matrix>;

/** Every input synthWeights reads: name, x, y, row cap, seed. */
using SynthKey =
    std::tuple<std::string, uint64_t, uint64_t, uint64_t, uint64_t>;

struct SynthEntry
{
    std::weak_ptr<const Matrix> layer; ///< Set once produced.
    std::shared_future<SharedLayer> inflight; ///< Valid while producing.
    std::shared_ptr<SynthWork> work; ///< Set while producing.
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

/** Join a flight in progress: fill its unclaimed chunks, then wait. */
SharedLayer
joinFlight(const std::shared_future<SharedLayer> &flight, SynthWork &work)
{
    {
        const obs::ScopedSpan span("workload.synth.help");
        const size_t helped = work.help();
        if (obs::metricsEnabled()) {
            static const obs::Counter chunks = obs::counter(
                "workload.weights.chunks_helped", obs::Domain::Host);
            chunks.add(helped);
        }
    }
    const obs::ScopedSpan span("workload.synth.wait");
    return flight.get(); // Rethrows the producer's error.
}

} // namespace

std::shared_ptr<const Matrix>
synthShared(const GemmShape &shape, uint64_t seed, uint64_t max_rows)
{
    SynthFlights &flights = synthFlights();
    const SynthKey key{shape.name, shape.x, shape.y, max_rows, seed};
    std::promise<SharedLayer> promise;
    std::shared_ptr<SynthWork> work;
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
                const auto joined = it->second.work;
                lk.unlock();
                countSynth(true);
                return joinFlight(flight, *joined);
            }
        }
        // Entries whose layer died hold nothing but their key.
        std::erase_if(flights.entries, [](const auto &e) {
            return !e.second.inflight.valid() && e.second.layer.expired();
        });
        SynthEntry &entry = flights.entries[key];
        entry.inflight = promise.get_future().share();
        entry.work = work = std::make_shared<SynthWork>();
    }

    countSynth(false);
    SharedLayer layer;
    try {
        const obs::ScopedSpan span("workload.synth.produce");
        work->plan(shape, seed, max_rows, SynthWork::Output::Magnitudes);
        work->finish();
        layer = std::make_shared<const Matrix>(std::move(work->out));
    } catch (...) {
        work->abandon();
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
        entry.work.reset();
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
