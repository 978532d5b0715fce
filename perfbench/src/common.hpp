/**
 * @file
 * Shared pieces of the benchmark harness tbstc_perfbench: clocks, the
 * nearest-rank percentile, a tiny flat JSON writer, the benchmark's own
 * span recorder (spans live in memory and are written once as a Chrome
 * trace), and the RunStats digest the grid gate compares.
 *
 * Spans here wrap calls *into* the library from outside; the library's
 * own obs::ScopedSpan sites are not used, so the layer split does not
 * depend on where the program happens to instrument itself.
 */

#ifndef TBSTC_PERFBENCH_COMMON_HPP
#define TBSTC_PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/pipeline.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the monotonic clock (same clock as Python's). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * Nearest-rank percentile: the smallest sample with at least p% of the
 * samples at or below it (v[ceil(p/100 * n) - 1] of the sorted vector).
 * Infinite samples (failed requests) sort last. Empty input gives 0.
 */
double percentile(std::vector<double> v, double p);

/** Median by the same nearest-rank rule (p = 50). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** Process user+system CPU seconds so far (getrusage self). */
double selfCpuSeconds();

/** Process peak resident set in KiB (getrusage self). */
long selfPeakRssKb();

/** FNV/splitmix digest over every field of @p s, bit for bit. */
uint64_t statsDigest(const tbstc::sim::RunStats &s);

/** A flat JSON object built key by key, in insertion order. */
class JsonOut
{
  public:
    JsonOut &num(const std::string &key, double v);
    JsonOut &integer(const std::string &key, uint64_t v);
    JsonOut &str(const std::string &key, const std::string &v);
    JsonOut &boolean(const std::string &key, bool v);
    /** Insert pre-rendered JSON (array or object) verbatim. */
    JsonOut &raw(const std::string &key, const std::string &json);
    std::string render() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Render a double as JSON (non-finite values become 1e9). */
std::string jsonNum(double v);

/** Render a JSON array of numbers. */
std::string jsonArray(const std::vector<double> &v);

/** One recorded span; times are µs since the recorder's origin. */
struct SpanRec
{
    std::string name;
    double startUs = 0.0;
    double durUs = 0.0;
    uint32_t tid = 0;
    int64_t parent = -1; ///< Index of the enclosing span, -1 at top.
    uint64_t id = 0;     ///< Request/cell id shared by related spans.
};

/**
 * In-memory span store. Disabled by default: a disabled Span costs one
 * branch, which is what keeps the untraced end-to-end runs clean.
 * Parents are tracked per thread, so nested Spans on one thread form
 * the tree self time is computed from.
 */
class Recorder
{
  public:
    static Recorder &instance();

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    size_t open(const std::string &name, uint64_t id);
    void close(size_t index);

    /** Add a finished span measured elsewhere (e.g. a client request). */
    void add(const std::string &name, Clock::time_point start,
             Clock::time_point end, uint64_t id);

    /** Sum of self time (duration minus child coverage) per name, ms. */
    std::map<std::string, double> selfMsByName() const;

    /** Chrome trace JSON (pid 1 "host", µs, ph X, args id/parent). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Recorder();
    uint32_t threadId();

    bool enabled_ = false;
    Clock::time_point origin_;
    mutable std::mutex mutex_; ///< Guards spans_ and tids_.
    std::vector<SpanRec> spans_;
    std::map<std::thread::id, uint32_t> tids_;
};

/** RAII span around one call into a layer. */
class Span
{
  public:
    explicit Span(const std::string &name, uint64_t id = 0)
    {
        if (Recorder::instance().enabled())
            index_ = Recorder::instance().open(name, id);
    }
    ~Span()
    {
        if (index_ != kNone)
            Recorder::instance().close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    static constexpr size_t kNone = static_cast<size_t>(-1);
    size_t index_ = kNone;
};

} // namespace perfbench

#endif // TBSTC_PERFBENCH_COMMON_HPP
