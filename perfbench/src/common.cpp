#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>

#include "serve/jsonv.hpp"
#include "util/hash.hpp"

namespace perfbench {

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
selfCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
        + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec
                                     + ru.ru_stime.tv_usec);
}

long
selfPeakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

uint64_t
statsDigest(const tbstc::sim::RunStats &s)
{
    tbstc::util::Hasher h;
    h.f64(s.cycles).f64(s.seconds).f64(s.edp);
    h.f64(s.energy.computeJ).f64(s.energy.sramJ).f64(s.energy.dramJ);
    h.f64(s.energy.codecJ).f64(s.energy.mbdJ).f64(s.energy.staticJ);
    h.f64(s.breakdown.compute).f64(s.breakdown.memory);
    h.f64(s.breakdown.codec).f64(s.breakdown.codecExposed);
    h.f64(s.breakdown.startup).f64(s.breakdown.total);
    h.f64(s.bwUtilisation).f64(s.computeUtilisation);
    h.f64(s.schedUtilisation);
    return h.digest();
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 1e9;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jsonNum(v[i]);
    return out + "]";
}

JsonOut &
JsonOut::num(const std::string &key, double v)
{
    fields_.emplace_back(key, jsonNum(v));
    return *this;
}

JsonOut &
JsonOut::integer(const std::string &key, uint64_t v)
{
    fields_.emplace_back(key, std::to_string(v));
    return *this;
}

JsonOut &
JsonOut::str(const std::string &key, const std::string &v)
{
    fields_.emplace_back(key, tbstc::serve::jsonQuote(v));
    return *this;
}

JsonOut &
JsonOut::boolean(const std::string &key, bool v)
{
    fields_.emplace_back(key, v ? "true" : "false");
    return *this;
}

JsonOut &
JsonOut::raw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
    return *this;
}

std::string
JsonOut::render() const
{
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
        if (i)
            out += ", ";
        out += tbstc::serve::jsonQuote(fields_[i].first) + ": "
            + fields_[i].second;
    }
    return out + "}";
}

Recorder::Recorder() : origin_(Clock::now()) {}

Recorder &
Recorder::instance()
{
    static Recorder r;
    return r;
}

uint32_t
Recorder::threadId()
{
    // Caller holds mutex_.
    const auto [it, inserted] = tids_.try_emplace(
        std::this_thread::get_id(), static_cast<uint32_t>(tids_.size()));
    return it->second;
}

namespace {

/** Per-thread stack of open span indices (parents of new spans). */
thread_local std::vector<size_t> tOpen;

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

size_t
Recorder::open(const std::string &name, uint64_t id)
{
    const auto now = Clock::now();
    const std::lock_guard lock(mutex_);
    SpanRec rec;
    rec.name = name;
    rec.startUs = usBetween(origin_, now);
    rec.tid = threadId();
    rec.parent = tOpen.empty() ? -1 : static_cast<int64_t>(tOpen.back());
    rec.id = id;
    spans_.push_back(std::move(rec));
    tOpen.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Recorder::close(size_t index)
{
    const auto now = Clock::now();
    const std::lock_guard lock(mutex_);
    spans_[index].durUs = usBetween(origin_, now) - spans_[index].startUs;
    if (!tOpen.empty() && tOpen.back() == index)
        tOpen.pop_back();
}

void
Recorder::add(const std::string &name, Clock::time_point start,
              Clock::time_point end, uint64_t id)
{
    const std::lock_guard lock(mutex_);
    SpanRec rec;
    rec.name = name;
    rec.startUs = usBetween(origin_, start);
    rec.durUs = usBetween(start, end);
    rec.tid = threadId();
    rec.id = id;
    spans_.push_back(std::move(rec));
}

std::map<std::string, double>
Recorder::selfMsByName() const
{
    const std::lock_guard lock(mutex_);
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durUs;
    for (const SpanRec &s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.durUs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i] / 1e3;
    return out;
}

bool
Recorder::writeChromeTrace(const std::string &path) const
{
    const std::lock_guard lock(mutex_);
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\": [\n"
      << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"host\"}}";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        f << ",\n{\"name\": " << tbstc::serve::jsonQuote(s.name)
          << ", \"ph\": \"X\", \"ts\": " << jsonNum(s.startUs)
          << ", \"dur\": " << jsonNum(s.durUs) << ", \"pid\": 1, \"tid\": "
          << s.tid << ", \"args\": {\"span\": " << i
          << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}}";
    }
    f << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench
