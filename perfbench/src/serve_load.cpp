#include "serve_load.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "replay.hpp"
#include "serve/exec.hpp"
#include "serve/loadgen.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

extern char **environ;

namespace perfbench {

using namespace tbstc;
using serve::Op;
using serve::Request;

namespace {

/** Daemon worker threads; with the client's two connections, 4 cores. */
constexpr size_t kDaemonThreads = 2;
/** Client connections in both phases (each pipelines in the open loop). */
constexpr size_t kConnections = 2;
/** Share of --seconds given to the open-loop phase; the rest is closed. */
constexpr double kOpenShare = 0.6;
/** Verified extra sample of serve_unique beyond one request per class. */
constexpr size_t kUniqueExtraSample = 24;
/** Daemon start-ups per run; setup_s is their median. */
constexpr size_t kSetups = 7;
/**
 * Daemons the measured windows are spread over: the last kDaemons of
 * the kSetups start-ups. One daemon instance that happens to run slowly
 * (thread placement, a host stall during its windows) then moves at
 * most a third of the windows.
 */
constexpr size_t kDaemons = 3;
/**
 * Windows the measured phases are split into, each an open-loop slice
 * then a closed-loop slice, kWindows / kDaemons per daemon. Latency and
 * throughput are the median over the windows, so one slow second on
 * the host moves them by at most one rank.
 */
constexpr size_t kWindows = 9;
static_assert(kWindows % kDaemons == 0 && kDaemons <= kSetups);
/** Milliseconds to wait for any single answer before calling it failed. */
constexpr uint64_t kAnswerTimeoutMs = 30000;

/**
 * Load levels, fixed once on a shared 4-core x86-64 host with the daemon
 * at --threads 2 (perfbench/README.md says why these values): the
 * open-loop rate, and the closed-loop throughput measured there, which
 * sizes the closed phase to about its share of --seconds. They are
 * constants: a change to the program must not retune them.
 */
struct LoadLevel
{
    double openRate;  ///< Open-loop arrivals, req/s.
    double closedRps; ///< Closed-loop throughput used for sizing.
};

LoadLevel
loadLevel(Traffic t)
{
    return t == Traffic::Repeat ? LoadLevel{150.0, 1800.0}
                                : LoadLevel{35.0, 110.0};
}

/** Largest seed the JSON wire carries exactly (doubles, 2^53). */
uint64_t
wireSeed(uint64_t s)
{
    return s & ((1ull << 52) - 1);
}

uint64_t
uniqueSeed(uint64_t seed, size_t i)
{
    util::Hasher h;
    h.str("perfbench.serve_unique").u64(seed).u64(i);
    return wireSeed(h.digest());
}

// ---------------------------------------------------------------------
// Daemon process control

struct Daemon
{
    pid_t pid = -1;
    int outFd = -1;
    uint16_t port = 0;
};

bool
readLine(int fd, std::string &line, int timeoutMs)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    line.clear();
    for (;;) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now());
        if (left.count() <= 0)
            return false;
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, static_cast<int>(left.count())) <= 0)
            continue;
        char c = 0;
        const ssize_t n = ::read(fd, &c, 1);
        if (n <= 0)
            return false;
        if (c == '\n')
            return true;
        line.push_back(c);
    }
}

bool
spawnDaemon(const ServeLoadOptions &opts, Daemon &d, std::string &err)
{
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) {
        err = "pipe failed";
        return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, pipefd[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, opts.logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string threads = std::to_string(kDaemonThreads);
    std::vector<std::string> args{opts.tbstc, "serve", "--port", "0",
                                  "--threads", threads};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&d.pid, opts.tbstc.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(pipefd[1]);
    d.outFd = pipefd[0];
    if (rc != 0) {
        d.pid = -1;
        err = "cannot spawn " + opts.tbstc;
        return false;
    }
    std::string line;
    const std::string prefix = "listening tcp 127.0.0.1:";
    if (!readLine(d.outFd, line, 30000)
        || line.compare(0, prefix.size(), prefix) != 0) {
        err = "daemon did not report its port (got '" + line + "')";
        return false;
    }
    d.port = static_cast<uint16_t>(std::stoul(line.substr(prefix.size())));
    return true;
}

/** SIGTERM, then wait (SIGKILL after 30 s); true on a clean exit 0. */
bool
stopDaemon(Daemon &d)
{
    bool clean = false;
    if (d.pid > 0) {
        ::kill(d.pid, SIGTERM);
        int status = 0;
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        for (;;) {
            const pid_t r = ::waitpid(d.pid, &status, WNOHANG);
            if (r == d.pid) {
                clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
                break;
            }
            if (Clock::now() > deadline) {
                ::kill(d.pid, SIGKILL);
                ::waitpid(d.pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        d.pid = -1;
    }
    if (d.outFd >= 0)
        ::close(d.outFd);
    d.outFd = -1;
    return clean;
}

/** User+system CPU seconds of @p pid from /proc/<pid>/stat. */
double
procCpuSeconds(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string all((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
    const size_t close = all.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream rest(all.substr(close + 2));
    std::vector<std::string> fields;
    for (std::string tok; rest >> tok;)
        fields.push_back(tok);
    if (fields.size() < 13)
        return 0.0;
    // Fields 14 (utime) and 15 (stime), counted from field 3 here.
    const double ticks = std::stod(fields[11]) + std::stod(fields[12]);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/** A "Vm...:" line of /proc/<pid>/status, in KiB. */
long
procStatusKb(pid_t pid, const std::string &key)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(f, line);)
        if (line.compare(0, key.size(), key) == 0)
            return std::stol(line.substr(key.size()));
    return 0;
}

/**
 * A connection as the repository's own clients open one: no socket
 * options, so Nagle and the kernel's delayed ACKs apply on the client
 * side and the latencies are those an ordinary client sees.
 */
int
connectTo(uint16_t port)
{
    std::string err;
    return serve::connectClient("", port, err);
}

bool
readAnswer(int fd, std::string &out)
{
    return serve::readFrameDeadline(fd, out, serve::kDefaultMaxFrameBytes,
                                    {kAnswerTimeoutMs, kAnswerTimeoutMs})
        == serve::FrameStatus::Ok;
}

bool
roundTrip(int fd, const std::string &payload, std::string &resp)
{
    return serve::writeFrame(fd, payload) && readAnswer(fd, resp);
}

/** Id of a response frame ({"id": N, ...}); 0 when unparseable. */
uint64_t
responseId(const std::string &resp)
{
    static const std::string prefix = "{\"id\": ";
    if (resp.compare(0, prefix.size(), prefix) != 0)
        return 0;
    return std::strtoull(resp.c_str() + prefix.size(), nullptr, 10);
}

bool
responseOk(const std::string &resp)
{
    return resp.find("\"ok\": true") != std::string::npos;
}

// ---------------------------------------------------------------------
// Phases

struct Outcome
{
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point done;
    bool answered = false;
    bool ok = false;
    std::string resp;
};

/**
 * Open loop: request i is due at start + offsets[i] and goes out on
 * connection fds[i % kConnections] whether or not earlier answers are
 * back. One sender serves both connections in due order; a receiver per
 * connection matches answers by id.
 */
void
openLoop(std::span<const int> fds, std::span<const std::string> payloads,
         std::span<const double> offsets, uint64_t idBase,
         std::span<Outcome> out)
{
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    for (size_t i = 0; i < out.size(); ++i)
        out[i].due = start
            + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets[i]
                                                       - offsets[0]));
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        for (size_t i = 0; i < out.size(); ++i) {
            std::this_thread::sleep_until(out[i].due);
            out[i].sent = Clock::now();
            // A connection that cannot be written to is shut down, so its
            // receiver stops; its requests stay unanswered (failed).
            if (!serve::writeFrame(fds[i % kConnections], payloads[i]))
                ::shutdown(fds[i % kConnections], SHUT_RDWR);
        }
    });
    for (size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            size_t expected = 0;
            for (size_t i = c; i < out.size(); i += kConnections)
                ++expected;
            std::string resp;
            for (size_t k = 0; k < expected; ++k) {
                if (!readAnswer(fds[c], resp))
                    return;
                const uint64_t id = responseId(resp);
                if (id < idBase || id - idBase >= out.size())
                    continue;
                Outcome &o = out[id - idBase];
                o.done = Clock::now();
                o.answered = true;
                o.ok = responseOk(resp);
                o.resp = resp;
            }
        });
    }
    for (auto &t : threads)
        t.join();
}

/** Closed loop: each connection keeps exactly one request outstanding. */
double
closedLoop(std::span<const int> fds, std::span<const std::string> payloads,
           std::span<Outcome> out)
{
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            std::string resp;
            for (size_t i = c; i < out.size(); i += kConnections) {
                Outcome &o = out[i];
                o.due = o.sent = Clock::now();
                if (!roundTrip(fds[c], payloads[i], resp))
                    break;
                o.done = Clock::now();
                o.answered = true;
                o.ok = responseOk(resp);
                o.resp = resp;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    auto last = start;
    for (const Outcome &o : out)
        if (o.answered && o.done > last)
            last = o.done;
    return std::chrono::duration<double>(last - start).count();
}

/** Counters read from the daemon's `stats` op. */
struct StatsSnap
{
    double accepted = 0, batches = 0, dedup = 0, busy = 0;
    double profHits = 0, profMisses = 0, simHits = 0, simMisses = 0;

    /** Add the counts between @p before and @p after to this total. */
    void addDelta(const StatsSnap &before, const StatsSnap &after)
    {
        accepted += after.accepted - before.accepted;
        batches += after.batches - before.batches;
        dedup += after.dedup - before.dedup;
        busy += after.busy - before.busy;
        profHits += after.profHits - before.profHits;
        profMisses += after.profMisses - before.profMisses;
        simHits += after.simHits - before.simHits;
        simMisses += after.simMisses - before.simMisses;
    }
};

bool
fetchStats(uint16_t port, uint64_t id, StatsSnap &s)
{
    const int fd = connectTo(port);
    if (fd < 0)
        return false;
    std::string resp;
    const bool ok = roundTrip(
        fd, "{\"id\": " + std::to_string(id) + ", \"op\": \"stats\"}", resp);
    ::close(fd);
    if (!ok)
        return false;
    const auto doc = serve::parseJson(resp);
    if (!doc)
        return false;
    const auto &result = doc->get("result");
    const auto &server = result.get("server");
    const auto &counters = result.get("metrics").get("host").get("counters");
    s.accepted = server.get("accepted").asNumber();
    s.batches = server.get("batches").asNumber();
    s.dedup = server.get("dedup_hits").asNumber();
    s.busy = server.get("busy_rejected").asNumber();
    s.profHits = counters.get("cache.profile.hits").asNumber();
    s.profMisses = counters.get("cache.profile.misses").asNumber();
    s.simHits = counters.get("cache.sim.hits").asNumber();
    s.simMisses = counters.get("cache.sim.misses").asNumber();
    return true;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// In-process reference execution

struct Reference
{
    std::string result;      ///< Result JSON the daemon must return.
    sim::RunStats stats;     ///< Run requests only.
    double execMs = 0.0;     ///< First (cold) in-process execution.
    std::vector<double> hitMs; ///< Repeated executions (traced runs).
};

/** Execute @p req in process, timing it inside a layer span. */
std::string
execute(const Request &req, sim::RunStats *stats, double &ms)
{
    const auto t0 = Clock::now();
    std::string out;
    try {
        if (req.op == Op::Run) {
            const Span span("serve.exec.run", req.id);
            const sim::RunStats s = serve::executeRun(req.run);
            out = serve::runResultJson(s, accel::accelName(req.run.kind));
            if (stats)
                *stats = s;
        } else {
            const Span span("serve.exec.sparsify", req.id);
            out = serve::sparsifyResultJson(
                serve::executeSparsify(req.sparsify));
        }
    } catch (const std::exception &e) {
        out = std::string("exception: ") + e.what();
    }
    ms = msSince(t0);
    return out;
}

std::string
classKey(const Request &req)
{
    if (req.op == Op::Sparsify)
        return "sparsify " + req.sparsify.layer;
    return "run " + serve::accelWireName(req.run.kind) + " "
        + req.run.layer + " " + std::to_string(req.run.sparsity);
}

/** Geomean over (layer, sparsity) of TC/TB-STC cycles and EDP. */
std::pair<double, double>
simGains(const std::vector<const Request *> &reqs,
         const std::vector<const Reference *> &refs)
{
    struct Acc
    {
        std::vector<double> tcC, tbC, tcE, tbE;
    };
    std::map<std::string, Acc> byPoint;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const Request &r = *reqs[i];
        if (r.op != Op::Run)
            continue;
        Acc &a = byPoint[r.run.layer + " " + std::to_string(r.run.sparsity)];
        const sim::RunStats &s = refs[i]->stats;
        if (r.run.kind == accel::AccelKind::TC) {
            a.tcC.push_back(s.cycles);
            a.tcE.push_back(s.edp);
        } else if (r.run.kind == accel::AccelKind::TbStc) {
            a.tbC.push_back(s.cycles);
            a.tbE.push_back(s.edp);
        }
    }
    std::vector<double> speed, edp;
    for (const auto &[key, a] : byPoint) {
        if (a.tcC.empty() || a.tbC.empty())
            continue;
        speed.push_back(util::geomean(a.tcC) / util::geomean(a.tbC));
        edp.push_back(util::geomean(a.tcE) / util::geomean(a.tbE));
    }
    if (speed.empty())
        return {0.0, 0.0};
    return {util::geomean(speed), util::geomean(edp)};
}

std::string
renderLayers(const std::map<std::string, double> &m)
{
    JsonOut j;
    for (const auto &[k, v] : m)
        j.num(k, v);
    return j.render();
}

} // namespace

std::vector<Request>
buildStream(Traffic t, size_t n, uint64_t seed)
{
    auto mix = serve::buildMix(n, seed);
    for (size_t i = 0; i < mix.size(); ++i) {
        const uint64_t s =
            t == Traffic::Unique ? uniqueSeed(seed, i) : wireSeed(seed);
        mix[i].run.seed = s;
        mix[i].sparsify.seed = s;
    }
    return mix;
}

std::vector<double>
arrivalSchedule(size_t n, double rate, uint64_t seed)
{
    util::Rng rng(seed ^ 0x6f70656e6c6f6f70ull);
    std::vector<double> out(n);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        out[i] = t;
        t += (0.5 + rng.uniform()) / rate;
    }
    return out;
}

std::string
signature(const Request &req)
{
    Request key = req;
    key.id = 0;
    key.deadlineMs = 0;
    return serve::serializeRequest(key);
}

double
cacheHitUs(uint64_t seed)
{
    std::set<std::string> seen;
    std::vector<double> us;
    for (const auto &req : buildStream(Traffic::Repeat, 400, seed)) {
        if (req.op != serve::Op::Run || !seen.insert(signature(req)).second)
            continue;
        const auto shape = serve::tryParseLayer(req.run.layer, "cli.layer");
        if (!shape)
            continue;
        const auto spec = layerSpec(req.run.kind, *shape, req.run.sparsity,
                                    req.run.seed);
        const auto cfg = accel::accelConfig(req.run.kind);
        std::vector<double> reps;
        for (int k = 0; k < 6; ++k) { // First call fills the cache.
            const auto t0 = Clock::now();
            const Span span("cache.hit", req.id);
            sim::simulateLayer(workload::buildLayerProfile(spec), cfg);
            if (k > 0)
                reps.push_back(msSince(t0) * 1e3);
        }
        us.push_back(median(reps));
    }
    return median(us);
}

namespace {

/** Index range of window @p w when @p total items split in kWindows. */
std::pair<size_t, size_t>
windowSlice(size_t total, size_t w)
{
    return {total * w / kWindows, total * (w + 1) / kWindows};
}

std::string
pingRequest(uint64_t id)
{
    return "{\"id\": " + std::to_string(id) + ", \"op\": \"ping\"}";
}

/** Open-loop latency from the due time; a failure misses any limit. */
double
latencyMs(const Outcome &o)
{
    return o.ok ? std::chrono::duration<double, std::milli>(o.done - o.due)
                      .count()
                : INFINITY;
}

/** One measured window: its slices of the stream, and its closed time. */
struct Window
{
    size_t open0 = 0, open1 = 0;     ///< Open-loop slice of the stream.
    size_t closed0 = 0, closed1 = 0; ///< Closed-loop slice of the stream.
    double closedS = 0.0;
};

/** One serve workload run, from request plan to result document. */
class ServeRun
{
  public:
    explicit ServeRun(const ServeLoadOptions &opts);
    ServeRun(const ServeRun &) = delete;
    ServeRun &operator=(const ServeRun &) = delete;
    ~ServeRun() { stopDaemon(daemon_); }

    /** Run every phase; false with @p err when the daemon misbehaves. */
    bool run(std::string &err);

    /** The result document (traced runs also replay and add layers). */
    std::string report();

  private:
    void chooseReferences();
    void computeReferences();
    const Reference *referenceFor(size_t i) const;
    bool startDaemon(std::string &err);
    void measure(size_t daemon);
    void check();
    std::map<std::string, double> layerMetrics();
    double lateP99Ms() const;

    /** Median over the windows of @p f(window). */
    template <typename Fn>
    double medianOver(Fn f) const
    {
        std::vector<double> v;
        for (const Window &w : windows_)
            v.push_back(f(w));
        return median(v);
    }

    const ServeLoadOptions &opts_;
    const bool repeat_;
    const LoadLevel level_;
    size_t nOpen_ = 0;
    size_t nClosed_ = 0;
    std::vector<Request> stream_;
    std::vector<std::string> payloads_;
    std::vector<double> offsets_; ///< Open-loop arrival schedule.
    uint64_t nextId_ = 0; ///< Ids of warm-up, stats and ping requests.

    // serve_repeat checks every distinct request (which is also its
    // warm-up set); serve_unique checks the first request of each class
    // plus a seeded sample.
    std::vector<size_t> refIdx_;
    std::map<std::string, size_t> refBySig_; ///< serve_repeat only.
    std::map<size_t, Reference> refs_;

    Daemon daemon_;
    std::vector<double> setupS_;
    std::vector<Window> windows_;
    std::vector<Outcome> outcomes_;
    // Summed over the measured daemons: counter deltas over their
    // windows, wall and CPU time, and RSS growth. Peak RSS is per daemon.
    StatsSnap delta_;
    bool statsOk_ = true;
    bool drained_ = false;
    double wallS_ = 0.0, cpuS_ = 0.0;
    long rssGrowthKb_ = 0;
    std::vector<double> peakRssKb_;
    std::vector<double> pingUs_;
    uint64_t failed_ = 0;
    uint64_t mismatches_ = 0;
};

ServeRun::ServeRun(const ServeLoadOptions &opts)
    : opts_(opts), repeat_(opts.traffic == Traffic::Repeat),
      level_(loadLevel(opts.traffic))
{
    // The measured phases together take about --seconds.
    nOpen_ = std::max<size_t>(
        kWindows,
        static_cast<size_t>(kOpenShare * opts.seconds * level_.openRate));
    nClosed_ = std::max<size_t>(
        kWindows, static_cast<size_t>((1.0 - kOpenShare) * opts.seconds
                                      * level_.closedRps));
    const size_t n = nOpen_ + nClosed_;
    stream_ = buildStream(opts.traffic, n, opts.seed);
    for (const Request &req : stream_)
        payloads_.push_back(serve::serializeRequest(req));
    offsets_ = arrivalSchedule(nOpen_, level_.openRate, opts.seed);
    outcomes_.resize(n);
    nextId_ = n + 1;
    chooseReferences();
}

void
ServeRun::chooseReferences()
{
    std::set<std::string> classes;
    for (size_t i = 0; i < stream_.size(); ++i) {
        if (repeat_) {
            if (refBySig_.try_emplace(signature(stream_[i]), i).second)
                refIdx_.push_back(i);
        } else if (classes.insert(classKey(stream_[i])).second) {
            refIdx_.push_back(i);
        }
    }
    if (repeat_)
        return;
    util::Rng rng(opts_.seed ^ 0x73616d706c65ull);
    std::set<size_t> have(refIdx_.begin(), refIdx_.end());
    while (refIdx_.size() < classes.size() + kUniqueExtraSample
           && have.size() < stream_.size()) {
        const size_t i = rng.below(stream_.size());
        if (have.insert(i).second)
            refIdx_.push_back(i);
    }
}

void
ServeRun::computeReferences()
{
    for (const size_t i : refIdx_) {
        Reference &r = refs_[i];
        r.result = execute(stream_[i], &r.stats, r.execMs);
        // Traced runs time warm re-executions too (exec and wait metrics).
        for (int k = 0; opts_.traced && k < 3; ++k) {
            double ms = 0.0;
            execute(stream_[i], nullptr, ms);
            r.hitMs.push_back(ms);
        }
    }
}

const Reference *
ServeRun::referenceFor(size_t i) const
{
    if (repeat_)
        return &refs_.at(refBySig_.at(signature(stream_[i])));
    const auto it = refs_.find(i);
    return it == refs_.end() ? nullptr : &it->second;
}

/**
 * Set-up: spawn until a ping round trip proves the daemon accepts, plus
 * (serve_repeat) one pass over every distinct request, checked. setup_s
 * is the median over the run's kSetups start-ups.
 */
bool
ServeRun::startDaemon(std::string &err)
{
    const auto t0 = Clock::now();
    if (!spawnDaemon(opts_, daemon_, err))
        return false;
    int fd = -1;
    std::string resp;
    while ((fd = connectTo(daemon_.port)) < 0
           && msSince(t0) < kAnswerTimeoutMs)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (fd < 0 || !roundTrip(fd, pingRequest(nextId_++), resp)) {
        if (fd >= 0)
            ::close(fd);
        err = "daemon does not answer";
        return false;
    }
    // One request at a time: pipelined, the daemon's answers would wait
    // on Nagle for the client's delayed ACK, and the pass would take one
    // of two durations depending on the ACK timer.
    for (size_t a = 0; repeat_ && a < refIdx_.size(); ++a) {
        Request warm = stream_[refIdx_[a]];
        warm.id = nextId_++;
        if (!roundTrip(fd, serve::serializeRequest(warm), resp)) {
            ++failed_;
            break;
        }
        const std::string &want = refs_.at(refIdx_[a]).result;
        if (resp != serve::okResponse(warm.id, want))
            ++mismatches_;
    }
    ::close(fd);
    setupS_.push_back(msSince(t0) / 1e3);
    return true;
}

/**
 * The measured phases on measured daemon @p daemon: its kWindows /
 * kDaemons windows, each an open-loop slice of the schedule then a
 * closed-loop slice, so that both phases sample the whole run; on the
 * same two connections throughout, as one client with two connections
 * would.
 */
void
ServeRun::measure(size_t daemon)
{
    std::vector<int> fds(kConnections);
    for (int &fd : fds)
        fd = connectTo(daemon_.port);
    StatsSnap before, after;
    const bool ok0 = fetchStats(daemon_.port, nextId_++, before);
    const double cpu0 = procCpuSeconds(daemon_.pid);
    const long rss0 = procStatusKb(daemon_.pid, "VmRSS:");
    const auto t0 = Clock::now();

    const std::span<const std::string> payloads(payloads_);
    const std::span<Outcome> outcomes(outcomes_);
    constexpr size_t kPerDaemon = kWindows / kDaemons;
    for (size_t k = daemon * kPerDaemon; k < (daemon + 1) * kPerDaemon;
         ++k) {
        Window &w = windows_.emplace_back();
        std::tie(w.open0, w.open1) = windowSlice(nOpen_, k);
        std::tie(w.closed0, w.closed1) = windowSlice(nClosed_, k);
        w.closed0 += nOpen_;
        w.closed1 += nOpen_;
        const size_t on = w.open1 - w.open0;
        openLoop(fds, payloads.subspan(w.open0, on),
                 std::span<const double>(offsets_).subspan(w.open0, on),
                 w.open0 + 1, outcomes.subspan(w.open0, on));
        const size_t cn = w.closed1 - w.closed0;
        w.closedS = closedLoop(fds, payloads.subspan(w.closed0, cn),
                               outcomes.subspan(w.closed0, cn));
    }

    wallS_ += std::chrono::duration<double>(Clock::now() - t0).count();
    cpuS_ += procCpuSeconds(daemon_.pid) - cpu0;
    rssGrowthKb_ += procStatusKb(daemon_.pid, "VmRSS:") - rss0;
    peakRssKb_.push_back(
        static_cast<double>(procStatusKb(daemon_.pid, "VmHWM:")));
    for (const int fd : fds)
        if (fd >= 0)
            ::close(fd);
    const bool ok1 = ok0 && fetchStats(daemon_.port, nextId_++, after);
    statsOk_ = statsOk_ && ok1;
    if (ok1) {
        delta_.addDelta(before, after);
        // The "after" stats request is itself one accepted request in
        // one batch.
        delta_.accepted -= 1.0;
        delta_.batches -= 1.0;
    }

    if (opts_.traced && daemon + 1 == kDaemons) {
        // Ping round trips (they skip the queue) on the idle daemon.
        const int fd = connectTo(daemon_.port);
        std::string resp;
        for (int k = 0; fd >= 0 && k < 200; ++k) {
            const auto p0 = Clock::now();
            if (!roundTrip(fd, pingRequest(nextId_++), resp))
                break;
            pingUs_.push_back(msSince(p0) * 1e3);
        }
        if (fd >= 0)
            ::close(fd);
    }
}

/**
 * Failures, and answers that differ from the in-process reference,
 * both count as failed operations (a mismatch is also not "ok" for the
 * latency and throughput figures).
 */
void
ServeRun::check()
{
    for (size_t i = 0; i < stream_.size(); ++i) {
        Outcome &o = outcomes_[i];
        const Reference *ref = referenceFor(i);
        if (!o.ok) {
            ++failed_;
        } else if (ref
                   && o.resp != serve::okResponse(stream_[i].id,
                                                  ref->result)) {
            ++mismatches_;
            o.ok = false;
        }
    }
    failed_ += mismatches_;
}

bool
ServeRun::run(std::string &err)
{
    if (repeat_)
        computeReferences(); // The warm-up pass is checked against them.
    drained_ = true;
    // Each start-up but the last kDaemons is torn down at once; those
    // each take their share of the measured windows first.
    for (size_t k = 0; k < kSetups; ++k) {
        if (!startDaemon(err))
            return false;
        if (k + kDaemons >= kSetups)
            measure(k + kDaemons - kSetups);
        drained_ = stopDaemon(daemon_) && drained_;
    }
    if (!repeat_)
        computeReferences(); // After the phases, off the measured path.
    check();
    return true;
}

/** How late the open-loop senders ran: p99 of send minus due time. */
double
ServeRun::lateP99Ms() const
{
    std::vector<double> late;
    for (size_t i = 0; i < nOpen_; ++i)
        late.push_back(std::chrono::duration<double, std::milli>(
                           outcomes_[i].sent - outcomes_[i].due)
                           .count());
    return percentile(late, 99.0);
}

std::string
ServeRun::report()
{
    const auto openLatency = [&](const Window &w, double p) {
        std::vector<double> lat;
        for (size_t i = w.open0; i < w.open1; ++i)
            lat.push_back(latencyMs(outcomes_[i]));
        return percentile(lat, p);
    };
    const auto throughput = [&](const Window &w) {
        double ok = 0.0;
        for (size_t i = w.closed0; i < w.closed1; ++i)
            ok += outcomes_[i].ok;
        return ratio(ok, w.closedS);
    };

    std::vector<const Request *> refReqs;
    std::vector<const Reference *> refVals;
    for (const size_t i : refIdx_) {
        refReqs.push_back(&stream_[i]);
        refVals.push_back(&refs_.at(i));
    }
    const auto [speedup, edpGain] = simGains(refReqs, refVals);

    JsonOut j;
    j.raw("setup_runs_s", jsonArray(setupS_));
    j.num("setup_s", median(setupS_));
    j.num("wall_s", wallS_);
    j.num("cpu_s", cpuS_);
    j.num("peak_rss_kb", median(peakRssKb_));
    j.num("latency_p50_ms",
          medianOver([&](const Window &w) { return openLatency(w, 50); }));
    j.num("latency_p95_ms",
          medianOver([&](const Window &w) { return openLatency(w, 95); }));
    j.num("throughput_rps", medianOver(throughput));
    j.num("sim_speedup_geomean", speedup);
    j.num("sim_edp_gain_geomean", edpGain);
    j.num("generator_late_p99_ms", lateP99Ms());
    j.integer("attempted", stream_.size());
    j.integer("failed", failed_);
    j.integer("mismatches", mismatches_);
    j.integer("open_requests", nOpen_);
    j.integer("closed_requests", nClosed_);
    j.integer("windows", windows_.size());
    j.integer("daemons", kDaemons);
    j.integer("checked_distinct", refIdx_.size());
    j.boolean("daemon_drained_clean", drained_);
    j.boolean("stats_ok", statsOk_);
    // Every serve_unique request has its own signature, so the batcher
    // must never find a duplicate; one means the workload is broken.
    j.boolean("load_valid", repeat_ || delta_.dedup == 0.0);
    if (opts_.traced)
        j.raw("layers", renderLayers(layerMetrics()));
    return j.render();
}

std::map<std::string, double>
ServeRun::layerMetrics()
{
    std::map<std::string, double> layers;
    std::map<Op, std::vector<double>> latByOp, waitByOp;
    for (size_t i = 0; i < nOpen_; ++i) {
        const Outcome &o = outcomes_[i];
        const Op op = stream_[i].op;
        latByOp[op].push_back(latencyMs(o));
        if (!o.ok)
            continue;
        Recorder::instance().add(op == Op::Run ? "serve.request.run"
                                               : "serve.request.sparsify",
                                 o.due, o.done, stream_[i].id);
        // Client latency minus in-process execution of the same request:
        // the time spent queued, batched and in transport.
        if (const Reference *ref = referenceFor(i)) {
            const double exec = repeat_ && op == Op::Run
                ? median(ref->hitMs)
                : ref->execMs;
            waitByOp[op].push_back(latencyMs(o) - exec);
        }
    }

    std::vector<double> hit, miss, sparsify, proto;
    for (const size_t i : refIdx_) {
        const Reference &r = refs_.at(i);
        if (stream_[i].op == Op::Run) {
            miss.push_back(r.execMs);
            for (const double ms : r.hitMs)
                hit.push_back(ms * 1e3);
        } else {
            // Sparsify is never cached: every execution is full work.
            sparsify.push_back(r.execMs);
            sparsify.insert(sparsify.end(), r.hitMs.begin(), r.hitMs.end());
        }
        // Protocol cost: parse the request frame and render the response
        // envelope, as the daemon does for every request.
        constexpr int kReps = 200;
        const auto t0 = Clock::now();
        for (int k = 0; k < kReps; ++k) {
            const auto parsed = serve::parseRequest(payloads_[i]);
            serve::okResponse(parsed ? parsed->id : 0, r.result);
        }
        proto.push_back(msSince(t0) * 1e3 / kReps);
    }
    std::vector<double> lat;
    for (size_t i = 0; i < nOpen_; ++i)
        lat.push_back(latencyMs(outcomes_[i]));
    layers["serve.latency.p99_ms"] = percentile(lat, 99.0);
    layers["serve.exec.run_hit.us"] = median(hit);
    layers["serve.exec.run_miss.ms"] = median(miss);
    layers["serve.exec.sparsify.ms"] = median(sparsify);
    layers["serve.protocol.us"] = median(proto);
    layers["serve.ping_rtt.us"] = median(pingUs_);
    for (const Op op : {Op::Run, Op::Sparsify}) {
        const std::string name = op == Op::Run ? "run" : "sparsify";
        const auto lat = latByOp.find(op);
        const auto wait = waitByOp.find(op);
        const std::vector<double> none;
        const auto &l = lat == latByOp.end() ? none : lat->second;
        const auto &wt = wait == waitByOp.end() ? none : wait->second;
        layers["serve.latency." + name + ".p50_ms"] = percentile(l, 50.0);
        layers["serve.latency." + name + ".p99_ms"] = percentile(l, 99.0);
        layers["serve.wait." + name + ".p99_ms"] = percentile(wt, 99.0);
    }
    // Counter deltas over the windows of all measured daemons.
    const double accepted = delta_.accepted;
    const double busy = delta_.busy;
    layers["serve.batch.mean_size"] = ratio(accepted, delta_.batches);
    layers["serve.dedup_ratio"] = ratio(delta_.dedup, accepted);
    layers["serve.busy_ratio"] = ratio(busy, accepted + busy);
    layers["cache.profile.hit_ratio"] =
        ratio(delta_.profHits, delta_.profHits + delta_.profMisses);
    layers["cache.sim.hit_ratio"] =
        ratio(delta_.simHits, delta_.simHits + delta_.simMisses);
    layers["serve.rss_growth_kb_per_req"] =
        static_cast<double>(rssGrowthKb_)
        / static_cast<double>(stream_.size());
    layers["generator.late_p99_ms"] = lateP99Ms();

    // Replay each checked request's stages, cache off.
    for (const size_t i : refIdx_) {
        const Request &req = stream_[i];
        if (req.op == Op::Sparsify) {
            replaySparsify(req.sparsify, req.id);
            continue;
        }
        if (const auto shape = serve::tryParseLayer(req.run.layer, "cli.layer"))
            replayLayer(req.run.kind,
                        layerSpec(req.run.kind, *shape, req.run.sparsity,
                                  req.run.seed, req.run.strategy),
                        req.id);
    }
    for (const auto &[k, v] : stageMetrics())
        layers[k] = v;
    layers["cache.hit.us"] = cacheHitUs(opts_.seed);
    return layers;
}

} // namespace

std::string
runServeLoad(const ServeLoadOptions &opts, bool &ok)
{
    ServeRun run(opts);
    std::string err;
    ok = run.run(err);
    return ok ? run.report() : JsonOut().str("error", err).render();
}

} // namespace perfbench
