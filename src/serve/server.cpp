#include "server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/contentstore.hpp"
#include "util/parallel.hpp"

namespace tbstc::serve {

namespace {

std::string
errnoString(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** Outcome of executing one distinct request signature. */
struct ExecResult
{
    bool ok = false;
    std::string payload; ///< Result JSON, or the error message.
};

/**
 * Dedup and memo key of a run or sparsify: the request serialized with
 * id and deadline zeroed, so the same work shares one signature no
 * matter what budget each copy declared. Empty for other ops.
 */
std::string
signatureOf(const Request &req)
{
    if (req.op != Op::Run && req.op != Op::Sparsify)
        return {};
    Request key = req;
    key.id = 0;
    key.deadlineMs = 0;
    return serializeRequest(key);
}

/** Growth factor cap for the busy retry hint (base * up to 32). */
constexpr uint64_t kMaxBusyHintMultiplier = 32;

} // namespace

Conn::Conn(int fd, std::shared_ptr<const ServeLimits> limits,
           std::atomic<uint64_t> *writeTimeouts)
    : fd_(fd), limits_(std::move(limits)),
      writeTimeouts_(writeTimeouts), tokens_(limits_->rateBurst),
      lastRefill_(std::chrono::steady_clock::now())
{
}

Conn::~Conn()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Conn::send(std::string_view payload)
{
    const std::lock_guard lk(writeMutex_);
    errno = 0;
    if (writeFrameDeadline(fd_, payload, limits_->writeTimeoutMs))
        return true;
    if (errno == ETIMEDOUT && writeTimeouts_ != nullptr)
        writeTimeouts_->fetch_add(1, std::memory_order_relaxed);
    // A peer that cannot be written to cannot be served: shut the
    // socket down so the reader reaps the connection instead of
    // parsing more frames it can never answer.
    ::shutdown(fd_, SHUT_RDWR);
    return false;
}

void
Conn::shutdownBoth()
{
    ::shutdown(fd_, SHUT_RDWR);
}

bool
Conn::tryTakeToken(uint64_t &retryMs)
{
    const double rate = limits_->ratePerSec;
    if (rate <= 0.0)
        return true;
    const std::lock_guard lk(rateMutex_);
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - lastRefill_).count();
    lastRefill_ = now;
    tokens_ = std::min(limits_->rateBurst, tokens_ + elapsed * rate);
    if (tokens_ >= 1.0) {
        tokens_ -= 1.0;
        return true;
    }
    retryMs =
        static_cast<uint64_t>((1.0 - tokens_) / rate * 1000.0) + 1;
    return false;
}

void
Conn::refundToken()
{
    if (limits_->ratePerSec <= 0.0)
        return;
    const std::lock_guard lk(rateMutex_);
    tokens_ = std::min(limits_->rateBurst, tokens_ + 1.0);
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      limits_(std::make_shared<const ServeLimits>(
          normalizeLimits(opts_.limits))),
      queue_(limits_->queueCapacity)
{
}

Server::~Server()
{
    beginShutdown();
    wait();
}

util::Result<uint16_t, std::string>
Server::start()
{
    if (started_)
        return util::unexpected(std::string("server already started"));

    if (::pipe(wakeFds_) != 0)
        return util::unexpected(errnoString("pipe"));

    if (!opts_.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.socketPath.size() >= sizeof addr.sun_path)
            return util::unexpected("socket path too long: "
                                    + opts_.socketPath);
        std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                     sizeof addr.sun_path - 1);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            return util::unexpected(errnoString("socket"));
        ::unlink(opts_.socketPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr)
            != 0)
            return util::unexpected(
                errnoString(("bind " + opts_.socketPath).c_str()));
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            return util::unexpected(errnoString("socket"));
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(opts_.tcpPort);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr)
            != 0)
            return util::unexpected(errnoString("bind 127.0.0.1"));
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound), &len)
            != 0)
            return util::unexpected(errnoString("getsockname"));
        port_ = ntohs(bound.sin_port);
    }

    if (::listen(listenFd_, 64) != 0)
        return util::unexpected(errnoString("listen"));

    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    batcherThread_ = std::thread([this] { batcherLoop(); });
    return port_;
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2];
        fds[0] = {wakeFds_[0], POLLIN, 0};
        fds[1] = {listenFd_, POLLIN, 0};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[0].revents != 0)
            break; // beginShutdown woke us: stop accepting.
        if ((fds[1].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            break;
        }
        auto limits = limitsSnapshot();
        if (limits->maxConnections > 0
            && liveConns_.load(std::memory_order_relaxed)
                >= limits->maxConnections) {
            // Shed at accept: one typed error frame, then close. The
            // frame is far smaller than a socket buffer, so the
            // deadline write cannot stall the accept thread.
            shed_.fetch_add(1, std::memory_order_relaxed);
            (void)writeFrameDeadline(
                fd,
                errorResponse(0, ErrorKind::Overloaded,
                              "connection limit reached; retry",
                              limits->retryAfterMs),
                limits->writeTimeoutMs);
            ::close(fd);
            continue;
        }
        connections_.fetch_add(1, std::memory_order_relaxed);
        liveConns_.fetch_add(1, std::memory_order_relaxed);
        auto conn =
            std::make_shared<Conn>(fd, std::move(limits), &timeouts_);
        ReaderSlot slot;
        auto done = slot.done;
        slot.thread = std::thread(
            [this, conn, done] { readerLoop(conn, done); });
        {
            const std::lock_guard lk(connsMutex_);
            // Prune finished readers so a long-lived daemon does not
            // accumulate one dead thread handle per past connection.
            for (auto &r : readers_)
                if (r.done->load(std::memory_order_acquire)
                    && r.thread.joinable())
                    r.thread.join();
            std::erase_if(readers_, [](const ReaderSlot &r) {
                return !r.thread.joinable();
            });
            std::erase_if(conns_, [](const std::shared_ptr<Conn> &c) {
                return c.use_count() == 1;
            });
            conns_.push_back(conn);
            readers_.push_back(std::move(slot));
        }
    }
}

void
Server::readerLoop(std::shared_ptr<Conn> conn,
                   std::shared_ptr<std::atomic<bool>> done)
{
    const ServeLimits &lim = conn->limits();
    const FrameTimeouts timeouts{lim.idleTimeoutMs, lim.readTimeoutMs};
    std::string buf;
    for (;;) {
        const FrameStatus st = readFrameDeadline(
            conn->fd(), buf, opts_.maxFrameBytes, timeouts);
        if (st == FrameStatus::Eof || st == FrameStatus::Error)
            break;
        if (st == FrameStatus::Timeout) {
            // Half-open, idle, or slow-loris peer: reap it. No
            // farewell frame — a peer that stopped sending mid-frame
            // has desynchronized framing anyway.
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        if (st == FrameStatus::TooBig) {
            badFrames_.fetch_add(1, std::memory_order_relaxed);
            conn->send(errorResponse(
                0, ErrorKind::BadRequest,
                "frame length invalid or above cap"));
            break;
        }
        auto parsed = parseRequest(buf);
        if (!parsed) {
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            conn->send(errorResponse(parsed.error().id,
                                     ErrorKind::BadRequest,
                                     parsed.error().message));
            continue;
        }
        Request req = std::move(*parsed);
        if (req.op == Op::Ping) {
            // Pings stay outside the fairness gates: health probes
            // must work even on a rate-limited connection.
            pings_.fetch_add(1, std::memory_order_relaxed);
            conn->send(okResponse(req.id, "{\"pong\": true}"));
            continue;
        }
        const uint64_t id = req.id;
        const auto refuseDraining = [&] {
            conn->refundToken();
            drainRejected_.fetch_add(1, std::memory_order_relaxed);
            conn->send(errorResponse(id, ErrorKind::ShuttingDown,
                                     "server is draining"));
        };

        // Per-client fairness gates, checked before the memo and the
        // shared queue so one greedy connection answers for its own
        // appetite instead of starving everyone through busy
        // rejections, and a warm answer still costs a token.
        uint64_t retryMs = lim.retryAfterMs;
        if (!conn->tryTakeToken(retryMs)) {
            rateLimited_.fetch_add(1, std::memory_order_relaxed);
            conn->send(errorResponse(id, ErrorKind::RateLimited,
                                     "per-client rate limit; retry",
                                     retryMs));
            continue;
        }
        if (lim.maxInflight > 0
            && conn->inflight() >= lim.maxInflight) {
            conn->refundToken();
            rateLimited_.fetch_add(1, std::memory_order_relaxed);
            conn->send(errorResponse(
                id, ErrorKind::RateLimited,
                "per-client in-flight cap reached; retry",
                lim.retryAfterMs));
            continue;
        }
        if (draining_.load(std::memory_order_relaxed)) {
            refuseDraining();
            continue;
        }

        // A signature that already succeeded is answered here, with
        // the bytes the batcher would write, instead of waking it.
        std::string signature = signatureOf(req);
        if (!signature.empty()
            && util::ContentStore::instance().enabled()) {
            std::shared_ptr<const std::string> payload;
            {
                const std::lock_guard lk(memoMutex_);
                const auto it = memo_.find(signature);
                if (it != memo_.end())
                    payload = it->second;
            }
            if (payload) {
                acceptedReqs_.fetch_add(1, std::memory_order_relaxed);
                inlineAnswers_.fetch_add(1, std::memory_order_relaxed);
                dedupHits_.fetch_add(1, std::memory_order_relaxed);
                conn->send(okResponse(id, *payload));
                answered_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
        }

        PendingRequest pending;
        pending.conn = conn;
        pending.req = std::move(req);
        pending.signature = std::move(signature);
        pending.enqueued = std::chrono::steady_clock::now();
        if (pending.req.deadlineMs > 0) {
            pending.hasDeadline = true;
            pending.deadline = pending.enqueued
                + std::chrono::milliseconds(pending.req.deadlineMs);
        }
        conn->addInflight();
        // Count the acceptance before publishing the request: the
        // batcher may pop and answer it (a stats snapshot, say)
        // before a post-push increment would land. Rejections undo.
        acceptedReqs_.fetch_add(1, std::memory_order_relaxed);
        switch (queue_.tryPush(std::move(pending))) {
          case PushResult::Ok:
            busyStreak_.store(0, std::memory_order_relaxed);
            break;
          case PushResult::Full: {
            acceptedReqs_.fetch_sub(1, std::memory_order_relaxed);
            conn->subInflight();
            conn->refundToken();
            busyRejected_.fetch_add(1, std::memory_order_relaxed);
            // Hint grows with sustained pressure: the first rejection
            // advertises the base, each consecutive one backs clients
            // off further (capped so hints stay finite).
            const uint64_t streak =
                busyStreak_.fetch_add(1, std::memory_order_relaxed);
            const uint64_t mult = 1
                + std::min<uint64_t>(streak,
                                     kMaxBusyHintMultiplier - 1);
            conn->send(errorResponse(id, ErrorKind::Busy,
                                     "request queue full; retry",
                                     lim.retryAfterMs * mult));
            break;
          }
          case PushResult::Closed:
            acceptedReqs_.fetch_sub(1, std::memory_order_relaxed);
            conn->subInflight();
            refuseDraining();
            break;
        }
    }
    // Shut the socket down now so the peer sees FIN immediately; the
    // fd itself closes when the last in-flight answer releases the
    // Conn. Without this, a reaped half-open client would keep an
    // ESTABLISHED socket until the next accept prunes the list.
    conn->shutdownBoth();
    liveConns_.fetch_sub(1, std::memory_order_relaxed);
    done->store(true, std::memory_order_release);
}

void
Server::batcherLoop()
{
    for (;;) {
        auto batch = queue_.popBatch(opts_.maxBatch);
        if (batch.empty())
            break; // closed and fully drained
        if (opts_.batchHook)
            opts_.batchHook(batch.size());
        executeBatch(batch);
        batches_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Server::executeBatch(std::vector<PendingRequest> &batch)
{
    // All obs recording below happens on this (batcher) thread or
    // inside the pool batch, whose completion synchronizes with us —
    // so the stats path's metricsJson() never races a recording.
    static const obs::Gauge depthGauge =
        obs::gauge("serve.queue.depth", obs::Domain::Host);
    static const obs::Histogram batchHist = obs::histogram(
        "serve.batch.size", 0.0, 64.0, 64, obs::Domain::Host);
    static const obs::Histogram latencyHist = obs::histogram(
        "serve.latency.ms", 0.0, 1000.0, 100, obs::Domain::Host);
    static const obs::Counter reqCounter =
        obs::counter("serve.requests", obs::Domain::Host);
    static const obs::Counter dedupCounter =
        obs::counter("serve.batch.dedup_hits", obs::Domain::Host);

    if (obs::metricsEnabled()) {
        depthGauge.record(static_cast<int64_t>(queue_.depth()));
        batchHist.observe(static_cast<double>(batch.size()));
        reqCounter.add(batch.size());
    }

    // First pass: requests whose deadline expired while queued are
    // answered without executing (the client has given up; running
    // the work would only steal pool time from live requests), and
    // stats requests are answered here, between executions, where the
    // obs export is quiescent by construction.
    const auto entryNow = std::chrono::steady_clock::now();
    std::vector<size_t> execIdx;
    execIdx.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const PendingRequest &p = batch[i];
        if (p.hasDeadline && entryNow >= p.deadline) {
            deadlineExceeded_.fetch_add(1, std::memory_order_relaxed);
            p.conn->send(errorResponse(
                p.req.id, ErrorKind::DeadlineExceeded,
                "deadline_ms expired before execution"));
            answered_.fetch_add(1, std::memory_order_relaxed);
            p.conn->subInflight();
        } else if (p.req.op == Op::Stats) {
            p.conn->send(okResponse(p.req.id, statsJson()));
            answered_.fetch_add(1, std::memory_order_relaxed);
            p.conn->subInflight();
        } else {
            execIdx.push_back(i);
        }
    }

    // Coalesce identical requests: one execution per distinct
    // signature, fanned out to every duplicate. Signatures keep
    // first-appearance order, so the parallel region's chunk layout
    // is deterministic for a given batch.
    std::vector<std::string_view> sigs;
    std::vector<size_t> groupOf(execIdx.size());
    std::map<std::string_view, size_t> groupBySig;
    for (size_t k = 0; k < execIdx.size(); ++k) {
        const std::string_view sig = batch[execIdx[k]].signature;
        const auto [it, inserted] =
            groupBySig.try_emplace(sig, sigs.size());
        if (inserted)
            sigs.push_back(sig);
        groupOf[k] = it->second;
    }
    if (execIdx.size() > sigs.size()) {
        const uint64_t hits = execIdx.size() - sigs.size();
        dedupHits_.fetch_add(hits, std::memory_order_relaxed);
        if (obs::metricsEnabled())
            dedupCounter.add(hits);
    }

    std::vector<size_t> representative(sigs.size());
    for (size_t k = execIdx.size(); k-- > 0;)
        representative[groupOf[k]] = execIdx[k];

    const auto results = util::parallelMap<ExecResult>(
        sigs.size(), [&](size_t g) {
            const Request &req = batch[representative[g]].req;
            ExecResult r;
            try {
                if (req.op == Op::Run) {
                    const auto stats = executeRun(req.run);
                    r.payload = runResultJson(
                        stats, accel::accelName(req.run.kind));
                } else {
                    r.payload = sparsifyResultJson(
                        executeSparsify(req.sparsify));
                }
                r.ok = true;
            } catch (const std::exception &e) {
                r.payload = e.what();
            }
            return r;
        });

    // File successes before answering, so a client that repeats a
    // request as soon as it reads the answer finds it warm.
    if (util::ContentStore::instance().enabled()) {
        const std::lock_guard lk(memoMutex_);
        for (size_t g = 0; g < sigs.size(); ++g)
            if (results[g].ok)
                memo_.try_emplace(
                    std::string(sigs[g]),
                    std::make_shared<const std::string>(
                        results[g].payload));
    }

    const auto now = std::chrono::steady_clock::now();
    for (size_t k = 0; k < execIdx.size(); ++k) {
        const PendingRequest &p = batch[execIdx[k]];
        const ExecResult &r = results[groupOf[k]];
        if (r.ok)
            p.conn->send(okResponse(p.req.id, r.payload));
        else
            p.conn->send(errorResponse(p.req.id, ErrorKind::Internal,
                                       r.payload));
        answered_.fetch_add(1, std::memory_order_relaxed);
        p.conn->subInflight();
        if (obs::metricsEnabled()) {
            const double ms =
                std::chrono::duration<double, std::milli>(
                    now - p.enqueued)
                    .count();
            latencyHist.observe(ms);
        }
    }
}

std::string
Server::statsJson() const
{
    const ServerCounters c = counters();
    std::string out = "{\"schema\": \"tbstc.serve.stats.v1\", ";
    out += "\"server\": {";
    out += "\"connections\": " + std::to_string(c.connections);
    out += ", \"live_connections\": "
        + std::to_string(liveConns_.load(std::memory_order_relaxed));
    out += ", \"accepted\": " + std::to_string(c.accepted);
    out += ", \"pings\": " + std::to_string(c.pings);
    out += ", \"busy_rejected\": " + std::to_string(c.busyRejected);
    out += ", \"drain_rejected\": " + std::to_string(c.drainRejected);
    out += ", \"bad_requests\": " + std::to_string(c.badRequests);
    out += ", \"bad_frames\": " + std::to_string(c.badFrames);
    out += ", \"answered\": " + std::to_string(c.answered);
    out += ", \"dedup_hits\": " + std::to_string(c.dedupHits);
    out += ", \"inline_answers\": " + std::to_string(c.inlineAnswers);
    out += ", \"batches\": " + std::to_string(c.batches);
    out += ", \"timeouts\": " + std::to_string(c.timeouts);
    out += ", \"shed\": " + std::to_string(c.shed);
    out += ", \"rate_limited\": " + std::to_string(c.rateLimited);
    out += ", \"deadline_exceeded\": "
        + std::to_string(c.deadlineExceeded);
    out += ", \"reloads\": " + std::to_string(c.reloads);
    out += ", \"queue_depth\": " + std::to_string(queue_.depth());
    out += ", \"queue_capacity\": " + std::to_string(queue_.capacity());
    out += std::string(", \"draining\": ")
        + (draining_.load(std::memory_order_relaxed) ? "true"
                                                     : "false");
    out += "}, \"limits\": " + limitsJson(*limitsSnapshot());
    out += ", \"metrics\": " + obs::metricsJson(true) + "}";
    return out;
}

ServerCounters
Server::counters() const
{
    ServerCounters c;
    c.connections = connections_.load(std::memory_order_relaxed);
    c.accepted = acceptedReqs_.load(std::memory_order_relaxed);
    c.pings = pings_.load(std::memory_order_relaxed);
    c.busyRejected = busyRejected_.load(std::memory_order_relaxed);
    c.drainRejected = drainRejected_.load(std::memory_order_relaxed);
    c.badRequests = badRequests_.load(std::memory_order_relaxed);
    c.badFrames = badFrames_.load(std::memory_order_relaxed);
    c.answered = answered_.load(std::memory_order_relaxed);
    c.dedupHits = dedupHits_.load(std::memory_order_relaxed);
    c.inlineAnswers = inlineAnswers_.load(std::memory_order_relaxed);
    c.batches = batches_.load(std::memory_order_relaxed);
    c.timeouts = timeouts_.load(std::memory_order_relaxed);
    c.shed = shed_.load(std::memory_order_relaxed);
    c.rateLimited = rateLimited_.load(std::memory_order_relaxed);
    c.deadlineExceeded =
        deadlineExceeded_.load(std::memory_order_relaxed);
    c.reloads = reloads_.load(std::memory_order_relaxed);
    return c;
}

void
Server::reloadLimits(const ServeLimits &limits)
{
    const ServeLimits adopted = normalizeLimits(limits);
    auto next = std::make_shared<const ServeLimits>(adopted);
    {
        const std::lock_guard lk(limitsMutex_);
        limits_ = std::move(next);
    }
    // The queue is shared (not per-connection), so its threshold
    // changes immediately; in-flight items above a shrunken capacity
    // still drain normally.
    queue_.setCapacity(adopted.queueCapacity);
    reloads_.fetch_add(1, std::memory_order_relaxed);
}

ServeLimits
Server::currentLimits() const
{
    return *limitsSnapshot();
}

std::shared_ptr<const ServeLimits>
Server::limitsSnapshot() const
{
    const std::lock_guard lk(limitsMutex_);
    return limits_;
}

void
Server::beginShutdown()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    if (wakeFds_[1] >= 0) {
        const char b = 1;
        // A full pipe cannot happen (one byte ever written), but be
        // explicit that the result is irrelevant.
        (void)!::write(wakeFds_[1], &b, 1);
    }
    queue_.close();
}

void
Server::wait()
{
    if (!started_)
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (batcherThread_.joinable())
        batcherThread_.join();

    // Everything accepted has been answered. Unblock readers still
    // parked in readFrameDeadline and join them.
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<ReaderSlot> readers;
    {
        const std::lock_guard lk(connsMutex_);
        conns.swap(conns_);
        readers.swap(readers_);
    }
    for (auto &c : conns)
        c->shutdownBoth();
    for (auto &r : readers)
        if (r.thread.joinable())
            r.thread.join();
    conns.clear();

    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    for (int &fd : wakeFds_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    if (!opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());

    // All threads have joined: mirroring the reader-side atomics into
    // obs here is race-free by construction.
    if (obs::metricsEnabled()) {
        const ServerCounters c = counters();
        obs::counter("serve.connections", obs::Domain::Host)
            .add(c.connections);
        obs::counter("serve.rejected.busy", obs::Domain::Host)
            .add(c.busyRejected);
        obs::counter("serve.rejected.drain", obs::Domain::Host)
            .add(c.drainRejected);
        obs::counter("serve.bad_requests", obs::Domain::Host)
            .add(c.badRequests);
        obs::counter("serve.answered", obs::Domain::Host)
            .add(c.answered);
        obs::counter("serve.answered_inline", obs::Domain::Host)
            .add(c.inlineAnswers);
        obs::counter("serve.timeouts", obs::Domain::Host)
            .add(c.timeouts);
        obs::counter("serve.shed", obs::Domain::Host).add(c.shed);
        obs::counter("serve.ratelimited", obs::Domain::Host)
            .add(c.rateLimited);
        obs::counter("serve.deadline_exceeded", obs::Domain::Host)
            .add(c.deadlineExceeded);
    }
    util::drainPool();
    if (!opts_.metricsPath.empty())
        obs::writeMetricsJson(opts_.metricsPath, true);
    started_ = false;
}

} // namespace tbstc::serve
