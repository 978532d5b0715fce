/**
 * @file
 * The `tbstc serve` daemon: concurrent request execution over the
 * cached simulation pipeline.
 *
 * Thread architecture (one Server instance):
 *
 *   accept thread ──spawns──► one reader thread per connection
 *        │                         │ parse, inline ping, fairness
 *        │                         │ gates, then a memo probe: a
 *        │                         │ warm signature is answered here
 *        │                         ▼ (misses only go on)
 *        │                  BoundedQueue (back-pressure: full → busy)
 *        │                         │
 *        ▼                         ▼
 *   wake pipe ◄──────────── batcher thread: pops a batch, dedups
 *                           identical requests, executes distinct
 *                           ones on the util/parallel pool, files
 *                           each success in the answer memo, writes
 *                           responses in completion order
 *
 * Why a single batcher instead of N independent workers: requests
 * sharing an (accelerator, model, sparsity, ...) signature coalesce
 * into one execution whose result fans out to every duplicate, and the
 * distinct ones run as one deterministic parallel region — so the
 * ContentStore/profile cache sees one miss per distinct key instead of
 * a thundering herd, and obs recording happens only on the batcher or
 * inside pool batches (whose completion synchronizes with the
 * batcher), keeping metricsJson() export race-free without locks on
 * the hot path. Reader threads never record obs metrics and never run
 * engine code; their event counts are plain atomics mirrored into obs
 * once at shutdown.
 *
 * The answer memo maps a request signature (the request serialized
 * with id and deadline_ms zeroed, computed once on the reader) to the
 * result JSON of a run or sparsify that succeeded. Only the batcher
 * files entries and only successes are filed; a reader that finds its
 * signature answers okResponse(id, payload), the bytes the batcher
 * would have written. The memo lives and dies with the Server and is
 * consulted only while util::ContentStore is enabled, so --no-cache
 * still means "compute every request". An inline answer counts as
 * accepted, answered and a dedup hit.
 *
 * Drain (SIGTERM → beginShutdown): stop accepting connections, close
 * the queue (new frames answered "shutting_down", warm signatures
 * included: the drain check precedes the memo probe), let the batcher
 * answer everything already accepted, then unblock readers and join.
 * Every accepted request is answered before wait() returns.
 *
 * Fault tolerance (see docs/serving.md "Operational limits & failure
 * modes"): every reader read is poll-based with an idle and a
 * per-frame deadline, so half-open and slow-loris clients are reaped
 * instead of pinning a thread; response writes carry a deadline too.
 * Accepts beyond the live-connection cap are shed with a typed
 * `overloaded` error. Each connection owns a token bucket and an
 * in-flight cap (per-client fairness: one greedy client is rate
 * limited before it can starve the shared queue), busy hints scale
 * with overload pressure, and requests carrying `deadline_ms` that
 * expire while queued are answered `deadline_exceeded` instead of
 * executing. All of these limits live in a ServeLimits snapshot that
 * reloadLimits() (SIGHUP in the CLI) swaps atomically: connections
 * already accepted finish under the limits they were admitted with,
 * new accepts see the new ones.
 */

#ifndef TBSTC_SERVE_SERVER_HPP
#define TBSTC_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "config.hpp"
#include "protocol.hpp"
#include "queue.hpp"
#include "util/result.hpp"

namespace tbstc::serve {

/** Server configuration (all knobs have serving-sane defaults). */
struct ServerOptions
{
    /** Unix socket path; when empty, a TCP socket on 127.0.0.1. */
    std::string socketPath;

    /** TCP port (0 = ephemeral, read back via Server::port()). */
    uint16_t tcpPort = 0;

    /** Max requests coalesced into one batcher execution. */
    size_t maxBatch = 32;

    /** Per-frame payload cap for this server's connections. */
    size_t maxFrameBytes = kDefaultMaxFrameBytes;

    /** When set, metricsJson(includeHost) is written here at drain. */
    std::string metricsPath;

    /**
     * Initial operational limits (queue capacity, deadlines, rates,
     * caps). Hot-reloadable at runtime via Server::reloadLimits().
     * The server adopts normalizeLimits() of it, as it does on reload.
     */
    ServeLimits limits;

    /**
     * Test hook: invoked by the batcher with the batch size before
     * executing it. A blocking hook holds the batcher so tests can
     * fill the queue deterministically and observe busy rejections.
     */
    std::function<void(size_t)> batchHook;
};

/** Reader/acceptor event counts (plain atomics; see file comment). */
struct ServerCounters
{
    uint64_t connections = 0;     ///< Connections ever accepted.
    uint64_t accepted = 0;        ///< Requests enqueued or answered inline.
    uint64_t pings = 0;           ///< Pings answered inline.
    uint64_t busyRejected = 0;    ///< Back-pressure rejections.
    uint64_t drainRejected = 0;   ///< Rejections during drain.
    uint64_t badRequests = 0;     ///< Parse/validation failures.
    uint64_t badFrames = 0;       ///< Oversized/zero-length frames.
    uint64_t answered = 0;        ///< Accepted requests answered.
    uint64_t dedupHits = 0;       ///< Answered by another execution of
                                  ///< the same signature.
    uint64_t inlineAnswers = 0;   ///< Answered from the memo by a reader.
    uint64_t batches = 0;         ///< Batches executed.
    uint64_t timeouts = 0;        ///< Conns reaped by an I/O deadline.
    uint64_t shed = 0;            ///< Conns shed at accept (conn cap).
    uint64_t rateLimited = 0;     ///< Per-client limit rejections.
    uint64_t deadlineExceeded = 0; ///< Requests expired before exec.
    uint64_t reloads = 0;         ///< reloadLimits() applications.
};

/**
 * One accepted connection. Reader thread reads frames; responses may
 * be written by the reader (ping, rejections, memo hits) or the
 * batcher, so writes are serialized by the per-connection mutex. The
 * fd is owned here and closed with the last shared_ptr, so a response
 * to a request that outlived its reader still has a live socket.
 *
 * The connection also carries its admission-time ServeLimits snapshot
 * and the per-client fairness state those limits govern: a token
 * bucket refilled in real time and a count of in-flight (queued but
 * unanswered) requests. Both are keyed by connection — the protocol
 * has no authentication, so the connection *is* the client identity.
 */
class Conn
{
  public:
    Conn(int fd, std::shared_ptr<const ServeLimits> limits,
         std::atomic<uint64_t> *writeTimeouts);
    ~Conn();
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }

    /** Limits this connection was admitted under (immutable). */
    const ServeLimits &limits() const { return *limits_; }

    /**
     * Write one response frame (mutex-serialized, deadline-bounded by
     * limits().writeTimeoutMs). A timed-out or failed write shuts the
     * connection down so the reader stops serving a dead peer.
     */
    bool send(std::string_view payload);

    /** shutdown(2) both directions: wakes a blocked reader. */
    void shutdownBoth();

    /**
     * Take one token from the rate bucket. True when admitted (or
     * rate limiting is off); false with the milliseconds until the
     * next token in @p retryMs otherwise.
     */
    bool tryTakeToken(uint64_t &retryMs);

    /** Return a token taken for a request the queue then refused. */
    void refundToken();

    /** In-flight (queued, unanswered) request accounting. */
    size_t inflight() const
    {
        return inflight_.load(std::memory_order_relaxed);
    }
    void addInflight()
    {
        inflight_.fetch_add(1, std::memory_order_relaxed);
    }
    void subInflight()
    {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
    }

  private:
    int fd_;
    std::mutex writeMutex_;
    std::shared_ptr<const ServeLimits> limits_;
    std::atomic<uint64_t> *writeTimeouts_; ///< Server's timeout count.

    std::mutex rateMutex_;
    double tokens_ = 0.0;
    std::chrono::steady_clock::time_point lastRefill_;

    std::atomic<size_t> inflight_{0};
};

/** One queued request: the parsed request plus its reply channel. */
struct PendingRequest
{
    std::shared_ptr<Conn> conn;
    Request req;
    std::chrono::steady_clock::time_point enqueued;

    /** Dedup/memo signature of a run or sparsify; empty otherwise. */
    std::string signature;

    /** Absolute deadline; only meaningful when hasDeadline. */
    std::chrono::steady_clock::time_point deadline{};
    bool hasDeadline = false;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the accept + batcher threads.
     * @return the bound TCP port (0 for unix sockets), or a
     *         human-readable error.
     */
    util::Result<uint16_t, std::string> start();

    /**
     * Begin the drain: refuse new connections and new requests,
     * answer everything already accepted. Idempotent, callable from
     * any thread (but not from a signal handler — give SIGTERM to a
     * sigwait thread that calls this; see cli serve).
     */
    void beginShutdown();

    /**
     * Block until the drain completes and every thread has joined.
     * Returns immediately if start() failed or was never called.
     * After wait(): counters are final, reader-side counts have been
     * mirrored into obs, and metricsPath (if set) has been written.
     */
    void wait();

    /** Bound TCP port after start() (0 for unix sockets). */
    uint16_t port() const { return port_; }

    /** Snapshot of the event counters (safe from any thread). */
    ServerCounters counters() const;

    /**
     * Hot-reload the operational limits (SIGHUP in the CLI): the
     * queue capacity changes immediately, every other limit applies
     * to connections accepted from now on. Connections already in
     * flight keep the snapshot they were admitted with — work racing
     * a reload finishes under the old limits. Safe from any thread;
     * never drops a connection or an accepted request.
     */
    void reloadLimits(const ServeLimits &limits);

    /** The limits new connections are currently admitted under. */
    ServeLimits currentLimits() const;

  private:
    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn,
                    std::shared_ptr<std::atomic<bool>> done);
    void batcherLoop();
    void executeBatch(std::vector<PendingRequest> &batch);
    std::string statsJson() const;
    std::shared_ptr<const ServeLimits> limitsSnapshot() const;

    ServerOptions opts_;
    int listenFd_ = -1;
    int wakeFds_[2] = {-1, -1}; ///< Self-pipe waking the accept poll.
    uint16_t port_ = 0;
    bool started_ = false;

    /** Limits for new accepts; swapped whole by reloadLimits(). */
    mutable std::mutex limitsMutex_;
    std::shared_ptr<const ServeLimits> limits_;

    BoundedQueue<PendingRequest> queue_;
    std::atomic<bool> draining_{false};

    /** Answer memo: signature → result JSON (see file comment). */
    std::mutex memoMutex_;
    std::unordered_map<std::string, std::shared_ptr<const std::string>>
        memo_;

    std::thread acceptThread_;
    std::thread batcherThread_;

    /** One connection's reader thread, pruned once marked done. */
    struct ReaderSlot
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done =
            std::make_shared<std::atomic<bool>>(false);
    };
    mutable std::mutex connsMutex_;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<ReaderSlot> readers_;

    std::atomic<uint64_t> connections_{0};
    std::atomic<size_t> liveConns_{0}; ///< Accepted minus reaped.
    std::atomic<uint64_t> acceptedReqs_{0};
    std::atomic<uint64_t> pings_{0};
    std::atomic<uint64_t> busyRejected_{0};
    std::atomic<uint64_t> drainRejected_{0};
    std::atomic<uint64_t> badRequests_{0};
    std::atomic<uint64_t> badFrames_{0};
    std::atomic<uint64_t> answered_{0};
    std::atomic<uint64_t> dedupHits_{0};
    std::atomic<uint64_t> inlineAnswers_{0};
    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> timeouts_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> rateLimited_{0};
    std::atomic<uint64_t> deadlineExceeded_{0};
    std::atomic<uint64_t> reloads_{0};

    /**
     * Consecutive busy rejections since the queue last accepted a
     * push: the overload-pressure signal behind the growing
     * retry_after_ms hint (base * (1 + streak), capped at 32x).
     */
    std::atomic<uint64_t> busyStreak_{0};
};

} // namespace tbstc::serve

#endif // TBSTC_SERVE_SERVER_HPP
