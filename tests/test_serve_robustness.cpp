/**
 * @file
 * Fault-tolerance tests for the serve daemon: I/O deadlines reaping
 * slow-loris and half-open clients, per-client fairness (token
 * bucket + in-flight cap), request deadlines, accept-time shedding,
 * hot limit reload semantics (including the reload-races-active-
 * requests case SIGHUP exercises), growing busy hints, and the
 * ServeLimits config format. Runs under TSan in CI's serve-smoke job
 * via the Serve* filter.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/config.hpp"
#include "serve/jsonv.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/flags.hpp"

namespace {

using namespace tbstc;
using namespace tbstc::serve;

/** Connect to 127.0.0.1:@p port; asserts on failure. */
int
mustConnect(uint16_t port)
{
    std::string err;
    const int fd = connectClient("", port, err);
    EXPECT_GE(fd, 0) << err;
    return fd;
}

/** Send one request; read one response document (5 s client cap). */
JsonValue
roundTrip(int fd, const Request &req)
{
    if (!writeFrame(fd, serializeRequest(req)))
        return {};
    std::string frame;
    if (readFrameDeadline(fd, frame, kDefaultMaxFrameBytes,
                          {5000, 5000})
        != FrameStatus::Ok)
        return {};
    auto doc = parseJson(frame);
    return doc.ok() ? *std::move(doc) : JsonValue{};
}

Request
pingRequest(uint64_t id)
{
    Request req;
    req.id = id;
    req.op = Op::Ping;
    return req;
}

Request
statsRequest(uint64_t id)
{
    Request req;
    req.id = id;
    req.op = Op::Stats;
    return req;
}

Request
runRequest(uint64_t id, const std::string &layer)
{
    Request req;
    req.id = id;
    req.op = Op::Run;
    req.run.kind = accel::AccelKind::TbStc;
    req.run.layer = layer;
    req.run.sparsity = 0.5;
    return req;
}

/** Spin (bounded) until @p pred holds; returns its final value. */
template <typename Pred>
bool
spinUntil(Pred pred, int maxMs = 5000)
{
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::milliseconds(maxMs);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

// ------------------------------------------------- deadlines & reaping

TEST(ServeRobust, SlowLorisAndHalfOpenClientsAreReaped)
{
    ServerOptions opts;
    opts.limits.idleTimeoutMs = 200;
    opts.limits.readTimeoutMs = 200;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    // Half-open client: connects and never sends a byte.
    const int halfOpen = mustConnect(*started);

    // Slow-loris client: starts a frame, then trickles nothing more.
    const int loris = mustConnect(*started);
    const uint8_t hdr[4] = {32, 0, 0, 0};
    ASSERT_EQ(::send(loris, hdr, sizeof hdr, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(loris, "x", 1, MSG_NOSIGNAL), 1);

    // An honest client keeps being served while both hostiles sit on
    // their sockets — the reader threads they pin are reaped, not the
    // whole daemon.
    const int honest = mustConnect(*started);
    for (uint64_t i = 1; i <= 6; ++i) {
        const JsonValue resp = roundTrip(honest, pingRequest(i));
        EXPECT_TRUE(resp.get("ok").asBool(false)) << "ping " << i;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Both hostile connections hit a deadline (idle for the half-open
    // one, per-frame for the slow loris).
    EXPECT_TRUE(spinUntil(
        [&] { return server.counters().timeouts >= 2; }))
        << "timeouts=" << server.counters().timeouts;

    // The reaped sockets are really dead: the peer sees EOF.
    std::string leftover;
    EXPECT_NE(readFrameDeadline(halfOpen, leftover,
                                kDefaultMaxFrameBytes, {1000, 1000}),
              FrameStatus::Timeout);

    ::close(halfOpen);
    ::close(loris);
    ::close(honest);
    server.beginShutdown();
    server.wait();
    EXPECT_GE(server.counters().timeouts, 2u);
}

// ---------------------------------------------------- per-client limits

TEST(ServeRobust, GreedyClientIsRateLimitedHonestOneIsNot)
{
    ServerOptions opts;
    opts.limits.ratePerSec = 50.0;
    opts.limits.rateBurst = 10.0;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    // The greedy client fires far beyond its bucket as fast as the
    // socket allows; the honest one paces under its refill rate.
    // Buckets are per connection, so the greedy client's appetite
    // cannot consume the honest client's budget.
    std::atomic<uint64_t> greedyLimited{0};
    std::atomic<uint64_t> greedyOk{0};
    std::thread greedy([&] {
        const int fd = mustConnect(*started);
        for (uint64_t i = 1; i <= 100; ++i) {
            const JsonValue resp = roundTrip(fd, statsRequest(i));
            if (resp.get("ok").asBool(false))
                greedyOk.fetch_add(1);
            else if (resp.get("kind").asString() == "rate_limited")
                greedyLimited.fetch_add(1);
        }
        ::close(fd);
    });

    const int honest = mustConnect(*started);
    uint64_t honestOk = 0;
    for (uint64_t i = 1; i <= 10; ++i) {
        const JsonValue resp = roundTrip(honest, statsRequest(i));
        if (resp.get("ok").asBool(false))
            ++honestOk;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    greedy.join();
    ::close(honest);

    // Honest throughput stays full (well above the 70% bar): ten
    // paced requests cost at most the burst plus the refill earned
    // while pacing.
    EXPECT_EQ(honestOk, 10u);
    // The greedy client was throttled, and by its own bucket only —
    // rejections carry the typed rate_limited kind.
    EXPECT_GT(greedyLimited.load(), 0u);
    EXPECT_GE(greedyOk.load(), 10u); // at least its burst succeeded

    server.beginShutdown();
    server.wait();
    EXPECT_EQ(server.counters().rateLimited, greedyLimited.load());
}

TEST(ServeRobust, PerConnectionInflightCapRejectsTheExcess)
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    ServerOptions opts;
    opts.maxBatch = 1;
    opts.limits.maxInflight = 2;
    opts.batchHook = [&](size_t) {
        std::unique_lock lk(m);
        if (!release) {
            entered = true;
            cv.notify_all();
            cv.wait(lk, [&] { return release; });
        }
    };
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    const int fd = mustConnect(*started);
    // First request held in the batcher (in flight), second queued
    // (in flight): the connection is at its cap.
    ASSERT_TRUE(writeFrame(fd, serializeRequest(runRequest(1, "16x16x1"))));
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return entered; });
    }
    ASSERT_TRUE(writeFrame(fd, serializeRequest(runRequest(2, "16x16x1"))));
    ASSERT_TRUE(spinUntil(
        [&] { return server.counters().accepted >= 2; }));

    // The third is rejected at the fairness gate, before the queue.
    const JsonValue rejected = roundTrip(fd, runRequest(3, "16x16x1"));
    EXPECT_FALSE(rejected.get("ok").asBool(true));
    EXPECT_EQ(rejected.get("kind").asString(), "rate_limited");
    EXPECT_DOUBLE_EQ(rejected.get("id").asNumber(), 3.0);

    {
        std::lock_guard lk(m);
        release = true;
    }
    cv.notify_all();
    // Both in-flight requests complete; the cap frees as they answer.
    for (int i = 0; i < 2; ++i) {
        std::string frame;
        EXPECT_EQ(readFrameDeadline(fd, frame, kDefaultMaxFrameBytes,
                                    {10000, 10000}),
                  FrameStatus::Ok);
    }
    const JsonValue after = roundTrip(fd, runRequest(4, "16x16x1"));
    EXPECT_TRUE(after.get("ok").asBool(false));

    ::close(fd);
    server.beginShutdown();
    server.wait();
    EXPECT_EQ(server.counters().rateLimited, 1u);
}

// ------------------------------------------------------ request deadlines

TEST(ServeRobust, ExpiredDeadlineIsAnsweredWithoutExecuting)
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    ServerOptions opts;
    opts.maxBatch = 1;
    opts.batchHook = [&](size_t) {
        std::unique_lock lk(m);
        if (!release) {
            entered = true;
            cv.notify_all();
            cv.wait(lk, [&] { return release; });
        }
    };
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    const int fd = mustConnect(*started);
    // First request occupies the batcher...
    ASSERT_TRUE(writeFrame(fd, serializeRequest(runRequest(1, "16x16x1"))));
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return entered; });
    }
    // ...while a 50 ms-deadline request waits in the queue past it.
    Request dl = runRequest(2, "16x16x1");
    dl.deadlineMs = 50;
    ASSERT_TRUE(writeFrame(fd, serializeRequest(dl)));
    ASSERT_TRUE(spinUntil(
        [&] { return server.counters().accepted >= 2; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    {
        std::lock_guard lk(m);
        release = true;
    }
    cv.notify_all();

    // Request 1 executed; request 2 expired while queued and is
    // answered with the typed error instead of executing.
    bool sawOk = false;
    bool sawExpired = false;
    for (int i = 0; i < 2; ++i) {
        std::string frame;
        ASSERT_EQ(readFrameDeadline(fd, frame, kDefaultMaxFrameBytes,
                                    {10000, 10000}),
                  FrameStatus::Ok);
        const auto doc = parseJson(frame);
        ASSERT_TRUE(doc.ok());
        if (doc->get("ok").asBool(false)) {
            EXPECT_DOUBLE_EQ(doc->get("id").asNumber(), 1.0);
            sawOk = true;
        } else {
            EXPECT_DOUBLE_EQ(doc->get("id").asNumber(), 2.0);
            EXPECT_EQ(doc->get("kind").asString(),
                      "deadline_exceeded");
            sawExpired = true;
        }
    }
    EXPECT_TRUE(sawOk);
    EXPECT_TRUE(sawExpired);

    ::close(fd);
    server.beginShutdown();
    server.wait();
    EXPECT_EQ(server.counters().deadlineExceeded, 1u);
    EXPECT_EQ(server.counters().answered, 2u);
}

TEST(ServeRobust, DeadlineIsExcludedFromTheDedupSignature)
{
    // Identical work with different deadlines must still coalesce:
    // the signature zeroes deadline_ms alongside id.
    Request a = runRequest(1, "32x32x1");
    Request b = runRequest(2, "32x32x1");
    a.deadlineMs = 0;
    b.deadlineMs = 60000;
    Request ka = a;
    Request kb = b;
    ka.id = kb.id = 0;
    ka.deadlineMs = kb.deadlineMs = 0;
    EXPECT_EQ(serializeRequest(ka), serializeRequest(kb));
    EXPECT_NE(serializeRequest(a), serializeRequest(b));

    // And the field round-trips through the wire format.
    const auto parsed = parseRequest(serializeRequest(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->deadlineMs, 60000u);
}

// --------------------------------------------- shedding & limit reloads

TEST(ServeRobust, ReloadRacingActiveRequestsKeepsOldLimitsInFlight)
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    ServerOptions opts;
    opts.maxBatch = 1;
    opts.batchHook = [&](size_t) {
        std::unique_lock lk(m);
        if (!release) {
            entered = true;
            cv.notify_all();
            cv.wait(lk, [&] { return release; });
        }
    };
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    // Client A is admitted under the default limits and has a request
    // in flight (held by the batch hook) when the reload lands.
    const int a = mustConnect(*started);
    ASSERT_TRUE(writeFrame(a, serializeRequest(runRequest(1, "16x16x1"))));
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return entered; });
    }

    // SIGHUP semantics: reloadLimits() mid-request. New limits cap
    // connections at 1 and throttle hard.
    ServeLimits next = server.currentLimits();
    next.maxConnections = 1;
    next.ratePerSec = 0.0001;
    next.rateBurst = 1.0;
    server.reloadLimits(next);
    EXPECT_EQ(server.currentLimits().maxConnections, 1u);
    EXPECT_EQ(server.counters().reloads, 1u);

    // A new accept sees the new limits: client A is still live, so
    // client B is shed with the typed overloaded error.
    std::string err;
    const int b = connectClient("", *started, err);
    ASSERT_GE(b, 0) << err;
    std::string frame;
    ASSERT_EQ(readFrameDeadline(b, frame, kDefaultMaxFrameBytes,
                                {5000, 5000}),
              FrameStatus::Ok);
    const auto shedDoc = parseJson(frame);
    ASSERT_TRUE(shedDoc.ok());
    EXPECT_EQ(shedDoc->get("kind").asString(), "overloaded");
    ::close(b);

    // Client A's in-flight request finishes under the limits it was
    // admitted with — the reload does not retroactively throttle or
    // drop it — and A's connection keeps its unlimited rate bucket.
    {
        std::lock_guard lk(m);
        release = true;
    }
    cv.notify_all();
    ASSERT_EQ(readFrameDeadline(a, frame, kDefaultMaxFrameBytes,
                                {10000, 10000}),
              FrameStatus::Ok);
    EXPECT_TRUE(parseJson(frame)->get("ok").asBool(false));
    for (uint64_t i = 10; i < 15; ++i) {
        const JsonValue resp = roundTrip(a, statsRequest(i));
        EXPECT_TRUE(resp.get("ok").asBool(false))
            << "old-limits client got throttled after reload";
    }

    ::close(a);
    server.beginShutdown();
    server.wait();
    EXPECT_EQ(server.counters().shed, 1u);
}

TEST(ServeRobust, BusyHintGrowsWithConsecutiveRejections)
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    ServerOptions opts;
    opts.maxBatch = 1;
    opts.limits.queueCapacity = 1;
    opts.limits.retryAfterMs = 10;
    opts.batchHook = [&](size_t) {
        std::unique_lock lk(m);
        if (!release) {
            entered = true;
            cv.notify_all();
            cv.wait(lk, [&] { return release; });
        }
    };
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    const int fd = mustConnect(*started);
    // One request held, one filling the queue: everything after is
    // rejected, and the hint scales with the rejection streak.
    ASSERT_TRUE(writeFrame(fd, serializeRequest(runRequest(1, "16x16x1"))));
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return entered; });
    }
    ASSERT_TRUE(writeFrame(fd, serializeRequest(runRequest(2, "16x16x1"))));
    ASSERT_TRUE(spinUntil(
        [&] { return server.counters().accepted >= 2; }));

    double lastHint = 0.0;
    for (uint64_t id = 3; id <= 5; ++id) {
        const JsonValue busy = roundTrip(fd, runRequest(id, "16x16x1"));
        EXPECT_EQ(busy.get("kind").asString(), "busy");
        const double hint = busy.get("retry_after_ms").asNumber(0.0);
        EXPECT_GT(hint, lastHint) << "hint did not grow at id " << id;
        lastHint = hint;
    }
    // First rejection advertised exactly the base hint.
    EXPECT_DOUBLE_EQ(lastHint, 30.0); // 10, 20, 30

    {
        std::lock_guard lk(m);
        release = true;
    }
    cv.notify_all();
    ::close(fd);
    server.beginShutdown();
    server.wait();
    EXPECT_EQ(server.counters().busyRejected, 3u);
}

// ------------------------------------------------------- limits config

TEST(ServeConfig, ParseOverridesOnlyNamedFields)
{
    ServeLimits base;
    base.queueCapacity = 64;
    base.ratePerSec = 5.0;
    const auto parsed = parseLimits(
        R"({"idle_timeout_ms": 1234, "max_connections": 3,
            "future_knob": true})",
        base);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed->idleTimeoutMs, 1234u);
    EXPECT_EQ(parsed->maxConnections, 3u);
    // Unnamed fields keep the base values; unknown fields are ignored.
    EXPECT_EQ(parsed->queueCapacity, 64u);
    EXPECT_DOUBLE_EQ(parsed->ratePerSec, 5.0);
}

TEST(ServeConfig, BadFieldsErrorNamingTheField)
{
    const auto bad = parseLimits(R"({"read_timeout_ms": "soon"})");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error().find("read_timeout_ms"), std::string::npos);
    EXPECT_FALSE(parseLimits("[1, 2]").ok());
    EXPECT_FALSE(parseLimits("{").ok());
    EXPECT_FALSE(parseLimits(R"({"rate_per_sec": -2})").ok());
}

TEST(ServeConfig, JsonRoundTripsThroughParse)
{
    ServeLimits l;
    l.queueCapacity = 17;
    l.retryAfterMs = 99;
    l.idleTimeoutMs = 1000;
    l.readTimeoutMs = 2000;
    l.writeTimeoutMs = 3000;
    l.maxConnections = 7;
    l.ratePerSec = 2.5;
    l.rateBurst = 4.0;
    l.maxInflight = 3;
    const auto parsed = parseLimits(limitsJson(l));
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed->queueCapacity, l.queueCapacity);
    EXPECT_EQ(parsed->retryAfterMs, l.retryAfterMs);
    EXPECT_EQ(parsed->idleTimeoutMs, l.idleTimeoutMs);
    EXPECT_EQ(parsed->readTimeoutMs, l.readTimeoutMs);
    EXPECT_EQ(parsed->writeTimeoutMs, l.writeTimeoutMs);
    EXPECT_EQ(parsed->maxConnections, l.maxConnections);
    EXPECT_DOUBLE_EQ(parsed->ratePerSec, l.ratePerSec);
    EXPECT_DOUBLE_EQ(parsed->rateBurst, l.rateBurst);
    EXPECT_EQ(parsed->maxInflight, l.maxInflight);
}

TEST(ServeConfig, LimitFlagsSetTheFieldsTheirJsonKeysName)
{
    ServeLimits viaFlags;
    util::FlagSet flags("serve");
    declareLimitFlags(flags, viaFlags);
    std::vector<std::string> args{
        "tbstc", "serve", "--queue", "17", "--retry-after-ms", "99",
        "--idle-timeout-ms", "1000", "--read-timeout-ms", "2000",
        "--write-timeout-ms", "3000", "--max-conns", "7", "--rate",
        "2.5", "--burst", "4", "--max-inflight", "3"};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    ASSERT_TRUE(
        flags.parse(static_cast<int>(argv.size()), argv.data()).ok());

    // The flags and the JSON keys reach the same fields, and the
    // rendering keeps its field order and number formatting.
    const std::string json =
        R"({"queue_capacity": 17, "retry_after_ms": 99, )"
        R"("idle_timeout_ms": 1000, "read_timeout_ms": 2000, )"
        R"("write_timeout_ms": 3000, "max_connections": 7, )"
        R"("rate_per_sec": 2.5, "rate_burst": 4, "max_inflight": 3})";
    const auto viaJson = parseLimits(json);
    ASSERT_TRUE(viaJson.ok()) << viaJson.error();
    EXPECT_EQ(limitsJson(viaFlags), json);
    EXPECT_EQ(limitsJson(*viaJson), json);
}

TEST(ServeConfig, StatsResponseReportsTheLiveLimits)
{
    ServerOptions opts;
    opts.limits.queueCapacity = 33;
    opts.limits.maxInflight = 9;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    const int fd = mustConnect(*started);
    const JsonValue resp = roundTrip(fd, statsRequest(1));
    ASSERT_TRUE(resp.get("ok").asBool(false));
    const JsonValue &limits = resp.get("result").get("limits");
    EXPECT_DOUBLE_EQ(limits.get("queue_capacity").asNumber(), 33.0);
    EXPECT_DOUBLE_EQ(limits.get("max_inflight").asNumber(), 9.0);
    const JsonValue &srv = resp.get("result").get("server");
    EXPECT_DOUBLE_EQ(srv.get("live_connections").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(srv.get("reloads").asNumber(), 0.0);

    ::close(fd);
    server.beginShutdown();
    server.wait();
}

TEST(ServeConfig, StartAndReloadLimitsAreNormalized)
{
    // Limits built in code (as the CLI flags build them) get the same
    // clamps a --config file does: queue >= 1, burst >= 1 while the
    // rate is on.
    ServerOptions opts;
    opts.limits.queueCapacity = 0;
    opts.limits.ratePerSec = 5.0;
    opts.limits.rateBurst = 0.0;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    // A zero-token bucket would answer rate_limited to any request
    // arriving within 1/rate = 200 ms of connecting.
    const int fd = mustConnect(*started);
    const JsonValue resp = roundTrip(fd, statsRequest(1));
    ASSERT_TRUE(resp.get("ok").asBool(false))
        << resp.get("kind").asString();
    const JsonValue &limits = resp.get("result").get("limits");
    EXPECT_DOUBLE_EQ(limits.get("queue_capacity").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(limits.get("rate_per_sec").asNumber(), 5.0);
    EXPECT_DOUBLE_EQ(limits.get("rate_burst").asNumber(), 1.0);
    ::close(fd);

    ServeLimits next = opts.limits;
    next.ratePerSec = 2.0;
    server.reloadLimits(next);
    const ServeLimits live = server.currentLimits();
    EXPECT_EQ(live.queueCapacity, 1u);
    EXPECT_DOUBLE_EQ(live.ratePerSec, 2.0);
    EXPECT_DOUBLE_EQ(live.rateBurst, 1.0);

    server.beginShutdown();
    server.wait();
}

} // namespace
