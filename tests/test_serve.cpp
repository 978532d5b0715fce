/**
 * @file
 * Serve daemon tests: JSON parser, wire protocol, bounded queue,
 * and end-to-end server behavior (byte-identity with the one-shot
 * path, back-pressure, drain semantics, answers from the reader's
 * memo).
 *
 * The end-to-end tests speak the real protocol over real sockets but
 * stay deterministic: the batcher test hook lets a test hold the
 * batcher so queue fill, busy rejection, and drain ordering are exact,
 * not timing-dependent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "accel/accelerator.hpp"
#include "obs/metrics.hpp"
#include "serve/exec.hpp"
#include "serve/jsonv.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "util/contentstore.hpp"
#include "util/faultinject.hpp"

namespace {

using namespace tbstc;
using namespace tbstc::serve;

// ---------------------------------------------------------------- jsonv

TEST(ServeJson, ParsesScalarsObjectsAndArrays)
{
    const auto doc = parseJson(
        R"({"a": 1.5, "b": "x\ny", "c": [true, false, null], "d": {}})");
    ASSERT_TRUE(doc.ok());
    EXPECT_DOUBLE_EQ(doc->get("a").asNumber(), 1.5);
    EXPECT_EQ(doc->get("b").asString(), "x\ny");
    EXPECT_EQ(doc->get("c").asArray().size(), 3u);
    EXPECT_TRUE(doc->get("c").asArray()[0].asBool(false));
    EXPECT_TRUE(doc->get("d").isObject());
    EXPECT_FALSE(doc->has("missing"));
}

TEST(ServeJson, RejectsMalformedDocuments)
{
    EXPECT_FALSE(parseJson("").ok());
    EXPECT_FALSE(parseJson("{").ok());
    EXPECT_FALSE(parseJson("{\"a\": }").ok());
    EXPECT_FALSE(parseJson("[1, 2,]").ok());
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing").ok());
    EXPECT_FALSE(parseJson("nul").ok());
    EXPECT_FALSE(parseJson("\"unterminated").ok());
}

TEST(ServeJson, DepthIsBounded)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += "[";
    const auto doc = parseJson(deep);
    ASSERT_FALSE(doc.ok());
    EXPECT_NE(doc.error().message.find("deep"), std::string::npos);
}

TEST(ServeJson, UnicodeEscapesDecodeToUtf8)
{
    const auto doc = parseJson(R"({"s": "é中"})");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->get("s").asString(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(ServeJson, QuoteAndParseRoundTrip)
{
    const std::string nasty = "a\"b\\c\n\t\x01z";
    const auto doc = parseJson("{\"k\": " + jsonQuote(nasty) + "}");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->get("k").asString(), nasty);
}

TEST(ServeJson, DepthCapBoundaryIsExact)
{
    // The document's root parses at depth 0 and each nesting level
    // adds one, so kJsonMaxDepth+1 nested arrays are the deepest
    // accepted document and one more level must fail — cleanly, not
    // by exhausting the stack.
    const auto nested = [](size_t n) {
        std::string s(n, '[');
        s.append(n, ']');
        return s;
    };
    EXPECT_TRUE(parseJson(nested(kJsonMaxDepth + 1)).ok());
    const auto over = parseJson(nested(kJsonMaxDepth + 2));
    ASSERT_FALSE(over.ok());
    EXPECT_NE(over.error().message.find("deep"), std::string::npos);
}

TEST(ServeJson, UnterminatedStringsErrorAtEveryCutPoint)
{
    // Every prefix of a document that ends inside a string (including
    // mid-escape and mid-\uXXXX) must error, never read past the end.
    const std::string doc = R"({"k": "a\\b\u0041c"})";
    for (size_t cut = 7; cut + 2 < doc.size(); ++cut)
        EXPECT_FALSE(parseJson(doc.substr(0, cut)).ok())
            << "prefix length " << cut;
}

TEST(ServeJson, NonFiniteNumberLiteralsAreRejected)
{
    EXPECT_FALSE(parseJson("NaN").ok());
    EXPECT_FALSE(parseJson("nan").ok());
    EXPECT_FALSE(parseJson("Infinity").ok());
    EXPECT_FALSE(parseJson("-Infinity").ok());
    EXPECT_FALSE(parseJson("{\"x\": 1e999}").ok());
    EXPECT_FALSE(parseJson("{\"x\": -1e999}").ok());
    EXPECT_FALSE(parseJson("{\"x\": 0x10}").ok());
    // The boundary of finite doubles still parses.
    EXPECT_TRUE(parseJson("{\"x\": 1e308}").ok());
}

TEST(ServeJson, DuplicateKeysLastValueWins)
{
    const auto doc = parseJson(R"({"k": 1, "k": 2, "k": 3})");
    ASSERT_TRUE(doc.ok());
    EXPECT_DOUBLE_EQ(doc->get("k").asNumber(), 3.0);
}

TEST(ServeJson, MultiMegabyteInputsParseOrErrorCleanly)
{
    // The parser has no size cap of its own (the wire frame cap is
    // the daemon's bound); inputs beyond 1 MiB must parse or error
    // without aborting or overrunning.
    std::string big = "[";
    while (big.size() < (2u << 20))
        big += "\"0123456789abcdef\", ";
    big += "1]";
    const auto ok = parseJson(big);
    ASSERT_TRUE(ok.ok());
    EXPECT_GT(ok->asArray().size(), 100000u);

    big.pop_back(); // drop the ']': unterminated 2 MiB document
    EXPECT_FALSE(parseJson(big).ok());
}

// ------------------------------------------------------------- protocol

TEST(ServeProtocol, RequestRoundTripsThroughSerialization)
{
    Request req;
    req.id = 7;
    req.op = Op::Run;
    req.run.kind = accel::AccelKind::STC;
    req.run.layer = "256x128x2";
    req.run.sparsity = 0.75;
    req.run.seed = 9;
    req.run.bw = 100.0;
    const auto parsed = parseRequest(serializeRequest(req));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->id, 7u);
    EXPECT_EQ(parsed->op, Op::Run);
    EXPECT_EQ(parsed->run.kind, accel::AccelKind::STC);
    EXPECT_EQ(parsed->run.layer, "256x128x2");
    EXPECT_DOUBLE_EQ(parsed->run.sparsity, 0.75);
    EXPECT_EQ(parsed->run.seed, 9u);
    ASSERT_TRUE(parsed->run.bw.has_value());
    EXPECT_DOUBLE_EQ(*parsed->run.bw, 100.0);
    // Strategy-less requests serialize without the field, preserving
    // the pre-strategy wire bytes (batcher dedup keys on them).
    EXPECT_EQ(serializeRequest(req).find("strategy"), std::string::npos);
}

TEST(ServeProtocol, MaskStrategyRoundTripsAndValidates)
{
    Request req;
    req.id = 11;
    req.op = Op::Run;
    req.run.layer = "64x64x1";
    req.run.strategy = "greedy";
    const auto parsed = parseRequest(serializeRequest(req));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->run.strategy, "greedy");

    Request sp;
    sp.id = 12;
    sp.op = Op::Sparsify;
    sp.sparsify.layer = "64x64x1";
    sp.sparsify.strategy = "greedy";
    const auto sparsed = parseRequest(serializeRequest(sp));
    ASSERT_TRUE(sparsed.ok());
    EXPECT_EQ(sparsed->sparsify.strategy, "greedy");

    // Unknown strategies are rejected at parse time on both ops, with
    // the offending name in the diagnostic.
    const auto bad_run = parseRequest(
        R"({"id": 3, "op": "run", "accel": "tbstc",
            "layer": "8x8x1", "strategy": "anneal"})");
    ASSERT_FALSE(bad_run.ok());
    EXPECT_EQ(bad_run.error().id, 3u);
    EXPECT_NE(bad_run.error().message.find("anneal"),
              std::string::npos);
    EXPECT_FALSE(parseRequest(
                     R"({"op": "sparsify", "layer": "8x8x1",
                         "strategy": "anneal"})")
                     .ok());
}

TEST(ServeProtocol, ValidationErrorsCarryTheRequestId)
{
    const auto bad = parseRequest(
        R"({"id": 42, "op": "run", "accel": "nope", "layer": "8x8x1"})");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().id, 42u);
    EXPECT_NE(bad.error().message.find("nope"), std::string::npos);

    EXPECT_FALSE(parseRequest("{\"op\": \"run\"}").ok());
    EXPECT_FALSE(parseRequest("{\"op\": \"warp\"}").ok());
    EXPECT_FALSE(parseRequest("not json").ok());
    EXPECT_FALSE(
        parseRequest(
            R"({"op": "run", "accel": "tbstc", "layer": "8x8x1",
                "sparsity": 1.5})")
            .ok());
    EXPECT_FALSE(
        parseRequest(R"({"op": "sparsify", "layer": "bad"})").ok());
}

TEST(ServeProtocol, SparsifyLayerDefaultsTo512x512x1)
{
    // A sparsify without `layer` is the documented 512x512x1 request.
    const auto implicit = parseRequest(R"({"id": 1, "op": "sparsify"})");
    ASSERT_TRUE(implicit.ok()) << implicit.error().message;
    const auto explicit_layer = parseRequest(
        R"({"id": 1, "op": "sparsify", "layer": "512x512x1"})");
    ASSERT_TRUE(explicit_layer.ok());
    EXPECT_EQ(implicit->sparsify.layer, "512x512x1");
    EXPECT_EQ(serializeRequest(*implicit),
              serializeRequest(*explicit_layer));
    const SparsifyResult a = executeSparsify(implicit->sparsify);
    const SparsifyResult b = executeSparsify(explicit_layer->sparsify);
    EXPECT_EQ(a.rows, 512u);
    EXPECT_EQ(a.nnz, b.nnz);
    EXPECT_EQ(a.ddcBytes, b.ddcBytes);
    EXPECT_EQ(a.ddcCrc32, b.ddcCrc32);
}

TEST(ServeExec, SparsifyCrcFollowsTheStreamContent)
{
    // Two seeds of one shape give streams of one length but other
    // weights, so the reported CRC must differ. (A CRC-32 over a whole
    // DDC2 stream would not: each section ends in its own CRC-32.)
    SparsifySpec spec;
    spec.layer = "64x64x1";
    const SparsifyResult a = executeSparsify(spec);
    spec.seed = 7;
    const SparsifyResult b = executeSparsify(spec);
    ASSERT_EQ(a.ddcBytes, b.ddcBytes);
    EXPECT_NE(a.ddcCrc32, b.ddcCrc32);
    EXPECT_EQ(executeSparsify(spec).ddcCrc32, b.ddcCrc32);
}

// ------------------------------------------------ sparsify result cache

using util::ContentStore;

/** Restore the process-wide store to its default state on scope exit. */
struct StoreGuard
{
    ~StoreGuard()
    {
        ContentStore &s = ContentStore::instance();
        s.setEnabled(true);
        s.setDiskDir("");
        s.clearMemory();
    }
};

bool
sameResult(const SparsifyResult &a, const SparsifyResult &b)
{
    return a.rows == b.rows && a.cols == b.cols && a.nnz == b.nnz
        && a.ddcBytes == b.ddcBytes && a.ddcCrc32 == b.ddcCrc32;
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), {}};
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(ServeExec, SparsifyCacheMatchesUncachedAnswers)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    for (const char *layer : {"64x64x1", "128x256x1", "256x128x4"}) {
        for (const uint64_t seed : {42u, 7u}) {
            for (const uint64_t m : {2u, 4u, 8u}) {
                SparsifySpec spec;
                spec.layer = layer;
                spec.seed = seed;
                spec.m = m;
                store.setEnabled(false);
                const SparsifyResult reference = executeSparsify(spec);
                store.setEnabled(true);
                store.clearMemory();
                const SparsifyResult cold = executeSparsify(spec);
                const SparsifyResult warm = executeSparsify(spec);
                EXPECT_TRUE(sameResult(cold, reference))
                    << layer << " seed " << seed << " m " << m;
                EXPECT_TRUE(sameResult(warm, reference))
                    << layer << " seed " << seed << " m " << m;
            }
        }
    }
}

TEST(ServeExec, SparsifyCacheKeyCoversEveryField)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    store.clearMemory();
    obs::setMetricsEnabled(true);
    obs::resetMetrics();

    SparsifySpec base;
    base.layer = "64x64x1";
    // Each spec differs from base in one key field, so each misses once
    // and then hits.
    std::vector<SparsifySpec> specs(8, base);
    specs[1].layer = "72x64x1";
    specs[2].layer = "64x72x1";
    specs[3].layer = "64x64x2";
    specs[4].seed = 43;
    specs[5].sparsity = 0.5;
    specs[6].m = 16;
    specs[7].sparsity = std::nextafter(base.sparsity, 1.0);
    for (const SparsifySpec &spec : specs) {
        const auto before = store.stats();
        executeSparsify(spec);
        EXPECT_EQ(store.stats().misses, before.misses + 1) << spec.layer;
        executeSparsify(spec);
        EXPECT_EQ(store.stats().memoryHits, before.memoryHits + 1)
            << spec.layer;
    }

    // "" and "greedy" name one search, so they share one answer.
    SparsifySpec greedy = base;
    greedy.strategy = "greedy";
    const auto before = store.stats();
    executeSparsify(greedy);
    EXPECT_EQ(store.stats().misses, before.misses);
    EXPECT_EQ(store.stats().memoryHits, before.memoryHits + 1);

    // The outcomes land in the Host-domain counters the stats op shows
    // (unless TBSTC_OBS=OFF compiled the metrics out).
    if (obs::metricsEnabled()) {
        const std::string json = obs::metricsJson(true);
        EXPECT_NE(json.find("\"cache.sparsify.hits\": 9"),
                  std::string::npos)
            << json;
        EXPECT_NE(json.find("\"cache.sparsify.misses\": 8"),
                  std::string::npos)
            << json;
        EXPECT_NE(json.find("\"cache.sparsify.disk_hits\": 0"),
                  std::string::npos)
            << json;
    }
    obs::resetMetrics();
    obs::setMetricsEnabled(false);
}

TEST(ServeExec, SparsifyCacheNeverReturnsCorruptBlobs)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    const std::string dir = testing::TempDir() + "tbstc-sparsify-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    SparsifySpec spec;
    spec.layer = "64x128x1";
    store.setEnabled(false);
    const SparsifyResult reference = executeSparsify(spec);
    store.setEnabled(true);
    store.setDiskDir(dir);
    store.clearMemory();
    ASSERT_TRUE(sameResult(executeSparsify(spec), reference));

    // The cold answer filed one blob, "sparsify-<key hex>.blob".
    std::string blob_path;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        blob_path = e.path().string();
    const std::string stem = std::filesystem::path(blob_path).stem();
    ASSERT_EQ(stem.rfind("sparsify-", 0), 0u) << blob_path;
    const uint64_t key = std::stoull(stem.substr(9), nullptr, 16);
    const std::vector<uint8_t> pristine = readBytes(blob_path);
    store.clearMemory();
    const uint64_t disk_hits = store.stats().diskHits;
    ASSERT_TRUE(sameResult(executeSparsify(spec), reference));
    EXPECT_EQ(store.stats().diskHits, disk_hits + 1);

    // Corrupt and short blobs are rejected at the store and recomputed.
    util::FaultInjector fi(2026);
    size_t cases = 0;
    const auto sweep = [&](const std::vector<uint8_t> &corrupted) {
        if (corrupted == pristine)
            return;
        ++cases;
        const uint64_t rejects = store.stats().diskRejects;
        writeBytes(blob_path, corrupted);
        store.clearMemory();
        EXPECT_TRUE(sameResult(executeSparsify(spec), reference))
            << "corrupt sparsify blob altered an answer";
        EXPECT_EQ(store.stats().diskRejects, rejects + 1);
        writeBytes(blob_path, pristine);
    };
    for (int i = 0; i < 40; ++i)
        sweep(fi.flipBits(pristine, 1 + fi.rng().below(8)));
    for (const size_t cut : {size_t{0}, size_t{35}, size_t{36},
                             pristine.size() - 1})
        sweep(fi.truncate(pristine, cut));
    for (int i = 0; i < 10; ++i)
        sweep(fi.truncateRandom(pristine));
    for (int i = 0; i < 10; ++i)
        sweep(fi.extend(pristine, 1 + fi.rng().below(16)));
    EXPECT_GE(cases, 60u);

    // A well-formed blob whose payload does not decode (short, long,
    // or a CRC field wider than 32 bits) is a hit that is never
    // returned: it is recomputed, from disk and from memory alike.
    const std::vector<uint8_t> payload(pristine.end() - 40, pristine.end());
    std::vector<uint8_t> wide_crc = payload;
    wide_crc[36] = 1;
    for (const std::vector<uint8_t> &bad :
         {std::vector<uint8_t>(payload.begin(), payload.end() - 1),
          fi.extend(payload, 8), wide_crc, std::vector<uint8_t>{}}) {
        writeBytes(blob_path, ContentStore::makeBlob("sparsify", key, bad));
        store.clearMemory();
        EXPECT_TRUE(sameResult(executeSparsify(spec), reference));
        store.clearMemory();
        store.put("sparsify", key, bad);
        EXPECT_TRUE(sameResult(executeSparsify(spec), reference));
    }
    std::filesystem::remove_all(dir);
}

TEST(ServeExec, SparsifyCacheComputesOnceAcrossEightThreads)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    store.clearMemory();
    SparsifySpec spec;
    spec.layer = "512x512x1";
    constexpr int kThreads = 8;
    const auto before = store.stats();
    std::atomic<int> started{0};
    std::vector<SparsifyResult> results(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            ++started;
            while (started.load() < kThreads)
                std::this_thread::yield();
            results[t] = executeSparsify(spec);
        });
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(store.stats().misses, before.misses + 1);
    EXPECT_EQ(store.stats().memoryHits, before.memoryHits + kThreads - 1);
    for (const SparsifyResult &r : results)
        EXPECT_TRUE(sameResult(r, results[0]));
}

TEST(ServeExec, SparsifyBlockSizeMatchesTheDdcRange)
{
    SparsifySpec spec;
    spec.layer = "128x256x1";
    spec.m = 16;
    const auto ok = trySparsify(spec);
    ASSERT_TRUE(ok.ok()) << ok.error();
    EXPECT_EQ(executeSparsify(spec).rows, 128u);
    for (const uint64_t m : {17u, 32u, 64u}) {
        spec.m = m;
        EXPECT_FALSE(trySparsify(spec).ok()) << m;
        EXPECT_THROW(executeSparsify(spec), std::invalid_argument) << m;
        Request req;
        req.op = Op::Sparsify;
        req.sparsify = spec;
        EXPECT_FALSE(parseRequest(serializeRequest(req)).ok()) << m;
    }
}

TEST(ServeExec, SparsifyCacheNeverFilesAThrowingSpec)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    store.clearMemory();
    SparsifySpec untileable;
    untileable.layer = "100x100x1";
    SparsifySpec bad_m;
    bad_m.layer = "64x64x1";
    bad_m.m = 65;
    SparsifySpec malformed;
    malformed.layer = "64x64";
    for (const SparsifySpec &spec : {untileable, bad_m, malformed}) {
        const auto before = store.stats();
        for (int i = 0; i < 2; ++i)
            EXPECT_THROW(executeSparsify(spec), std::invalid_argument)
                << spec.layer;
        const auto after = store.stats();
        EXPECT_EQ(after.puts, before.puts) << spec.layer;
        EXPECT_EQ(after.memoryHits, before.memoryHits) << spec.layer;
    }
}

TEST(ServeProtocol, UnknownFieldsAreIgnored)
{
    const auto parsed = parseRequest(
        R"({"op": "ping", "future_field": {"x": [1, 2]}})");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->op, Op::Ping);
}

TEST(ServeProtocol, FramesRoundTripOverASocketPair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload = "{\"op\": \"ping\"}";
    ASSERT_TRUE(writeFrame(fds[0], payload));
    std::string got;
    EXPECT_EQ(readFrame(fds[1], got), FrameStatus::Ok);
    EXPECT_EQ(got, payload);

    // Orderly close surfaces as Eof before a length prefix.
    ::close(fds[0]);
    EXPECT_EQ(readFrame(fds[1], got), FrameStatus::Eof);
    ::close(fds[1]);
}

TEST(ServeProtocol, OversizedFrameIsRejected)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Hand-craft a header whose length exceeds the cap.
    const uint8_t hdr[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(fds[0], hdr, 4, 0), 4);
    std::string got;
    EXPECT_EQ(readFrame(fds[1], got, 1 << 10), FrameStatus::TooBig);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------- queue

TEST(ServeQueue, BackPressureAndDrainSemantics)
{
    BoundedQueue<int> q(2);
    EXPECT_EQ(q.tryPush(1), PushResult::Ok);
    EXPECT_EQ(q.tryPush(2), PushResult::Ok);
    EXPECT_EQ(q.tryPush(3), PushResult::Full);
    EXPECT_EQ(q.depth(), 2u);

    q.close();
    EXPECT_EQ(q.tryPush(4), PushResult::Closed);

    // Drain continues to hand out queued items after close...
    const auto batch = q.popBatch(8);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0], 1);
    EXPECT_EQ(batch[1], 2);
    // ...and then signals completion with an empty batch.
    EXPECT_TRUE(q.popBatch(8).empty());
}

TEST(ServeQueue, PopBlocksUntilPushOrClose)
{
    BoundedQueue<int> q(4);
    std::thread producer([&] { q.tryPush(11); });
    const auto batch = q.popBatch(2);
    producer.join();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], 11);
}

// ----------------------------------------------------------- end-to-end

/** Client half of the protocol for tests: one blocking connection. */
class TestClient
{
  public:
    explicit TestClient(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        connected_ =
            fd_ >= 0
            && ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr)
                == 0;
    }
    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }
    bool send(const Request &req)
    {
        return writeFrame(fd_, serializeRequest(req));
    }
    bool sendRaw(std::string_view payload)
    {
        return writeFrame(fd_, payload);
    }

    /** Read one response frame's bytes ("" on a failed read). */
    std::string recvRaw()
    {
        std::string frame;
        if (readFrame(fd_, frame) != FrameStatus::Ok)
            return {};
        return frame;
    }

    /** Read one response; returns the parsed document. */
    JsonValue recv()
    {
        auto doc = parseJson(recvRaw());
        return doc.ok() ? *std::move(doc) : JsonValue{};
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
};

/** Spin until the server has accepted @p n requests into the queue. */
void
awaitAccepted(const Server &server, uint64_t n)
{
    while (server.counters().accepted < n)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

Request
runRequest(uint64_t id, const std::string &layer, double sparsity)
{
    Request req;
    req.id = id;
    req.op = Op::Run;
    req.run.kind = accel::AccelKind::TbStc;
    req.run.layer = layer;
    req.run.sparsity = sparsity;
    return req;
}

TEST(ServeServer, RunResponseIsByteIdenticalToOneShot)
{
    ServerOptions opts;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    const Request req = runRequest(3, "64x64x1", 0.5);
    ASSERT_TRUE(client.send(req));
    const JsonValue resp = client.recv();
    ASSERT_TRUE(resp.get("ok").asBool(false));
    EXPECT_DOUBLE_EQ(resp.get("id").asNumber(), 3.0);

    // The acceptance bar: the daemon's csv field must be the exact
    // bytes the one-shot path prints for the same spec — including
    // the display label `tbstc run` uses.
    const std::string expected = formatStats(
        accel::accelName(req.run.kind), executeRun(req.run), true);
    EXPECT_EQ(resp.get("result").get("csv").asString(), expected);

    server.beginShutdown();
    server.wait();
    EXPECT_EQ(server.counters().answered, 1u);
}

TEST(ServeServer, SparsifyBlockSizeBeyondDdcIsBadRequest)
{
    ServerOptions opts;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    // m = 16 is the largest block a DDC2 stream holds, and its offset
    // groups shrink to fit the 12-bit info offsets.
    Request sp;
    sp.id = 1;
    sp.op = Op::Sparsify;
    sp.sparsify.layer = "128x256x1";
    sp.sparsify.m = 16;
    ASSERT_TRUE(client.send(sp));
    JsonValue resp = client.recv();
    EXPECT_TRUE(resp.get("ok").asBool(false)) << resp.get("error").asString();

    // Beyond it the request is the client's error, not the daemon's.
    for (const uint64_t m : {32u, 64u}) {
        ASSERT_TRUE(client.sendRaw(
            R"({"id": 7, "op": "sparsify", "layer": "128x256x1", "m": )"
            + std::to_string(m) + "}"));
        resp = client.recv();
        EXPECT_FALSE(resp.get("ok").asBool(true)) << m;
        EXPECT_EQ(resp.get("kind").asString(), "bad_request") << m;
    }
    server.beginShutdown();
    server.wait();
}

TEST(ServeServer, SparsifyPingStatsAndBadRequests)
{
    ServerOptions opts;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    // Ping is answered inline by the reader.
    Request ping;
    ping.id = 1;
    ping.op = Op::Ping;
    ASSERT_TRUE(client.send(ping));
    JsonValue resp = client.recv();
    EXPECT_TRUE(resp.get("ok").asBool(false));
    EXPECT_TRUE(resp.get("result").get("pong").asBool(false));

    // Sparsify reports the DDC summary; the CRC must match the
    // in-process execution (shared code, same bytes).
    Request sp;
    sp.id = 2;
    sp.op = Op::Sparsify;
    sp.sparsify.layer = "64x64x1";
    sp.sparsify.sparsity = 0.75;
    ASSERT_TRUE(client.send(sp));
    resp = client.recv();
    ASSERT_TRUE(resp.get("ok").asBool(false));
    const auto local = executeSparsify(sp.sparsify);
    EXPECT_DOUBLE_EQ(resp.get("result").get("ddc_crc32").asNumber(),
                     static_cast<double>(local.ddcCrc32));
    EXPECT_DOUBLE_EQ(resp.get("result").get("nnz").asNumber(),
                     static_cast<double>(local.nnz));

    // Stats responses carry the server section and embedded metrics.
    Request st;
    st.id = 3;
    st.op = Op::Stats;
    ASSERT_TRUE(client.send(st));
    resp = client.recv();
    ASSERT_TRUE(resp.get("ok").asBool(false));
    const JsonValue &stats = resp.get("result");
    EXPECT_EQ(stats.get("schema").asString(), "tbstc.serve.stats.v1");
    EXPECT_GE(stats.get("server").get("accepted").asNumber(), 2.0);
    EXPECT_TRUE(stats.get("metrics").isObject());

    // A malformed request gets a bad_request answer with its id and
    // does not kill the connection.
    ASSERT_TRUE(client.sendRaw(
        R"({"id": 9, "op": "run", "accel": "bogus", "layer": "8x8x1"})"));
    resp = client.recv();
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("kind").asString(), "bad_request");
    EXPECT_DOUBLE_EQ(resp.get("id").asNumber(), 9.0);

    // So does an unknown mask-search strategy, on either op.
    ASSERT_TRUE(client.sendRaw(
        R"({"id": 11, "op": "sparsify", "layer": "64x64x1",
            "strategy": "anneal"})"));
    resp = client.recv();
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("kind").asString(), "bad_request");
    EXPECT_DOUBLE_EQ(resp.get("id").asNumber(), 11.0);
    ASSERT_TRUE(client.sendRaw(
        R"({"id": 12, "op": "run", "accel": "tbstc",
            "layer": "64x64x1", "strategy": "optimal"})"));
    resp = client.recv();
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("kind").asString(), "bad_request");
    EXPECT_DOUBLE_EQ(resp.get("id").asNumber(), 12.0);

    Request again;
    again.id = 10;
    again.op = Op::Ping;
    ASSERT_TRUE(client.send(again));
    EXPECT_TRUE(client.recv().get("ok").asBool(false));

    server.beginShutdown();
    server.wait();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.badRequests, 3u);
    EXPECT_EQ(c.pings, 2u);
}

TEST(ServeServer, DuplicateRequestsCoalesceIntoOneExecution)
{
    // Hold the batcher through its first pop so all four duplicates
    // land in one batch deterministically.
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    ServerOptions opts;
    opts.maxBatch = 8;
    opts.batchHook = [&](size_t) {
        std::unique_lock lk(m);
        entered = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
    };
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    // First request occupies the batcher (hook blocks)...
    ASSERT_TRUE(client.send(runRequest(1, "32x32x1", 0.5)));
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return entered; });
    }
    // ...so these four land in the queue and form the second batch:
    // three duplicates and one distinct request.
    for (uint64_t id = 2; id <= 4; ++id)
        ASSERT_TRUE(client.send(runRequest(id, "48x48x1", 0.5)));
    ASSERT_TRUE(client.send(runRequest(5, "32x32x1", 0.75)));
    awaitAccepted(server, 5);
    {
        std::lock_guard lk(m);
        release = true;
    }
    cv.notify_all();

    std::vector<std::string> csvs;
    for (int i = 0; i < 5; ++i) {
        const JsonValue resp = client.recv();
        ASSERT_TRUE(resp.get("ok").asBool(false));
        if (resp.get("id").asNumber() >= 2.0
            && resp.get("id").asNumber() <= 4.0)
            csvs.push_back(resp.get("result").get("csv").asString());
    }
    ASSERT_EQ(csvs.size(), 3u);
    EXPECT_EQ(csvs[0], csvs[1]);
    EXPECT_EQ(csvs[1], csvs[2]);

    server.beginShutdown();
    server.wait();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.answered, 5u);
    EXPECT_EQ(c.dedupHits, 2u);
}

TEST(ServeServer, FullQueueAnswersBusyWithRetryAfter)
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    ServerOptions opts;
    opts.limits.queueCapacity = 2;
    opts.maxBatch = 1;
    opts.limits.retryAfterMs = 77;
    opts.batchHook = [&](size_t) {
        std::unique_lock lk(m);
        entered = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
        entered = false;
    };
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    // One request held in the batcher, two filling the queue...
    ASSERT_TRUE(client.send(runRequest(1, "16x16x1", 0.5)));
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return entered; });
    }
    ASSERT_TRUE(client.send(runRequest(2, "16x16x1", 0.5)));
    ASSERT_TRUE(client.send(runRequest(3, "16x16x1", 0.5)));
    // ...so the fourth is rejected with busy + the retry hint.
    ASSERT_TRUE(client.send(runRequest(4, "16x16x1", 0.5)));
    const JsonValue busy = client.recv();
    EXPECT_FALSE(busy.get("ok").asBool(true));
    EXPECT_EQ(busy.get("kind").asString(), "busy");
    EXPECT_DOUBLE_EQ(busy.get("id").asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(busy.get("retry_after_ms").asNumber(), 77.0);

    {
        std::lock_guard lk(m);
        release = true;
    }
    cv.notify_all();
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(client.recv().get("ok").asBool(false));

    server.beginShutdown();
    server.wait();
    EXPECT_EQ(server.counters().busyRejected, 1u);
    EXPECT_EQ(server.counters().answered, 3u);
}

TEST(ServeServer, DrainAnswersAcceptedAndRefusesNew)
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    ServerOptions opts;
    opts.maxBatch = 2;
    opts.batchHook = [&](size_t) {
        std::unique_lock lk(m);
        if (!entered) {
            entered = true;
            cv.notify_all();
            cv.wait(lk, [&] { return release; });
        }
    };
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    // Five accepted requests: some held in the first batch, the rest
    // queued behind it when the drain begins.
    ASSERT_TRUE(client.send(runRequest(1, "16x16x1", 0.5)));
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return entered; });
    }
    for (uint64_t id = 2; id <= 5; ++id)
        ASSERT_TRUE(client.send(runRequest(id, "16x16x1", 0.5)));
    awaitAccepted(server, 5);

    server.beginShutdown();

    // A frame arriving during the drain is refused, not dropped.
    ASSERT_TRUE(client.send(runRequest(6, "16x16x1", 0.5)));
    const JsonValue refused = client.recv();
    EXPECT_FALSE(refused.get("ok").asBool(true));
    EXPECT_EQ(refused.get("kind").asString(), "shutting_down");
    EXPECT_DOUBLE_EQ(refused.get("id").asNumber(), 6.0);

    {
        std::lock_guard lk(m);
        release = true;
    }
    cv.notify_all();

    // Every accepted request is answered before wait() returns.
    std::vector<double> ids;
    for (int i = 0; i < 5; ++i) {
        const JsonValue resp = client.recv();
        EXPECT_TRUE(resp.get("ok").asBool(false));
        ids.push_back(resp.get("id").asNumber());
    }
    server.wait();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<double>{1, 2, 3, 4, 5}));
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.accepted, 5u);
    EXPECT_EQ(c.answered, 5u);
    EXPECT_EQ(c.drainRejected, 1u);
}

TEST(ServeServer, UnixSocketRoundTrip)
{
    const std::string path = testing::TempDir() + "tbstc-serve-"
        + std::to_string(::getpid()) + ".sock";
    ServerOptions opts;
    opts.socketPath = path;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  path.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    Request ping;
    ping.id = 5;
    ping.op = Op::Ping;
    ASSERT_TRUE(writeFrame(fd, serializeRequest(ping)));
    std::string frame;
    ASSERT_EQ(readFrame(fd, frame), FrameStatus::Ok);
    const auto doc = parseJson(frame);
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE(doc->get("ok").asBool(false));
    ::close(fd);

    server.beginShutdown();
    server.wait();
    // The socket file is removed by the drain.
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// ------------------------------------------------- inline (memo) answers

Request
sparsifyRequest(uint64_t id)
{
    Request req;
    req.id = id;
    req.op = Op::Sparsify;
    req.sparsify.layer = "64x64x1";
    req.sparsify.sparsity = 0.75;
    return req;
}

/** The answer the batcher writes for @p req, computed in-process. */
std::string
expectedAnswer(const Request &req)
{
    if (req.op == Op::Run)
        return okResponse(req.id,
                          runResultJson(executeRun(req.run),
                                        accel::accelName(req.run.kind)));
    return okResponse(req.id,
                      sparsifyResultJson(executeSparsify(req.sparsify)));
}

TEST(ServeInline, WarmRepeatsMatchTheBatcherAnswerByteForByte)
{
    const StoreGuard guard;
    ContentStore::instance().setEnabled(true);
    constexpr uint64_t kRequests = 6;
    for (const Request &req :
         {runRequest(7, "64x64x1", 0.5), sparsifyRequest(7)}) {
        SCOPED_TRACE(serializeRequest(req));
        Server server(ServerOptions{});
        const auto started = server.start();
        ASSERT_TRUE(started.ok()) << started.error();
        TestClient client(*started);
        ASSERT_TRUE(client.connected());

        // The first answer comes from the batcher and warms the memo;
        // every repeat is the reader's, with the same bytes.
        ASSERT_TRUE(client.send(req));
        const std::string first = client.recvRaw();
        EXPECT_EQ(first, expectedAnswer(req));
        for (uint64_t i = 1; i + 1 < kRequests; ++i) {
            ASSERT_TRUE(client.send(req));
            EXPECT_EQ(client.recvRaw(), first) << "repeat " << i;
        }
        // Another id and a deadline share the signature; the answer
        // carries its own id.
        Request other = req;
        other.id = 99;
        other.deadlineMs = 60000;
        ASSERT_TRUE(client.send(other));
        EXPECT_EQ(client.recvRaw(), expectedAnswer(other));

        // The stats document counts the inline answers already sent.
        Request st;
        st.id = 8;
        st.op = Op::Stats;
        ASSERT_TRUE(client.send(st));
        const JsonValue stats = client.recv();
        EXPECT_DOUBLE_EQ(
            stats.get("result").get("server").get("inline_answers")
                .asNumber(),
            static_cast<double>(kRequests - 1));
        server.beginShutdown();
        server.wait();

        // One batch executed the request, one answered the stats.
        const ServerCounters c = server.counters();
        EXPECT_EQ(c.batches, 2u);
        EXPECT_EQ(c.inlineAnswers, kRequests - 1);
        EXPECT_EQ(c.dedupHits, kRequests - 1);
        EXPECT_EQ(c.accepted, kRequests + 1);
        EXPECT_EQ(c.answered, c.accepted);
    }
}

TEST(ServeInline, DrainRefusesAWarmSignature)
{
    const StoreGuard guard;
    ContentStore::instance().setEnabled(true);
    Server server(ServerOptions{});
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    const Request req = runRequest(1, "64x64x1", 0.5);
    ASSERT_TRUE(client.send(req));
    ASSERT_TRUE(client.recv().get("ok").asBool(false));

    // The drain check runs before the memo probe: a warm signature
    // arriving during the drain is refused like any other request.
    server.beginShutdown();
    ASSERT_TRUE(client.send(runRequest(2, "64x64x1", 0.5)));
    const JsonValue refused = client.recv();
    EXPECT_EQ(refused.get("kind").asString(), "shutting_down");
    EXPECT_DOUBLE_EQ(refused.get("id").asNumber(), 2.0);
    server.wait();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.inlineAnswers, 0u);
    EXPECT_EQ(c.drainRejected, 1u);
    EXPECT_EQ(c.answered, c.accepted);
}

TEST(ServeInline, RateLimitGatesAWarmSignature)
{
    const StoreGuard guard;
    ContentStore::instance().setEnabled(true);
    ServerOptions opts;
    opts.limits.ratePerSec = 0.001;
    opts.limits.rateBurst = 2.0;
    Server server(opts);
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    // Two tokens: the batcher's answer, then the reader's; the third
    // request finds the bucket empty before it reaches the memo.
    for (uint64_t id = 1; id <= 2; ++id) {
        ASSERT_TRUE(client.send(runRequest(id, "64x64x1", 0.5)));
        ASSERT_TRUE(client.recv().get("ok").asBool(false));
    }
    ASSERT_TRUE(client.send(runRequest(3, "64x64x1", 0.5)));
    const JsonValue limited = client.recv();
    EXPECT_EQ(limited.get("kind").asString(), "rate_limited");
    EXPECT_DOUBLE_EQ(limited.get("id").asNumber(), 3.0);

    server.beginShutdown();
    server.wait();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.inlineAnswers, 1u);
    EXPECT_EQ(c.rateLimited, 1u);
    EXPECT_EQ(c.answered, c.accepted);
}

TEST(ServeInline, DisabledStoreComputesEveryRequest)
{
    const StoreGuard guard;
    ContentStore::instance().setEnabled(false);
    Server server(ServerOptions{});
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    constexpr uint64_t kRequests = 4;
    for (const Request &req :
         {runRequest(5, "64x64x1", 0.5), sparsifyRequest(5)}) {
        const std::string want = expectedAnswer(req);
        for (uint64_t i = 0; i < kRequests; ++i) {
            ASSERT_TRUE(client.send(req));
            EXPECT_EQ(client.recvRaw(), want);
        }
    }
    server.beginShutdown();
    server.wait();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.inlineAnswers, 0u);
    EXPECT_EQ(c.batches, 2 * kRequests);
    EXPECT_EQ(c.answered, c.accepted);
}

TEST(ServeInline, FailuresAreExecutedEveryTime)
{
    const StoreGuard guard;
    ContentStore::instance().setEnabled(true);
    Server server(ServerOptions{});
    const auto started = server.start();
    ASSERT_TRUE(started.ok()) << started.error();
    TestClient client(*started);
    ASSERT_TRUE(client.connected());

    // A layer that does not tile by m = 8 parses but fails in
    // execution; the failure is answered, never filed.
    constexpr uint64_t kRequests = 3;
    for (uint64_t i = 0; i < kRequests; ++i) {
        ASSERT_TRUE(client.send(runRequest(4, "100x100x1", 0.5)));
        const JsonValue resp = client.recv();
        EXPECT_FALSE(resp.get("ok").asBool(true));
        EXPECT_EQ(resp.get("kind").asString(), "internal");
    }
    server.beginShutdown();
    server.wait();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.inlineAnswers, 0u);
    EXPECT_EQ(c.batches, kRequests);
    EXPECT_EQ(c.answered, c.accepted);
}

TEST(ServeLoadgen, MixIsDeterministicAndCommandsPrintable)
{
    const auto a = buildMix(50, 7);
    const auto b = buildMix(50, 7);
    ASSERT_EQ(a.size(), 50u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(serializeRequest(a[i]), serializeRequest(b[i]));
        EXPECT_EQ(a[i].id, i + 1);
        EXPECT_FALSE(oneShotCommand(a[i]).empty());
    }
    // A different seed must change the mix.
    const auto c = buildMix(50, 8);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs = differs
            || serializeRequest(a[i]) != serializeRequest(c[i]);
    EXPECT_TRUE(differs);
}

} // namespace
