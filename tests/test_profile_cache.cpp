/**
 * @file
 * Content-addressed cache tests: determinism, key sensitivity, blob
 * validation, and single-flight coalescing.
 *
 * The cache's contract is strictly "same bits, sooner": a profile or
 * simulation served from memory, served from disk, or computed with
 * the store disabled must be bit-identical (doubles compared by
 * pattern, not tolerance). Corrupt disk blobs must always be rejected
 * and recomputed — a cache can cost time, never correctness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>
#include <vector>

#include "sim/energy.hpp"
#include "sim/pipeline.hpp"
#include "util/contentstore.hpp"
#include "util/logging.hpp"
#include "workload/profile_builder.hpp"

namespace {

using namespace tbstc;
using sim::LayerProfile;
using util::CacheOutcome;
using util::ContentStore;

/** Fresh scratch directory under the test temp root. */
std::string
scratchDir(const char *tag)
{
    const std::string dir =
        testing::TempDir() + "tbstc-cache-" + tag + "-"
        + std::to_string(static_cast<unsigned long long>(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

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
sameProfile(const LayerProfile &a, const LayerProfile &b)
{
    if (a.x != b.x || a.y != b.y || a.nb != b.nb || a.m != b.m
        || a.aNnz != b.aNnz)
        return false;
    if (std::bit_cast<uint64_t>(a.sampleScale)
        != std::bit_cast<uint64_t>(b.sampleScale))
        return false;
    if (a.aStream.payloadBytes != b.aStream.payloadBytes
        || a.aStream.usefulBytes != b.aStream.usefulBytes
        || a.aStream.segments != b.aStream.segments)
        return false;
    if (a.blocks.size() != b.blocks.size())
        return false;
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        const auto &x = a.blocks[i];
        const auto &y = b.blocks[i];
        if (x.nnz != y.nnz || x.n != y.n
            || x.independentDim != y.independentDim
            || x.nonemptyRows != y.nonemptyRows)
            return false;
    }
    return true;
}

bool
sameStats(const sim::RunStats &a, const sim::RunStats &b)
{
    const auto eq = [](double x, double y) {
        return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
    };
    return eq(a.cycles, b.cycles) && eq(a.seconds, b.seconds)
        && eq(a.energy.computeJ, b.energy.computeJ)
        && eq(a.energy.sramJ, b.energy.sramJ)
        && eq(a.energy.dramJ, b.energy.dramJ)
        && eq(a.energy.codecJ, b.energy.codecJ)
        && eq(a.energy.mbdJ, b.energy.mbdJ)
        && eq(a.energy.staticJ, b.energy.staticJ) && eq(a.edp, b.edp)
        && eq(a.breakdown.compute, b.breakdown.compute)
        && eq(a.breakdown.memory, b.breakdown.memory)
        && eq(a.breakdown.codec, b.breakdown.codec)
        && eq(a.breakdown.codecExposed, b.breakdown.codecExposed)
        && eq(a.breakdown.startup, b.breakdown.startup)
        && eq(a.breakdown.total, b.breakdown.total)
        && eq(a.bwUtilisation, b.bwUtilisation)
        && eq(a.computeUtilisation, b.computeUtilisation)
        && eq(a.schedUtilisation, b.schedUtilisation);
}

workload::ProfileSpec
testSpec(uint64_t seed = 5, double sparsity = 0.625)
{
    workload::ProfileSpec spec;
    spec.shape = {"cache-test", 64, 128, 32};
    spec.sparsity = sparsity;
    spec.seed = seed;
    return spec;
}

TEST(ProfileCache, ColdWarmAndDisabledAgree)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    const std::string dir = scratchDir("profile");

    store.setEnabled(false);
    const LayerProfile reference = buildLayerProfile(testSpec());

    store.setEnabled(true);
    store.setDiskDir(dir);
    store.clearMemory();
    const auto before = store.stats();
    const LayerProfile cold = buildLayerProfile(testSpec());
    const LayerProfile warm = buildLayerProfile(testSpec());
    const auto after = store.stats();

    EXPECT_TRUE(sameProfile(cold, reference));
    EXPECT_TRUE(sameProfile(warm, reference));
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_GE(after.memoryHits, before.memoryHits + 1);

    // Disk-warm: a fresh memory map must be fed from the blob, still
    // bit-identical.
    store.clearMemory();
    const LayerProfile disk_warm = buildLayerProfile(testSpec());
    EXPECT_TRUE(sameProfile(disk_warm, reference));
    EXPECT_EQ(store.stats().diskHits, after.diskHits + 1);

    std::filesystem::remove_all(dir);
}

TEST(ProfileCache, KeySeparatesSpecs)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    store.setEnabled(true);
    store.setDiskDir("");
    store.clearMemory();

    // Warm the cache with one spec, then request near-identical specs
    // differing in exactly one key field: each must be a fresh build
    // (different content key), never a false hit.
    const LayerProfile base = buildLayerProfile(testSpec(5, 0.625));
    const LayerProfile seed = buildLayerProfile(testSpec(6, 0.625));
    const LayerProfile sp = buildLayerProfile(testSpec(5, 0.5));
    EXPECT_FALSE(sameProfile(base, seed));
    EXPECT_FALSE(sameProfile(base, sp));

    auto named = testSpec();
    named.shape.name = "cache-test-renamed";
    // synthWeights seeds from the shape name, so the name is part of
    // the content; a rename must miss and rebuild.
    const LayerProfile renamed = buildLayerProfile(named);
    EXPECT_FALSE(sameProfile(base, renamed));
}

TEST(ProfileCache, KeyCanonicalizesMaskStrategy)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    store.setEnabled(true);
    store.setDiskDir("");
    store.clearMemory();

    // "" and "greedy" name the same mask search: the spelled-out
    // default hits the profile the empty string built.
    const auto before = store.stats();
    const LayerProfile base = buildLayerProfile(testSpec());
    EXPECT_EQ(store.stats().misses, before.misses + 1);
    auto named = testSpec();
    named.maskStrategy = "greedy";
    const LayerProfile greedy = buildLayerProfile(named);
    EXPECT_EQ(store.stats().misses, before.misses + 1);
    EXPECT_EQ(store.stats().memoryHits, before.memoryHits + 1);
    EXPECT_TRUE(sameProfile(base, greedy));

    // A name outside the vocabulary is an error, never a profile.
    auto unknown = testSpec();
    unknown.maskStrategy = "optimal";
    EXPECT_THROW(buildLayerProfile(unknown), util::FatalError);
}

TEST(SimCache, CachedStatsBitIdentical)
{
    const StoreGuard guard;
    ContentStore &store = ContentStore::instance();
    const std::string dir = scratchDir("sim");

    LayerProfile layer;
    layer.x = 256;
    layer.y = 256;
    layer.nb = 64;
    layer.m = 8;
    layer.aNnz = 256 * 256 / 2;
    layer.blocks.assign(32 * 32, sim::BlockTask{32, 4, false, 8});
    layer.aStream = {layer.aNnz * 2, layer.aNnz * 2, 2};

    store.setEnabled(false);
    const sim::RunStats reference = simulateLayer(layer, sim::ArchConfig{});

    store.setEnabled(true);
    store.setDiskDir(dir);
    store.clearMemory();
    const sim::RunStats cold = simulateLayer(layer, sim::ArchConfig{});
    const sim::RunStats warm = simulateLayer(layer, sim::ArchConfig{});
    store.clearMemory();
    const sim::RunStats disk = simulateLayer(layer, sim::ArchConfig{});

    EXPECT_TRUE(sameStats(cold, reference));
    EXPECT_TRUE(sameStats(warm, reference));
    EXPECT_TRUE(sameStats(disk, reference));

    // Any config change must miss: hostThreads is the one excluded
    // field (host parallelism never changes results).
    sim::ArchConfig faster;
    faster.clockGhz *= 2.0;
    const sim::RunStats other = simulateLayer(layer, faster);
    EXPECT_FALSE(sameStats(other, reference));

    std::filesystem::remove_all(dir);
}

TEST(ContentStoreBlob, RoundTripAndRejection)
{
    const std::vector<uint8_t> payload = {1, 2, 3, 250, 251, 252, 0, 9};
    const uint64_t key = 0x0123456789abcdefull;
    const std::vector<uint8_t> blob =
        ContentStore::makeBlob("profile", key, payload);

    const auto ok = ContentStore::parseBlob(blob, "profile", key);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, payload);

    // Wrong kind and wrong key must both reject (a blob can never be
    // served to a caller it was not computed for).
    EXPECT_FALSE(ContentStore::parseBlob(blob, "sim", key));
    EXPECT_FALSE(ContentStore::parseBlob(blob, "profile", key + 1));

    // Every single-bit flip anywhere in the blob must reject: header
    // flips break magic/version/kind/key/size, payload flips break
    // the CRC.
    for (size_t bit = 0; bit < blob.size() * 8; ++bit) {
        auto bad = blob;
        bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(ContentStore::parseBlob(bad, "profile", key))
            << "accepted blob with bit " << bit << " flipped";
    }

    // Truncations and extensions reject (size field mismatch).
    for (const size_t cut : {0u, 1u, 35u, 36u, 40u})
        EXPECT_FALSE(ContentStore::parseBlob(
            std::span(blob.data(), std::min(cut, blob.size())),
            "profile", key));
    auto extended = blob;
    extended.push_back(0);
    EXPECT_FALSE(ContentStore::parseBlob(extended, "profile", key));
}

TEST(ContentStore, DiskRejectsCorruptionAndRecomputes)
{
    ContentStore store; // Local instance; singleton untouched.
    const std::string dir = scratchDir("reject");
    store.setDiskDir(dir);

    const std::vector<uint8_t> payload(64, 0xa5);
    store.put("profile", 42, payload);
    ASSERT_TRUE(std::filesystem::exists(store.blobPath("profile", 42)));

    // Corrupt one payload byte on disk, then force a disk read.
    {
        std::FILE *f =
            std::fopen(store.blobPath("profile", 42).c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 40, SEEK_SET);
        std::fputc(0x00, f);
        std::fclose(f);
    }
    store.clearMemory();
    EXPECT_FALSE(store.get("profile", 42).has_value());
    EXPECT_EQ(store.stats().diskRejects, 1u);

    // getOrCompute must also reject the blob and recompute.
    std::atomic<int> computed{0};
    const auto [bytes, outcome] = store.getOrCompute("profile", 42, [&] {
        ++computed;
        return payload;
    });
    EXPECT_EQ(outcome, CacheOutcome::Computed);
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(bytes, payload);

    // The recompute overwrote the corrupt blob with a valid one.
    store.clearMemory();
    EXPECT_TRUE(store.get("profile", 42).has_value());

    std::filesystem::remove_all(dir);
}

TEST(ContentStore, SingleFlightComputesOncePerKey)
{
    ContentStore store;
    std::atomic<int> computes{0};
    std::atomic<int> started{0};
    constexpr int kThreads = 8;

    std::vector<std::thread> pool;
    std::vector<std::vector<uint8_t>> results(kThreads);
    std::vector<CacheOutcome> outcomes(kThreads);
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            ++started;
            while (started.load() < kThreads) // Maximize contention.
                std::this_thread::yield();
            auto [bytes, outcome] = store.getOrCompute("sim", 7, [&] {
                ++computes;
                // Hold the flight open long enough for every other
                // thread to reach the wait path.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return std::vector<uint8_t>{9, 9, 9};
            });
            results[t] = std::move(bytes);
            outcomes[t] = outcome;
        });
    for (auto &th : pool)
        th.join();

    // Exactly one producer; everyone observes its payload.
    EXPECT_EQ(computes.load(), 1);
    int produced = 0;
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(results[t], (std::vector<uint8_t>{9, 9, 9}));
        produced += outcomes[t] == CacheOutcome::Computed;
    }
    EXPECT_EQ(produced, 1);

    // Distinct keys are independent flights.
    std::atomic<int> other{0};
    store.getOrCompute("sim", 8, [&] {
        ++other;
        return std::vector<uint8_t>{1};
    });
    EXPECT_EQ(other.load(), 1);
}

TEST(ContentStore, DisabledPassesThrough)
{
    ContentStore store;
    store.setEnabled(false);
    int calls = 0;
    for (int i = 0; i < 2; ++i) {
        const auto [bytes, outcome] = store.getOrCompute("sim", 1, [&] {
            ++calls;
            return std::vector<uint8_t>{5};
        });
        EXPECT_EQ(outcome, CacheOutcome::Disabled);
        EXPECT_EQ(bytes, std::vector<uint8_t>{5});
    }
    EXPECT_EQ(calls, 2); // No caching while disabled.
    EXPECT_FALSE(store.get("sim", 1).has_value());
}

} // namespace
