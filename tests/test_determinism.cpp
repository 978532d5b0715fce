/**
 * @file
 * Golden-value regression tests: the library promises bit-identical
 * reproduction of every experiment, so pin exact values of the
 * deterministic primitives. A failure here means results published
 * from an earlier build are no longer reproducible — treat any golden
 * update as a breaking change.
 */

#include <gtest/gtest.h>

#include "accel/accelerator.hpp"
#include "core/maskspace.hpp"
#include "core/prune.hpp"
#include "sim/pipeline.hpp"
#include "mask_util.hpp"
#include "util/contentstore.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/accuracy_model.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;
using tbstc::testutil::makeMask;

/** FNV-1a over a byte view. */
template <typename T>
uint64_t
hashBytes(std::span<const T> data)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto *bytes = reinterpret_cast<const uint8_t *>(data.data());
    for (size_t i = 0; i < data.size() * sizeof(T); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Golden, RngStream)
{
    // xoshiro256** seeded through SplitMix64: platform-independent.
    util::Rng rng(42);
    EXPECT_EQ(rng.next(), 0x15780b2e0c2ec716ull);
    EXPECT_EQ(rng.next(), 0x6104d9866d113a7eull);
    rng = util::Rng(0);
    uint64_t last = 0;
    for (int i = 0; i < 1000; ++i)
        last = rng.next();
    EXPECT_EQ(last, 0x7aac8c483a2edd2full);
}

TEST(Golden, SynthWeightsHash)
{
    const auto w = workload::synthWeights({"golden", 64, 64, 1}, 7);
    EXPECT_EQ(hashBytes(std::span<const float>(w.data())),
              0x763a851695fbf636ull);
}

TEST(Golden, TbsMaskHash)
{
    const auto w = workload::synthWeights({"golden", 64, 64, 1}, 7);
    const auto res =
        makeMask(core::Pattern::TBS, core::magnitudeScores(w), 0.75);
    const auto bytes = res.mask.toBytes();
    EXPECT_EQ(hashBytes(std::span<const uint8_t>(bytes)),
              0x9bd674c42093ae19ull);
    EXPECT_EQ(res.mask.nnz(), 1024u);
}

TEST(Golden, SimulatedCycles)
{
    workload::ProfileSpec spec;
    spec.shape = {"golden-sim", 256, 256, 64};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = format::StorageFormat::DDC;
    const auto profile = workload::buildLayerProfile(spec);
    const auto stats = sim::simulateLayer(profile, sim::ArchConfig{});
    // Cycle counts are exact integers in double form.
    EXPECT_EQ(stats.cycles, stats.cycles); // NaN guard.
    EXPECT_EQ(static_cast<long long>(stats.cycles),
              static_cast<long long>(
                  sim::simulateLayer(profile, sim::ArchConfig{})
                      .cycles));
}

TEST(Golden, MaskSimilarityStable)
{
    const double a = workload::maskSimilarity(core::Pattern::TBS, 0.75, 8);
    const double b = workload::maskSimilarity(core::Pattern::TBS, 0.75, 8);
    EXPECT_EQ(a, b);
    EXPECT_GT(a, 0.80);
}

TEST(Golden, MaskSimilarityConcurrentMatchesSerial)
{
    // fig13's grid calls proxyAccuracy -> maskSimilarity from pool
    // workers, so the memo cache sees concurrent misses on shared and
    // distinct keys. Run the parallel pass first on a fresh seed (cold
    // cache), then compare against serial lookups.
    constexpr uint64_t kSeed = 0xf13;
    const std::vector<double> sparsities = {0.45, 0.55, 0.65, 0.75};
    const size_t jobs = sparsities.size() * 4; // 4 workers per key.
    util::ThreadScope scope(8);
    const auto got = util::parallelMap<double>(jobs, [&](size_t i) {
        return workload::maskSimilarity(
            core::Pattern::TBS, sparsities[i % sparsities.size()], 8,
            kSeed);
    });
    for (size_t i = 0; i < jobs; ++i)
        EXPECT_EQ(got[i],
                  workload::maskSimilarity(
                      core::Pattern::TBS,
                      sparsities[i % sparsities.size()], 8, kSeed))
            << "job=" << i;
}

TEST(Golden, TbsMaskBitIdenticalAcrossThreadCounts)
{
    // The block-wise sparsifier fans blocks out over a pool; its
    // output must match the pinned serial golden at any worker count.
    const auto w = workload::synthWeights({"golden", 64, 64, 1}, 7);
    const auto scores = core::magnitudeScores(w);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        util::ThreadScope scope(threads);
        const auto res =
            makeMask(core::Pattern::TBS, scores, 0.75);
        const auto bytes = res.mask.toBytes();
        EXPECT_EQ(hashBytes(std::span<const uint8_t>(bytes)),
                  0x9bd674c42093ae19ull)
            << "threads=" << threads;
        EXPECT_EQ(res.mask.nnz(), 1024u);
    }
}

TEST(Golden, MaskSpaceCountBitIdenticalAcrossThreadCounts)
{
    util::ThreadScope serial(1);
    const uint64_t golden = core::bruteForceTbsBlockMasks(4);
    for (size_t threads : {size_t{2}, size_t{8}}) {
        util::ThreadScope scope(threads);
        EXPECT_EQ(core::bruteForceTbsBlockMasks(4), golden)
            << "threads=" << threads;
    }
}

TEST(Golden, LayerSweepBitIdenticalAcrossThreadCounts)
{
    // A full layer sweep (profile build + analytic sim, several
    // patterns): float cycle/energy totals must agree to the last bit
    // between serial and parallel execution.
    const auto sweep = [] {
        std::vector<double> out;
        for (const core::Pattern p :
             {core::Pattern::US, core::Pattern::TS, core::Pattern::TBS})
            for (const double sp : {0.5, 0.75}) {
                workload::ProfileSpec spec;
                spec.shape = {"sweep", 128, 128, 32};
                spec.pattern = p;
                spec.sparsity = sp;
                spec.fmt = format::StorageFormat::DDC;
                const auto profile = workload::buildLayerProfile(spec);
                const auto stats =
                    sim::simulateLayer(profile, sim::ArchConfig{});
                out.push_back(stats.cycles);
                out.push_back(stats.energy.totalJ());
                out.push_back(stats.edp);
            }
        return out;
    };
    util::ThreadScope serial(1);
    const auto golden = sweep();
    for (size_t threads : {size_t{2}, size_t{8}}) {
        util::ThreadScope scope(threads);
        const auto got = sweep();
        ASSERT_EQ(got.size(), golden.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], golden[i])
                << "threads=" << threads << " slot=" << i;
    }
}

TEST(Golden, ModelRunBitIdenticalAcrossThreadCounts)
{
    // runModel fans per-layer simulations out and folds RunStats in
    // the serial accumulation order; whole-model totals are exact.
    util::ThreadScope serial(1);
    const auto golden = accel::runModel(
        accel::AccelKind::TbStc, workload::ModelId::ResNet50, 0.75, 0);
    for (size_t threads : {size_t{2}, size_t{8}}) {
        util::ThreadScope scope(threads);
        const auto got = accel::runModel(accel::AccelKind::TbStc,
                                         workload::ModelId::ResNet50,
                                         0.75, 0);
        EXPECT_EQ(got.cycles, golden.cycles) << "threads=" << threads;
        EXPECT_EQ(got.energy.totalJ(), golden.energy.totalJ());
        EXPECT_EQ(got.edp, golden.edp);
    }
}

TEST(Golden, HostThreadsConfigForcesSerial)
{
    // cfg.hostThreads pins the host worker count for a run regardless
    // of the ambient setting — same numbers either way.
    accel::RunRequest req;
    req.shape = workload::GemmShape{"cfg-threads", 128, 128, 32};
    req.sparsity = 0.75;
    auto cfg = accel::accelConfig(accel::AccelKind::TbStc);
    cfg.hostThreads = 1;
    req.configOverride = cfg;
    const auto serial = accel::runLayer(accel::AccelKind::TbStc, req);
    util::ThreadScope scope(8);
    req.configOverride->hostThreads = 8;
    const auto parallel = accel::runLayer(accel::AccelKind::TbStc, req);
    EXPECT_EQ(serial.cycles, parallel.cycles);
    EXPECT_EQ(serial.energy.totalJ(), parallel.energy.totalJ());
}

TEST(Golden, EndToEndRunIsBitStable)
{
    // Two fresh runs of the same request agree to the last bit.
    workload::ProfileSpec spec;
    spec.shape = {"golden-e2e", 128, 128, 32};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.625;
    spec.fmt = format::StorageFormat::DDC;
    const auto p1 = workload::buildLayerProfile(spec);
    const auto p2 = workload::buildLayerProfile(spec);
    ASSERT_EQ(p1.blocks.size(), p2.blocks.size());
    for (size_t i = 0; i < p1.blocks.size(); ++i) {
        EXPECT_EQ(p1.blocks[i].nnz, p2.blocks[i].nnz);
        EXPECT_EQ(p1.blocks[i].n, p2.blocks[i].n);
    }
    EXPECT_EQ(p1.aStream.payloadBytes, p2.aStream.payloadBytes);
    const auto s1 = sim::simulateLayer(p1, sim::ArchConfig{});
    const auto s2 = sim::simulateLayer(p2, sim::ArchConfig{});
    EXPECT_EQ(s1.cycles, s2.cycles);
    EXPECT_EQ(s1.energy.totalJ(), s2.energy.totalJ());
    EXPECT_EQ(s1.edp, s2.edp);
}

TEST(Golden, LayerProfileHash)
{
    // The profile cache's bytes for each fig13 accelerator, built
    // uncached, on a row-capped and an uncapped shape at two seeds.
    // Each accelerator's spec mirrors accel::runLayer's.
    using accel::AccelKind;
    struct Case
    {
        AccelKind kind;
        uint64_t hash;
    };
    const Case cases[] = {
        {AccelKind::TC, 0x465aa24b38054aedull},
        {AccelKind::STC, 0x7962cb86465d1f51ull},
        {AccelKind::Vegeta, 0x1e1c2a18df5214f9ull},
        {AccelKind::HighLight, 0xb4e45d1b1d7cb6acull},
        {AccelKind::RmStc, 0x2f4d89e46b91f896ull},
        {AccelKind::TbStc, 0x3abc5d5ba7c592c6ull},
    };
    struct Shape
    {
        workload::GemmShape shape;
        uint64_t maxElements;
    };
    const Shape shapes[] = {
        {{"golden-profile", 256, 128, 16}, 0},
        {{"golden-profile-capped", 1024, 256, 8}, uint64_t{1} << 16},
    };
    auto &store = util::ContentStore::instance();
    const bool was = store.enabled();
    store.setEnabled(false);
    for (const Case &c : cases) {
        uint64_t h = 0xcbf29ce484222325ull;
        for (const Shape &s : shapes) {
            for (const uint64_t seed : {7u, 21u}) {
                workload::ProfileSpec spec;
                spec.shape = s.shape;
                spec.maxElements = s.maxElements;
                spec.pattern = accel::accelPattern(c.kind);
                spec.sparsity = c.kind == AccelKind::STC ? 0.5 : 0.625;
                spec.fmt = accel::accelFormat(c.kind);
                spec.densifyIndependent = spec.pattern == core::Pattern::TBS
                    && !accel::supportsIndependentDim(c.kind)
                    && accel::accelPattern(c.kind) != core::Pattern::US;
                spec.seed = seed;
                const auto bytes = workload::serializeProfile(
                    workload::buildLayerProfile(spec));
                for (const uint8_t b : bytes) {
                    h ^= b;
                    h *= 0x100000001b3ull;
                }
            }
        }
        EXPECT_EQ(h, c.hash)
            << accel::accelName(c.kind) << " 0x" << std::hex << h;
    }
    store.setEnabled(was);
}

} // namespace
