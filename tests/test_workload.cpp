/**
 * @file
 * Tests for the workload layer: model tables, synthesis, profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "accel/accelerator.hpp"
#include "core/prune.hpp"
#include "obs/obs.hpp"
#include "util/contentstore.hpp"
#include "util/rng.hpp"
#include "workload/models.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc::workload;
using tbstc::core::Pattern;
using tbstc::format::StorageFormat;
namespace accel = tbstc::accel;
namespace obs = tbstc::obs;

TEST(Models, PadTo)
{
    EXPECT_EQ(padTo(0, 8), 0u);
    EXPECT_EQ(padTo(1, 8), 8u);
    EXPECT_EQ(padTo(8, 8), 8u);
    EXPECT_EQ(padTo(11008, 8), 11008u);
}

TEST(Models, AllLayersBlockAligned)
{
    for (ModelId id : {ModelId::ResNet50, ModelId::ResNet18,
                       ModelId::BertBase, ModelId::Opt67b,
                       ModelId::Llama27b}) {
        const auto layers = modelLayers(id, 128);
        EXPECT_FALSE(layers.empty()) << modelName(id);
        for (const auto &l : layers) {
            EXPECT_EQ(l.x % 8, 0u) << l.name;
            EXPECT_EQ(l.y % 8, 0u) << l.name;
            EXPECT_GT(l.nb, 0u) << l.name;
        }
    }
}

TEST(Models, LayerCountsMatchArchitectures)
{
    // ResNet-50: 16 bottlenecks x 3 convs + 4 downsamples = 52.
    EXPECT_EQ(modelLayers(ModelId::ResNet50).size(), 52u);
    // BERT-base: 12 x 6 weight GEMMs.
    EXPECT_EQ(modelLayers(ModelId::BertBase).size(), 72u);
    // OPT-6.7B: 32 x 6.
    EXPECT_EQ(modelLayers(ModelId::Opt67b).size(), 192u);
    // Llama2-7B: 32 x 7 (gated MLP).
    EXPECT_EQ(modelLayers(ModelId::Llama27b).size(), 224u);
}

TEST(Models, BertShapes)
{
    const auto layers = modelLayers(ModelId::BertBase, 128);
    const auto &fc1 = layers[4]; // q,k,v,o,fc1,fc2 per layer.
    EXPECT_EQ(fc1.x, 3072u);
    EXPECT_EQ(fc1.y, 768u);
    EXPECT_EQ(fc1.nb, 128u);
    EXPECT_EQ(fc1.macs(), 3072.0 * 768.0 * 128.0);
}

TEST(Models, RepresentativeSubsetsNonEmpty)
{
    for (ModelId id : {ModelId::ResNet50, ModelId::BertBase,
                       ModelId::Opt67b}) {
        const auto reps = representativeLayers(id);
        EXPECT_GE(reps.size(), 2u);
        EXPECT_LE(reps.size(), 8u);
    }
}

TEST(Synth, Deterministic)
{
    const GemmShape shape{"test", 64, 64, 16};
    const auto a = synthWeights(shape, 42);
    const auto b = synthWeights(shape, 42);
    EXPECT_EQ(a, b);
    const auto c = synthWeights(shape, 43);
    EXPECT_NE(a, c);
}

TEST(Synth, NameChangesStream)
{
    const GemmShape a{"layer.a", 32, 32, 8};
    const GemmShape b{"layer.b", 32, 32, 8};
    EXPECT_NE(synthWeights(a, 42), synthWeights(b, 42));
}

TEST(Synth, RowCapApplies)
{
    const GemmShape shape{"big", 4096, 64, 8};
    const auto w = synthWeights(shape, 1, 128);
    EXPECT_EQ(w.rows(), 128u);
    EXPECT_EQ(w.cols(), 64u);
}

TEST(Synth, ActivationsNonNegative)
{
    const auto x = synthActivations(32, 16, 5);
    for (float v : x.data())
        EXPECT_GE(v, 0.0f);
}

TEST(ProfileBuilder, BlockCountsAndNnz)
{
    ProfileSpec spec;
    spec.shape = {"t", 128, 128, 64};
    spec.pattern = Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::DDC;
    const auto profile = buildLayerProfile(spec);
    EXPECT_EQ(profile.blocks.size(), 16u * 16u);
    EXPECT_NEAR(static_cast<double>(profile.aNnz) / (128.0 * 128.0),
                0.5, 0.05);
    EXPECT_EQ(profile.sampleScale, 1.0);
    EXPECT_GT(profile.aStream.payloadBytes, 0u);
}

TEST(ProfileBuilder, SamplingScalesWork)
{
    ProfileSpec spec;
    spec.shape = {"huge", 4096, 1024, 64};
    spec.pattern = Pattern::US;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::Bitmap;
    spec.maxElements = 256 * 1024;
    const auto profile = buildLayerProfile(spec);
    EXPECT_LT(profile.blocks.size(), 4096u / 8 * (1024u / 8));
    EXPECT_GT(profile.sampleScale, 1.0);
    // usefulMacs must reflect the *full* layer.
    const double full_density =
        profile.usefulMacs() / spec.shape.macs();
    EXPECT_NEAR(full_density, 0.5, 0.05);
}

TEST(ProfileBuilder, TbsHasIndependentBlocks)
{
    ProfileSpec spec;
    spec.shape = {"t2", 256, 256, 64};
    spec.pattern = Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::DDC;
    const auto profile = buildLayerProfile(spec);
    size_t independent = 0;
    for (const auto &b : profile.blocks)
        independent += b.independentDim;
    EXPECT_GT(independent, 0u);
}

TEST(ProfileBuilder, DensifyRemovesIndependentBlocks)
{
    ProfileSpec spec;
    spec.shape = {"t3", 256, 256, 64};
    spec.pattern = Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::SDC;
    spec.densifyIndependent = true;
    const auto profile = buildLayerProfile(spec);
    for (const auto &b : profile.blocks)
        EXPECT_FALSE(b.independentDim);
    // Densified blocks add extra kept elements beyond the target.
    EXPECT_GT(static_cast<double>(profile.aNnz) / (256.0 * 256.0), 0.5);
}

TEST(ProfileBuilder, DeriveMetaBoundsGroups)
{
    ProfileSpec spec;
    spec.shape = {"t4", 64, 64, 16};
    spec.pattern = Pattern::RSV;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::SDC;
    const auto profile = buildLayerProfile(spec);
    for (const auto &b : profile.blocks) {
        EXPECT_LE(b.nnz, 64u);
        EXPECT_LE(b.n, 8u);
        EXPECT_FALSE(b.independentDim);
        EXPECT_LE(b.nonemptyRows, 8u);
    }
}

TEST(ProfileBuilder, DeriveMetaMatchesBitCount)
{
    tbstc::util::Rng rng(11);
    for (const size_t m : {4u, 8u, 16u, 128u}) {
        tbstc::core::Mask mask(256, 256);
        for (size_t r = 0; r < mask.rows(); ++r)
            for (size_t c = 0; c < mask.cols(); ++c)
                mask.at(r, c) = rng.uniform() < 0.3 ? 1 : 0;
        const auto meta = deriveMeta(mask, m);
        for (size_t br = 0; br < meta.blockRows; ++br)
            for (size_t bc = 0; bc < meta.blockCols; ++bc) {
                size_t max_row = 0;
                for (size_t r = 0; r < m; ++r) {
                    size_t row_nnz = 0;
                    for (size_t c = 0; c < m; ++c)
                        row_nnz += std::as_const(mask).at(br * m + r,
                                                          bc * m + c);
                    max_row = std::max(max_row, row_nnz);
                }
                EXPECT_EQ(meta.block(br, bc).n, static_cast<uint8_t>(max_row))
                    << "m=" << m << " block " << br << "," << bc;
            }
    }
}

/**
 * Host counters of the shared weight synthesis. Recording is switched
 * on and zeroed for the guard's lifetime; live() is false when obs is
 * compiled out, and the counts then read 0.
 */
class SynthCounters
{
  public:
    SynthCounters()
    {
        obs::setMetricsEnabled(true);
        obs::resetMetrics();
    }
    ~SynthCounters()
    {
        obs::resetMetrics();
        obs::setMetricsEnabled(false);
    }
    SynthCounters(const SynthCounters &) = delete;
    SynthCounters &operator=(const SynthCounters &) = delete;
    bool live() const { return obs::metricsEnabled(); }
    uint64_t synthesized() const { return read("synthesized"); }
    uint64_t shared() const { return read("shared"); }

  private:
    static uint64_t
    read(const std::string &which)
    {
        const std::string json = obs::metricsJson(true);
        const std::string key = "\"workload.weights." + which + "\": ";
        const size_t at = json.find(key);
        return at == std::string::npos
            ? 0
            : std::stoull(json.substr(at + key.size()));
    }
};

/** Profile-cache switch restored on scope exit. */
class CacheOff
{
  public:
    CacheOff() { store().setEnabled(false); }
    ~CacheOff() { store().setEnabled(was_); }
    CacheOff(const CacheOff &) = delete;
    CacheOff &operator=(const CacheOff &) = delete;

  private:
    static tbstc::util::ContentStore &
    store()
    {
        return tbstc::util::ContentStore::instance();
    }
    bool was_ = store().enabled();
};

TEST(ProfileBuilder, SharedSynthReusesLiveLayer)
{
    const SynthCounters counters;
    const GemmShape shape{"shared-live", 64, 96, 8};
    const auto first = synthShared(shape, 3, 64);
    const auto second = synthShared(shape, 3, 64);
    EXPECT_EQ(first.get(), second.get());
    // Every input synthWeights reads separates the key.
    EXPECT_NE(synthShared(shape, 4, 64).get(), first.get());
    EXPECT_NE(synthShared(shape, 3, 32).get(), first.get());
    EXPECT_NE(synthShared({"other", 64, 96, 8}, 3, 64).get(), first.get());
    if (counters.live()) {
        EXPECT_EQ(counters.synthesized(), 4u);
        EXPECT_EQ(counters.shared(), 1u);
    }
}

TEST(ProfileBuilder, SharedSynthRacingThreadsSynthesizeOnce)
{
    const SynthCounters counters;
    const GemmShape shape{"shared-race", 256, 256, 8};
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const SynthLayer>> got(kThreads);
    std::atomic<int> started{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ++started;
            while (started.load() < kThreads) // Maximize contention.
                std::this_thread::yield();
            got[t] = synthShared(shape, 9, 256);
        });
    for (auto &th : threads)
        th.join();
    // Every result is still held, so one object means one synthesis.
    for (const auto &layer : got)
        EXPECT_EQ(layer.get(), got[0].get());
    if (counters.live()) {
        EXPECT_EQ(counters.synthesized(), 1u);
        EXPECT_EQ(counters.shared(), kThreads - 1u);
    }
}

TEST(ProfileBuilder, SharedSynthRetainsNothing)
{
    const SynthCounters counters;
    const GemmShape shape{"shared-drop", 64, 64, 8};
    std::weak_ptr<const SynthLayer> weak = synthShared(shape, 5, 64);
    EXPECT_TRUE(weak.expired());
    const auto again = synthShared(shape, 5, 64);
    EXPECT_TRUE(weak.expired());
    if (counters.live()) {
        EXPECT_EQ(counters.synthesized(), 2u);
        EXPECT_EQ(counters.shared(), 0u);
    }
}

TEST(ProfileBuilder, SharedSynthMatchesSynthWeightsBitForBit)
{
    const GemmShape shape{"shared-bits", 200, 120, 8};
    for (const uint64_t cap : {0u, 64u, 200u}) {
        const auto layer = synthShared(shape, 13, cap);
        const auto w = synthWeights(shape, 13, cap);
        const auto scores = tbstc::core::magnitudeScores(w);
        ASSERT_EQ(layer->w.rows(), w.rows());
        ASSERT_EQ(layer->w.cols(), w.cols());
        ASSERT_EQ(layer->scores.size(), scores.size());
        EXPECT_EQ(std::memcmp(layer->w.data().data(), w.data().data(),
                              w.size() * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(layer->scores.data().data(),
                              scores.data().data(),
                              scores.size() * sizeof(float)),
                  0);
    }
}

TEST(ProfileBuilder, SharedSynthErrorReachesEveryCaller)
{
    // Too many columns for any std::vector: synthesis throws before
    // allocating anything.
    const GemmShape shape{"shared-throw", 1, uint64_t{1} << 62, 8};
    constexpr int kThreads = 6;
    std::atomic<int> failed{0};
    std::atomic<int> started{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            ++started;
            while (started.load() < kThreads)
                std::this_thread::yield();
            try {
                synthShared(shape, 1, 0);
            } catch (const std::length_error &) {
                ++failed;
            }
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failed.load(), kThreads);
    // The failed flight was cleared: the next caller produces afresh
    // instead of sharing a stored error.
    const SynthCounters counters;
    EXPECT_THROW(synthShared(shape, 1, 0), std::length_error);
    if (counters.live()) {
        EXPECT_EQ(counters.synthesized(), 1u);
        EXPECT_EQ(counters.shared(), 0u);
    }
}

void
expectSameProfile(const tbstc::sim::LayerProfile &a,
                  const tbstc::sim::LayerProfile &b)
{
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.nb, b.nb);
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.aNnz, b.aNnz);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.sampleScale),
              std::bit_cast<uint64_t>(b.sampleScale));
    EXPECT_EQ(a.aStream.payloadBytes, b.aStream.payloadBytes);
    EXPECT_EQ(a.aStream.usefulBytes, b.aStream.usefulBytes);
    EXPECT_EQ(a.aStream.segments, b.aStream.segments);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        EXPECT_EQ(a.blocks[i].nnz, b.blocks[i].nnz) << i;
        EXPECT_EQ(a.blocks[i].n, b.blocks[i].n) << i;
        EXPECT_EQ(a.blocks[i].independentDim, b.blocks[i].independentDim)
            << i;
        EXPECT_EQ(a.blocks[i].nonemptyRows, b.blocks[i].nonemptyRows)
            << i;
    }
}

TEST(ProfileBuilder, Fig13KindsSharingSynthMatchSerialUncached)
{
    using accel::AccelKind;
    const AccelKind kinds[] = {AccelKind::TC,        AccelKind::STC,
                               AccelKind::Vegeta,    AccelKind::HighLight,
                               AccelKind::RmStc,     AccelKind::TbStc};
    const GemmShape shapes[] = {{"fig13-a", 128, 256, 16},
                                {"fig13-b", 256, 128, 32}};
    // Mirrors accel::runLayer's spec for a plain fig13 request.
    std::vector<ProfileSpec> specs;
    for (const auto &shape : shapes)
        for (const AccelKind kind : kinds) {
            ProfileSpec spec;
            spec.shape = shape;
            spec.pattern = accel::accelPattern(kind);
            spec.sparsity = kind == AccelKind::STC ? 0.5 : 0.625;
            spec.fmt = accel::accelFormat(kind);
            spec.densifyIndependent = spec.pattern == Pattern::TBS
                && !accel::supportsIndependentDim(kind);
            spec.seed = 21;
            specs.push_back(spec);
        }

    const CacheOff off;
    std::vector<tbstc::sim::LayerProfile> serial;
    for (const auto &spec : specs)
        serial.push_back(buildLayerProfile(spec));

    const SynthCounters counters;
    std::vector<tbstc::sim::LayerProfile> concurrent(specs.size());
    {
        // Holding each shape's layer forces every concurrent build onto
        // the shared path, whatever the schedule.
        std::vector<std::shared_ptr<const SynthLayer>> held;
        for (const auto &shape : shapes)
            held.push_back(synthShared(shape, 21, shape.x));
        std::vector<std::thread> threads;
        for (size_t i = 0; i < specs.size(); ++i)
            threads.emplace_back(
                [&, i] { concurrent[i] = buildLayerProfile(specs[i]); });
        for (auto &th : threads)
            th.join();
    }
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(accel::accelName(kinds[i % std::size(kinds)]));
        expectSameProfile(concurrent[i], serial[i]);
    }
    if (counters.live()) {
        EXPECT_EQ(counters.synthesized(), std::size(shapes));
        EXPECT_EQ(counters.shared(), specs.size());
    }
}

} // namespace
