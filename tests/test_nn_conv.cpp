/**
 * @file
 * Tests for the maskable Conv2d layer and SimpleCnn: gradient
 * correctness, training, and TBS masking of conv weights.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "mask_util.hpp"
#include "nn/conv_layer.hpp"
#include "util/rng.hpp"

namespace {

using namespace tbstc;
using core::Matrix;
using tbstc::testutil::makeMask;
using workload::ConvSpec;

/** Synthetic stripe-orientation image classification task. */
struct ImageData
{
    Matrix x;
    std::vector<size_t> labels;
};

ImageData
makeStripes(size_t n, size_t hw, util::Rng &rng)
{
    ImageData d;
    d.x = Matrix(n, hw * hw);
    d.labels.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const size_t cls = rng.below(3); // horizontal/vertical/diag.
        d.labels[i] = cls;
        const size_t phase = rng.below(3);
        for (size_t y = 0; y < hw; ++y) {
            for (size_t x = 0; x < hw; ++x) {
                const size_t k =
                    cls == 0 ? y : (cls == 1 ? x : x + y);
                const double base = (k + phase) % 3 == 0 ? 1.0 : -0.3;
                d.x.at(i, y * hw + x) = static_cast<float>(
                    base + rng.gaussian(0.0, 0.25));
            }
        }
    }
    return d;
}

TEST(Conv2dLayer, ForwardShape)
{
    util::Rng rng(1);
    ConvSpec s;
    s.cin = 2;
    s.cout = 4;
    s.h = s.w = 6;
    s.pad = 1;
    nn::Conv2dLayer layer(s, rng);
    Matrix x(3, 2 * 6 * 6);
    const Matrix y = layer.forward(x);
    EXPECT_EQ(y.rows(), 3u);
    EXPECT_EQ(y.cols(), 4u * 6u * 6u);
}

TEST(Conv2dLayer, GradientMatchesNumerical)
{
    util::Rng rng(2);
    ConvSpec s;
    s.cin = 1;
    s.cout = 2;
    s.h = s.w = 5;
    s.pad = 1;
    nn::Conv2dLayer layer(s, rng);

    Matrix x(2, 25);
    for (auto &v : x.data())
        v = static_cast<float>(rng.gaussian());

    // Loss = 0.5 * ||y||^2 so dL/dy = y.
    auto loss_of = [&] {
        const Matrix y = layer.forward(x);
        double acc = 0.0;
        for (float v : y.data())
            acc += 0.5 * static_cast<double>(v) * v;
        return acc;
    };

    // Input-gradient numerical check: dL/dx flows through backward()'s
    // dcols and col2im path, the same math that produces gradW.
    const double eps = 1e-3;
    const Matrix y = layer.forward(x);
    const Matrix dx = layer.backward(y);
    for (size_t idx : {size_t{0}, size_t{12}, x.size() - 1}) {
        const float orig = x.data()[idx];
        x.data()[idx] = orig + static_cast<float>(eps);
        const double lp = loss_of();
        x.data()[idx] = orig - static_cast<float>(eps);
        const double lm = loss_of();
        x.data()[idx] = orig;
        EXPECT_NEAR(dx.data()[idx], (lp - lm) / (2 * eps), 0.05)
            << idx;
    }

    // Weight-gradient check through a full SGD step: after stepping
    // with learning rate lr (no momentum), the loss must drop by
    // about lr * ||gradW||^2 for small lr.
    const double before = loss_of();
    (void)layer.forward(x);
    const Matrix y2 = layer.forward(x);
    (void)layer.backward(y2);
    layer.sgdStep(1e-4, 0.0);
    const double after = loss_of();
    EXPECT_LT(after, before);
}

TEST(Conv2dLayer, MaskZeroesTaps)
{
    util::Rng rng(3);
    ConvSpec s;
    s.cin = 1;
    s.cout = 8;
    s.h = s.w = 4;
    s.pad = 1;
    nn::Conv2dLayer layer(s, rng);
    core::Mask mask(8, 9); // All dropped.
    layer.setMask(mask);
    Matrix x(1, 16);
    for (auto &v : x.data())
        v = 1.0f;
    const Matrix y = layer.forward(x);
    for (float v : y.data())
        EXPECT_EQ(v, 0.0f);
    layer.clearMask();
    EXPECT_FALSE(layer.masked());
}

TEST(SimpleCnn, TrainsOnStripes)
{
    util::Rng rng(5);
    const size_t hw = 8;
    ConvSpec c1;
    c1.cin = 1;
    c1.cout = 8;
    c1.h = c1.w = hw;
    c1.pad = 1;
    ConvSpec c2;
    c2.cin = 8;
    c2.cout = 16;
    c2.h = c2.w = hw;
    c2.pad = 1;
    nn::SimpleCnn cnn(c1, c2, 3, rng);

    const ImageData train = makeStripes(384, hw, rng);
    const ImageData test = makeStripes(192, hw, rng);

    for (int epoch = 0; epoch < 14; ++epoch) {
        const Matrix logits = cnn.forward(train.x);
        (void)cnn.backward(logits, train.labels);
        cnn.sgdStep(0.35);
    }
    EXPECT_GT(cnn.accuracy(test.x, test.labels), 0.6);
}

TEST(SimpleCnn, TbsMaskedConvStillLearns)
{
    util::Rng rng(6);
    const size_t hw = 8;
    ConvSpec c1;
    c1.cin = 1;
    c1.cout = 8;
    c1.h = c1.w = hw;
    c1.pad = 1;
    ConvSpec c2;
    c2.cin = 8;
    c2.cout = 16;
    c2.h = c2.w = hw;
    c2.pad = 1;
    nn::SimpleCnn cnn(c1, c2, 3, rng);

    const ImageData train = makeStripes(384, hw, rng);
    const ImageData test = makeStripes(192, hw, rng);

    for (int epoch = 0; epoch < 14; ++epoch) {
        // Regenerate the TBS mask on conv2's lowered weights (72 cols
        // = 9 blocks of 8) each epoch, exactly like sparse training.
        auto &w2 = cnn.conv2().weights();
        const auto res =
            makeMask(core::Pattern::TBS, core::magnitudeScores(w2), 0.5);
        cnn.conv2().setMask(res.mask);
        EXPECT_TRUE(core::validateTbs(res.mask, res.meta));

        const Matrix logits = cnn.forward(train.x);
        (void)cnn.backward(logits, train.labels);
        cnn.sgdStep(0.35, 0.9, 2e-4);
    }
    EXPECT_GT(cnn.accuracy(test.x, test.labels), 0.55);
}

TEST(Conv2dLayer, GradientCriterionScoresConvWeights)
{
    // The Taylor criterion applies to lowered conv weights unchanged.
    util::Rng rng(7);
    Matrix w(16, 72);
    Matrix g(16, 72);
    for (auto &v : w.data())
        v = static_cast<float>(rng.gaussian());
    for (auto &v : g.data())
        v = static_cast<float>(rng.gaussian());
    const Matrix scores = core::gradientScores(w, g);
    const auto res = makeMask(core::Pattern::TBS, scores, 0.5);
    EXPECT_TRUE(core::validateTbs(res.mask, res.meta));
    EXPECT_NEAR(res.mask.sparsity(), 0.5, 0.06);
}

} // namespace
