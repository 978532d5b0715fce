/**
 * @file
 * Cross-module integration tests: the full path from weights through
 * masks, encodings, and the simulator must stay consistent, and the
 * headline paper claims must hold directionally.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/accelerator.hpp"
#include "core/blockstats.hpp"
#include "core/prune.hpp"
#include "mask_util.hpp"
#include "format/codec.hpp"
#include "format/encoding.hpp"
#include "sim/dram.hpp"
#include "util/rng.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;
using core::Matrix;
using core::Pattern;
using tbstc::testutil::makeMask;
using tbstc::util::Rng;

Matrix
heavyTailMatrix(size_t r, size_t c, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    for (auto &v : m.data())
        v = static_cast<float>(rng.heavyTail() * 0.03);
    return m;
}

/** Channel/region-scaled weights, like a trained layer. */
Matrix
structuredMatrix(size_t r, size_t c, uint64_t seed)
{
    return workload::synthWeights({"integration-probe", r, c, 1}, seed);
}

/**
 * SpMM through the DDC encoding must equal the dense reference on the
 * masked weights: storage, decode, and mask machinery agree end to
 * end.
 */
TEST(Integration, SpmmThroughDdcMatchesReference)
{
    const Matrix w = heavyTailMatrix(64, 64, 1);
    const Matrix scores = core::magnitudeScores(w);
    const core::MaskOutput res =
        makeMask(core::Pattern::TBS, scores, 0.5);

    const auto enc = format::encodeDdc(w, res.mask, res.meta);
    const Matrix a = enc->decode();

    const Matrix b = heavyTailMatrix(64, 16, 2);
    const Matrix d_enc = core::matmul(a, b);
    const Matrix d_ref = core::matmul(core::applyMask(w, res.mask), b);
    EXPECT_LT(core::maxAbsDiff(d_enc, d_ref), 1e-6);
}

/**
 * The codec's computation-format output must contain exactly the
 * block's kept elements: running SpMM on the converted stream equals
 * the dense block reference.
 */
TEST(Integration, CodecOutputComputesCorrectBlockProduct)
{
    const size_t m = 8;
    const Matrix w = heavyTailMatrix(m, m, 3);
    const Matrix scores = core::magnitudeScores(w);
    const core::MaskOutput res =
        makeMask(core::Pattern::TBS, scores, 0.5, m);
    const Matrix a = core::applyMask(w, res.mask);

    // Column-major storage stream of the block.
    std::vector<format::StorageElem> storage;
    for (size_t c = 0; c < m; ++c)
        for (size_t r = 0; r < m; ++r)
            if (res.mask.at(r, c))
                storage.push_back({a.at(r, c),
                                   static_cast<uint8_t>(r),
                                   static_cast<uint8_t>(c)});

    const auto out = format::tryDecodeBlock(storage, {m, 2, 2});
    ASSERT_TRUE(out.ok());

    // Reassemble a matrix from the converted stream and compare.
    Matrix rebuilt(m, m);
    for (size_t i = 0; i < out->values.size(); ++i)
        rebuilt.at(out->rids[i], out->iids[i]) = out->values[i];
    EXPECT_LT(core::maxAbsDiff(rebuilt, a), 1e-6);
}

/**
 * Paper Sec. V claim chain: on a TBS-pruned matrix, DDC's delivered
 * bandwidth beats both SDC (redundancy) and CSR (fragmentation), by
 * about the advertised 1.47x.
 */
TEST(Integration, DdcBandwidthBeatsSdcAndCsr)
{
    const Matrix w = structuredMatrix(256, 256, 4);
    const Matrix scores = core::magnitudeScores(w);
    const core::MaskOutput res =
        makeMask(core::Pattern::TBS, scores, 0.75);

    const sim::DramModel dram{sim::ArchConfig{}};
    const auto util = [&](const format::Encoding &enc) {
        const auto t = dram.stream(enc.streamProfile(8));
        // Effective useful bandwidth per bus byte.
        return t.utilisation();
    };
    const double u_sdc = util(*format::encodeSdc(w, res.mask));
    const double u_csr = util(*format::encodeCsr(w, res.mask));
    const double u_ddc =
        util(*format::encodeDdc(w, res.mask, res.meta));

    EXPECT_GT(u_ddc, 0.9);
    EXPECT_LT(u_sdc, 0.75);
    EXPECT_LT(u_csr, 0.75);
    EXPECT_GT(u_ddc / std::max(u_sdc, u_csr), 1.25);
}

/**
 * Paper Sec. VI claim: sparsity-aware scheduling lifts compute
 * utilisation by ~1.5x over direct mapping on a TBS layer.
 */
TEST(Integration, SchedulingLiftsUtilisation)
{
    accel::RunRequest req;
    req.shape = workload::GemmShape{"sched-test", 512, 512, 128};
    req.sparsity = 0.6;

    auto naive_cfg = accel::accelConfig(accel::AccelKind::TbStc);
    naive_cfg.interSched = sim::InterSched::Naive;
    naive_cfg.intraMap = sim::IntraMap::Naive;
    accel::RunRequest naive_req = req;
    naive_req.configOverride = naive_cfg;

    const auto naive = accel::runLayer(accel::AccelKind::TbStc, naive_req);
    const auto aware = accel::runLayer(accel::AccelKind::TbStc, req);

    const double lift =
        aware.computeUtilisation / naive.computeUtilisation;
    EXPECT_GT(lift, 1.2);
    EXPECT_LT(lift, 2.5);
}

/**
 * Fig. 17's headline: TBS-pruned layers use all three block
 * categories, with a sizable independent-direction share — the reason
 * single-dimension patterns are insufficient.
 */
TEST(Integration, DirectionDistributionUsesAllCategories)
{
    const Matrix w = structuredMatrix(256, 256, 5);
    const core::MaskOutput res =
        makeMask(core::Pattern::TBS, core::magnitudeScores(w), 0.6);
    const auto dist = core::directionDistribution(res.meta);
    EXPECT_GT(dist.rowFrac, 0.02);
    EXPECT_GT(dist.colFrac, 0.02);
    EXPECT_GT(dist.otherFrac, 0.02);
}

/**
 * End-to-end EDP ordering at a fixed 75% sparsity on a BERT FFN
 * layer: TB-STC must beat every baseline (the Fig. 12 geometry).
 */
TEST(Integration, EdpOrderingOnBertFfn)
{
    accel::RunRequest req;
    req.shape = workload::GemmShape{"bert.ffn1", 3072, 768, 128};
    req.sparsity = 0.75;

    const auto tb = accel::runLayer(accel::AccelKind::TbStc, req);
    for (auto kind : {accel::AccelKind::TC, accel::AccelKind::STC,
                      accel::AccelKind::Vegeta,
                      accel::AccelKind::HighLight,
                      accel::AccelKind::RmStc}) {
        const auto base = accel::runLayer(kind, req);
        EXPECT_GT(base.edp / tb.edp, 1.0) << accel::accelName(kind);
    }
}

} // namespace
