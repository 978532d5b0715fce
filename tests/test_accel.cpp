/**
 * @file
 * Tests for the accelerator facade and baseline configurations.
 */

#include <gtest/gtest.h>

#include <string>

#include "accel/accelerator.hpp"
#include "util/logging.hpp"

namespace {

using namespace tbstc::accel;
using tbstc::core::Pattern;
using tbstc::format::StorageFormat;
using tbstc::sim::RunStats;
using tbstc::workload::GemmShape;

RunRequest
request(double sparsity, uint64_t x = 512, uint64_t y = 512,
        uint64_t nb = 256)
{
    RunRequest req;
    req.shape = GemmShape{"test", x, y, nb};
    req.sparsity = sparsity;
    return req;
}

TEST(Accel, NamesAndMappings)
{
    EXPECT_EQ(accelName(AccelKind::TbStc), "TB-STC");
    EXPECT_EQ(accelPattern(AccelKind::STC), Pattern::TS);
    EXPECT_EQ(accelPattern(AccelKind::HighLight), Pattern::RSH);
    EXPECT_EQ(accelFormat(AccelKind::RmStc), StorageFormat::Bitmap);
    EXPECT_EQ(accelFormat(AccelKind::TbStc), StorageFormat::DDC);
    EXPECT_TRUE(supportsIndependentDim(AccelKind::TbStc));
    EXPECT_FALSE(supportsIndependentDim(AccelKind::Vegeta));
}

TEST(Accel, SparseBeatsDenseAtHighSparsity)
{
    const RunStats tc = runLayer(AccelKind::TC, request(0.75));
    const RunStats tb = runLayer(AccelKind::TbStc, request(0.75));
    EXPECT_LT(tb.cycles, tc.cycles);
    EXPECT_LT(tb.edp, tc.edp);
}

TEST(Accel, StcNearHalfOfDense)
{
    // 4:8 halves both compute and A traffic in a compute-bound layer.
    const RunStats tc = runLayer(AccelKind::TC, request(0.5));
    const RunStats stc = runLayer(AccelKind::STC, request(0.5));
    const double speedup = tc.cycles / stc.cycles;
    EXPECT_GT(speedup, 1.4);
    EXPECT_LT(speedup, 2.1);
}

TEST(Accel, StcIgnoresRequestedSparsity)
{
    // STC's datapath is hard-wired 4:8: more sparsity must not help.
    const RunStats s50 = runLayer(AccelKind::STC, request(0.5));
    const RunStats s80 = runLayer(AccelKind::STC, request(0.8));
    EXPECT_NEAR(s50.cycles, s80.cycles, s50.cycles * 0.01);
}

TEST(Accel, TbStcBeatsStcAtHighSparsity)
{
    const RunStats stc = runLayer(AccelKind::STC, request(0.75));
    const RunStats tb = runLayer(AccelKind::TbStc, request(0.75));
    EXPECT_GT(stc.cycles / tb.cycles, 1.2);
}

TEST(Accel, TbStcBetterEdpThanRmStcAtSimilarSpeed)
{
    // Paper Sec. VII-C1: speedups are close (~1.06x) but unstructured
    // hardware burns more energy (~1.75x EDP).
    const RunStats rm = runLayer(AccelKind::RmStc, request(0.75));
    const RunStats tb = runLayer(AccelKind::TbStc, request(0.75));
    const double speedup = rm.cycles / tb.cycles;
    EXPECT_GT(speedup, 0.85);
    EXPECT_LT(speedup, 1.45);
    EXPECT_GT(rm.edp / tb.edp, 1.3);
}

TEST(Accel, TbStcBeatsRowWiseBaselines)
{
    const RunStats veg = runLayer(AccelKind::Vegeta, request(0.75));
    const RunStats hl = runLayer(AccelKind::HighLight, request(0.75));
    const RunStats tb = runLayer(AccelKind::TbStc, request(0.75));
    EXPECT_GT(veg.cycles / tb.cycles, 1.05);
    EXPECT_GT(hl.cycles / tb.cycles, 1.0);
    // HighLight's format is better than VEGETA's padded SDC.
    EXPECT_LE(hl.cycles, veg.cycles * 1.02);
}

TEST(Accel, SgcnWinsOnlyAtExtremeSparsity)
{
    // Paper Fig. 15(d): SGCN overtakes at ~95%, TB-STC wins in the
    // 30-90% range.
    const RunStats tb_mid = runLayer(AccelKind::Sgcn, request(0.5));
    const RunStats tb_ref = runLayer(AccelKind::TbStc, request(0.5));
    EXPECT_GT(tb_mid.cycles, tb_ref.cycles);

    const RunStats sg_hi = runLayer(AccelKind::Sgcn, request(0.95));
    const RunStats tb_hi = runLayer(AccelKind::TbStc, request(0.95));
    EXPECT_LT(sg_hi.cycles, tb_hi.cycles);
}

TEST(Accel, PatternOverrideDensifiesOnBaselines)
{
    // Running the TBS model on VEGETA (Fig. 16(a)) must cost more
    // than on TB-STC.
    RunRequest req = request(0.75);
    req.patternOverride = Pattern::TBS;
    const RunStats on_vegeta = runLayer(AccelKind::Vegeta, req);
    const RunStats on_tbstc = runLayer(AccelKind::TbStc, req);
    EXPECT_GT(on_vegeta.cycles / on_tbstc.cycles, 1.2);
}

TEST(Accel, BlockSizeBeyond255FailsBeforeSynthesis)
{
    // A dense 256 x 256 block would wrap the profile's 8-bit N and
    // 16-bit nnz fields; every family stops at one message instead.
    for (const AccelKind kind : {AccelKind::TC, AccelKind::RmStc}) {
        RunRequest req = request(0.5, 256, 256, 16);
        req.m = 256;
        try {
            runLayer(kind, req);
            ADD_FAILURE() << accelName(kind) << " accepted m = 256";
        } catch (const tbstc::util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("m <= 255"),
                      std::string::npos)
                << accelName(kind) << ": " << e.what();
        }
    }
}

TEST(Accel, ConfigOverrideApplies)
{
    RunRequest req = request(0.75);
    auto cfg = accelConfig(AccelKind::TbStc);
    cfg.interSched = tbstc::sim::InterSched::Naive;
    cfg.intraMap = tbstc::sim::IntraMap::Naive;
    req.configOverride = cfg;
    const RunStats naive = runLayer(AccelKind::TbStc, req);
    const RunStats tuned =
        runLayer(AccelKind::TbStc, request(0.75));
    EXPECT_GT(naive.cycles, tuned.cycles);
    EXPECT_GT(tuned.schedUtilisation, naive.schedUtilisation);
}

TEST(Accel, RunModelAccumulatesAllLayers)
{
    const RunStats one = runLayer(
        AccelKind::TbStc,
        [] {
            RunRequest r;
            r.shape = tbstc::workload::modelLayers(
                tbstc::workload::ModelId::BertBase, 128)[0];
            r.sparsity = 0.5;
            return r;
        }());
    const RunStats model = runModel(
        AccelKind::TbStc, tbstc::workload::ModelId::BertBase, 0.5, 128);
    EXPECT_GT(model.cycles, one.cycles * 10);
    EXPECT_GT(model.energy.totalJ(), 0.0);
}

TEST(Accel, Int8SpeedsUpMemoryBoundLayers)
{
    RunRequest fp = request(0.5, 2048, 2048, 32);
    RunRequest q = fp;
    q.int8Weights = true;
    const RunStats sfp = runLayer(AccelKind::TbStc, fp);
    const RunStats sq = runLayer(AccelKind::TbStc, q);
    EXPECT_LT(sq.cycles, sfp.cycles);
}

} // namespace
