/**
 * @file
 * Quickstart: the five-minute tour of the TB-STC library.
 *
 *  1. Synthesize a weight matrix and prune it with the TBS pattern
 *     (paper Algorithm 1).
 *  2. Inspect the mask: sparsity, similarity to unstructured pruning,
 *     block-direction distribution.
 *  3. Encode it in the DDC storage format and verify the lossless
 *     round trip.
 *  4. Simulate the layer on the TB-STC accelerator and on the dense
 *     tensor core, and compare cycles/energy/EDP.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

// The umbrella header is the library's public API surface; see its
// header comment for the primary (Result-returning) vs legacy tiers.
#include "tbstc.hpp"

using namespace tbstc;

int
main()
{
    // --- 1. A weight matrix and its TBS mask. ---------------------
    const workload::GemmShape shape{"demo.layer", 256, 256, 128};
    const core::Matrix w = workload::synthWeights(shape, /*seed=*/1);
    const core::Matrix scores = core::magnitudeScores(w);

    // One validated entry point makes every pattern family's mask.
    const double sparsity = 0.75;
    core::MaskRequest mreq;
    mreq.pattern = core::Pattern::TBS;
    mreq.sparsity = sparsity;
    mreq.m = 8;
    const auto tbs = core::tryMakeMask(scores, mreq);
    if (!tbs) {
        std::fprintf(stderr, "%s\n", tbs.error().message.c_str());
        return 1;
    }

    std::printf("TBS mask: %zu x %zu, sparsity %.1f%% (target %.1f%%)\n",
                tbs->mask.rows(), tbs->mask.cols(),
                tbs->mask.sparsity() * 100.0, sparsity * 100.0);

    // --- 2. How close is it to unstructured pruning? --------------
    mreq.pattern = core::Pattern::US;
    const core::Mask us = core::tryMakeMask(scores, mreq)->mask;
    std::printf("similarity to the unstructured mask: %.1f%% "
                "(paper Fig. 4(b): 85-92%%)\n",
                tbs->mask.agreement(us) * 100.0);

    const auto dist = core::directionDistribution(tbs->meta);
    std::printf("block directions: %.1f%% row-wise, %.1f%% "
                "column-wise, %.1f%% dense/empty\n",
                dist.rowFrac * 100.0, dist.colFrac * 100.0,
                dist.otherFrac * 100.0);

    // --- 3. DDC encoding round trip. -------------------------------
    const auto ddc = format::encodeDdc(w, tbs->mask, tbs->meta);
    const core::Matrix decoded = ddc->decode();
    const double err =
        core::maxAbsDiff(decoded, core::applyMask(w, tbs->mask));
    std::printf("DDC: %llu bytes (dense would be %zu), round-trip "
                "error %.1e\n",
                static_cast<unsigned long long>(ddc->storageBytes()),
                w.size() * 2, err);

    // --- 4. Simulate on TB-STC vs the dense tensor core. ----------
    accel::RunRequest req;
    req.shape = shape;
    req.sparsity = sparsity;
    const auto dense = accel::runLayer(accel::AccelKind::TC, req);
    const auto sparse = accel::runLayer(accel::AccelKind::TbStc, req);

    std::printf("\n%-8s %12s %14s %14s\n", "accel", "cycles",
                "energy (uJ)", "EDP (nJ*s)");
    std::printf("%-8s %12.0f %14.3f %14.4f\n", "TC", dense.cycles,
                dense.energy.totalJ() * 1e6, dense.edp * 1e9);
    std::printf("%-8s %12.0f %14.3f %14.4f\n", "TB-STC", sparse.cycles,
                sparse.energy.totalJ() * 1e6, sparse.edp * 1e9);
    std::printf("\nTB-STC: %.2fx speedup, %.2fx better EDP at %.0f%% "
                "sparsity.\n",
                dense.cycles / sparse.cycles, dense.edp / sparse.edp,
                sparsity * 100.0);
    return 0;
}
