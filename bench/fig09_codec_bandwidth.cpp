/**
 * @file
 * Regenerates the paper's Sec. V storage-format study (Figs. 7-9):
 * bandwidth utilisation of SDC / CSR / DDC on TBS-pruned matrices,
 * and the adaptive codec unit's conversion cycle cost.
 *
 * Paper reference: SDC wastes >61.54% of its traffic on padding at
 * high sparsity, CSR delivers <38.2% of peak bandwidth, and the DDC +
 * codec combination improves bandwidth utilisation by 1.47x.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/prune.hpp"
#include "format/codec.hpp"
#include "format/encoding.hpp"
#include "sim/dram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/synth.hpp"

using namespace tbstc;

int
main()
{
    const sim::DramModel dram{sim::ArchConfig{}};
    const std::vector<double> sparsities{0.5, 0.625, 0.75, 0.875};

    util::banner("Fig. 7/9: bandwidth utilisation of storage formats "
                 "on TBS-pruned 512x512 layers");
    util::Table t({"sparsity", "SDC util", "SDC redundancy", "CSR util",
                   "DDC util", "DDC gain"});
    std::vector<double> gains;
    for (double sp : sparsities) {
        const auto w = workload::synthWeights(
            {"codec-bench", 512, 512, 1}, 99);
        const auto scores = core::magnitudeScores(w);
        const auto res = bench::makeMask(core::Pattern::TBS, scores, sp);

        const auto sdc = format::encodeSdc(w, res.mask);
        const auto csr = format::encodeCsr(w, res.mask);
        const auto ddc = format::encodeDdc(w, res.mask, res.meta);

        const double u_sdc = dram.stream(sdc->streamProfile(8)).utilisation();
        const double u_csr = dram.stream(csr->streamProfile(8)).utilisation();
        const double u_ddc = dram.stream(ddc->streamProfile(8)).utilisation();
        const double gain = u_ddc / std::max(u_sdc, u_csr);
        gains.push_back(gain);
        t.addRow({util::fmtDouble(sp, 3), bench::fmtPct(u_sdc),
                  bench::fmtPct(sdc->streamProfile(8).redundancy()),
                  bench::fmtPct(u_csr), bench::fmtPct(u_ddc),
                  bench::fmtRatio(gain)});
    }
    t.print();
    std::printf("\nMean DDC bandwidth gain over the best alternative: "
                "%.2fx (paper: 1.47x)\n", util::geomean(gains));

    util::banner("Fig. 9(c): adaptive codec conversion cycles "
                 "(independent-dimension blocks, 2 elements/timestep)");
    util::Table c({"block N:M", "nnz", "conversion cycles",
                   "cycles/(nnz/2)"});
    util::Rng rng(5);
    for (uint8_t n : {1, 2, 4}) {
        // Column-wise N:8 block in storage (column-major) order.
        std::vector<format::StorageElem> storage;
        for (uint8_t col = 0; col < 8; ++col) {
            std::vector<size_t> rows(rng.permutation(8));
            for (uint8_t k = 0; k < n; ++k)
                storage.push_back({1.0f,
                                   static_cast<uint8_t>(rows[k]), col});
        }
        const auto out =
            format::tryDecodeBlock(storage, {8, 2, 2}).value();
        const double nnz = static_cast<double>(storage.size());
        c.addRow({std::to_string(n) + ":8", std::to_string(storage.size()),
                  std::to_string(out.cycles),
                  util::fmtDouble(out.cycles / (nnz / 2.0), 2)});
    }
    c.print();
    std::printf("\nReading: conversion streams at ~2 elements/cycle "
                "with a short drain tail,\nwhich is why the pipeline "
                "hides it (Fig. 14).\n");
    return 0;
}
