/**
 * @file
 * Regenerates paper Fig. 4(b) and 4(c): mask similarity of each N:M
 * pattern with unstructured sparsity, and the mask-space (Eqs. (1)-(4))
 * vs model-accuracy relationship.
 *
 * Paper reference: TBS reaches 85.31%-91.62% similarity with US, far
 * above the other structured patterns; mask-space ordering is
 * TS < RS-V < RS-H < TBS < US at X = Y, M = 8.
 *
 * The similarity table adds one row beyond the paper: SlideSparse
 * (2N-2):2N (arxiv 2603.05232), whose m-2-per-tile cap is looser than
 * TBS's, so its US agreement lands above it (TS < TBS < SS).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/maskspace.hpp"
#include "workload/accuracy_model.hpp"

using namespace tbstc;
using core::Pattern;

int
main()
{
    const std::vector<Pattern> patterns{Pattern::TS, Pattern::RSV,
                                        Pattern::RSH, Pattern::TBS,
                                        Pattern::SS};

    util::banner("Fig. 4(b): mask similarity with US "
                 "(ResNet-50-style 75% sparsity; paper: TBS "
                 "85.31%-91.62%)");
    util::Table sim_t({"pattern", "s=0.50", "s=0.625", "s=0.75",
                       "s=0.875"});
    for (Pattern p : patterns) {
        std::vector<std::string> row{patternName(p)};
        for (double sp : {0.5, 0.625, 0.75, 0.875})
            row.push_back(
                bench::fmtPct(workload::maskSimilarity(p, sp, 8)));
        sim_t.addRow(row);
    }
    sim_t.print();

    util::banner("Fig. 4(c): log2 mask-space (X = Y, M = 8) and proxy "
                 "accuracy (BERT anchor)");
    for (size_t dim : {64u, 256u, 1024u}) {
        util::Table t({"pattern", "log2 MS", "accuracy@50%"});
        for (Pattern p : {Pattern::TS, Pattern::RSV, Pattern::RSH,
                          Pattern::TBS, Pattern::US}) {
            t.addRow({patternName(p),
                      util::fmtDouble(
                          core::log2MaskSpace(p, dim, dim, 8), 0),
                      util::fmtDouble(
                          workload::proxyAccuracy(
                              workload::ModelId::BertBase, p, 0.5),
                          2)});
        }
        std::printf("\n[X = Y = %zu]\n", dim);
        t.print();
    }

    std::printf("\nReading: mask-space grows TS < RS-V < RS-H < TBS "
                "< US and accuracy follows\n(the paper's Fig. 4(c) "
                "trend: more representation space, less accuracy "
                "loss).\n");
    return 0;
}
