/**
 * @file
 * The grid_cold workload: the Fig. 13 iso-accuracy grid (three models
 * x six accelerators) through accel::runModel, in this process, with
 * whatever cache state the process starts with (empty when fresh).
 */

#ifndef TBSTC_PERFBENCH_GRID_HPP
#define TBSTC_PERFBENCH_GRID_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"

namespace perfbench {

/** One grid cell: a whole model on one accelerator. */
struct GridCell
{
    tbstc::workload::ModelId model;
    uint64_t seq;
    tbstc::accel::AccelKind kind;
    double sparsity; ///< Iso-accuracy sparsity (STC: 4:8, TC: 0).
};

/**
 * The cells of bench/fig13_end2end: ResNet-50 seq 0, BERT-base seq 128
 * and OPT-6.7B seq 256, each on TC, STC, VEGETA, HighLight, RM-STC and
 * TB-STC. The TC cell is the dense reference.
 */
std::vector<GridCell> gridCells();

/**
 * Run every cell once in parallel and return the result JSON: dispatch
 * timestamp, wall and CPU time, per-cell times and RunStats digests,
 * and the TB-STC-over-TC gains. A traced run then replays each cell's
 * layers stage by stage and adds the per-layer metrics.
 */
std::string runGrid(uint64_t seed, bool traced);

} // namespace perfbench

#endif // TBSTC_PERFBENCH_GRID_HPP
