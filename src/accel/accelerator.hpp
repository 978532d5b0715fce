/**
 * @file
 * Accelerator facade: one entry point that runs a (model, pattern,
 * sparsity) workload on any of the paper's evaluated architectures.
 *
 * Each AccelKind bundles the sparsity pattern the architecture can
 * express, the storage format it consumes, and the hardware feature
 * set / energy knobs of its datapath (paper Sec. VII-A2 baselines):
 *
 *  | Kind      | Pattern | Format | Notes                             |
 *  |-----------|---------|--------|-----------------------------------|
 *  | TC        | Dense   | Dense  | plain tensor core                 |
 *  | STC       | TS 4:8  | SDC    | NVIDIA sparse tensor core         |
 *  | Vegeta    | RS-V    | Bitmap | per-row N, wave scheduling        |
 *  | HighLight | RS-H    | DDC*   | hierarchical, wave scheduling     |
 *  | RmStc     | US      | Bitmap | row-merge; costly gather/union    |
 *  | Sgcn      | US      | CSR    | 256 GB/s, element pipeline        |
 *  | TbStc     | TBS     | DDC    | this paper                        |
 *  | TbStcFan  | TBS     | DDC    | DVPE replaced by SIGMA's FAN      |
 *
 *  (*) HighLight's block-compressed format is modelled with the DDC
 *  encoder over reduction-only metadata, which matches its
 *  tile-skipping efficiency class.
 */

#ifndef TBSTC_ACCEL_ACCELERATOR_HPP
#define TBSTC_ACCEL_ACCELERATOR_HPP

#include <optional>
#include <string>

#include "sim/pipeline.hpp"
#include "workload/models.hpp"
#include "workload/profile_builder.hpp"

namespace tbstc::accel {

/** Evaluated accelerator architectures. */
enum class AccelKind : uint8_t
{
    TC,
    STC,
    Vegeta,
    HighLight,
    RmStc,
    Sgcn,
    TbStc,
    TbStcFan,
};

/** Display name as used in the paper's figures. */
std::string accelName(AccelKind kind);

/** The sparsity pattern this architecture natively expresses. */
core::Pattern accelPattern(AccelKind kind);

/** The storage format this architecture consumes. */
format::StorageFormat accelFormat(AccelKind kind);

/** Hardware configuration (features, bandwidth, energy knobs). */
sim::ArchConfig accelConfig(AccelKind kind);

/** True when the datapath can exploit independent-dimension blocks. */
bool supportsIndependentDim(AccelKind kind);

/** One layer-run request. */
struct RunRequest
{
    workload::GemmShape shape;
    double sparsity = 0.5; ///< STC always clamps to its fixed 4:8.
    size_t m = 8;
    uint64_t seed = 42;
    bool int8Weights = false;

    /**
     * Run a different pattern's pruned model on this hardware
     * (ablation Fig. 16(a) deploys the TBS model everywhere).
     * Unsupported independent-dimension blocks fall back to dense.
     */
    std::optional<core::Pattern> patternOverride;

    /** Architecture tweak hook (ablations); applied after accelConfig. */
    std::optional<sim::ArchConfig> configOverride;

    /** Storage-format override (e.g. dense activation GEMMs). */
    std::optional<format::StorageFormat> formatOverride;
};

/** Simulate one layer on @p kind. */
sim::RunStats runLayer(AccelKind kind, const RunRequest &req);

/**
 * Simulate a whole model (sum over modelLayers) on @p kind.
 * Identically shaped layers (ubiquitous in transformers) are
 * simulated once and scaled by their multiplicity.
 */
sim::RunStats runModel(AccelKind kind, workload::ModelId model,
                       double sparsity, uint64_t seq = 128,
                       bool int8_weights = false, uint64_t seed = 42);

/**
 * Simulate a full inference pass — weight GEMMs at the requested
 * sparsity plus the dense activation GEMMs (attention scores/context)
 * that weight pruning cannot touch (workload/graph.hpp). The honest
 * whole-network latency.
 */
sim::RunStats runInference(AccelKind kind, workload::ModelId model,
                           double sparsity, uint64_t seq = 128,
                           bool int8_weights = false, uint64_t seed = 42);

} // namespace tbstc::accel

#endif // TBSTC_ACCEL_ACCELERATOR_HPP
