/**
 * @file
 * Request execution shared by the one-shot CLI and the serve daemon.
 *
 * The daemon's acceptance bar is byte-identical responses: a `run`
 * request answered by `tbstc serve` must produce exactly the bytes the
 * one-shot `tbstc run` would print for the same parameters. The only
 * robust way to guarantee that is to have both call the same code, so
 * the CLI's former runOne/printStats logic lives here and both paths
 * delegate: the CLI parses flags into a RunSpec and prints
 * formatStats(); the daemon parses a JSON request into the same
 * RunSpec and embeds formatStats() in the response.
 *
 * Parsing helpers return std::optional instead of exiting, so the
 * daemon can answer a bad request with a structured error while the
 * CLI turns nullopt into its usual exit-2 diagnostic.
 */

#ifndef TBSTC_SERVE_EXEC_HPP
#define TBSTC_SERVE_EXEC_HPP

#include <optional>
#include <string>

#include "accel/accelerator.hpp"
#include "core/mask_search.hpp"
#include "sim/pipeline.hpp"
#include "util/result.hpp"
#include "workload/models.hpp"

namespace tbstc::serve {

/** One simulate-this request, CLI flags and JSON fields alike. */
struct RunSpec
{
    accel::AccelKind kind = accel::AccelKind::TbStc;
    std::string model;      ///< Model name; empty when layer is set.
    std::string layer;      ///< "XxYxNB" layer spec; empty for model.
    double sparsity = 0.5;
    uint64_t seq = 128;
    uint64_t seed = 42;
    bool int8Weights = false;
    bool full = false;            ///< Include dense attention GEMMs.
    std::optional<double> bw;     ///< Off-chip bandwidth override.

    /**
     * TBS mask-search strategy: "" or "greedy" (the same search).
     * Validated, then ignored; an empty name keeps the wire bytes of
     * strategy-less requests unchanged.
     */
    std::string strategy;
};

/** One sparsify-this request (the `formats` pipeline's front half). */
struct SparsifySpec
{
    std::string layer = "512x512x1"; ///< "XxYxNB" weight shape.
    double sparsity = 0.75;
    uint64_t seed = 42;
    uint64_t m = 8; ///< 1..format::kDdcMaxBlockSize.
    std::string strategy; ///< "" or "greedy" (core::isMaskStrategy).
};

/** Result of a sparsify execution (summary; values stay server-side). */
struct SparsifyResult
{
    uint64_t rows = 0;
    uint64_t cols = 0;
    uint64_t nnz = 0;       ///< Kept weights under the TBS mask.
    uint64_t ddcBytes = 0;  ///< serializeDdc() stream size.
    uint32_t ddcCrc32 = 0;  ///< CRC-32 of the five section CRC-32s.
};

/** Accelerator name -> kind ("tbstc", "stc", ...); nullopt unknown. */
std::optional<accel::AccelKind> tryParseAccel(const std::string &name);

/** Kind -> the lowercase wire/CLI name tryParseAccel accepts. */
std::string accelWireName(accel::AccelKind kind);

/** Every name tryParseAccel accepts, space-separated (for help). */
std::string accelNames();

/** Model name -> id ("bert", "opt", ...); nullopt when unknown. */
std::optional<workload::ModelId> tryParseModel(const std::string &name);

/** Every name tryParseModel accepts, space-separated (for help). */
std::string modelNames();

/** "XxYxNB" -> shape (named @p name); nullopt when malformed. */
std::optional<workload::GemmShape>
tryParseLayer(const std::string &spec, const std::string &name);

/**
 * Execute a run request: one layer, a model's weight GEMMs, or a full
 * inference pass, exactly as `tbstc run` would. Throws on specs that
 * fail validation deeper in the stack (the daemon maps exceptions to
 * error responses).
 */
sim::RunStats executeRun(const RunSpec &spec);

/** A sparsify request's synthesized weights and their TBS mask. */
struct SparsifiedLayer
{
    core::Matrix w;
    core::MaskOutput tbs; ///< Algorithm 1's mask and block metadata.
};

/** Shape name of every daemon sparsify layer (it seeds the weights). */
inline constexpr const char *kSparsifyShapeName = "cli.formats";

/**
 * The sparsify pipeline: synthesize the layer's weights (row-capped)
 * and run Algorithm 1 on their magnitudes. `tbstc formats` and
 * executeSparsify both call it; a malformed spec comes back as a
 * message. @p shapeName names the layer and so seeds its weights:
 * the daemon always uses the default, while `tbstc formats` names an
 * explicit --layer "cli.layer" (see docs/serving.md).
 */
util::Result<SparsifiedLayer, std::string>
trySparsify(const SparsifySpec &spec,
            const std::string &shapeName = kSparsifyShapeName);

/**
 * Execute a sparsify request: trySparsify, then serialize the DDC2
 * stream and summarize it. For the default layer the stream is
 * byte-identical to `tbstc formats --dump`. The summary is a pure
 * function of the spec, so it is answered from util::ContentStore
 * (blob kind "sparsify") under the same switches as the profile
 * cache; a spec whose computation throws is never filed. Throws
 * std::invalid_argument on a malformed spec.
 */
SparsifyResult executeSparsify(const SparsifySpec &spec);

/**
 * Render @p s as `tbstc run` prints it: the human line or the CSV
 * line (both newline-terminated). Byte-identical to the one-shot
 * output for the same stats.
 */
std::string formatStats(const std::string &label, const sim::RunStats &s,
                        bool csv);

/** The CSV header line `tbstc run --csv` prints before the row. */
std::string statsCsvHeader();

} // namespace tbstc::serve

#endif // TBSTC_SERVE_EXEC_HPP
