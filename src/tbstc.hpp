/**
 * @file
 * Umbrella header: the TB-STC library's public API surface.
 *
 * Including this header pulls in every stable entry point. Library
 * consumers (examples/, external embedders) should include this one
 * header rather than reaching into subdirectory headers, whose
 * internals may be rearranged between releases.
 *
 * # API tiers
 *
 * The **primary** API for fallible operations is the Result-returning
 * `try*` surface — it never throws or aborts on bad input and carries
 * a structured error describing exactly what went wrong:
 *
 *   - core::tryMakeMask()          validated mask search
 *   - format::tryDeserializeDdc()  parse an untrusted DDC byte stream
 *   - format::tryDecodeBlock()     codec-convert an untrusted block
 *   - format::ddcLayout()          locate sections in a DDC stream
 *   - util::FlagSet::parse()       typed command-line parsing
 *
 * Infallible modelling entry points (accel::runLayer(),
 * sim::simulateLayer(), ...) validate their configuration with
 * util::ensure() and are part of the primary API.
 *
 * # Observability
 *
 * The obs:: layer (metrics + chrome://tracing spans) is compiled in by
 * default but off at runtime; see docs/observability.md. Enable with
 * obs::setMetricsEnabled() / obs::setTracingEnabled().
 */

#ifndef TBSTC_TBSTC_HPP
#define TBSTC_TBSTC_HPP

// Utilities: error handling, formatting, parallelism, CLI flags.
#include "util/flags.hpp"
#include "util/fmt.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// Observability: deterministic metrics + event tracing.
#include "obs/obs.hpp"

// Sparsity core: masks, patterns, pruning, strategy-aware search.
#include "core/blockstats.hpp"
#include "core/mask_search.hpp"
#include "core/maskspace.hpp"
#include "core/matrix.hpp"
#include "core/pattern.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"

// Storage formats: encodings, DDC serialization, codec unit.
#include "format/codec.hpp"
#include "format/decode_error.hpp"
#include "format/encoding.hpp"
#include "format/serialize.hpp"

// Simulator: architecture config, cycle models, energy.
#include "sim/config.hpp"
#include "sim/cyclesim.hpp"
#include "sim/dram.hpp"
#include "sim/dram_detail.hpp"
#include "sim/dvpe.hpp"
#include "sim/energy.hpp"
#include "sim/pipeline.hpp"
#include "sim/profile.hpp"
#include "sim/scheduler.hpp"

// Workloads: model zoo, synthetic weights, profiles.
#include "workload/graph.hpp"
#include "workload/models.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

// Accelerator presets and end-to-end runs.
#include "accel/accelerator.hpp"

// NN stack: sparse training and one-shot pruning experiments.
#include "nn/oneshot.hpp"
#include "nn/sparse_train.hpp"

#endif // TBSTC_TBSTC_HPP
