/**
 * @file
 * Builds block-granular simulator profiles from real masks.
 *
 * This is the bridge between the algorithm side (patterns, masks) and
 * the hardware side (LayerProfile): weight magnitudes are synthesized,
 * the requested pattern's mask generated, and the result reduced to
 * per-block tasks plus the requested storage format's stream profile,
 * which depends only on the mask's structure (format::streamProfile). Layers too large to materialize are row-sampled on the
 * block grid and linearly rescaled (documented in DESIGN.md).
 */

#ifndef TBSTC_WORKLOAD_PROFILE_BUILDER_HPP
#define TBSTC_WORKLOAD_PROFILE_BUILDER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.hpp"
#include "format/encoding.hpp"
#include "models.hpp"
#include "sim/profile.hpp"

namespace tbstc::workload {

/** Everything that determines one layer profile. */
struct ProfileSpec
{
    GemmShape shape;
    core::Pattern pattern = core::Pattern::TBS;
    double sparsity = 0.5;
    size_t m = 8;

    /**
     * TBS mask-search strategy: "" or "greedy" (core::isMaskStrategy),
     * both paper Algorithm 1; anything else is a fatal error. It feeds
     * the cache key as spelled, so "" and "greedy" key separately and
     * rebuild the same bits.
     */
    std::string maskStrategy;

    format::StorageFormat fmt = format::StorageFormat::DDC;

    /**
     * Treat independent-dimension blocks as dense (the fallback of
     * hardware lacking the codec/MBD units; paper Fig. 16(a)).
     */
    bool densifyIndependent = false;

    uint64_t seed = 42;

    /** Row-sampling cap on materialized elements (0 = unlimited). */
    uint64_t maxElements = 1ull << 23;
};

/** Build the simulator profile for @p spec. */
sim::LayerProfile buildLayerProfile(const ProfileSpec &spec);

/**
 * The profile's bytes as the result cache stores them: every field
 * the simulator reads, little-endian, in declaration order.
 */
std::vector<uint8_t> serializeProfile(const sim::LayerProfile &p);

/**
 * Derive TBS-style block metadata for a mask produced by a
 * non-transposable pattern: every block is reduction-dimension with
 * N set to its maximum row-group occupancy.
 */
core::TbsMeta deriveMeta(const core::Mask &mask, size_t m);

} // namespace tbstc::workload

#endif // TBSTC_WORKLOAD_PROFILE_BUILDER_HPP
