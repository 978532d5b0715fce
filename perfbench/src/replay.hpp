/**
 * @file
 * Layer replay for the traced run: re-executes, call by call through
 * the public API, the stages `workload::buildLayerProfile` and
 * `serve::executeSparsify` run internally, each inside a benchmark
 * Span, next to an uncached call of the real function. The ratio of
 * replayed stage time to the real call's time is the replay coverage;
 * stages with no public entry point (block-task derivation, the
 * independent-block densify pass) are what it leaves uncovered.
 */

#ifndef TBSTC_PERFBENCH_REPLAY_HPP
#define TBSTC_PERFBENCH_REPLAY_HPP

#include <cstdint>
#include <map>
#include <string>

#include "accel/accelerator.hpp"
#include "serve/exec.hpp"
#include "workload/profile_builder.hpp"

namespace perfbench {

/** The ProfileSpec accel::runLayer builds for one layer of a cell. */
tbstc::workload::ProfileSpec
layerSpec(tbstc::accel::AccelKind kind,
          const tbstc::workload::GemmShape &shape, double sparsity,
          uint64_t seed, const std::string &strategy = {});

/**
 * Replay one layer: the profile stages, then buildLayerProfile and
 * simulateLayer with the result cache disabled. Spans: replay.layer >
 * workload.synth, core.scores, core.mask.<p>, workload.derive_meta,
 * format.encode.<f>, workload.profile, sim.simulate.
 */
void replayLayer(tbstc::accel::AccelKind kind,
                 const tbstc::workload::ProfileSpec &spec, uint64_t id);

/**
 * Replay one sparsify request: synthWeights, magnitudeScores,
 * tryMakeMask, serializeDdc, crc32 (spans replay.sparsify > ...).
 */
void replaySparsify(const tbstc::serve::SparsifySpec &spec, uint64_t id);

/**
 * Per-layer metrics from the spans recorded so far: self time in ms of
 * every replayed stage (`<stage>.ms`) and
 * `workload.profile.replay_coverage` (replayed stage time over the real
 * buildLayerProfile time; a report, never a gate).
 */
std::map<std::string, double> stageMetrics();

/**
 * Disables the process-wide ContentStore for its lifetime, so the
 * calls inside do the full work; restores the previous state after.
 */
class UncachedScope
{
  public:
    UncachedScope();
    ~UncachedScope();
    UncachedScope(const UncachedScope &) = delete;
    UncachedScope &operator=(const UncachedScope &) = delete;

  private:
    bool saved_;
};

} // namespace perfbench

#endif // TBSTC_PERFBENCH_REPLAY_HPP
