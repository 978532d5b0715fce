/**
 * @file
 * Deterministic random number generation for all experiments.
 *
 * Every stochastic component of the library (weight synthesis, dataset
 * generation, tie-breaking) draws from an explicitly seeded Rng so that
 * every table and figure reproduces bit-identically. Wall-clock or global
 * RNG state is never used.
 */

#ifndef TBSTC_UTIL_RNG_HPP
#define TBSTC_UTIL_RNG_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tbstc::util {

/**
 * xoshiro256** PRNG seeded via SplitMix64.
 *
 * Fast, high-quality, and tiny; identical streams on every platform,
 * unlike std::mt19937 + std::normal_distribution whose outputs are not
 * pinned by the standard.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    uint64_t next();

    /**
     * Advance the stream as if next() were called @p n times, in
     * O(log n): x^n reduced modulo the xoshiro256 characteristic
     * polynomial (Blackman & Vigna's jump polynomials, generalised
     * from the fixed 2^128 / 2^192 jumps to any n). A pending
     * gaussian() spare is discarded, since it belongs to the stream
     * position being left.
     */
    void jump(uint64_t n);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    uint64_t below(uint64_t n);

    /** Standard normal draw (Box-Muller, deterministic). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Heavy-tailed draw modelling trained-DNN weight magnitudes:
     * a two-component Gaussian scale mixture. Most weights are small,
     * a minority are large — the regime in which magnitude pruning and
     * N:M mask selection differ meaningfully.
     *
     * @param outlier_frac Fraction of draws from the wide component.
     * @param outlier_scale Stddev ratio of the wide component.
     */
    double heavyTail(double outlier_frac = 0.05,
                     double outlier_scale = 8.0);

    /** Fisher-Yates shuffle of indices [0, n). */
    std::vector<size_t> permutation(size_t n);

    /** Derive an independent child stream (for parallel workloads). */
    Rng split();

    /** Same generator state and the same pending gaussian() spare. */
    bool operator==(const Rng &other) const;

  private:
    uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace tbstc::util

#endif // TBSTC_UTIL_RNG_HPP
