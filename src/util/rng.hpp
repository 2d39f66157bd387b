/**
 * @file
 * Deterministic pseudo-random number generation for kodan.
 *
 * Everything stochastic in the library (dataset synthesis, model
 * initialization, clustering restarts, simulation noise) draws from Rng so
 * that a single seed reproduces an entire experiment bit-for-bit.
 */

#ifndef KODAN_UTIL_RNG_HPP
#define KODAN_UTIL_RNG_HPP

#include <cstdint>
#include <vector>

namespace kodan::util {

/**
 * Mix a 64-bit value with the SplitMix64 finalizer.
 *
 * Useful both for seeding and as a stateless hash of coordinates.
 *
 * @param x Input value.
 * @return Well-mixed 64-bit output.
 */
inline std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Deterministic xoshiro256** generator.
 *
 * Small, fast, and high quality; the whole library shares this one
 * generator type so experiments are reproducible from a single seed.
 */
class Rng
{
  public:
    /**
     * Construct from a 64-bit seed; the four words of internal state are
     * derived via SplitMix64 so that nearby seeds give unrelated streams.
     *
     * @param seed Any 64-bit seed; 0 is valid.
     */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /**
     * Uniform double in [lo, hi).
     * @param lo Inclusive lower bound.
     * @param hi Exclusive upper bound; must satisfy hi >= lo.
     */
    double uniform(double lo, double hi);

    /**
     * Uniform integer in [lo, hi] (both inclusive).
     * @param lo Inclusive lower bound.
     * @param hi Inclusive upper bound; must satisfy hi >= lo.
     */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller, cached spare). */
    double normal();

    /**
     * Normal deviate with the given mean and standard deviation.
     * @param mean Distribution mean.
     * @param stddev Distribution standard deviation; must be >= 0.
     */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p in [0, 1]. */
    bool bernoulli(double p);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * @param weights Unnormalized weights; at least one must be positive.
     * @return Index in [0, weights.size()).
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /**
     * Fisher-Yates shuffle of an index permutation [0, n).
     * @param n Number of elements.
     * @return A uniformly random permutation of {0, ..., n-1}.
     */
    std::vector<std::size_t> permutation(std::size_t n);

    /**
     * Derive an independent child generator.
     *
     * @param stream_id Identifier mixed into the child's seed so different
     *                  subsystems get decorrelated streams.
     */
    Rng split(std::uint64_t stream_id);

  private:
    std::uint64_t state_[4];
    double spareNormal_;
    bool hasSpareNormal_;
};

} // namespace kodan::util

#endif // KODAN_UTIL_RNG_HPP
