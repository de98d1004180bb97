/**
 * @file
 * Seedable random source used by workloads and testers.
 *
 * A thin wrapper over std::mt19937_64 so every consumer draws from an
 * explicitly seeded stream, keeping simulations reproducible.
 */

#ifndef MSCP_SIM_RANDOM_HH
#define MSCP_SIM_RANDOM_HH

#include <cstdint>
#include <random>
#include <vector>

#include "sim/logging.hh"

namespace mscp
{

/** Deterministic pseudo-random stream. */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x5eed) : rng(seed) {}

    /** Re-seed the stream. */
    void seed(std::uint64_t s) { rng.seed(s); }

    /** Uniform integer in [lo, hi], inclusive. */
    std::uint64_t
    uniform(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Random::uniform with lo > hi");
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    }

    /** Uniform real in [0, 1). */
    double
    real()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    bernoulli(double p)
    {
        return real() < p;
    }

    /**
     * Sample @p k distinct values from [0, n) without replacement
     * (Floyd's algorithm), returned in ascending order.
     */
    std::vector<std::uint32_t> sampleWithoutReplacement(
        std::uint32_t n, std::uint32_t k);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniform(0, i - 1);
            std::swap(v[i - 1], v[j]);
        }
    }

    std::mt19937_64 &engine() { return rng; }

  private:
    std::mt19937_64 rng;
};

} // namespace mscp

#endif // MSCP_SIM_RANDOM_HH
