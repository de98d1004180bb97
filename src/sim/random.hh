/**
 * @file
 * Seedable random source used by workloads and testers.
 *
 * MT19937-64 with std::mt19937_64's state, seeding and tempering, and
 * libstdc++'s mappings of its draws to integer ranges
 * (uniform_int_distribution<std::uint64_t>, Lemire's nearly
 * divisionless method) and to [0, 1) (uniform_real_distribution
 * <double>). Every stream returns exactly the numbers those produce
 * for the same seed, so simulated results do not depend on this
 * being a separate implementation. It exists for speed: the twist
 * runs without a branch on a random bit, each draw is tempered
 * inline, and real() converts to double without a sign-bit branch.
 * tests/sim/test_random.cc checks it against std::mt19937_64.
 */

#ifndef MSCP_SIM_RANDOM_HH
#define MSCP_SIM_RANDOM_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace mscp
{

/** Deterministic pseudo-random stream. */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x5eed) { this->seed(seed); }

    /** Re-seed the stream. */
    void seed(std::uint64_t s);

    /** The next raw 64-bit draw (std::mt19937_64::operator()). */
    std::uint64_t
    draw()
    {
        if (pos >= StateWords) [[unlikely]]
            twist();
        std::uint64_t z = x[pos++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        return z;
    }

    /** Uniform integer in [lo, hi], inclusive. */
    std::uint64_t
    uniform(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Random::uniform with lo > hi");
        const std::uint64_t span = hi - lo;
        if (span == ~std::uint64_t{0}) [[unlikely]]
            return draw();
        // Lemire: the high word of draw * range. Only a low word
        // below range can fall below 2^64 mod range and need a
        // redraw.
        const std::uint64_t range = span + 1;
        Wide product = Wide{draw()} * range;
        if (static_cast<std::uint64_t>(product) < range) [[unlikely]]
            product = redraw(product, range);
        return lo + static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform real in [0, 1). */
    double
    real()
    {
        // double(draw) rounded to nearest, times 2^-64. Both halves
        // convert exactly, so the sum is the one rounding; a draw
        // that rounds up to 2^64 maps to the largest double below 1.
        const std::uint64_t z = draw();
        const double v = static_cast<double>(z >> 32) * 0x1p32 +
            static_cast<double>(z & 0xffffffffull);
        return std::min(v * 0x1p-64, 0x1.fffffffffffffp-1);
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

  private:
    /** MT19937-64 state words. */
    static constexpr std::size_t StateWords = 312;

    __extension__ typedef unsigned __int128 Wide;

    /** Regenerate all state words; runs once per StateWords draws. */
    void twist();

    /** Redraw @p product while its low word is below 2^64 mod
     *  @p range (the rejection step of uniform()). */
    Wide redraw(Wide product, std::uint64_t range);

    std::uint64_t x[StateWords] = {};
    std::size_t pos = StateWords;
};

} // namespace mscp

#endif // MSCP_SIM_RANDOM_HH
