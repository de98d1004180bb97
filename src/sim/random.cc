#include "random.hh"

#include <algorithm>
#include <set>

namespace mscp
{

namespace
{

constexpr std::size_t Mid = 156;
constexpr std::uint64_t Matrix = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t UpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t LowerMask = ~UpperMask;

/** One twist step: the low bit of @p y selects the matrix. */
inline std::uint64_t
twisted(std::uint64_t far, std::uint64_t y)
{
    return far ^ (y >> 1) ^ (-(y & 1) & Matrix);
}

} // namespace

void
Random::seed(std::uint64_t s)
{
    x[0] = s;
    for (std::size_t i = 1; i < StateWords; ++i)
        x[i] = 6364136223846793005ull * (x[i - 1] ^ (x[i - 1] >> 62)) +
            i;
    pos = StateWords;
}

void
Random::twist()
{
    constexpr std::size_t n = StateWords;
    std::size_t k = 0;
    for (; k < n - Mid; ++k)
        x[k] = twisted(x[k + Mid],
                       (x[k] & UpperMask) | (x[k + 1] & LowerMask));
    for (; k < n - 1; ++k)
        x[k] = twisted(x[k + Mid - n],
                       (x[k] & UpperMask) | (x[k + 1] & LowerMask));
    x[n - 1] = twisted(x[Mid - 1],
                       (x[n - 1] & UpperMask) | (x[0] & LowerMask));
    pos = 0;
}

Random::Wide
Random::redraw(Wide product, std::uint64_t range)
{
    const std::uint64_t threshold = -range % range;
    while (static_cast<std::uint64_t>(product) < threshold)
        product = Wide{draw()} * range;
    return product;
}

std::vector<std::uint32_t>
Random::sampleWithoutReplacement(std::uint32_t n, std::uint32_t k)
{
    panic_if(k > n, "cannot sample %u distinct values from [0,%u)",
             k, n);
    std::set<std::uint32_t> chosen;
    for (std::uint32_t j = n - k; j < n; ++j) {
        auto t = static_cast<std::uint32_t>(uniform(0, j));
        if (!chosen.insert(t).second)
            chosen.insert(j);
    }
    return std::vector<std::uint32_t>(chosen.begin(), chosen.end());
}

} // namespace mscp
