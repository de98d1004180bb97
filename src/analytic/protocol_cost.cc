#include "protocol_cost.hh"

#include <algorithm>

#include "analytic/multicast_cost.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace mscp::analytic
{

double
normNoCache(double w)
{
    return (1 - w) * 2 + w;
}

double
normWriteOnce(double w, double n)
{
    return w * (1 - w) * (n + 2);
}

double
normDistWrite(double w, double n)
{
    return w * n;
}

double
normGlobalRead(double w)
{
    return 2 * (1 - w);
}

double
normTwoMode(double w, double n)
{
    return std::min(normDistWrite(w, n), normGlobalRead(w));
}

double
wThreshold(double n)
{
    return 2.0 / (n + 2.0);
}

namespace
{

double
unit(std::uint64_t N, std::uint64_t M)
{
    return static_cast<double>(cc1Series(1, N, M));
}

} // anonymous namespace

double
absNoCache(double w, std::uint64_t N, std::uint64_t M)
{
    return ((1 - w) * 2 + w) * unit(N, M);
}

double
absDistWrite(double w, std::uint64_t n, std::uint64_t n1,
             std::uint64_t N, std::uint64_t M)
{
    return w * static_cast<double>(cc4Series(n, n1, N, M));
}

double
absGlobalRead(double w, std::uint64_t N, std::uint64_t M)
{
    return (1 - w) * 2 * unit(N, M);
}

double
absTwoMode(double w, std::uint64_t n, std::uint64_t n1,
           std::uint64_t N, std::uint64_t M)
{
    return std::min(absDistWrite(w, n, n1, N, M),
                    absGlobalRead(w, N, M));
}

std::uint64_t
stateBitsFullMap(std::uint64_t num_caches, std::uint64_t mem_blocks)
{
    // Presence bit per cache plus a handful of state bits per block;
    // the paper's O(NM) keeps only the dominant term.
    return mem_blocks * (num_caches + 2);
}

std::uint64_t
stateBitsDistributed(std::uint64_t num_caches,
                     std::uint64_t cache_blocks,
                     std::uint64_t mem_blocks)
{
    panic_if(!isPowerOfTwo(num_caches), "N must be a power of two");
    std::uint64_t log_n = log2Exact(num_caches);
    // Per cache entry: V, O, M, DW bits, the present vector and the
    // OWNER field; per memory block: a valid bit and the owner id.
    std::uint64_t per_entry = 4 + num_caches + log_n;
    std::uint64_t per_block = 1 + log_n;
    return num_caches * cache_blocks * per_entry +
        mem_blocks * per_block;
}

std::uint64_t
stateBitsSplitCache(std::uint64_t num_caches,
                    std::uint64_t shared_blocks,
                    std::uint64_t private_blocks,
                    std::uint64_t mem_blocks)
{
    panic_if(!isPowerOfTwo(num_caches), "N must be a power of two");
    std::uint64_t log_n = log2Exact(num_caches);
    // Shared partition carries the full state field; the private
    // partition needs only V/O/M/DW plus the OWNER pointer.
    std::uint64_t shared_entry = 4 + num_caches + log_n;
    std::uint64_t private_entry = 4 + log_n;
    std::uint64_t per_block = 1 + log_n;
    return num_caches * (shared_blocks * shared_entry +
                         private_blocks * private_entry) +
        mem_blocks * per_block;
}

std::uint64_t
stateBitsAssociative(std::uint64_t num_caches,
                     std::uint64_t cache_blocks,
                     std::uint64_t state_entries,
                     std::uint64_t tag_bits,
                     std::uint64_t mem_blocks)
{
    panic_if(!isPowerOfTwo(num_caches), "N must be a power of two");
    std::uint64_t log_n = log2Exact(num_caches);
    // Directory entries shrink to the base bits + OWNER; present
    // vectors move to a small tagged associative table.
    std::uint64_t dir_entry = 4 + log_n;
    std::uint64_t state_entry = tag_bits + num_caches;
    std::uint64_t per_block = 1 + log_n;
    return num_caches * (cache_blocks * dir_entry +
                         state_entries * state_entry) +
        mem_blocks * per_block;
}

} // namespace mscp::analytic
