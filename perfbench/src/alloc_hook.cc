/**
 * @file
 * Global allocation counter: replaces operator new/delete so the
 * traced run can attribute heap allocations to spans. One relaxed
 * atomic increment per allocation, in every run.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.hh"

namespace
{

std::atomic<std::uint64_t> tally{0};

void *
countedAlloc(std::size_t sz)
{
    tally.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc{};
}

void *
countedAllocNoThrow(std::size_t sz) noexcept
{
    tally.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(sz ? sz : 1);
}

} // anonymous namespace

std::uint64_t
perfbench::allocCount()
{
    return tally.load(std::memory_order_relaxed);
}

void *operator new(std::size_t sz) { return countedAlloc(sz); }
void *operator new[](std::size_t sz) { return countedAlloc(sz); }
void *
operator new(std::size_t sz, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(sz);
}
void *
operator new[](std::size_t sz, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(sz);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
