/**
 * @file
 * Run-time sized bitsets.
 *
 * Used for present-flag vectors (one bit per cache) and as the
 * routing tag of multicast scheme 2. std::bitset is compile-time
 * sized and std::vector<bool> lacks word-level operations, hence
 * this small dedicated type, plus an inline-storage twin for
 * records that must stay trivially copyable.
 */

#ifndef MSCP_SIM_BITSET_HH
#define MSCP_SIM_BITSET_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace mscp
{

/** Fixed-length (at construction) bitset with popcount support. */
class DynamicBitset
{
  public:
    DynamicBitset() = default;

    /** Construct @p nbits cleared bits. */
    explicit DynamicBitset(std::size_t nbits)
        : nbits(nbits), words((nbits + 63) / 64, 0)
    {}

    std::size_t size() const { return nbits; }

    /** Become @p n cleared bits, reusing the word storage. */
    void
    resizeCleared(std::size_t n)
    {
        nbits = n;
        words.assign((n + 63) / 64, 0);
    }

    bool
    test(std::size_t i) const
    {
        checkIndex(i);
        return (words[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(std::size_t i, bool v = true)
    {
        checkIndex(i);
        if (v)
            words[i >> 6] |= std::uint64_t{1} << (i & 63);
        else
            words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    void reset(std::size_t i) { set(i, false); }

    /** Clear every bit. */
    void
    clear()
    {
        for (auto &w : words)
            w = 0;
    }

    /** Number of set bits. */
    std::size_t
    count() const
    {
        std::size_t c = 0;
        for (auto w : words)
            c += static_cast<std::size_t>(std::popcount(w));
        return c;
    }

    /** @return true iff at least one bit is set. */
    bool
    any() const
    {
        for (auto w : words)
            if (w)
                return true;
        return false;
    }

    bool none() const { return !any(); }

    /**
     * @return true iff any bit in [lo, hi) is set.
     */
    bool
    anyInRange(std::size_t lo, std::size_t hi) const
    {
        panic_if(lo > hi || hi > nbits, "bad bit range [%zu,%zu)",
                 lo, hi);
        if (lo == hi)
            return false;
        std::size_t wlo = lo >> 6;
        std::size_t whi = (hi - 1) >> 6;
        std::uint64_t first = ~std::uint64_t{0} << (lo & 63);
        std::uint64_t last = ~std::uint64_t{0} >>
            (63 - ((hi - 1) & 63));
        if (wlo == whi)
            return (words[wlo] & first & last) != 0;
        if (words[wlo] & first)
            return true;
        for (std::size_t w = wlo + 1; w < whi; ++w)
            if (words[w])
                return true;
        return (words[whi] & last) != 0;
    }

    /** Index of the lowest set bit, or size() if none. */
    std::size_t
    findFirst() const
    {
        for (std::size_t wi = 0; wi < words.size(); ++wi) {
            if (words[wi]) {
                return (wi << 6) + static_cast<std::size_t>(
                    std::countr_zero(words[wi]));
            }
        }
        return nbits;
    }

    /** Index of the lowest set bit > @p i, or size() if none. */
    std::size_t
    findNext(std::size_t i) const
    {
        std::size_t j = i + 1;
        if (j >= nbits)
            return nbits;
        std::size_t wi = j >> 6;
        std::uint64_t w = words[wi] &
            (~std::uint64_t{0} << (j & 63));
        while (true) {
            if (w) {
                return (wi << 6) + static_cast<std::size_t>(
                    std::countr_zero(w));
            }
            if (++wi == words.size())
                return nbits;
            w = words[wi];
        }
    }

    /** Word @p wi of the bits; bit i is bit i % 64 of word i / 64. */
    std::uint64_t word(std::size_t wi) const { return words[wi]; }

    /** Become @p n bits whose words are @p w (bits past @p n clear),
     *  reusing the word storage. */
    void
    assignWords(std::size_t n, const std::uint64_t *w)
    {
        nbits = n;
        words.assign(w, w + (n + 63) / 64);
    }

    bool
    operator==(const DynamicBitset &o) const
    {
        return nbits == o.nbits && words == o.words;
    }

  private:
    void
    checkIndex(std::size_t i) const
    {
        panic_if(i >= nbits, "bit index %zu out of range (size %zu)",
                 i, nbits);
    }

    std::size_t nbits = 0;
    std::vector<std::uint64_t> words;
};

/**
 * DynamicBitset's interface over at most @p MaxBits bits held
 * inline, so a record holding one stays trivially copyable (the
 * concurrent engine's messages and model-checker snapshots copy
 * such records wholesale). The length is still set at run time;
 * bits at or above size() are always zero, so the defaulted ==
 * compares content only.
 */
template <std::size_t MaxBits>
class FixedBitset
{
  public:
    FixedBitset() = default;

    /** Construct @p nbits cleared bits. */
    explicit FixedBitset(std::size_t nbits) { resizeCleared(nbits); }

    std::size_t size() const { return nbits; }

    /** Become @p n cleared bits. */
    void
    resizeCleared(std::size_t n)
    {
        panic_if(n > MaxBits, "%zu bits exceed the inline capacity %zu",
                 n, MaxBits);
        nbits = static_cast<std::uint32_t>(n);
        words.fill(0);
    }

    /** Become a copy of @p src: its length and its bits. */
    void
    assign(const DynamicBitset &src)
    {
        resizeCleared(src.size());
        for (std::size_t wi = 0; wi < (nbits + 63) / 64; ++wi)
            words[wi] = src.word(wi);
    }

    /** Copy length and bits into @p dst, reusing its storage. */
    void
    copyTo(DynamicBitset &dst) const
    {
        dst.assignWords(nbits, words.data());
    }

    bool
    test(std::size_t i) const
    {
        checkIndex(i);
        return (words[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(std::size_t i, bool v = true)
    {
        checkIndex(i);
        if (v)
            words[i >> 6] |= std::uint64_t{1} << (i & 63);
        else
            words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    void reset(std::size_t i) { set(i, false); }

    /** Clear every bit, keeping the length. */
    void clear() { words.fill(0); }

    /** Number of set bits. */
    std::size_t
    count() const
    {
        std::size_t c = 0;
        for (auto w : words)
            c += static_cast<std::size_t>(std::popcount(w));
        return c;
    }

    bool
    any() const
    {
        for (auto w : words)
            if (w)
                return true;
        return false;
    }

    bool none() const { return !any(); }

    /** Index of the lowest set bit, or size() if none. */
    std::size_t
    findFirst() const
    {
        for (std::size_t wi = 0; wi < Words; ++wi) {
            if (words[wi]) {
                return (wi << 6) + static_cast<std::size_t>(
                    std::countr_zero(words[wi]));
            }
        }
        return nbits;
    }

    /** Index of the lowest set bit > @p i, or size() if none. */
    std::size_t
    findNext(std::size_t i) const
    {
        std::size_t j = i + 1;
        if (j >= nbits)
            return nbits;
        std::size_t wi = j >> 6;
        std::uint64_t w = words[wi] & (~std::uint64_t{0} << (j & 63));
        while (true) {
            if (w) {
                return (wi << 6) + static_cast<std::size_t>(
                    std::countr_zero(w));
            }
            if (++wi == Words)
                return nbits;
            w = words[wi];
        }
    }

    /** Index of the @p k-th set bit counting from 0, or size(). */
    std::size_t
    findNth(std::size_t k) const
    {
        for (std::size_t wi = 0; wi < Words; ++wi) {
            std::uint64_t w = words[wi];
            const auto n = static_cast<std::size_t>(std::popcount(w));
            if (k >= n) {
                k -= n;
                continue;
            }
            for (; k > 0; --k)
                w &= w - 1;
            return (wi << 6) +
                static_cast<std::size_t>(std::countr_zero(w));
        }
        return nbits;
    }

    bool operator==(const FixedBitset &) const = default;

  private:
    static constexpr std::size_t Words = (MaxBits + 63) / 64;

    void
    checkIndex(std::size_t i) const
    {
        panic_if(i >= nbits, "bit index %zu out of range (size %u)",
                 i, nbits);
    }

    std::array<std::uint64_t, Words> words{};
    std::uint32_t nbits = 0;
};

} // namespace mscp

#endif // MSCP_SIM_BITSET_HH
