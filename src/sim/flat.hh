/**
 * @file
 * Flat hash map for simulator hot paths.
 *
 * The protocol engines used to keep per-block bookkeeping in
 * std::set / std::map, paying a node allocation plus pointer chase
 * per insert and lookup. FlatMap uses open addressing over a single
 * power-of-two array (linear probing, Fibonacci hashing) so the
 * steady state performs no allocation at all.
 *
 * Keys are integral. One key value must be reserved as the empty
 * marker (defaults to the all-ones value, which BlockId/Addr/NodeId
 * never take in practice; pick another if it can).
 *
 * Iteration order is unspecified: callers must not let it influence
 * simulation behavior (the determinism contract in DESIGN.md).
 */

#ifndef MSCP_SIM_FLAT_HH
#define MSCP_SIM_FLAT_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace mscp
{

namespace detail
{

/**
 * Fibonacci (multiplicative) hash of an integral key into a table of
 * 2^(64 - shift) slots: the top bits of key * 2^64 / phi, which
 * spread runs of consecutive keys (block and word addresses) over
 * distinct slots. Lower bits of the product do not: taking bits
 * 32 and up put 16 consecutive word addresses in 11 of 32 slots.
 */
inline std::size_t
fibHash(std::uint64_t key, unsigned shift)
{
    return static_cast<std::size_t>(
        (key * 0x9e3779b97f4a7c15ull) >> shift);
}

} // namespace detail

/**
 * Open-addressing hash map from an integral key to an arbitrary
 * mapped value: linear probing, Fibonacci hashing and
 * backward-shift deletion over one power-of-two key array, with the
 * mapped values in a parallel array so erase/rehash move them with
 * the keys. With trivially copyable keys and values, copying a map
 * is two bulk copies.
 */
template <typename K, typename V,
          K Empty = std::numeric_limits<K>::max()>
class FlatMap
{
  public:
    /** An empty map; its arrays are allocated by the first insert,
     *  so an engine's many never-used maps cost nothing. */
    FlatMap() = default;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    bool contains(K key) const { return findSlot(key) != npos; }

    /** Pointer to the mapped value, or nullptr if absent. */
    V *
    find(K key)
    {
        std::size_t i = findSlot(key);
        return i == npos ? nullptr : &vals[i];
    }

    const V *
    find(K key) const
    {
        std::size_t i = findSlot(key);
        return i == npos ? nullptr : &vals[i];
    }

    /** Mapped value for @p key, default-constructed on first use. */
    V &
    operator[](K key)
    {
        panic_if(key == Empty, "FlatMap key equals empty marker");
        if ((count + 1) * 4 > capacity() * 3)
            rehash(capacity() ? capacity() * 2 : MinCapacity);
        std::size_t i = slotOf(key);
        while (keys[i] != Empty) {
            if (keys[i] == key)
                return vals[i];
            i = (i + 1) & mask;
        }
        keys[i] = key;
        vals[i] = V{};
        ++count;
        return vals[i];
    }

    /** Grow to hold @p n entries without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = capacity() ? capacity() : MinCapacity;
        while (n * 4 > cap * 3)
            cap *= 2;
        if (cap != capacity())
            rehash(cap);
    }

    bool
    erase(K key)
    {
        std::size_t i = findSlot(key);
        if (i == npos)
            return false;
        removeAt(i);
        --count;
        return true;
    }

    void
    clear()
    {
        std::fill(keys.begin(), keys.end(), Empty);
        for (auto &v : vals)
            v = V{};
        count = 0;
    }

    /** Call @p fn(key, value) for every entry, in unspecified order
     *  (sort what must not depend on it). @p fn must not insert or
     *  erase. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys.size(); ++i)
            if (keys[i] != Empty)
                fn(keys[i], vals[i]);
    }

  private:
    /** First arrays of 8 slots: at most 64 bytes each, which malloc
     *  serves from its fast bins. Engines built and destroyed by the
     *  hundred (paper-grid) then never free a chunk that coalesces
     *  into the heap top; with 16 slots (128-byte arrays) those
     *  frees let glibc hand the heap back to the OS after every
     *  set-up, and perfbench paper-grid's set-up page-faulted again
     *  each time and took twice as long. */
    static constexpr std::size_t MinCapacity = 8;
    static constexpr std::size_t npos =
        std::numeric_limits<std::size_t>::max();

    std::size_t capacity() const { return keys.size(); }
    std::size_t slotOf(K key) const
    {
        return detail::fibHash(static_cast<std::uint64_t>(key), shift);
    }

    std::size_t
    findSlot(K key) const
    {
        panic_if(key == Empty, "FlatMap key equals empty marker");
        if (count == 0)
            return npos;
        std::size_t i = slotOf(key);
        while (keys[i] != Empty) {
            if (keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return npos;
    }

    void
    removeAt(std::size_t i)
    {
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (keys[j] == Empty)
                break;
            std::size_t home = slotOf(keys[j]);
            if (((j - home) & mask) >= ((j - i) & mask)) {
                keys[i] = keys[j];
                vals[i] = std::move(vals[j]);
                i = j;
            }
        }
        keys[i] = Empty;
        vals[i] = V{};
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<K> old_keys = std::move(keys);
        std::vector<V> old_vals = std::move(vals);
        keys.assign(new_cap, Empty);
        vals.assign(new_cap, V{});
        mask = new_cap - 1;
        shift = 64 - static_cast<unsigned>(std::countr_zero(new_cap));
        for (std::size_t s = 0; s < old_keys.size(); ++s) {
            if (old_keys[s] == Empty)
                continue;
            std::size_t i = slotOf(old_keys[s]);
            while (keys[i] != Empty)
                i = (i + 1) & mask;
            keys[i] = old_keys[s];
            vals[i] = std::move(old_vals[s]);
        }
    }

    std::vector<K> keys;
    std::vector<V> vals;
    std::size_t mask = 0;
    unsigned shift = 64; ///< 64 - log2(capacity); set by rehash()
    std::size_t count = 0;
};

} // namespace mscp

#endif // MSCP_SIM_FLAT_HH
