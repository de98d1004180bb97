/**
 * @file
 * Byte-writer, rank spaces, reusable scratch storage and the 128-bit
 * hash for canonical state serializations. Engine access lives
 * entirely in EngineGateway::canonical() (canon.cc); this header is
 * plain utility code.
 */

#ifndef MSCP_VERIFY_CANON_HH
#define MSCP_VERIFY_CANON_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/types.hh"

namespace mscp::cache
{
struct Entry;
} // namespace mscp::cache

namespace mscp::verify
{

/** @p v with its bytes in little-endian order: itself on a
 *  little-endian host, byte-reversed on a big-endian one (so the same
 *  call converts either way). */
template <typename Word>
Word
littleEndian(Word v)
{
    if constexpr (std::endian::native == std::endian::big) {
        Word r = 0;
        for (unsigned i = 0; i < sizeof v; ++i)
            r = static_cast<Word>((r << 8) | ((v >> (8 * i)) & 0xff));
        return r;
    }
    return v;
}

/**
 * Append-only little-endian byte writer over reusable storage. Each
 * write stores one fixed-width word in place; clear() forgets the
 * bytes but keeps the storage, so a warm sink appends without
 * allocating.
 */
class ByteSink
{
  public:
    /** Reserve room for @p bytes and start over. */
    void
    reserve(std::size_t bytes)
    {
        buf.reserve(bytes);
        clear();
    }

    /** Start over, keeping the storage. */
    void
    clear()
    {
        buf.resize(buf.capacity());
        at = buf.data();
        end = at + buf.size();
    }

    void u8(std::uint8_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    /** Trim the storage to the bytes written since clear() and
     *  return them; valid until the sink's next clear(). */
    const std::vector<std::uint8_t> &
    finish()
    {
        buf.resize(static_cast<std::size_t>(at - buf.data()));
        at = end = buf.data() + buf.size();
        return buf;
    }

  private:
    template <typename Word>
    void
    put(Word v)
    {
        // The store may alias this sink, so the next position comes
        // from a register copy rather than a reload.
        std::uint8_t *p = at;
        if (static_cast<std::size_t>(end - p) < sizeof v)
            p = grow();
        v = littleEndian(v);
        std::memcpy(p, &v, sizeof v);
        at = p + sizeof v;
    }

    /** Double the storage, keeping the bytes written; returns the
     *  write position. */
    std::uint8_t *
    grow()
    {
        const auto used = static_cast<std::size_t>(at - buf.data());
        buf.resize(2 * buf.size() + 256);
        at = buf.data() + used;
        end = buf.data() + buf.size();
        return at;
    }

    /** [data, at) is written; [at, end) is room to write into. */
    std::vector<std::uint8_t> buf;
    std::uint8_t *at = nullptr;
    std::uint8_t *end = nullptr;
};

/** The kinds of value space canonical() rank-renumbers. */
enum class RankKind : std::uint8_t
{
    CpuSeq,    ///< a cpu's attempt sequence numbers
    HomeToken, ///< a home's busy tokens
    HomeStamp, ///< a home's durable-write freshness stamps
    SetLru,    ///< one cache set's LRU use clocks
};

/**
 * Order-preserving rank renumbering of many value spaces, one per
 * (kind, owner), kept in one buffer: every nonzero value noted in a
 * space before seal() maps to its dense rank from 1 within that
 * space (equal values share a rank); 0 stays 0 (unset).
 */
class RankSpaces
{
  public:
    void reserve(std::size_t values) { vals.reserve(values); }

    /** Forget every value, keeping the storage. */
    void clear() { vals.clear(); }

    void
    note(RankKind kind, unsigned owner, std::uint64_t v)
    {
        if (v)
            vals.push_back({spaceOf(kind, owner), v});
    }

    /** Sort and deduplicate the noted values and rank them; call
     *  once after the last note(). */
    void seal();

    /** Rank of @p v in its space. Panics, naming the space and the
     *  value, if a nonzero @p v was never noted there: ranking it
     *  anyway would merge distinct states. */
    std::uint64_t rankOf(RankKind kind, unsigned owner,
                         std::uint64_t v) const;

  private:
    struct Value
    {
        std::uint64_t space;
        std::uint64_t v;
        /** Rank within the space; set by seal(). */
        std::uint64_t rank = 0;

        bool
        operator<(const Value &o) const
        {
            return space != o.space ? space < o.space : v < o.v;
        }
    };

    static std::uint64_t
    spaceOf(RankKind kind, unsigned owner)
    {
        return static_cast<std::uint64_t>(kind) << 32 | owner;
    }

    std::vector<Value> vals;
};

/**
 * canonical()'s working storage, owned by its gateway. It starts
 * empty, so building a gateway allocates none of it. The first
 * canonical() reserves room for states well beyond the sweep
 * configurations' (a 4 KiB serialization, 256 ranked values, 64
 * pending messages); a larger state still grows it. A warm
 * canonical() allocates nothing.
 */
struct CanonScratch
{
    /** Reserve the first call's room; later calls return at once. */
    void reserveOnce();

    /** A pending message's delivery stream plus its buffer index,
     *  the stream order's sort key. */
    struct StreamKey
    {
        std::uint32_t src;
        std::uint8_t srcIsMem;
        std::uint32_t dst;
        std::uint8_t toMemory;
        std::size_t idx;
    };

    /** Every cpu's and home's value spaces. */
    RankSpaces ranks;
    /** One cache set's LRU clocks. */
    RankSpaces lru;
    /** The cache-role permutation (inv[newId] = oldId) and its
     *  inverse. */
    std::vector<NodeId> inv, toNew;
    /** One cache's occupied entries, by (set, block). */
    std::vector<const cache::Entry *> entries;
    /** One address's pending write values, sorted. */
    std::vector<std::uint64_t> writes;
    /** The pending messages in stream order. */
    std::vector<StreamKey> streams;
    /** The pending sweeps' nodes, sorted. */
    std::vector<std::uint32_t> sweeps;
    /** The least serialization so far and the one being written. */
    ByteSink best, cand;
    bool reserved = false;
};

/**
 * 128-bit digest for the seen-state set, so the set stores 16 bytes
 * per state instead of the full serialization. The input is read
 * one little-endian 64-bit word at a time (a short tail is
 * zero-padded) into two independent 64-bit lanes. Each lane
 * premixes the word (multiply, rotate, multiply; the lanes use
 * different constants) and folds it in with xor, rotate and an odd
 * multiply-add. Every step is a bijection of the lane for a fixed
 * word and of the word for a fixed lane, so two inputs of one
 * length that differ in a single word never collide. The length is
 * then mixed into both lanes, which separates inputs differing only
 * by trailing zero bytes, and an fmix64 finaliser per lane with
 * MurmurHash3 x64_128's cross-adds spreads every input bit over
 * both halves. With a 2^-128 pairwise collision probability,
 * accidental merges are negligible against state budgets in the
 * millions.
 */
struct Hash128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const Hash128 &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

namespace detail
{

inline std::uint64_t
fmix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

} // namespace detail

inline Hash128
hashBytes(const std::vector<std::uint8_t> &bytes)
{
    constexpr std::uint64_t c1 = 0x87c37b91114253d5ull;
    constexpr std::uint64_t c2 = 0x4cf5ad432745937full;
    std::uint64_t a = 0x9e3779b97f4a7c15ull;
    std::uint64_t b = 0xc2b2ae3d27d4eb4full;
    auto mix = [&](std::uint64_t w) {
        a ^= std::rotl(w * c1, 31) * c2;
        a = std::rotl(a, 27) * 5 + 0x52dce729;
        b ^= std::rotl(w * c2, 33) * c1;
        b = std::rotl(b, 31) * 5 + 0x38495ab5;
    };
    const std::uint8_t *p = bytes.data();
    const std::size_t len = bytes.size();
    std::size_t i = 0;
    std::uint64_t w = 0;
    for (; i + 8 <= len; i += 8) {
        std::memcpy(&w, p + i, 8);
        mix(littleEndian(w));
    }
    if (i < len) {
        w = 0;
        std::memcpy(&w, p + i, len - i);
        mix(littleEndian(w));
    }
    a ^= len;
    b ^= len;
    a += b;
    b += a;
    a = detail::fmix64(a);
    b = detail::fmix64(b);
    a += b;
    b += a;
    return {a, b};
}

struct Hash128Hasher
{
    std::size_t
    operator()(const Hash128 &h) const
    {
        return static_cast<std::size_t>(h.lo ^ (h.hi * 0xff51afd7ed558ccdull));
    }
};

} // namespace mscp::verify

#endif // MSCP_VERIFY_CANON_HH
