/**
 * @file
 * Protocol states of a cached block and the per-entry state field
 * (paper Table 1).
 *
 * The state field carries: a Valid bit (V), an Ownership bit (O), a
 * Modified bit (M), the Distributed-Write mode bit (DW), the present
 * flag vector P[0..N-1] and the OWNER identification. The present
 * vector, M and DW are meaningful only at the owner; OWNER is
 * meaningful only while the copy is Invalid (it caches a direct path
 * to the owner, bypassing the memory module).
 */

#ifndef MSCP_CACHE_BLOCK_STATE_HH
#define MSCP_CACHE_BLOCK_STATE_HH

#include <string>

#include "sim/bitset.hh"
#include "sim/types.hh"

namespace mscp::cache
{

/** Consistency mode of a block, chosen by its owner. */
enum class Mode : std::uint8_t
{
    DistributedWrite, ///< copies allowed; owner multicasts writes
    GlobalRead,       ///< single copy; remote reads fetch one datum
};

/** Printable mode name. */
const char *modeName(Mode m);

/** The six stable states of Table 1. */
enum class State : std::uint8_t
{
    Invalid,         ///< V=0 (entry may still cache OWNER)
    UnOwned,         ///< V=1, O=0: valid copy, not writable
    OwnedExclDW,     ///< V=1, O=1, DW=1, sole copy
    OwnedExclGR,     ///< V=1, O=1, DW=0, sole copy
    OwnedNonExclDW,  ///< V=1, O=1, DW=1, other valid copies exist
    OwnedNonExclGR,  ///< V=1, O=1, DW=0, other invalid copies exist
};

/** Printable state name. */
const char *stateName(State s);

/** @return true iff the state has the ownership bit set. */
constexpr bool
isOwned(State s)
{
    return s == State::OwnedExclDW || s == State::OwnedExclGR ||
        s == State::OwnedNonExclDW || s == State::OwnedNonExclGR;
}

/** @return true iff the state is owned with no other copies. */
constexpr bool
isOwnedExclusive(State s)
{
    return s == State::OwnedExclDW || s == State::OwnedExclGR;
}

/** @return true iff the state is owned and non-exclusive. */
constexpr bool
isOwnedNonExclusive(State s)
{
    return s == State::OwnedNonExclDW || s == State::OwnedNonExclGR;
}

/** @return true iff the state carries a valid copy (V=1). */
constexpr bool
isValid(State s)
{
    return s != State::Invalid;
}

/** Mode encoded in an owned state. */
constexpr Mode
modeOf(State s)
{
    return (s == State::OwnedExclDW || s == State::OwnedNonExclDW)
        ? Mode::DistributedWrite : Mode::GlobalRead;
}

/** Owned state for a given (mode, exclusive) pair. */
constexpr State
ownedState(Mode mode, bool exclusive)
{
    if (mode == Mode::DistributedWrite)
        return exclusive ? State::OwnedExclDW : State::OwnedNonExclDW;
    return exclusive ? State::OwnedExclGR : State::OwnedNonExclGR;
}

/**
 * The hardware state field of one cache entry.
 *
 * The encoding of Table 1 is reproduced by encode()/decode(); the
 * simulator itself manipulates the decoded form.
 */
struct StateField
{
    State state = State::Invalid;
    /** Modified attribute of owned states (inconsistent w/ memory). */
    bool modified = false;
    /**
     * Present flags: at a DW owner, caches holding valid copies; at
     * a GR owner, caches holding invalid copies (OWNER pointers).
     * Bit i is set for the owner itself (P_i = 1 in Table 1).
     */
    DynamicBitset present;
    /** Owner id; meaningful only while state == Invalid. */
    NodeId owner = invalidNode;

    StateField() = default;
    explicit StateField(unsigned num_caches)
        : present(num_caches)
    {}

    /** Number of caches the present vector covers. */
    std::size_t numCaches() const { return present.size(); }

    /**
     * Become StateField(num_caches) again, keeping the present
     * vector's storage (no allocation once it has been sized).
     */
    void
    reset(unsigned num_caches)
    {
        state = State::Invalid;
        modified = false;
        present.resizeCleared(num_caches);
        owner = invalidNode;
    }

    /**
     * Size in bits of the transferred state field:
     * V + O + M + DW + present vector + OWNER.
     */
    static Bits
    wireBits(unsigned num_caches)
    {
        return 4 + num_caches + log2Exact(num_caches);
    }

    /**
     * Raw Table-1 encoding for cache @p self: (V, O, M, DW) packed
     * into the low four bits. The present vector and OWNER ride
     * alongside in the struct.
     */
    unsigned encodeBits() const;

    /** Human-readable dump for debugging. */
    std::string toString() const;

    bool operator==(const StateField &) const = default;
};

} // namespace mscp::cache

#endif // MSCP_CACHE_BLOCK_STATE_HH
