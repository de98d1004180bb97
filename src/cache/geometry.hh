/**
 * @file
 * Address arithmetic for word-addressed caches.
 *
 * The simulator is word addressed (one 64-bit word per Addr unit); a
 * block consists of a power-of-two number of words. Blocks map to
 * sets by their low index bits.
 */

#ifndef MSCP_CACHE_GEOMETRY_HH
#define MSCP_CACHE_GEOMETRY_HH

#include <bit>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace mscp::cache
{

/**
 * Size/shape parameters of one cache. Both block and set counts are
 * powers of two (check()), so the address arithmetic is a shift and
 * two masks computed at construction; the shape is read-only after
 * it, so they cannot go stale.
 */
class Geometry
{
  public:
    /**
     * @param block_words words per block (power of two)
     * @param num_sets sets (power of two)
     * @param assoc ways per set
     */
    Geometry(unsigned block_words = 8, unsigned num_sets = 64,
             unsigned assoc = 4)
        : _blockWords(block_words), _numSets(num_sets), _assoc(assoc),
          blockShift(static_cast<unsigned>(std::countr_zero(block_words))),
          offsetMask(block_words - 1), setMask(num_sets - 1)
    {}

    unsigned blockWords() const { return _blockWords; }
    unsigned numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

    /** Validate parameters; fatal on user error. */
    void
    check() const
    {
        fatal_if(!isPowerOfTwo(_blockWords),
                 "blockWords must be a power of two");
        fatal_if(!isPowerOfTwo(_numSets),
                 "numSets must be a power of two");
        fatal_if(_assoc == 0, "assoc must be positive");
    }

    /** Total capacity in blocks. */
    unsigned capacityBlocks() const { return _numSets * _assoc; }

    /** Block containing word address @p a. */
    BlockId
    blockOf(Addr a) const
    {
        return a >> blockShift;
    }

    /** Word offset of @p a within its block. */
    unsigned
    offsetOf(Addr a) const
    {
        return static_cast<unsigned>(a & offsetMask);
    }

    /** First word address of @p b. */
    Addr
    baseOf(BlockId b) const
    {
        return static_cast<Addr>(b) << blockShift;
    }

    /** Set index of block @p b. */
    unsigned
    setOf(BlockId b) const
    {
        return static_cast<unsigned>(b & setMask);
    }

  private:
    unsigned _blockWords;
    unsigned _numSets;
    unsigned _assoc;
    /** log2(blockWords). */
    unsigned blockShift;
    /** blockWords - 1. */
    unsigned offsetMask;
    /** numSets - 1. */
    unsigned setMask;
};

} // namespace mscp::cache

#endif // MSCP_CACHE_GEOMETRY_HH
