/**
 * @file
 * The per-memory-module block store (paper Sec. 2.1).
 *
 * One entry per cached block: a valid bit and the log2(N)-bit
 * identification of the block's current owner. The block store is
 * the only consistency state kept at the memory level; it never
 * holds presence vectors (those live at the owning caches).
 */

#ifndef MSCP_MEM_BLOCK_STORE_HH
#define MSCP_MEM_BLOCK_STORE_HH

#include <algorithm>
#include <vector>

#include "sim/flat.hh"
#include "sim/types.hh"

namespace mscp::mem
{

/** Owner directory of one memory module. */
class BlockStore
{
  public:
    /**
     * @return the owner of @p block, or invalidNode if the block is
     *         not cached anywhere (valid bit clear).
     */
    NodeId
    owner(BlockId block) const
    {
        const NodeId *o = map.find(block);
        return o ? *o : invalidNode;
    }

    /** @return true iff the block has a registered owner. */
    bool
    hasOwner(BlockId block) const
    {
        return map.contains(block);
    }

    /** Register or change the owner of @p block. */
    void
    setOwner(BlockId block, NodeId owner)
    {
        map[block] = owner;
    }

    /** Clear the valid bit (block no longer cached). */
    void
    clear(BlockId block)
    {
        map.erase(block);
    }

    /** Number of valid entries (for stats/tests). */
    std::size_t size() const { return map.size(); }

    /** Make room for @p blocks registered owners. */
    void reserve(std::size_t blocks) { map.reserve(blocks); }

    /**
     * All blocks registered to @p owner, sorted ascending so a
     * dead-owner sweep visits them in a deterministic order
     * regardless of hash-map iteration order.
     */
    std::vector<BlockId>
    ownedBy(NodeId owner) const
    {
        std::vector<BlockId> blocks;
        map.forEach([&](BlockId blk, NodeId own) {
            if (own == owner)
                blocks.push_back(blk);
        });
        std::sort(blocks.begin(), blocks.end());
        return blocks;
    }

  private:
    /** Flat (two trivially copyable arrays), so copying a store
     *  allocates nothing once the copy's arrays are as large. */
    FlatMap<BlockId, NodeId> map;
};

} // namespace mscp::mem

#endif // MSCP_MEM_BLOCK_STORE_HH
