/**
 * @file
 * One interleaved main-memory module.
 *
 * Modules are co-located with the network ports (one processor-
 * memory element per port, RP3 style); blocks interleave across
 * modules by block number. Each module stores block data words and
 * its block store (owner directory). The storage is flat -- a few
 * arrays of trivially copyable values -- so copying a module costs a
 * few bulk copies and allocates nothing once the copy is as large;
 * the concurrent engine's model-checker snapshots copy one.
 */

#ifndef MSCP_MEM_MEMORY_MODULE_HH
#define MSCP_MEM_MEMORY_MODULE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "mem/block_store.hh"
#include "sim/flat.hh"
#include "sim/types.hh"

namespace mscp::mem
{

/** Backing storage plus owner directory of one module. */
class MemoryModule
{
  public:
    /**
     * @param port network port the module answers on
     * @param block_words words per block
     */
    MemoryModule(NodeId port, unsigned block_words)
        : _port(port), blockWords(block_words)
    {}

    /** A module holding nothing, to be assigned a sized one. */
    MemoryModule() = default;

    NodeId port() const { return _port; }

    BlockStore &blockStore() { return store; }
    const BlockStore &blockStore() const { return store; }

    /** Read a whole block (zero-filled if never written). */
    std::vector<std::uint64_t> readBlock(BlockId block) const;

    /** Read a whole block into @p out (block-size words). */
    void readBlock(BlockId block, std::span<std::uint64_t> out) const;

    /** Overwrite a whole block (write-back). */
    void writeBlock(BlockId block,
                    std::span<const std::uint64_t> data);
    void
    writeBlock(BlockId block, const std::vector<std::uint64_t> &data)
    {
        writeBlock(block, std::span<const std::uint64_t>(data));
    }

    /** Read one word. */
    std::uint64_t readWord(BlockId block, unsigned offset) const;

    /** Write one word (write-through paths of baselines). */
    void writeWord(BlockId block, unsigned offset,
                   std::uint64_t value);

    /** Number of blocks ever touched (for stats). */
    std::size_t touchedBlocks() const { return index.size(); }

    /** Make room for @p blocks touched blocks and their owners. */
    void
    reserve(std::size_t blocks)
    {
        index.reserve(blocks);
        words.reserve(blocks * blockWords);
        store.reserve(blocks);
    }

  private:
    /** The words of @p block, or nullptr if it was never written. */
    const std::uint64_t *wordsOf(BlockId block) const;
    /** The words of @p block, zero-filled on first use. */
    std::uint64_t *wordsFor(BlockId block);

    NodeId _port = invalidNode;
    unsigned blockWords = 0;
    BlockStore store;
    /** Offset of each touched block's words in @c words. */
    FlatMap<BlockId, std::size_t> index;
    /** blockWords words per touched block, in first-touch order. */
    std::vector<std::uint64_t> words;
};

/** Block-interleaved address map across @p num_modules modules. */
struct AddressMap
{
    unsigned numModules = 1;

    /** Module index holding @p block. */
    unsigned
    moduleOf(BlockId block) const
    {
        return static_cast<unsigned>(block % numModules);
    }
};

} // namespace mscp::mem

#endif // MSCP_MEM_MEMORY_MODULE_HH
