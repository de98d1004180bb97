#include "memory_module.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::mem
{

const std::uint64_t *
MemoryModule::wordsOf(BlockId block) const
{
    const std::size_t *at = index.find(block);
    return at ? words.data() + *at : nullptr;
}

std::uint64_t *
MemoryModule::wordsFor(BlockId block)
{
    if (const std::size_t *at = index.find(block))
        return words.data() + *at;
    const std::size_t at = words.size();
    index[block] = at;
    words.resize(at + blockWords, 0);
    return words.data() + at;
}

std::vector<std::uint64_t>
MemoryModule::readBlock(BlockId block) const
{
    std::vector<std::uint64_t> out(blockWords, 0);
    readBlock(block, out);
    return out;
}

void
MemoryModule::readBlock(BlockId block,
                        std::span<std::uint64_t> out) const
{
    panic_if(out.size() != blockWords,
             "read of %zu words from %u-word blocks", out.size(),
             blockWords);
    if (const std::uint64_t *w = wordsOf(block))
        std::copy(w, w + blockWords, out.begin());
    else
        std::fill(out.begin(), out.end(), 0);
}

void
MemoryModule::writeBlock(BlockId block,
                         std::span<const std::uint64_t> block_data)
{
    panic_if(block_data.size() != blockWords,
             "write-back of %zu words into %u-word blocks",
             block_data.size(), blockWords);
    std::copy(block_data.begin(), block_data.end(), wordsFor(block));
}

std::uint64_t
MemoryModule::readWord(BlockId block, unsigned offset) const
{
    panic_if(offset >= blockWords, "word offset out of block");
    const std::uint64_t *w = wordsOf(block);
    return w ? w[offset] : 0;
}

void
MemoryModule::writeWord(BlockId block, unsigned offset,
                        std::uint64_t value)
{
    panic_if(offset >= blockWords, "word offset out of block");
    wordsFor(block)[offset] = value;
}

} // namespace mscp::mem
