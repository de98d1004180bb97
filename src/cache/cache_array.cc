#include "cache_array.hh"

#include "sim/logging.hh"

namespace mscp::cache
{

CacheArray::CacheArray(const Geometry &geom, unsigned num_caches)
    : geom(geom), numCaches(num_caches)
{
    geom.check();
    entries.resize(static_cast<std::size_t>(geom.numSets()) *
                   geom.assoc());
    for (auto &e : entries) {
        e.field = StateField(numCaches);
        e.data.assign(geom.blockWords(), 0);
    }
}

Entry *
CacheArray::setBase(BlockId block)
{
    return &entries[static_cast<std::size_t>(geom.setOf(block)) *
                    geom.assoc()];
}

Entry *
CacheArray::find(BlockId block)
{
    Entry *base = setBase(block);
    for (unsigned w = 0; w < geom.assoc(); ++w) {
        if (base[w].occupied && base[w].block == block)
            return &base[w];
    }
    return nullptr;
}

const Entry *
CacheArray::find(BlockId block) const
{
    return const_cast<CacheArray *>(this)->find(block);
}

Entry *
CacheArray::pickVictim(BlockId block)
{
    Entry *base = setBase(block);
    Entry *lru = &base[0];
    for (unsigned w = 0; w < geom.assoc(); ++w) {
        Entry &e = base[w];
        if (!e.occupied)
            return &e;
        if (e.lastUse < lru->lastUse)
            lru = &e;
    }
    return lru;
}

Entry *
CacheArray::pickVictimFiltered(
    BlockId block,
    const std::function<bool(const Entry &)> &usable)
{
    Entry *base = setBase(block);
    Entry *lru = nullptr;
    for (unsigned w = 0; w < geom.assoc(); ++w) {
        Entry &e = base[w];
        if (!e.occupied)
            return &e;
        if (usable && !usable(e))
            continue;
        if (!lru || e.lastUse < lru->lastUse)
            lru = &e;
    }
    return lru;
}

void
CacheArray::install(Entry &entry, BlockId block)
{
    panic_if(entry.occupied, "installing over an occupied entry");
    entry.occupied = true;
    entry.block = block;
    entry.field.reset(numCaches);
    entry.data.assign(geom.blockWords(), 0);
    touch(entry);
}

void
CacheArray::evict(Entry &entry)
{
    entry.occupied = false;
    entry.field.reset(numCaches);
    entry.data.assign(geom.blockWords(), 0);
    entry.lastUse = 0;
}

void
CacheArray::reset()
{
    for (auto &e : entries)
        evict(e);
    useClock = 0;
}

unsigned
CacheArray::occupiedCount() const
{
    unsigned c = 0;
    for (const auto &e : entries)
        if (e.occupied)
            ++c;
    return c;
}

std::vector<const Entry *>
CacheArray::occupiedEntries() const
{
    std::vector<const Entry *> out;
    for (const auto &e : entries)
        if (e.occupied)
            out.push_back(&e);
    return out;
}

} // namespace mscp::cache
