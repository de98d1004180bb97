#include "checker.hh"

#include <map>

#include "proto/concurrent.hh"
#include "sim/logging.hh"

namespace mscp::proto
{

namespace
{

/** All entries for one block gathered across the system. */
struct BlockView
{
    NodeId owner = invalidNode;
    const cache::Entry *ownerEntry = nullptr;
    std::vector<std::pair<NodeId, const cache::Entry *>> holders;
    /** Entries in any owned (writable) state, for I9. */
    unsigned ownedCount = 0;
};

} // anonymous namespace

std::vector<std::string>
checkInvariants(const StenstromProtocol &proto)
{
    SystemView view;
    view.numCaches = proto.numCaches();
    view.cacheArray = [&proto](NodeId c) -> const cache::CacheArray & {
        return proto.cacheArray(c);
    };
    view.memoryModule =
        [&proto](unsigned i) -> const mem::MemoryModule & {
            return proto.memoryModule(i);
        };
    view.homeOf = [&proto](BlockId b) { return proto.homeOf(b); };
    return checkInvariants(view);
}

SystemView
viewOf(const ConcurrentProtocol &proto)
{
    SystemView view;
    view.numCaches = proto.numCaches();
    view.cacheArray = [&proto](NodeId c) -> const cache::CacheArray & {
        return proto.cacheArray(c);
    };
    view.memoryModule =
        [&proto](unsigned i) -> const mem::MemoryModule & {
            return proto.memoryModule(i);
        };
    view.homeOf = [&proto](BlockId b) { return proto.homeOf(b); };
    view.isLive = [&proto](NodeId c) { return proto.isLive(c); };
    view.isQuiescent = [&proto] { return proto.isQuiescent(); };
    return view;
}

std::vector<std::string>
checkInvariants(const SystemView &proto)
{
    using cache::State;
    using cache::Mode;

    std::vector<std::string> errs;
    auto fail = [&](const std::string &s) { errs.push_back(s); };

    // The invariants describe quiescent states only: mid-transaction
    // a block legitimately passes through configurations I1-I8
    // forbid. Report that as its own distinguishable condition
    // rather than a pile of spurious violations.
    if (proto.isQuiescent && !proto.isQuiescent()) {
        fail("NQ: system is not quiescent; invariants are only "
             "defined with no transactions in flight");
        return errs;
    }

    auto live = [&](NodeId c) {
        return !proto.isLive || proto.isLive(c);
    };

    unsigned n = proto.numCaches;
    std::map<BlockId, BlockView> blocks;

    for (unsigned c = 0; c < n; ++c) {
        if (!live(c)) {
            // A crashed cache has no state by definition.
            unsigned occ = proto.cacheArray(c).occupiedCount();
            if (occ) {
                fail(csprintf("I8: dead cache %u still holds %u "
                              "entries", c, occ));
            }
            continue;
        }
        for (const cache::Entry *e :
                 proto.cacheArray(c).occupiedEntries()) {
            if (e->field.state == cache::State::Invalid &&
                e->field.owner != invalidNode &&
                !live(e->field.owner)) {
                fail(csprintf("I8: cache %u pointer for block %llu "
                              "names dead owner %u", c,
                              (unsigned long long)e->block,
                              e->field.owner));
            }
            BlockView &bv = blocks[e->block];
            bv.holders.emplace_back(c, e);
            if (cache::isOwned(e->field.state)) {
                ++bv.ownedCount;
                if (bv.owner != invalidNode) {
                    fail(csprintf("I1: block %llu owned by both %u "
                                  "and %u",
                                  (unsigned long long)e->block,
                                  bv.owner, c));
                }
                bv.owner = c;
                bv.ownerEntry = e;
            }
        }
    }

    for (const auto &[blk, bv] : blocks) {
        NodeId home = proto.homeOf(blk);
        NodeId bs_owner =
            proto.memoryModule(home).blockStore().owner(blk);

        if (bv.owner == invalidNode) {
            fail(csprintf("I7: block %llu has %zu holder(s) but no "
                          "owner", (unsigned long long)blk,
                          bv.holders.size()));
            continue;
        }
        if (bs_owner != bv.owner) {
            fail(csprintf("I1: block %llu owner is cache %u but "
                          "block store says %u",
                          (unsigned long long)blk, bv.owner,
                          bs_owner));
        }

        const cache::Entry &oe = *bv.ownerEntry;
        Mode mode = cache::modeOf(oe.field.state);

        // Present vector must be {owner} + holders.
        if (!oe.field.present.test(bv.owner)) {
            fail(csprintf("I4: block %llu owner %u missing own "
                          "present flag", (unsigned long long)blk,
                          bv.owner));
        }
        std::size_t expected_present = 0;
        for (const auto &[c, e] : bv.holders) {
            ++expected_present;
            if (c == bv.owner)
                continue;
            if (!oe.field.present.test(c)) {
                fail(csprintf("I4: block %llu holder %u not in "
                              "present vector",
                              (unsigned long long)blk, c));
            }
            switch (e->field.state) {
              case State::UnOwned:
                if (mode != Mode::DistributedWrite) {
                    fail(csprintf("I2: block %llu has UnOwned copy "
                                  "at %u while owner mode is "
                                  "global-read",
                                  (unsigned long long)blk, c));
                }
                if (e->data != oe.data) {
                    fail(csprintf("I2: block %llu copy at %u "
                                  "diverges from owner data",
                                  (unsigned long long)blk, c));
                }
                break;
              case State::Invalid:
                if (mode != Mode::GlobalRead) {
                    fail(csprintf("I3: block %llu has pointer entry "
                                  "at %u while owner mode is "
                                  "distributed-write",
                                  (unsigned long long)blk, c));
                }
                if (e->field.owner != bv.owner) {
                    fail(csprintf("I3: block %llu pointer at %u "
                                  "names %u, owner is %u",
                                  (unsigned long long)blk, c,
                                  e->field.owner, bv.owner));
                }
                break;
              default:
                fail(csprintf("I1: block %llu non-owner %u in "
                              "state %s", (unsigned long long)blk,
                              c, cache::stateName(e->field.state)));
            }
        }
        if (oe.field.present.count() != expected_present) {
            fail(csprintf("I4: block %llu present count %zu != "
                          "holder count %zu",
                          (unsigned long long)blk,
                          oe.field.present.count(),
                          expected_present));
        }

        if (cache::isOwnedExclusive(oe.field.state) &&
            bv.holders.size() != 1) {
            fail(csprintf("I5: block %llu owner %u is exclusive but "
                          "%zu entries exist",
                          (unsigned long long)blk, bv.owner,
                          bv.holders.size()));
        }

        if (!oe.field.modified) {
            auto mem = proto.memoryModule(home).readBlock(blk);
            if (mem != oe.data) {
                fail(csprintf("I6: block %llu unmodified owner copy "
                              "differs from memory",
                              (unsigned long long)blk));
            }
        }

        // I9: single writer. Only an owned state is writable, so
        // SWMR holds exactly when at most one entry is owned.
        if (bv.ownedCount > 1) {
            fail(csprintf("I9: block %llu held writable by %u "
                          "caches (SWMR violated)",
                          (unsigned long long)blk, bv.ownedCount));
        }

        // I10: the owner's copy carries the latest completed write
        // of every word (non-owner copies equal it via I2, and GR
        // mode has no other valid copies).
        if (proto.expectedWord) {
            Addr base = static_cast<Addr>(blk) * oe.data.size();
            for (std::size_t off = 0; off < oe.data.size(); ++off) {
                std::uint64_t want = 0;
                if (!proto.expectedWord(base + off, want))
                    continue;
                if (oe.data[off] != want) {
                    fail(csprintf(
                        "I10: block %llu word %zu: owner %u holds "
                        "%llu, latest completed write is %llu",
                        (unsigned long long)blk, off, bv.owner,
                        (unsigned long long)oe.data[off],
                        (unsigned long long)want));
                }
            }
        }
    }

    // I10 for blocks with no cached copy: memory is the only copy
    // and must hold the latest completed value of every word.
    if (proto.expectedWord && proto.numBlocks) {
        for (BlockId blk = 0; blk < proto.numBlocks; ++blk) {
            if (blocks.count(blk))
                continue;
            NodeId home = proto.homeOf(blk);
            auto mem = proto.memoryModule(home).readBlock(blk);
            Addr base = static_cast<Addr>(blk) * mem.size();
            for (std::size_t off = 0; off < mem.size(); ++off) {
                std::uint64_t want = 0;
                if (!proto.expectedWord(base + off, want))
                    continue;
                if (mem[off] != want) {
                    fail(csprintf(
                        "I10: block %llu word %zu: uncached, memory "
                        "holds %llu, latest completed write is %llu",
                        (unsigned long long)blk, off,
                        (unsigned long long)mem[off],
                        (unsigned long long)want));
                }
            }
        }
    }

    // I8: no block store may name a dead owner. (Blocks whose dead
    // owner still has live holders were already flagged above; this
    // also catches fully orphaned registrations with no cached copy
    // left anywhere.)
    if (proto.isLive) {
        unsigned nm = proto.numModules ? proto.numModules : n;
        for (unsigned c = 0; c < n; ++c) {
            if (live(c))
                continue;
            for (unsigned m = 0; m < nm; ++m) {
                for (BlockId blk :
                         proto.memoryModule(m).blockStore()
                             .ownedBy(c)) {
                    // An engine keeping every module's blocks in
                    // one store returns it for each m: report each
                    // block under its own home only.
                    if (proto.homeOf(blk) != m)
                        continue;
                    fail(csprintf("I8: block store of module %u "
                                  "names dead owner %u for block "
                                  "%llu", m, c,
                                  (unsigned long long)blk));
                }
            }
        }
    }

    return errs;
}

} // namespace mscp::proto
