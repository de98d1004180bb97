#include "block_state.hh"

#include "sim/logging.hh"

namespace mscp::cache
{

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::DistributedWrite: return "distributed-write";
      case Mode::GlobalRead: return "global-read";
    }
    return "unknown";
}

const char *
stateName(State s)
{
    switch (s) {
      case State::Invalid: return "Invalid";
      case State::UnOwned: return "UnOwned";
      case State::OwnedExclDW: return "OwnedExclDW";
      case State::OwnedExclGR: return "OwnedExclGR";
      case State::OwnedNonExclDW: return "OwnedNonExclDW";
      case State::OwnedNonExclGR: return "OwnedNonExclGR";
    }
    return "unknown";
}

unsigned
StateField::encodeBits() const
{
    // Bit 0: V, bit 1: O, bit 2: M, bit 3: DW (Table 1).
    unsigned bits = 0;
    if (isValid(state))
        bits |= 1u;
    if (isOwned(state))
        bits |= 2u;
    if (modified)
        bits |= 4u;
    if (isOwned(state) && modeOf(state) == Mode::DistributedWrite)
        bits |= 8u;
    return bits;
}

std::string
StateField::toString() const
{
    std::string s = stateName(state);
    if (modified)
        s += " M";
    if (isOwned(state)) {
        s += " P={";
        bool first = true;
        for (std::size_t i = present.findFirst(); i < present.size();
             i = present.findNext(i)) {
            if (!first)
                s += ",";
            s += std::to_string(i);
            first = false;
        }
        s += "}";
    }
    if (state == State::Invalid && owner != invalidNode)
        s += csprintf(" OWNER=%u", owner);
    return s;
}

} // namespace mscp::cache
