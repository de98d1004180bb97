#include "system.hh"

#include <iomanip>

#include "sim/logging.hh"

namespace mscp::core
{

const char *
policyKindName(PolicyKind k)
{
    switch (k) {
      case PolicyKind::EngineDefault: return "engine-default";
      case PolicyKind::ForceDW: return "force-dw";
      case PolicyKind::ForceGR: return "force-gr";
      case PolicyKind::Adaptive: return "adaptive";
    }
    return "unknown";
}

System::System(const SystemConfig &config)
    : cfg(config)
{
    fatal_if(!isPowerOfTwo(cfg.numPorts) || cfg.numPorts < 2,
             "system needs a power-of-two port count >= 2");
    net = std::make_unique<net::OmegaNetwork>(cfg.numPorts);

    proto::StenstromParams pp;
    pp.geometry = cfg.geometry;
    pp.multicastScheme = cfg.multicastScheme;
    pp.defaultMode = cfg.defaultMode;
    pp.sizes = cfg.sizes;

    if (cfg.useSchemeRegisters) {
        fatal_if(cfg.clusterSize == 0 ||
                 !isPowerOfTwo(cfg.clusterSize) ||
                 cfg.clusterSize > cfg.numPorts,
                 "scheme registers need a power-of-two cluster size "
                 "<= N");
        // The dominant multicast is the distributed-write update;
        // its wire size is the register's message size M.
        Bits m_bits = cfg.sizes.control() + cfg.sizes.wordBits;
        regs = SchemeRegisters::compute(cfg.numPorts,
                                        cfg.clusterSize, m_bits);
        SchemeRegisters r = regs;
        pp.schemePolicy = [r](unsigned n) { return r.choose(n); };
    }

    proto = std::make_unique<proto::StenstromProtocol>(*net, pp);

    switch (cfg.policy) {
      case PolicyKind::EngineDefault:
        modePolicy = std::make_unique<EngineDefaultPolicy>();
        break;
      case PolicyKind::ForceDW:
        modePolicy = std::make_unique<StaticModePolicy>(
            cache::Mode::DistributedWrite);
        break;
      case PolicyKind::ForceGR:
        modePolicy = std::make_unique<StaticModePolicy>(
            cache::Mode::GlobalRead);
        break;
      case PolicyKind::Adaptive:
        modePolicy = std::make_unique<AdaptiveModePolicy>(
            cfg.adaptWindow);
        break;
    }
}

proto::RunResult
System::run(workload::ReferenceStream &stream)
{
    proto::RunResult res;
    Bits start_bits = net->linkStats().totalBits();
    std::uint64_t start_msgs = proto->messageCounters().totalCount();
    std::uint64_t start_errors = proto->valueErrors();

    workload::MemRef ref;
    while (stream.next(ref)) {
        ++res.refs;
        if (ref.isWrite) {
            ++res.writes;
            proto->write(ref.cpu, ref.addr, ref.value);
        } else {
            ++res.reads;
            proto->read(ref.cpu, ref.addr);
        }
        modePolicy->afterRef(*proto, ref);
    }

    res.networkBits = net->linkStats().totalBits() - start_bits;
    res.messages = proto->messageCounters().totalCount() - start_msgs;
    res.valueErrors = proto->valueErrors() - start_errors;
    return res;
}

void
System::report(std::ostream &os) const
{
    const auto &c = proto->counters();
    const auto &ls = net->linkStats();

    os << "system: N=" << cfg.numPorts
       << " scheme=" << net::schemeName(cfg.multicastScheme)
       << " policy=" << policyKindName(cfg.policy) << "\n";
    os << "refs: " << c.reads << " reads (" << c.readHits
       << " hits), " << c.writes << " writes\n";
    os << "misses: uncached=" << c.readMissUncached
       << " owned-dw=" << c.readMissOwnedDW
       << " owned-gr=" << c.readMissOwnedGR
       << " pointer-gr=" << c.readMissPointerGR << "\n";
    os << "ownership transfers: " << c.ownershipTransfers
       << ", mode switches: " << c.modeSwitches
       << ", dw updates: " << c.dwUpdates
       << ", invalidations: " << c.invalidations << "\n";
    os << "replacements: " << c.replacements
       << " (owned-excl=" << c.replOwnedExcl
       << " owned-nonexcl=" << c.replOwnedNonExcl
       << " unowned=" << c.replUnOwned
       << " invalid=" << c.replInvalid << "), write-backs: "
       << c.writeBacks << "\n";
    const std::uint64_t refs = c.reads + c.writes;
    const double bits_per_ref = refs
        ? static_cast<double>(ls.totalBits()) /
              static_cast<double>(refs)
        : 0.0;
    os << "network: " << ls.totalBits() << " bits over "
       << ls.traversals() << " link traversals ("
       << csprintf("%.1f", bits_per_ref) << " bits/ref, hottest link "
       << ls.maxLinkBits() << " bits); per-level:";
    for (unsigned i = 0; i < ls.numLevels(); ++i)
        os << " " << ls.levelBits(i);
    os << "\n";
}

void
dumpMessageTable(std::ostream &os,
                 const proto::MessageCounters &counters)
{
    os << std::left << std::setw(16) << "message type"
       << std::right << std::setw(12) << "count"
       << std::setw(16) << "bits" << "\n";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(proto::MsgType::NumTypes);
         ++i) {
        if (counters.count[i] == 0)
            continue;
        os << std::left << std::setw(16)
           << proto::msgTypeName(static_cast<proto::MsgType>(i))
           << std::right << std::setw(12) << counters.count[i]
           << std::setw(16) << counters.bits[i] << "\n";
    }
    os << std::left << std::setw(16) << "total"
       << std::right << std::setw(12) << counters.totalCount()
       << std::setw(16) << counters.totalBits() << "\n";
}

} // namespace mscp::core
