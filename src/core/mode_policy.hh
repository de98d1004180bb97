/**
 * @file
 * Per-block operating-mode policies (paper Sec. 5).
 *
 * The paper sketches a counter-based mechanism: "one counter counts
 * all memory references to a block, and the other all reads"; with
 * the present-flag popcount giving n, the threshold w1 = 2/(n+2)
 * selects the cheaper mode. AdaptiveModePolicy implements exactly
 * that over a sliding window; the static policies pin every block
 * to one mode (the ablation baselines).
 */

#ifndef MSCP_CORE_MODE_POLICY_HH
#define MSCP_CORE_MODE_POLICY_HH

#include <memory>
#include <string>

#include "proto/stenstrom.hh"
#include "sim/flat.hh"
#include "workload/ref_stream.hh"

namespace mscp::core
{

/** Interface of a mode policy driven after every reference. */
class ModePolicy
{
  public:
    virtual ~ModePolicy() = default;

    /** Called after the engine completed @p ref. */
    virtual void afterRef(proto::StenstromProtocol &proto,
                          const workload::MemRef &ref) = 0;

    virtual std::string policyName() const = 0;

    /** Number of setMode operations this policy issued. */
    std::uint64_t switchesIssued() const { return switches; }

  protected:
    /** Switch @p addr to @p mode (issued by the current owner). */
    void switchMode(proto::StenstromProtocol &proto, Addr addr,
                    cache::Mode mode);

    std::uint64_t switches = 0;
};

/** Leave every block in whatever mode the engine gives it. */
class EngineDefaultPolicy : public ModePolicy
{
  public:
    void
    afterRef(proto::StenstromProtocol &, const workload::MemRef &)
        override
    {}

    std::string policyName() const override { return "default"; }
};

/** Pin every block to one fixed mode. */
class StaticModePolicy : public ModePolicy
{
  public:
    explicit StaticModePolicy(cache::Mode mode) : target(mode) {}

    void afterRef(proto::StenstromProtocol &proto,
                  const workload::MemRef &ref) override;

    std::string
    policyName() const override
    {
        return std::string("static-") + cache::modeName(target);
    }

  private:
    cache::Mode target;
};

/** The counter-based adaptive policy of Sec. 5. */
class AdaptiveModePolicy : public ModePolicy
{
  public:
    /**
     * @param window_refs references per block between decisions
     */
    explicit AdaptiveModePolicy(std::uint64_t window_refs = 32)
        : window(window_refs)
    {}

    void afterRef(proto::StenstromProtocol &proto,
                  const workload::MemRef &ref) override;

    std::string policyName() const override { return "adaptive"; }

    /** Decisions taken (windows completed). */
    std::uint64_t decisions() const { return _decisions; }

  private:
    struct BlockCounters
    {
        std::uint64_t refs = 0;   ///< references this window
        std::uint64_t writes = 0; ///< writes this window
    };

    std::uint64_t window;
    std::uint64_t _decisions = 0;
    FlatMap<BlockId, BlockCounters> counters;
};

} // namespace mscp::core

#endif // MSCP_CORE_MODE_POLICY_HH
