/**
 * @file
 * Unit tests for the binary ring-buffer event tracer: capacity
 * rounding, wraparound and overflow accounting, enable gating, the
 * allocation-free disabled tracer, and the Chrome trace_event
 * exporter (golden output, JSON validity and the matched begin/end
 * pair guarantee).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "sim/trace.hh"

#include "json_checker.hh"

using namespace mscp;
using mscp::test::JsonChecker;
using mscp::test::countOccurrences;

// Every allocation in this binary goes through this counter, so a
// test can assert that a stretch of tracer work allocated nothing.
// The replacements stay out of line: inlined into a container's
// destructor, their free() would meet a pointer GCC knows came from
// operator new, and -Wmismatched-new-delete would fire.
namespace
{
std::size_t allocations = 0;
} // anonymous namespace

[[gnu::noinline]] void *
operator new(std::size_t sz)
{
    ++allocations;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

TraceRecord
rec(TraceEvent kind, Tick tick, std::uint16_t node,
    std::uint16_t node2, std::uint8_t cls, std::uint64_t seq,
    std::uint64_t arg)
{
    TraceRecord r{};
    r.tick = tick;
    r.seq = seq;
    r.arg = arg;
    r.node = node;
    r.node2 = node2;
    r.kind = static_cast<std::uint8_t>(kind);
    r.cls = cls;
    return r;
}

} // anonymous namespace

TEST(Trace, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(Tracer(0).capacity(), 16u);
    EXPECT_EQ(Tracer(16).capacity(), 16u);
    EXPECT_EQ(Tracer(17).capacity(), 32u);
    EXPECT_EQ(Tracer(4096).capacity(), 4096u);
}

TEST(Trace, RecordingIsNoOpWhileDisabled)
{
    Tracer t(16);
    t.record(TraceEvent::Issue, 1, 0, 0, 0, 1, 0);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.enabled());
}

TEST(Trace, DisabledTracerAllocatesNothing)
{
    const std::size_t before = allocations;
    {
        Tracer t(4096);
        t.record(TraceEvent::Issue, 1, 0, 0, 0, 1, 0);
        EXPECT_EQ(t.capacity(), 4096u);
        EXPECT_EQ(t.size(), 0u);
        t.forEach([](const TraceRecord &) { ADD_FAILURE(); });
        t.setEnabled(false);
    }
    EXPECT_EQ(allocations - before, 0u);
}

TEST(Trace, FirstEnableAllocatesTheRing)
{
    Tracer t(4096);
    t.setEnabled(true);
    t.setOverflowWarn(false);
    for (std::uint64_t i = 0; i < 4100; ++i)
        t.record(TraceEvent::Send, i, 1, 2, 3, i, i * 10);
    EXPECT_EQ(t.capacity(), 4096u);
    EXPECT_EQ(t.recorded(), 4100u);
    EXPECT_EQ(t.dropped(), 4u);
    EXPECT_EQ(t.size(), 4096u);
    std::vector<std::uint64_t> seqs;
    t.forEach([&](const TraceRecord &r) { seqs.push_back(r.seq); });
    ASSERT_EQ(seqs.size(), 4096u);
    EXPECT_EQ(seqs.front(), 4u);
    EXPECT_EQ(seqs.back(), 4099u);

    // Re-enabling keeps the ring and its records.
    const std::size_t before = allocations;
    t.setEnabled(false);
    t.setEnabled(true);
    EXPECT_EQ(allocations - before, 0u);
    EXPECT_EQ(t.size(), 4096u);
    EXPECT_EQ(t.snapshot().back().arg, 40990u);
}

TEST(Trace, EnabledFollowsRuntimeSwitch)
{
    Tracer t(16);
    EXPECT_FALSE(t.enabled());
    t.setEnabled(true);
    EXPECT_TRUE(t.enabled());
    t.setEnabled(false);
    EXPECT_FALSE(t.enabled());
}

TEST(Trace, RingWraparoundKeepsNewestRecords)
{
    Tracer t(16);
    t.setEnabled(true);
    for (std::uint64_t i = 0; i < 40; ++i)
        t.record(TraceEvent::Send, i, 1, 2, 3, i, i * 10);

    EXPECT_EQ(t.recorded(), 40u);
    EXPECT_EQ(t.dropped(), 24u);
    EXPECT_EQ(t.size(), 16u);

    // forEach visits oldest-first: the survivors are seq 24..39.
    std::vector<std::uint64_t> seqs;
    t.forEach([&](const TraceRecord &r) { seqs.push_back(r.seq); });
    ASSERT_EQ(seqs.size(), 16u);
    for (std::size_t i = 0; i < seqs.size(); ++i)
        EXPECT_EQ(seqs[i], 24u + i);

    auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 16u);
    EXPECT_EQ(snap.front().seq, 24u);
    EXPECT_EQ(snap.back().seq, 39u);
    EXPECT_EQ(snap.back().arg, 390u);
}

TEST(Trace, OverflowAccountingAndClear)
{
    Tracer t(16);
    t.setEnabled(true);
    t.setOverflowWarn(false); // quiet-overflow mode still accounts
    for (std::uint64_t i = 0; i < 16; ++i)
        t.record(TraceEvent::Send, i, 0, 0, 0, i, 0);
    EXPECT_EQ(t.dropped(), 0u);
    t.record(TraceEvent::Send, 16, 0, 0, 0, 16, 0);
    EXPECT_EQ(t.dropped(), 1u);
    EXPECT_EQ(t.size(), 16u);

    t.clear();
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.enabled()); // clear keeps the enable state

    t.record(TraceEvent::Send, 99, 0, 0, 0, 7, 0);
    EXPECT_EQ(t.recorded(), 1u);
}

TEST(Trace, ChromeExportGolden)
{
    std::vector<TraceRecord> records{
        rec(TraceEvent::Issue, 10, 0, 0, 1, 1, 5),
        rec(TraceEvent::HomeAccept, 12, 3, 0, 2, 1, 5),
        rec(TraceEvent::Complete, 20, 0, 0, 1, 1, 10),
        rec(TraceEvent::Issue, 30, 1, 1, 0, 2, 7), // orphaned begin
    };
    std::ostringstream os;
    exportChromeTrace(os, records);

    const std::string expected =
        "[\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"name\":\"process_name\","
        "\"args\":{\"name\":\"node 0\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"name\":\"process_name\","
        "\"args\":{\"name\":\"node 1\"}},\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,"
        "\"name\":\"process_name\","
        "\"args\":{\"name\":\"node 3\"}},\n"
        "{\"name\":\"txn 1\",\"cat\":\"txn\",\"ph\":\"b\","
        "\"id\":\"0x1\",\"pid\":0,\"tid\":0,\"ts\":10,"
        "\"args\":{\"blk\":5}},\n"
        "{\"name\":\"home_accept\",\"cat\":\"ev\",\"ph\":\"i\","
        "\"s\":\"t\",\"pid\":3,\"tid\":0,\"ts\":12,"
        "\"args\":{\"node2\":0,\"cls\":2,\"seq\":1,\"arg\":5}},\n"
        "{\"name\":\"txn 1\",\"cat\":\"txn\",\"ph\":\"e\","
        "\"id\":\"0x1\",\"pid\":0,\"tid\":0,\"ts\":20,"
        "\"args\":{\"op\":\"read_miss\",\"latency\":10}},\n"
        "{\"name\":\"issue\",\"cat\":\"ev\",\"ph\":\"i\","
        "\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":30,"
        "\"args\":{\"node2\":1,\"cls\":0,\"seq\":2,\"arg\":7}}\n"
        "]\n";
    EXPECT_EQ(os.str(), expected);
    EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(Trace, ChromeExportIsValidJsonWithMatchedPairs)
{
    // A messy history: interleaved transactions and evictions on
    // several nodes, an end whose begin was overwritten, a begin
    // whose end never arrived, and instants throughout. The export
    // must stay valid JSON with "b"/"e" counts exactly matched.
    std::vector<TraceRecord> records;
    records.push_back(
        rec(TraceEvent::Complete, 5, 9, 9, 1, 77, 3)); // begin lost
    for (std::uint64_t op = 1; op <= 6; ++op) {
        const std::uint16_t node = op % 3;
        records.push_back(
            rec(TraceEvent::Issue, op * 100, node, node, 0, op, op));
        records.push_back(rec(TraceEvent::Send, op * 100 + 1, node,
                              4, 0, op, op));
        if (op % 2 == 0) {
            records.push_back(rec(TraceEvent::EvictStart,
                                  op * 100 + 2, node, 4, 0, op,
                                  40 + op));
            records.push_back(rec(TraceEvent::EvictEnd,
                                  op * 100 + 9, node, 4, 5, op, 7));
        }
        if (op != 6) // op 6's span is left open
            records.push_back(rec(TraceEvent::Complete,
                                  op * 100 + 20, node, node, 1, op,
                                  20));
    }

    std::ostringstream os;
    exportChromeTrace(os, records);
    const std::string out = os.str();

    EXPECT_TRUE(JsonChecker(out).valid()) << out;
    EXPECT_EQ(countOccurrences(out, "\"ph\":\"b\""),
              countOccurrences(out, "\"ph\":\"e\""));
    // 5 matched txn spans + 3 matched evict spans.
    EXPECT_EQ(countOccurrences(out, "\"ph\":\"b\""), 8u);
    // Orphaned begin/end degrade to instants, named by event.
    EXPECT_EQ(countOccurrences(out, "\"name\":\"complete\""), 1u);
    EXPECT_EQ(countOccurrences(out, "\"name\":\"issue\""), 1u);
}

TEST(Trace, ChromeExportOfEmptyTracerIsValid)
{
    Tracer t(16);
    std::ostringstream os;
    exportChromeTrace(os, t);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}
