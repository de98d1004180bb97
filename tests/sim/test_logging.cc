/** @file Unit tests for logging, debug flags and error paths. */

#include <gtest/gtest.h>

#include "sim/logging.hh"

using namespace mscp;

TEST(Csprintf, FormatsLikePrintf)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 7, "ok"), "x=7 y=ok");
    EXPECT_EQ(csprintf("%05u", 42u), "00042");
    EXPECT_EQ(csprintf("plain"), "plain");
}

TEST(Panic, ThrowsWithLocationAndMessage)
{
    try {
        panic("boom %d", 3);
        FAIL() << "panic returned";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("boom 3"), std::string::npos);
        EXPECT_NE(what.find("test_logging.cc"),
                  std::string::npos);
    }
}

TEST(Fatal, ThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST(PanicIf, FiresOnlyWhenConditionHolds)
{
    EXPECT_NO_THROW(panic_if(false, "no"));
    EXPECT_THROW(panic_if(true, "yes"), PanicError);
    EXPECT_NO_THROW(fatal_if(false, "no"));
    EXPECT_THROW(fatal_if(true, "yes"), FatalError);
}

TEST(DebugFlags, EnableDisable)
{
    debug::clear();
    EXPECT_FALSE(debug::enabled("Coherence"));
    debug::enable("Coherence");
    EXPECT_TRUE(debug::enabled("Coherence"));
    EXPECT_FALSE(debug::enabled("Network"));
    debug::disable("Coherence");
    EXPECT_FALSE(debug::enabled("Coherence"));
}

TEST(DebugFlags, AllEnablesEverything)
{
    debug::clear();
    debug::enable("All");
    EXPECT_TRUE(debug::enabled("Anything"));
    debug::clear();
    EXPECT_FALSE(debug::enabled("Anything"));
}

TEST(LogLevel, ParseAcceptsNamesAndNumbers)
{
    using mscp::LogLevel;
    EXPECT_EQ(parseLogLevel("silent", LogLevel::Info),
              LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("error", LogLevel::Info),
              LogLevel::Error);
    EXPECT_EQ(parseLogLevel("warn", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning", LogLevel::Info),
              LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info", LogLevel::Silent),
              LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug", LogLevel::Info),
              LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("2", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("bogus", LogLevel::Warn),
              LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("", LogLevel::Error), LogLevel::Error);
}

TEST(LogLevel, RuntimeSetAndGetRoundTrips)
{
    using mscp::LogLevel;
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    // Suppressed warn/inform must not throw or print; panic/fatal
    // stay fatal at every level.
    warn("suppressed warning %d", 1);
    inform("suppressed inform");
    EXPECT_THROW(panic("still fatal"), PanicError);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(before);
    EXPECT_EQ(logLevel(), before);
}
