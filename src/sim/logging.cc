#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <vector>

namespace mscp
{

std::string
vcsprintf(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vcsprintf(fmt, args);
    va_end(args);
    return s;
}

namespace
{

/** Parse MSCP_LOG once, before main(); default keeps the historical
 *  behavior (warn and inform both print). */
LogLevel
initialLogLevel()
{
    if (const char *env = std::getenv("MSCP_LOG"))
        return parseLogLevel(env, LogLevel::Info);
    return LogLevel::Info;
}

std::atomic<LogLevel> currentLevel{initialLogLevel()};

} // anonymous namespace

void
setLogLevel(LogLevel lvl)
{
    currentLevel = lvl;
}

LogLevel
logLevel()
{
    return currentLevel;
}

LogLevel
parseLogLevel(const std::string &name, LogLevel fallback)
{
    if (name == "silent" || name == "0")
        return LogLevel::Silent;
    if (name == "error" || name == "1")
        return LogLevel::Error;
    if (name == "warn" || name == "warning" || name == "2")
        return LogLevel::Warn;
    if (name == "info" || name == "3")
        return LogLevel::Info;
    if (name == "debug" || name == "4")
        return LogLevel::Debug;
    return fallback;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    throw PanicError{csprintf("panic: %s (%s:%d)", msg.c_str(), file,
                              line)};
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    throw FatalError{csprintf("fatal: %s (%s:%d)", msg.c_str(), file,
                              line)};
}

void
warnImpl(const char *fmt, ...)
{
    if (currentLevel < LogLevel::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const char *fmt, ...)
{
    if (currentLevel < LogLevel::Info)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

namespace debug
{

bool anyEnabled = false;

namespace
{

std::set<std::string> &
flagSet()
{
    static std::set<std::string> flags = [] {
        std::set<std::string> init;
        if (const char *env = std::getenv("MSCP_DEBUG")) {
            const char *p = env;
            while (*p) {
                const char *comma = std::strchr(p, ',');
                std::size_t len = comma ? static_cast<std::size_t>(
                    comma - p) : std::strlen(p);
                if (len > 0)
                    init.emplace(p, len);
                p += len;
                if (*p == ',')
                    ++p;
            }
        }
        anyEnabled = !init.empty();
        return init;
    }();
    return flags;
}

/** Parse MSCP_DEBUG (and set anyEnabled) before main() runs. */
[[maybe_unused]] const bool flagsInitialized = (flagSet(), true);

} // anonymous namespace

void
enable(const std::string &flag)
{
    flagSet().insert(flag);
    anyEnabled = true;
}

void
disable(const std::string &flag)
{
    flagSet().erase(flag);
    anyEnabled = !flagSet().empty();
}

bool
enabled(const std::string &flag)
{
    const auto &flags = flagSet();
    return flags.count(flag) > 0 || flags.count("All") > 0;
}

void
clear()
{
    flagSet().clear();
    anyEnabled = false;
}

} // namespace debug

void
dprintfImpl(const char *flag, const char *fmt, ...)
{
    if (!debug::enabled(flag))
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "%s: %s\n", flag, msg.c_str());
}

} // namespace mscp
