#include "ift/governor.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/trace.hh"

#ifdef __linux__
#include <unistd.h>
#endif

namespace glifs
{

namespace
{

/** Set from signal handlers: plain lock-free atomic, no allocation. */
std::atomic<bool> g_stopRequested{false};

/** Sample RSS only every this many polls (it is a file read). */
constexpr uint64_t kRssSampleInterval = 512;

/** Check the heartbeat clock only every this many polls. */
constexpr uint64_t kHeartbeatCheckInterval = 64;

/** Budget counters (docs/OBSERVABILITY.md). */
struct GovernorStats
{
    stats::Scalar polls{"governor.polls", "per-cycle budget polls"};
    stats::Scalar hardEvents{"governor.hard_events",
                             "budget exhaustions"};
    stats::Scalar heartbeats{"governor.heartbeats",
                             "progress heartbeats fired"};
    stats::Gauge rssBytes{"governor.rss_bytes",
                          "sampled resident set size"};
};

GovernorStats &
govStats()
{
    static GovernorStats s;
    return s;
}

} // namespace

const char *
resourceKindName(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::Cycles: return "cycles";
      case ResourceKind::WallClock: return "wall-clock";
      case ResourceKind::BranchFanout: return "branch-fanout";
      case ResourceKind::TrackedStates: return "tracked-states";
      case ResourceKind::Memory: return "memory";
      case ResourceKind::Interrupt: return "interrupt";
    }
    return "?";
}

const char *
degradeLevelName(DegradeLevel level)
{
    switch (level) {
      case DegradeLevel::None: return "none";
      case DegradeLevel::StarLogicPath: return "star-logic-path";
      case DegradeLevel::PartialStop: return "partial-stop";
    }
    return "?";
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Secure: return "secure";
      case Verdict::Violations: return "violations";
      case Verdict::UnknownDegraded: return "unknown-degraded";
    }
    return "?";
}

std::string
Degradation::str() const
{
    std::string s = degradeLevelName(level);
    s += " (";
    s += resourceKindName(trigger);
    s += ") at cycle ";
    s += std::to_string(cycle);
    s += " instr ";
    s += hex16(instrAddr);
    if (!detail.empty()) {
        s += ": ";
        s += detail;
    }
    return s;
}

ResourceGovernor::ResourceGovernor(const ResourceBudgets &b)
    : budgets(b), start(std::chrono::steady_clock::now())
{
}

double
ResourceGovernor::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

size_t
ResourceGovernor::currentRssBytes()
{
#ifdef __linux__
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long size = 0;
    unsigned long resident = 0;
    int n = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    long page = sysconf(_SC_PAGESIZE);
    return resident * static_cast<size_t>(page > 0 ? page : 4096);
#else
    return 0;
#endif
}

void
ResourceGovernor::requestGlobalStop()
{
    g_stopRequested.store(true, std::memory_order_relaxed);
}

bool
ResourceGovernor::globalStopRequested()
{
    return g_stopRequested.load(std::memory_order_relaxed);
}

void
ResourceGovernor::clearGlobalStop()
{
    g_stopRequested.store(false, std::memory_order_relaxed);
}

std::optional<BudgetEvent>
ResourceGovernor::exhaustion()
{
    if (globalStopRequested())
        return BudgetEvent{ResourceKind::Interrupt,
                           "external stop requested"};
    if (budgets.hardCycles && cycleCount >= budgets.hardCycles) {
        return BudgetEvent{ResourceKind::Cycles,
                           std::to_string(cycleCount) +
                               " simulated cycles"};
    }
    if (budgets.hardSeconds > 0 &&
        elapsedSeconds() >= budgets.hardSeconds) {
        return BudgetEvent{ResourceKind::WallClock,
                           "deadline of " +
                               std::to_string(budgets.hardSeconds) +
                               "s expired"};
    }
    if (budgets.hardStates && stateCount >= budgets.hardStates) {
        return BudgetEvent{ResourceKind::TrackedStates,
                           std::to_string(stateCount) +
                               " tracked states"};
    }
    if (budgets.hardRssBytes && sampledRss >= budgets.hardRssBytes) {
        return BudgetEvent{ResourceKind::Memory,
                           std::to_string(sampledRss >> 20) +
                               " MiB resident"};
    }
    return std::nullopt;
}

void
ResourceGovernor::setHeartbeat(double periodSeconds, ProgressFn fn)
{
    heartbeatPeriod = periodSeconds;
    nextHeartbeat = periodSeconds;
    heartbeatFn = std::move(fn);
}

GovernorProgress
ResourceGovernor::progress()
{
    GovernorProgress p;
    p.cycles = cycleCount;
    p.elapsedSeconds = elapsedSeconds();
    p.cyclesPerSec = p.elapsedSeconds > 0
                         ? static_cast<double>(cycleCount) /
                               p.elapsedSeconds
                         : 0;
    p.frontier = frontierCount;
    p.states = stateCount;
    if (sampledRss == 0)
        sampledRss = currentRssBytes();
    p.rssBytes = sampledRss;

    double used = 0;
    if (budgets.hardCycles) {
        used = std::max(used, static_cast<double>(cycleCount) /
                                  budgets.hardCycles);
    }
    if (budgets.hardSeconds > 0)
        used = std::max(used, p.elapsedSeconds / budgets.hardSeconds);
    if (budgets.hardStates) {
        used = std::max(used, static_cast<double>(stateCount) /
                                  budgets.hardStates);
    }
    if (budgets.hardRssBytes && sampledRss) {
        used = std::max(used, static_cast<double>(sampledRss) /
                                  budgets.hardRssBytes);
    }
    p.budgetUsed = std::min(used, 1.0);
    return p;
}

void
ResourceGovernor::maybeHeartbeat()
{
    if (heartbeatPeriod <= 0 || !heartbeatFn)
        return;
    if (pollCount % kHeartbeatCheckInterval != 0)
        return;
    const double t = elapsedSeconds();
    if (t < nextHeartbeat)
        return;
    nextHeartbeat = t + heartbeatPeriod;
    ++govStats().heartbeats;
    GovernorProgress p = progress();
    trace::Tracer &tr = trace::Tracer::instance();
    if (tr.enabled()) {
        tr.counter("governor", "frontier",
                   static_cast<double>(p.frontier));
        tr.counter("governor", "states",
                   static_cast<double>(p.states));
        tr.counter("governor", "cycles_per_sec", p.cyclesPerSec);
    }
    heartbeatFn(p);
}

std::optional<BudgetEvent>
ResourceGovernor::poll()
{
    maybeHeartbeat();
    if (fired)
        return std::nullopt;
    ++pollCount;
    ++govStats().polls;
    if ((budgets.hardRssBytes || heartbeatPeriod > 0) &&
        pollCount % kRssSampleInterval == 1) {
        sampledRss = currentRssBytes();
        govStats().rssBytes.set(static_cast<double>(sampledRss));
    }
    std::optional<BudgetEvent> ev = exhaustion();
    if (!ev)
        return std::nullopt;
    fired = true;
    ++govStats().hardEvents;
    GLIFS_TRACE_INSTANT_ARGS("governor", "hard_budget",
                             add("kind", resourceKindName(ev->kind))
                                 .add("detail", ev->detail));
    return ev;
}

} // namespace glifs
