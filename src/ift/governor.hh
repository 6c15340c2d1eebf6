/**
 * @file
 * Resource governance and graceful degradation for the symbolic
 * taint-tracking engine.
 *
 * The paper's analysis must conservatively cover *all* executions, and
 * on real workloads the exploration can blow past any cycle, time or
 * memory budget. A production verification service must degrade
 * soundly instead of aborting: an exhausted budget stops the run,
 * which snapshots its frontier and returns a structured partial
 * result. A budget never changes how the run explores, so resuming
 * the snapshot reproduces the run that was never stopped. The
 * three-valued verdict makes the degraded outcome a first-class
 * answer: "Unknown-degraded" still soundly means "not verified
 * secure".
 */

#ifndef GLIFS_IFT_GOVERNOR_HH
#define GLIFS_IFT_GOVERNOR_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace glifs
{

/** The resource dimensions the governor watches (failure taxonomy). */
enum class ResourceKind : uint8_t
{
    Cycles,        ///< total simulated cycles across all paths
    WallClock,     ///< wall-clock analysis deadline
    BranchFanout,  ///< unknown-PC enumeration width at one branch
    TrackedStates, ///< distinct entries in the conservative state table
    Memory,        ///< approximate resident set size
    Interrupt,     ///< external stop request (signal / operator)
};

/** Printable name of a resource kind. */
const char *resourceKindName(ResourceKind kind);

/** One budget exhaustion reported by ResourceGovernor::poll(). */
struct BudgetEvent
{
    ResourceKind kind;
    std::string detail;
};

/**
 * Per-dimension budgets; a value of 0 disables that budget. The
 * engine's EngineConfig::maxCycles is folded in as the cycle budget.
 */
struct ResourceBudgets
{
    uint64_t hardCycles = 0;
    double hardSeconds = 0.0;
    size_t hardStates = 0;
    size_t hardRssBytes = 0;
};

/**
 * One liveness heartbeat fired from the governor's per-cycle poll
 * point (the same clock that services budget checks and SIGINT-safe
 * stop requests, so a heartbeat always proves the stop path is live).
 */
struct GovernorProgress
{
    uint64_t cycles = 0;       ///< simulated cycles so far
    double elapsedSeconds = 0; ///< wall time since the run started
    double cyclesPerSec = 0;   ///< overall simulation rate
    size_t frontier = 0;       ///< pending execution points
    size_t states = 0;         ///< conservative state-table entries
    size_t rssBytes = 0;       ///< sampled resident set size
    /** Fraction (0..1) of the tightest configured budget already
     *  spent; 0 when no budget is configured. */
    double budgetUsed = 0;
};

/**
 * Watches the budgets during one engine run. The engine charges
 * simulated cycles and reports the state-table size as it goes; poll()
 * is called once per simulated cycle and reports the first exhaustion
 * once (it ends the run).
 */
class ResourceGovernor
{
  public:
    using ProgressFn = std::function<void(const GovernorProgress &)>;

    explicit ResourceGovernor(const ResourceBudgets &budgets);

    void chargeCycles(uint64_t n) { cycleCount += n; }
    void noteStates(size_t n) { stateCount = n; }
    void noteFrontier(size_t n) { frontierCount = n; }

    uint64_t cycles() const { return cycleCount; }
    double elapsedSeconds() const;

    /**
     * Fire @p fn from poll() roughly every @p periodSeconds. The
     * heartbeat and the stop/budget checks share the poll clock: a run
     * that heartbeats is provably still reaching its stop point.
     */
    void setHeartbeat(double periodSeconds, ProgressFn fn);

    /** Snapshot of the run's progress (also used by heartbeats). */
    GovernorProgress progress();

    /** Check every dimension; returns the first exhaustion, once. */
    std::optional<BudgetEvent> poll();

    /**
     * Approximate resident set size of this process (Linux
     * /proc/self/statm; 0 where unavailable). Sampled sparsely by
     * poll() because it is a syscall.
     */
    static size_t currentRssBytes();

    /**
     * Async-signal-safe external stop request: the next poll() on any
     * governor reports an Interrupt event. Wired to SIGINT/SIGTERM
     * by glifs_audit so a killed run still writes its checkpoint.
     */
    static void requestGlobalStop();
    static bool globalStopRequested();
    static void clearGlobalStop();

  private:
    ResourceBudgets budgets;
    std::chrono::steady_clock::time_point start;
    uint64_t cycleCount = 0;
    size_t stateCount = 0;
    size_t frontierCount = 0;
    uint64_t pollCount = 0;
    size_t sampledRss = 0;
    bool fired = false;

    double heartbeatPeriod = 0;
    double nextHeartbeat = 0;
    ProgressFn heartbeatFn;

    std::optional<BudgetEvent> exhaustion();
    void maybeHeartbeat();
};

/**
 * Rungs of the degradation ladder. Both leave part of the execution
 * space unverified, so a degraded run can never be called Secure.
 * Neither changes how the rest of the run explores. Value 1 is
 * reserved: it named a retired rung.
 */
enum class DegradeLevel : uint8_t
{
    None = 0,
    /** The offending path was saturated to tainted-X (*-logic,
     *  footnote 8) and terminated; coverage is conservative there. */
    StarLogicPath = 2,
    /** A budget ran out: exploration stopped with a live frontier. */
    PartialStop = 3,
};

/** Printable name of a ladder rung. */
const char *degradeLevelName(DegradeLevel level);

/** One recorded degradation. */
struct Degradation
{
    DegradeLevel level = DegradeLevel::None;
    ResourceKind trigger = ResourceKind::Cycles;
    uint64_t cycle = 0;      ///< total simulated cycles at degradation
    uint16_t instrAddr = 0;  ///< instruction being executed (if known)
    std::string detail;

    std::string str() const;
};

/** Three-valued analysis verdict (replaces the boolean secure bit). */
enum class Verdict : uint8_t
{
    Secure,          ///< converged, precise, no uncontained violation
    Violations,      ///< violations found (sound: fix and re-verify)
    UnknownDegraded, ///< not verified secure: degraded or incomplete
};

/** Printable name of a verdict. */
const char *verdictName(Verdict v);

} // namespace glifs

#endif // GLIFS_IFT_GOVERNOR_HH
