/**
 * @file
 * Input-independent gate-level taint tracking (Algorithm 1 of the
 * paper), adapted to the multi-cycle IoT430 core.
 *
 * The engine symbolically simulates the whole netlist cycle by cycle
 * with all port inputs set to unknown (X) values, tainted according to
 * the policy. When the next PC is unknown -- a control-flow instruction
 * whose outcome depends on an X -- the execution tree branches over all
 * possible concrete next-PC values (retaining per-bit taint). At every
 * PC-changing instruction the current state is compared against /
 * merged into the most conservative state previously observed at that
 * instruction, pruning the tree and guaranteeing termination on the
 * finite state lattice. An unknown watchdog expiry similarly forks
 * into fired / not-fired branches so the power-on reset is always
 * simulated with a concrete reset line (preserving the Figure-7
 * untainting semantics).
 *
 * IftEngine::run is the one Algorithm-1 driver. It pops the LIFO
 * frontier, has PathSim::runSegment (ift/path_sim.hh) simulate the
 * popped state to its next commit, and folds each segment into the run
 * in one apply step: taint, violations, POR forks, HALT, the
 * state-table visit, then PC fan-out or continuation.
 */

#ifndef GLIFS_IFT_ENGINE_HH
#define GLIFS_IFT_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assembler/program_image.hh"
#include "ift/checker.hh"
#include "ift/exec_tree.hh"
#include "ift/governor.hh"
#include "ift/policy.hh"
#include "ift/state_table.hh"
#include "ift/symstate.hh"
#include "soc/soc.hh"

namespace glifs
{

struct EngineCheckpoint;

/** Engine knobs. */
struct EngineConfig
{
    /** Total simulated-cycle budget across all paths (folded into
     *  ResourceBudgets::hardCycles; the smaller of the two wins). */
    uint64_t maxCycles = 2'000'000;

    /**
     * Max unknown PC bits enumerated at a branch. Exceeding it is a
     * branch-fanout exhaustion: the offending path is saturated to the
     * *-logic abstraction and terminated (recorded as a degradation),
     * so long runs always produce a report.
     */
    unsigned maxBranchBits = 8;

    /**
     * Resource budgets polled every simulated cycle. Exhaustion stops
     * the run with a structured partial result (and a checkpoint when
     * checkpointOnStop is set); it never changes how the run explores.
     * All default to disabled.
     */
    ResourceBudgets budgets;

    /**
     * On budget exhaustion, snapshot the state table + frontier into
     * EngineResult::checkpoint so the run can be resumed later.
     */
    bool checkpointOnStop = false;

    /**
     * *-logic baseline (footnote 8): when the PC first becomes tainted
     * or unknown, every software-exercisable gate is conservatively
     * made unknown and tainted and the analysis gives up on precision.
     */
    bool starLogicMode = false;

    /** Track which nets ever carried taint (for gate-taint stats). */
    bool trackTaintedNets = true;

    /**
     * Liveness heartbeat: when progressSeconds > 0 and progressFn is
     * set, the governor fires progressFn about every progressSeconds
     * from its per-cycle poll point — the same clock that services
     * budget checks and SIGINT-safe stop requests (glifs_audit
     * --progress and --telemetry-fd). Exploration events themselves go
     * to the structured tracer (base/trace.hh) when it is enabled.
     */
    double progressSeconds = 0.0;
    ResourceGovernor::ProgressFn progressFn;

    /**
     * Ablation: disable the conservative state table. Paths only end
     * on HALT or the cycle budget -- loops never converge, which is
     * exactly what bench_ablation_engine demonstrates.
     */
    bool disableMerging = false;

    /**
     * Ablation: when false, unknown next-PCs of conditional jumps are
     * enumerated bit-wise (a conservative superset) instead of using
     * the decoded {target, fallthrough} successors.
     */
    bool preciseJumpTargets = true;

    /**
     * Section-8 extension hook: nets forced to an unknown (X) value at
     * the start of every cycle. This is the paper's recipe for
     * analyzing nondeterministic microarchitecture ("by injecting an X
     * as the result of a tag check, both the cache hit and miss paths
     * will be explored"): name the nondeterministic state/result nets
     * here and the symbolic exploration covers every outcome. The
     * injected signals keep the taint given here (default untainted).
     */
    std::vector<std::pair<NetId, bool>> injectUnknown;
};

/** Outcome of an analysis run. */
struct EngineResult
{
    bool completed = false;       ///< exploration converged in budget
    bool starAborted = false;     ///< *-logic mode hit a tainted PC
    uint64_t cyclesSimulated = 0;
    size_t pathsExplored = 0;
    size_t branchPoints = 0;      ///< forks on unknown PC / reset
    size_t merges = 0;
    size_t subsumptions = 0;
    size_t statesTracked = 0;     ///< distinct PC-changing instructions
    double analysisSeconds = 0.0;

    std::vector<Violation> violations;

    /** Fraction of tracked gates whose output ever carried taint. */
    double taintedGateFraction = 0.0;
    size_t taintedGates = 0;
    size_t totalGates = 0;

    /** The pruned execution tree (diagnostics / Figure 7 rendering). */
    ExecTree tree;

    /** Every degradation of the run, in order. */
    std::vector<Degradation> degradations;

    /**
     * Snapshot of the paused run, set on budget exhaustion when
     * EngineConfig::checkpointOnStop is enabled (shared_ptr so
     * EngineResult stays copyable).
     */
    std::shared_ptr<EngineCheckpoint> checkpoint;

    /**
     * Secure iff the analysis converged and found no violation other
     * than *contained* tainted control flow inside tainted tasks --
     * a tainted task may taint its own PC without breaking
     * non-interference as long as the taint never reaches untainted
     * code, memory partitions, trusted ports or the watchdog (all of
     * which are separate violation kinds). A degraded run (some
     * coverage handed to the *-logic abstraction, or exploration
     * stopped early) can never be secure.
     */
    bool secure() const;

    /** Did any degradation forfeit verification completeness? Every
     *  rung does. */
    bool degradedUnsound() const;

    /**
     * Three-valued verdict: Violations when uncontained violations
     * were found (sound under the conservative semantics: fix and
     * re-verify), Secure when the precise analysis converged cleanly,
     * Unknown-degraded otherwise -- still a sound "not verified
     * secure" answer.
     */
    Verdict verdict() const;

    std::string summary() const;
};

/**
 * The application-specific gate-level information flow tracking tool
 * (Figure 6): netlist + binary + policy in, violations out.
 */
class IftEngine
{
  public:
    IftEngine(const Soc &soc, const Policy &policy,
              const EngineConfig &cfg = {});

    /**
     * Run the full analysis of a program image, optionally continuing
     * from a checkpoint taken by an earlier (interrupted) run of the
     * same image on the same SoC. Throws RecoverableError, before
     * exploring anything, if the checkpoint does not match: another
     * image or netlist, or a plane or state of the wrong size.
     * Resuming an unmodified snapshot to
     * completion reproduces the uninterrupted run's counters,
     * violations and verdict exactly.
     */
    EngineResult run(const ProgramImage &image,
                     const EngineCheckpoint *resume = nullptr);

  private:
    const Soc &soc;
    Policy policy;  ///< by value: callers often pass temporaries
    EngineConfig cfg;
};

} // namespace glifs

#endif // GLIFS_IFT_ENGINE_HH
