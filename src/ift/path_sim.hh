/**
 * @file
 * Per-path symbolic simulation: the one Algorithm-1 cycle loop, run by
 * the engine's driver (ift/engine.cc).
 *
 * A *segment* is the simulation of one execution point from its
 * concrete-PC start state up to the next PC-changing commit, HALT, the
 * *-logic give-up, or a hook-requested stop -- the stretch between a
 * frontier pop and the next state-table visit. Segments are pure
 * functions of the start state: every simulated value, violation and
 * POR fork depends only on the netlist, policy, program image and the
 * start state, never on the engine's global budgets (those only decide
 * where the *driver* stops).
 * Two pops of the same start state therefore replay the same segment
 * (DESIGN.md §10).
 *
 * A segment captures the full symbolic state (SymState) only where the
 * driver needs it: at its end (commit, unknown PC or hook Stop) and at
 * each POR fork. Between those points the loop reads the live PC flops
 * to decide whether the segment ends, so a cycle costs no capture.
 */

#ifndef GLIFS_IFT_PATH_SIM_HH
#define GLIFS_IFT_PATH_SIM_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "assembler/program_image.hh"
#include "ift/checker.hh"
#include "ift/engine.hh"
#include "ift/symstate.hh"
#include "sim/simulator.hh"
#include "soc/soc.hh"

namespace glifs
{

/** An unknown watchdog-expiry fork taken inside a segment: the fired
 *  branch (concrete PC) to be pushed on the frontier, in order. */
struct SegmentPorFork
{
    SymState fired;
    uint16_t startPc = 0;
    uint16_t instr = 0;  ///< instruction executing at the fork
    uint64_t cycle = 0;  ///< segment-relative (1-based) fork cycle
};

/** What one segment simulated, in segment-relative terms. */
struct SegmentResult
{
    uint64_t cycles = 0;     ///< simulated cycles in this segment
    SymState end;            ///< state after the terminal clock edge
    uint16_t endInstr = 0;   ///< committing instruction address
    uint16_t endFsm = 0;     ///< FSM state at the commit
    bool halted = false;     ///< program reached HALT (no end state)
    bool pcUnknown = false;  ///< end state has unknown PC bits
    bool stopped = false;    ///< hook Stop: end is the in-flight state
    bool starAborted = false; ///< *-logic mode: tainted or unknown PC

    /** Violations observed in the segment, aggregated per (kind,
     *  instruction) with firstCycle *relative* to the segment start
     *  (1-based); the applier rebases them onto the global clock. */
    std::vector<Violation> violations;

    /** POR forks taken, in push order. */
    std::vector<SegmentPorFork> porForks;

    /** Nets that carried taint after any of the segment's settles
     *  (empty when EngineConfig::trackTaintedNets is off). Collected
     *  from the simulator's taint plane each cycle, in slot order, and
     *  mapped to nets once at the segment's end. */
    BitPlane taintDelta;
};

/** Per-cycle hook decisions mirroring the serial governor poll. */
enum class CycleAction : uint8_t
{
    Continue, ///< simulate the next cycle
    Stop,     ///< budget exhausted: return with the in-flight state
};

/**
 * Optional per-cycle callbacks. `poll` runs at the governor-poll point
 * (before the cycle's inputs are driven); `cycleCharged` runs right
 * after the combinational settle, where the driver charges its cycle
 * counters.
 */
struct SegmentHooks
{
    std::function<CycleAction()> poll;
    std::function<void()> cycleCharged;
};

/**
 * One path's symbolic simulation context: the simulator, the symbolic
 * layout, the per-cycle policy checker and every PC/branch helper of
 * Algorithm 1.
 */
class PathSim
{
  public:
    PathSim(const Soc &s, const Policy &p, const EngineConfig &c,
            const ProgramImage &img);

    const Soc &soc;
    const Policy &policy;
    const EngineConfig cfg;
    const ProgramImage &image;

    Simulator sim;
    SymLayout layout;
    FlowChecker checker;
    std::vector<size_t> pcSlots; ///< SymState slots of the PC flops

    /** Load the binary; taint the tainted code partitions (footnote
     *  3). Program ROM is not part of the captured symbolic state, so
     *  this also re-establishes it when resuming a checkpoint. */
    void loadProgram();

    /**
     * Put a captured state back into the simulator, the only way a
     * SymState re-enters it. It goes through the simulator's dirty
     * tracking (SymState::restore(layout, Simulator &)), so the next
     * settle runs only the units reading a flop or memory this state
     * changed; nothing is invalidated.
     */
    void restore(const SymState &s);

    /** Drive reset and port inputs for one cycle. */
    void setInputs(bool reset);

    /** Concrete value of a probed register bus; panics on X. */
    uint16_t busValue(const Bus &bus, const char *what) const;

    /** Concrete value of a probed bus, or 0xFFFF if any bit is X
     *  (degradation records must never panic on unknowns). */
    uint16_t tryBusValue(const Bus &bus) const;

    bool busHasX(const Bus &bus) const;

    /** Unknown PC bits of a captured state. */
    std::vector<unsigned> statePcXBits(const SymState &s) const;

    /** Any taint on the PC bits of a captured state. */
    bool statePcTainted(const SymState &s) const;

    uint16_t statePcBase(const SymState &s) const;

    /** Decode the instruction at a program address (nullopt: data). */
    std::optional<Instr> instrAt(uint16_t addr) const;

    /**
     * Possible concrete next-PC values for a state whose PC has X
     * bits (Algorithm 1, possible_PC_next_vals). Sets @p overflow
     * (and returns nothing) when the enumeration would exceed the
     * hard branch-fanout budget; the caller degrades the path to the
     * *-logic abstraction instead of aborting the analysis.
     */
    std::vector<uint16_t> candidatePcs(uint16_t instr_addr,
                                       const SymState &s,
                                       bool &overflow);

    /** Child of @p s with the PC forced to @p pc (taints retained). */
    SymState concretizePc(const SymState &s, uint16_t pc) const;

    /**
     * *-logic abstraction: saturate all state to tainted-X, settle the
     * combinational logic once, and report how many gate outputs end
     * up tainted (footnote 8 reproduction).
     */
    std::pair<size_t, size_t> starSaturate(BitPlane *everTainted);

    /**
     * Run one segment from @p start: restore it, then simulate cycle
     * by cycle until the next PC-changing commit / unknown PC / HALT /
     * *-logic give-up, or until a hook says Stop. The simulator is
     * left in the segment's final in-flight state (Stop callers
     * already got it captured in SegmentResult::end). @p cycleBase is
     * the absolute cycle before the segment's first: the checker logs
     * and traces on that clock, and the returned violations are
     * rebased to segment-relative.
     */
    SegmentResult runSegment(const SymState &start,
                             const SegmentHooks &hooks = {},
                             uint64_t cycleBase = 0);
};

} // namespace glifs

#endif // GLIFS_IFT_PATH_SIM_HH
