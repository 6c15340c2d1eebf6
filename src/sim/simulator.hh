/**
 * @file
 * Cycle-accurate gate-level simulator with GLIFT taint propagation.
 *
 * The same engine serves two roles:
 *  - concrete simulation (all inputs known) for functional testing,
 *    cycle counting and energy measurement; and
 *  - symbolic simulation (X inputs) as the single-cycle step primitive
 *    of the paper's input-independent taint tracking (Algorithm 1).
 *
 * Evaluation is compiled and event-driven (DESIGN.md "Compiled
 * event-driven evaluation"): the netlist is lowered once into
 * bit-packed plane programs (netlist/compile.hh), a settle runs up to
 * 64 gates per bitwise kernel application, and only the compiled units
 * (and, at the clock edge, the flip-flop words) whose inputs changed
 * run again. Every gate is a pure function of its inputs, so skipping
 * a unit none of whose inputs changed is exact: the result is
 * bit-identical, values and taints, to sweeping the whole levelized
 * schedule, which ReferenceSim (sim/reference_sim.hh) does as the
 * differential-test reference.
 */

#ifndef GLIFS_SIM_SIMULATOR_HH
#define GLIFS_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/memory_array.hh"
#include "netlist/netlist.hh"
#include "sim/signal_state.hh"
#include "sim/toggle_stats.hh"

namespace glifs
{

class PackedEval;

/**
 * Gate-level cycle simulator. The netlist must outlive the simulator.
 */
class Simulator
{
  public:
    explicit Simulator(const Netlist &nl);
    Simulator(Simulator &&) noexcept;
    ~Simulator();

    const Netlist &netlist() const { return nl; }
    SignalState &state() { return sigs; }
    const SignalState &state() const { return sigs; }

    /** Drive a primary input (or any undriven net). */
    void setInput(NetId net, const Signal &s) { setNet(net, s); }

    /**
     * Tracked override of any net. A change marks the units reading
     * the net dirty; if a compiled unit drives the net, that unit is
     * marked too, so the override is visible to the next clockEdge()
     * but cannot outlive the next evalComb() (full-sweep parity: the
     * sweep recomputes every driven net each settle).
     */
    void setNet(NetId net, const Signal &s);

    /**
     * Store a concrete word into a memory block, keeping the read
     * port's dirty tracking consistent. External writers must use this
     * (or markAllDirty()) instead of mutating state().memCells()
     * behind the scheduler's back.
     */
    void setMemWord(MemId mem, size_t word, uint64_t value,
                    bool taint = false);

    /**
     * Invalidate the planes and the whole dirty set: the next
     * evalComb() re-imports the SignalState and runs every unit.
     * Required after any bulk mutation of the SignalState that
     * bypasses the tracked setters (symbolic state restore, program
     * load, *-logic saturation).
     */
    void markAllDirty() { allDirty = true; }

    /** Current value of any net (after evalComb() for comb nets). */
    Signal netValue(NetId net) const { return sigs.net(net); }

    /**
     * Settle all combinational logic and memory read ports for the
     * current cycle: only the dirty units, or every unit after
     * markAllDirty().
     */
    void evalComb();

    /**
     * Advance one clock edge: latch every flip-flop (with the Figure-7
     * reset-taint semantics) and commit memory write ports. Flip-flops
     * and memories whose outputs actually changed seed the next
     * cycle's dirty set. evalComb() must have been called for the
     * cycle.
     */
    void clockEdge();

    /** evalComb() + clockEdge(). */
    void
    step()
    {
        evalComb();
        clockEdge();
    }

    uint64_t cycle() const { return cycleCount; }
    void resetCycleCount() { cycleCount = 0; }

    /** Enable per-gate toggle counting (for the energy model). */
    void enableToggleStats(bool on) { togglesOn = on; }
    const ToggleStats &toggleStats() const { return toggles; }
    ToggleStats &toggleStats() { return toggles; }

  private:
    const Netlist &nl;
    size_t scheduleSize = 0;  ///< gates + read ports a sweep evaluates
    SignalState sigs;
    uint64_t cycleCount = 0;
    bool togglesOn = false;
    ToggleStats toggles;

    /** Compiled program, planes and unit/dff-word dirty sets. */
    std::unique_ptr<PackedEval> packed;
    /**
     * The planes and dirty sets do not reflect sigs: the next settle
     * re-imports the planes and runs every unit (markAllDirty()).
     */
    bool allDirty = true;

    // --- reusable scratch buffers (no per-call heap allocation) ------
    std::vector<Signal> addrScratch;

    /** One memory write port's pending edge update. */
    struct PendingWrite
    {
        MemAddr addr;
        Signal we;
        TernWord data;
    };
    std::vector<PendingWrite> writeScratch;  ///< per-memory slot
    std::vector<MemId> activeWrites;         ///< memories written this edge
    std::vector<uint32_t> dffRunScratch;     ///< dff words latching this edge

    /** Run one compiled unit; mirrors changed nets into sigs. */
    void runUnit(uint32_t unit, bool track, size_t &evaluated,
                 size_t &wordEvals);
    /** Memory read port with plane mirroring + unit marking. */
    void evalMemRead(MemId m, bool track);
    /** Stage every enabled memory write port for the edge. */
    void stageMemWrites();
};

} // namespace glifs

#endif // GLIFS_SIM_SIMULATOR_HH
