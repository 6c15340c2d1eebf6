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
 *
 * Every net lives in one place, the packed planes; the memory cells
 * live in TernPlanes. Every write goes through a tracked setter
 * (setNet(), setMemWord(), setMemCells()) or the settle and edge
 * themselves, so the dirty sets are never stale and nothing is ever
 * re-imported.
 */

#ifndef GLIFS_SIM_SIMULATOR_HH
#define GLIFS_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/memory_array.hh"
#include "netlist/netlist.hh"
#include "sim/packed_eval.hh"
#include "sim/signal_state.hh"
#include "sim/toggle_stats.hh"

namespace glifs
{

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

    /**
     * The whole simulation state, every net included, decoded from the
     * planes on the first access after a change; for tests and tools.
     * The analysis reads through netValue() and memCells(), which
     * decode nothing. Writes go through the tracked setters below.
     */
    const SignalState &
    state() const
    {
        if (!netsDecoded) {
            packed->exportNets(sigs);
            netsDecoded = true;
        }
        return sigs;
    }

    /** Drive a primary input (or any undriven net). */
    void setInput(NetId net, const Signal &s) { setNet(net, s); }

    /**
     * Tracked override of any net. A change marks the units reading
     * the net dirty; if a compiled unit drives the net, that unit is
     * marked too, so the override is visible to the next clockEdge()
     * but cannot outlive the next evalComb() (full-sweep parity: the
     * sweep recomputes every driven net each settle). A write of the
     * value the net already holds is a no-op.
     */
    void
    setNet(NetId net, const Signal &s)
    {
        if (packed->signalAt(net) == s)
            return;  // the common case: an input driven again
        changeNet(net, s);
    }

    /**
     * Store a concrete word into a memory block and mark its read
     * port dirty.
     */
    void setMemWord(MemId mem, size_t word, uint64_t value,
                    bool taint = false);

    /**
     * Tracked bulk write: memory @p mem's cells := cells [src_first,
     * +size) of @p src. The read port is marked dirty only if a cell
     * changed.
     */
    void setMemCells(MemId mem, const TernPlanes &src, size_t src_first);

    /** A memory's cells (read-only; no decode). */
    const TernPlanes &memCells(MemId mem) const
    {
        return sigs.memCells(mem);
    }

    /** Current value of any net (after evalComb() for comb nets). */
    Signal netValue(NetId net) const { return packed->signalAt(net); }

    /** Words of the plane slot space (see orTaint()). */
    size_t planeWords() const { return packed->program().planeWords; }

    /**
     * acc[w] |= the taint of every net in plane word w, the nets in
     * the compiler's slot order; @p acc has planeWords() words.
     */
    void orTaint(std::vector<uint64_t> &acc) const { packed->orTaint(acc); }

    /** Set in the net-indexed @p nets every net whose slot @p acc has. */
    void slotsToNets(const std::vector<uint64_t> &acc,
                     BitPlane &nets) const;

    /**
     * Settle all combinational logic and memory read ports for the
     * current cycle, running only the dirty units.
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
    /**
     * The memory cells, and a decode cache of every net that only
     * state() writes.
     */
    mutable SignalState sigs;
    /** sigs' nets equal the planes. */
    mutable bool netsDecoded = false;
    uint64_t cycleCount = 0;
    bool togglesOn = false;
    ToggleStats toggles;

    /** Compiled program, the planes of every net, unit/dff dirty sets. */
    std::unique_ptr<PackedEval> packed;

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

    /** setNet() past its no-op check. */
    void changeNet(NetId net, const Signal &s);
    /** Run one compiled unit. */
    void runUnit(uint32_t unit, size_t &evaluated, size_t &wordEvals);
    /** Evaluate one memory read port into its plane word. */
    void evalMemRead(MemId m);
    /** Stage every enabled memory write port for the edge. */
    void stageMemWrites();
};

} // namespace glifs

#endif // GLIFS_SIM_SIMULATOR_HH
