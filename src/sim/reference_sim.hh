/**
 * @file
 * Reference gate-level simulator: the per-signal GLIFT table
 * interpreter over the whole levelized schedule.
 *
 * Every settle evaluates every combinational gate and memory read port
 * in topological order, one Signal at a time through GliftTables, and
 * every clock edge stages all flip-flop next states and memory
 * write-port updates before committing any of them. There is no dirty
 * set and no compiled program, so nothing here can go stale: it is the
 * oracle the differential tests (tests/test_sim_event.cc) hold the
 * compiled, event-driven Simulator to, bit for bit on every net, memory
 * cell and toggle counter. It records no stats; production code uses
 * Simulator.
 */

#ifndef GLIFS_SIM_REFERENCE_SIM_HH
#define GLIFS_SIM_REFERENCE_SIM_HH

#include <cstdint>
#include <vector>

#include "netlist/levelize.hh"
#include "netlist/netlist.hh"
#include "sim/signal_state.hh"
#include "sim/toggle_stats.hh"

namespace glifs
{

/**
 * Full-sweep table-interpreter simulator with Simulator's stepping
 * interface. The netlist must outlive the simulator.
 */
class ReferenceSim
{
  public:
    explicit ReferenceSim(const Netlist &nl);

    SignalState &state() { return sigs; }
    const SignalState &state() const { return sigs; }

    /** Drive a primary input (or any undriven net). */
    void setInput(NetId net, const Signal &s) { sigs.setNet(net, s); }

    /** Override any net; a driven net is recomputed next settle. */
    void setNet(NetId net, const Signal &s) { sigs.setNet(net, s); }

    void
    setMemWord(MemId mem, size_t word, uint64_t value, bool taint = false)
    {
        sigs.setMemWord(nl, mem, word, value, taint);
    }

    /** Evaluate every gate and memory read port in levelized order. */
    void evalComb();

    /** Latch every flip-flop and commit every memory write port. */
    void clockEdge();

    void
    step()
    {
        evalComb();
        clockEdge();
    }

    uint64_t cycle() const { return cycleCount; }

    void enableToggleStats(bool on) { togglesOn = on; }
    const ToggleStats &toggleStats() const { return toggles; }

  private:
    const Netlist &nl;
    std::vector<EvalStep> order;
    SignalState sigs;
    uint64_t cycleCount = 0;
    bool togglesOn = false;
    ToggleStats toggles;
};

} // namespace glifs

#endif // GLIFS_SIM_REFERENCE_SIM_HH
