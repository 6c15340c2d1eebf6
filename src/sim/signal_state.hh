/**
 * @file
 * The mutable value/taint state of a netlist simulation: one Signal per
 * net, and the cells of every memory block in TernPlanes -- the
 * known/value/taint planes SymState uses, with cell = word * width +
 * bit -- so memory ports and state snapshots move whole words.
 *
 * ReferenceSim keeps every net here. The Simulator keeps only its
 * memory cells here and every net in its packed planes;
 * Simulator::state() decodes the nets into its copy on access.
 */

#ifndef GLIFS_SIM_SIGNAL_STATE_HH
#define GLIFS_SIM_SIGNAL_STATE_HH

#include <vector>

#include "logic/tern_planes.hh"
#include "netlist/netlist.hh"

namespace glifs
{

/** Per-net signals and memory contents. */
class SignalState
{
  public:
    SignalState() = default;
    explicit SignalState(const Netlist &nl);

    Signal net(NetId id) const { return netSignals[id]; }
    void setNet(NetId id, const Signal &s) { netSignals[id] = s; }

    TernPlanes &memCells(MemId id) { return memories[id]; }
    const TernPlanes &memCells(MemId id) const { return memories[id]; }

    /** Read one memory word's concrete value; X bits read as 0. */
    uint64_t memWordValue(const Netlist &nl, MemId id, size_t word) const;

    /** Store a concrete, untainted word into a memory. */
    void setMemWord(const Netlist &nl, MemId id, size_t word,
                    uint64_t value, bool taint = false);

    size_t numNets() const { return netSignals.size(); }
    size_t numMems() const { return memories.size(); }

  private:
    std::vector<Signal> netSignals;
    std::vector<TernPlanes> memories;
};

} // namespace glifs

#endif // GLIFS_SIM_SIGNAL_STATE_HH
