/**
 * @file
 * Packed symbolic-state snapshots for the input-independent taint
 * tracking engine (Algorithm 1).
 *
 * A SymState holds the ternary value and taint of every flip-flop
 * output plus every writable memory cell in TernPlanes, the format the
 * simulator's memories already use (logic/tern_planes.hh). A capture
 * or restore copies each memory as one cell range and only the
 * flip-flops slot by slot; substate tests and conservative merges are
 * O(words) -- the operations the paper's state table performs at every
 * PC-changing instruction.
 */

#ifndef GLIFS_IFT_SYMSTATE_HH
#define GLIFS_IFT_SYMSTATE_HH

#include "logic/tern_planes.hh"
#include "netlist/netlist.hh"
#include "sim/signal_state.hh"
#include "sim/simulator.hh"

namespace glifs
{

/** Slot layout of a SymState over a given netlist (built once). */
class SymLayout
{
  public:
    explicit SymLayout(const Netlist &nl);

    size_t slots() const { return slotCount; }
    const Netlist &netlist() const { return nl; }

    /** Flip-flop output nets in slot order. */
    const std::vector<NetId> &dffNets() const { return dffs; }

    /** (memory id, first slot) for every writable memory. */
    const std::vector<std::pair<MemId, size_t>> &mems() const
    {
        return memBase;
    }

    /** Slot index of a flip-flop by position in dffNets(). */
    size_t dffSlot(size_t idx) const { return idx; }

  private:
    const Netlist &nl;
    std::vector<NetId> dffs;
    std::vector<std::pair<MemId, size_t>> memBase;
    size_t slotCount = 0;
};

/** One captured symbolic machine state. */
class SymState
{
  public:
    SymState() = default;
    explicit SymState(const SymLayout &layout) : cells(layout.slots()) {}

    /** Capture flops and memories from a simulation state. */
    void capture(const SymLayout &layout, const SignalState &sigs);

    /** Capture from a live simulator, decoding none of its comb nets. */
    void capture(const SymLayout &layout, const Simulator &sim);

    /** Write flops and memories back into a simulation state. */
    void restore(const SymLayout &layout, SignalState &sigs) const;

    /**
     * Write flops and memories back into a live simulator through its
     * dirty tracking: each flop through Simulator::setNet and each
     * memory through Simulator::setMemCells, both no-ops where nothing
     * changed, so the next settle runs only the units reading what
     * this state changed.
     */
    void restore(const SymLayout &layout, Simulator &sim) const;

    /**
     * Substate test: true iff every concrete machine state described
     * by *this is also described by @p cons, and the taint of *this is
     * contained in the taint of @p cons (i.e. cons is at least as
     * conservative).
     */
    bool
    subsumedBy(const SymState &cons) const
    {
        return cells.subsumedBy(cons.cells);
    }

    /**
     * Conservative merge: *this becomes the join of *this and other
     * (differing or unknown values -> X; taints union).
     */
    void mergeWith(const SymState &other) { cells.joinWith(other.cells); }

    bool operator==(const SymState &o) const = default;

    /** Per-slot accessors (slot indices from the layout). */
    Signal slot(size_t i) const { return cells.get(i); }
    void setSlot(size_t i, const Signal &s) { cells.set(i, s); }

    size_t numSlots() const { return cells.size(); }

    /** Number of tainted slots (diagnostics). */
    size_t taintCount() const { return cells.taint().count(); }

    /** Number of unknown slots (diagnostics). */
    size_t
    unknownCount() const
    {
        return cells.size() - cells.known().count();
    }

    /** Raw plane access for checkpoint serialization. */
    const BitPlane &knownPlane() const { return cells.known(); }
    const BitPlane &valuePlane() const { return cells.value(); }
    const BitPlane &taintPlane() const { return cells.taint(); }

    /**
     * Rebuild from raw planes (checkpoint restore); sizes must agree,
     * and value bits under X are cleared.
     */
    void
    setPlanes(BitPlane k, BitPlane v, BitPlane t)
    {
        cells = TernPlanes(std::move(k), std::move(v), std::move(t));
    }

  private:
    TernPlanes cells;
};

} // namespace glifs

#endif // GLIFS_IFT_SYMSTATE_HH
