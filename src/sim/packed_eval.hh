/**
 * @file
 * Execution engine for the compiled bit-packed netlist program.
 *
 * Holds the plane arrays (lo / hi / tnt over the compiler's permuted
 * slot space -- see netlist/compile.hh), the unit- and dff-word dirty
 * bitsets and the staged flip-flop next states, and executes the
 * CompiledNetlist. The Simulator drives it: it drains the dirty units
 * and interprets the memory read/write ports.
 *
 * The planes are the one store of every net: flip-flop Q, inputs and
 * constants (the words below sourceWords) as well as the unit outputs.
 * Every word store (a unit's output, a committed Q word) and every
 * setNetPlanes() marks the readers of the lanes it changed through the
 * reader index, so a unit none of whose input lanes changed since it
 * last ran still holds its exact output. A fresh program starts with
 * every unit and every dff word marked, so nothing is stale from the
 * start.
 */

#ifndef GLIFS_SIM_PACKED_EVAL_HH
#define GLIFS_SIM_PACKED_EVAL_HH

#include <cstdint>
#include <vector>

#include "netlist/compile.hh"
#include "sim/packed_kernels.hh"
#include "sim/signal_state.hh"

namespace glifs
{

/** Plane storage + executor for one compiled netlist. */
class PackedEval
{
  public:
    /**
     * Every net reads untainted X but the constants, which hold their
     * value; every unit and every dff word is marked, so the first
     * settle runs every unit and the first edge latches every word.
     */
    PackedEval(const Netlist &nl, const std::vector<EvalStep> &order);

    const CompiledNetlist &program() const { return cn; }

    /** Write every net's slot into @p sigs. */
    void exportNets(SignalState &sigs) const;

    /** Overwrite one net's slot and mark the readers of its lane. */
    void
    setNetPlanes(NetId net, const Signal &s)
    {
        const uint32_t slot = cn.slotOfNet[net];
        const size_t w = slot >> 6;
        const uint64_t bit = 1ULL << (slot & 63);
        vlo[w] = (vlo[w] & ~bit) | (s.value != Tern::One ? bit : 0);
        vhi[w] = (vhi[w] & ~bit) | (s.value != Tern::Zero ? bit : 0);
        vtnt[w] = (vtnt[w] & ~bit) | (s.taint ? bit : 0);
        markReaders(static_cast<uint32_t>(w), bit);
    }

    /** Decode one net's slot back into a Signal. */
    Signal
    signalAt(NetId net) const
    {
        const uint32_t slot = cn.slotOfNet[net];
        const uint32_t w = slot >> 6;
        return packed::getLane({vlo[w], vhi[w], vtnt[w]}, slot & 63);
    }

    /** acc[w] |= taint plane word w, for every plane word. */
    void orTaint(std::vector<uint64_t> &acc) const;

    // --- dirty tracking ----------------------------------------------
    /** Mark one index target: a unit, or units.size()+i for dff word i. */
    void
    markTarget(uint32_t t)
    {
        if (t < numUnits)
            unitDirty[t >> 6] |= 1ULL << (t & 63);
        else
            dffDirty[(t - numUnits) >> 6] |=
                1ULL << ((t - numUnits) & 63);
    }

    /** Mark every target reading a lane of @p lanes in word @p w. */
    void
    markReaders(uint32_t w, uint64_t lanes)
    {
        for (const WordReader &r : cn.readersOf(w)) {
            if (r.lanes & lanes)
                markTarget(r.target);
        }
    }

    /** Mark the unit driving @p net, if any (override recompute). */
    void
    markProducerDirty(NetId net)
    {
        const int32_t p = cn.producerUnit[net];
        if (p >= 0)
            markTarget(static_cast<uint32_t>(p));
    }

    void markMemUnitDirty(MemId m) { markTarget(cn.unitOfMem[m]); }

    std::vector<uint64_t> &unitDirtyWords() { return unitDirty; }
    std::vector<uint64_t> &dffDirtyWords() { return dffDirty; }

    // --- execution ---------------------------------------------------
    /**
     * Gather, apply the kernel and store one batch's output word.
     * Returns the number of lanes whose *value* toggled (for the
     * energy model's per-kind toggle counters).
     */
    size_t runBatch(uint32_t batch);

    /** Store a memory read port's data word (lanes 0..width-1). */
    void storeMemRead(MemId m, unsigned width, const TernWord &data);

    /**
     * Stage dff word @p i's next state from the current (settled)
     * planes. Nothing is written back until commitDffWord(), so the
     * clock edge stays atomic.
     */
    void computeDffWord(uint32_t i);

    /**
     * Write dff word @p i's staged next state into its Q word; returns
     * the number of value toggles.
     */
    size_t commitDffWord(uint32_t i);

  private:
    CompiledNetlist cn;
    uint32_t numUnits = 0;

    // Plane-slot storage; bit b of word s>>6 is slot s.
    std::vector<uint64_t> vlo;
    std::vector<uint64_t> vhi;
    std::vector<uint64_t> vtnt;

    std::vector<uint64_t> unitDirty;
    std::vector<uint64_t> dffDirty;

    /** Staged next-state per DffWord (valid between compute/commit). */
    std::vector<packed::Planes> dffNextQ;

    packed::Planes gather(const OpRange &r) const;

    /** Lanes a word store changed: in any plane / in value only. */
    struct StoreDiff
    {
        uint64_t changed = 0;
        uint64_t toggled = 0;
    };

    /**
     * Replace the bits of word @p w under @p mask with @p out and mark
     * the readers of every changed lane.
     */
    StoreDiff storeWord(uint32_t w, uint64_t mask,
                        const packed::Planes &out);
};

} // namespace glifs

#endif // GLIFS_SIM_PACKED_EVAL_HH
