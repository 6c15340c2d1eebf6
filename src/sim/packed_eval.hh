/**
 * @file
 * Execution engine for the compiled bit-packed netlist program.
 *
 * Holds the plane arrays (lo / hi / tnt over the compiler's permuted
 * slot space -- see netlist/compile.hh), the unit- and dff-word dirty
 * bitsets and the staged flip-flop next states, and executes the
 * CompiledNetlist. The Simulator drives it: it decides which units
 * run (event-driven drain or full pass), interprets the memory
 * read/write ports, and mirrors every changed net back into the
 * scalar SignalState so the rest of the system keeps a single
 * readable source of truth.
 *
 * Coherence contract: from an importState() until the Simulator's
 * next markAllDirty(), every net's slot equals sigs.net(net). The run
 * methods report the nets they changed through changedNets so the
 * caller can mirror them; writes coming from outside go through
 * setNetPlanes().
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
    PackedEval(const Netlist &nl, const std::vector<EvalStep> &order);

    const CompiledNetlist &program() const { return cn; }

    /** Rebuild every net's slot from @p sigs (planes become valid). */
    void importState(const SignalState &sigs);

    /** Overwrite one net's slot (planes must be coherent). */
    void
    setNetPlanes(NetId net, const Signal &s)
    {
        const uint32_t slot = cn.slotOfNet[net];
        const size_t w = slot >> 6;
        const uint64_t bit = 1ULL << (slot & 63);
        vlo[w] = (vlo[w] & ~bit) | (s.value != Tern::One ? bit : 0);
        vhi[w] = (vhi[w] & ~bit) | (s.value != Tern::Zero ? bit : 0);
        vtnt[w] = (vtnt[w] & ~bit) | (s.taint ? bit : 0);
    }

    /** Decode one net's slot back into a Signal. */
    Signal
    signalAt(NetId net) const
    {
        const uint32_t slot = cn.slotOfNet[net];
        const unsigned lane = slot & 63;
        const bool lo = (vlo[slot >> 6] >> lane) & 1;
        const bool hi = (vhi[slot >> 6] >> lane) & 1;
        return {lo ? (hi ? Tern::X : Tern::Zero) : Tern::One,
                static_cast<bool>((vtnt[slot >> 6] >> lane) & 1)};
    }

    // --- dirty tracking ----------------------------------------------
    /** Mark one CSR target: a unit, or units.size()+i for dff word i. */
    void
    markTarget(uint32_t t)
    {
        if (t < numUnits)
            unitDirty[t >> 6] |= 1ULL << (t & 63);
        else
            dffDirty[(t - numUnits) >> 6] |=
                1ULL << ((t - numUnits) & 63);
    }

    void
    markConsumersDirty(NetId net)
    {
        for (uint32_t t : cn.consumersOf(net))
            markTarget(t);
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

    void clearAllDirty();

    /** Arm every dff word for the next edge (untracked full settle). */
    void
    markAllDffDirty()
    {
        for (uint32_t i = 0; i < cn.dffWords.size(); ++i)
            markTarget(numUnits + i);
    }

    std::vector<uint64_t> &unitDirtyWords() { return unitDirty; }
    std::vector<uint64_t> &dffDirtyWords() { return dffDirty; }

    // --- execution ---------------------------------------------------
    /**
     * Gather, apply the kernel and store one batch's output word.
     * Output nets whose signal changed are appended to changedNets;
     * the return value is the number of lanes whose *value* toggled
     * (for the energy model's per-kind toggle counters).
     */
    size_t runBatch(uint32_t batch);

    /**
     * Stage dff word @p i's next state from the current (settled)
     * planes. Nothing is written back until commitDffWord(), so the
     * clock edge stays atomic.
     */
    void computeDffWord(uint32_t i);

    /**
     * Write dff word @p i's staged next state into its Q word.
     * Changed Q nets are appended to changedNets; returns the number
     * of value toggles.
     */
    size_t commitDffWord(uint32_t i);

    /** Change report of the last runBatch()/commitDffWord() calls. */
    std::vector<NetId> changedNets;

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

    /**
     * Replace the bits of word @p w under @p mask with @p out, with
     * change detection: changed nets are appended to changedNets.
     * Returns the value-toggle count.
     */
    size_t storeWord(uint32_t w, uint64_t mask,
                     const packed::Planes &out);
};

} // namespace glifs

#endif // GLIFS_SIM_PACKED_EVAL_HH
