#include "ift/symstate.hh"

#include "base/logging.hh"

namespace glifs
{

SymLayout::SymLayout(const Netlist &netlist) : nl(netlist)
{
    for (GateId g : nl.dffs())
        dffs.push_back(nl.gate(g).out);
    slotCount = dffs.size();
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        if (!decl.writable)
            continue;  // ROM contents are constant: not state
        memBase.emplace_back(m, slotCount);
        slotCount += decl.words * decl.width;
    }
}

namespace
{

/** Flops read through @p net, memories copied from @p src's cells. */
template <typename Source, typename Net>
void
captureFrom(TernPlanes &cells, const SymLayout &layout, const Source &src,
            Net net)
{
    if (cells.size() != layout.slots())
        cells = TernPlanes(layout.slots());
    const std::vector<NetId> &dffs = layout.dffNets();
    for (size_t i = 0; i < dffs.size(); ++i)
        cells.set(layout.dffSlot(i), net(dffs[i]));
    for (const auto &[mem, base] : layout.mems()) {
        const TernPlanes &mem_cells = src.memCells(mem);
        cells.copyRange(base, mem_cells, 0, mem_cells.size());
    }
}

} // namespace

void
SymState::capture(const SymLayout &layout, const SignalState &sigs)
{
    captureFrom(cells, layout, sigs, [&](NetId n) { return sigs.net(n); });
}

void
SymState::capture(const SymLayout &layout, const Simulator &sim)
{
    captureFrom(cells, layout, sim,
                [&](NetId n) { return sim.netValue(n); });
}

void
SymState::restore(const SymLayout &layout, SignalState &sigs) const
{
    GLIFS_ASSERT(cells.size() == layout.slots(), "layout mismatch");
    const std::vector<NetId> &dffs = layout.dffNets();
    for (size_t i = 0; i < dffs.size(); ++i)
        sigs.setNet(dffs[i], cells.get(layout.dffSlot(i)));
    for (const auto &[mem, base] : layout.mems()) {
        TernPlanes &mem_cells = sigs.memCells(mem);
        mem_cells.copyRange(0, cells, base, mem_cells.size());
    }
}

void
SymState::restore(const SymLayout &layout, Simulator &sim) const
{
    GLIFS_ASSERT(cells.size() == layout.slots(), "layout mismatch");
    const std::vector<NetId> &dffs = layout.dffNets();
    for (size_t i = 0; i < dffs.size(); ++i)
        sim.setNet(dffs[i], cells.get(layout.dffSlot(i)));
    for (const auto &[mem, base] : layout.mems())
        sim.setMemCells(mem, cells, base);
}

} // namespace glifs
