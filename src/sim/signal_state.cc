#include "sim/signal_state.hh"

#include "base/logging.hh"

namespace glifs
{

SignalState::SignalState(const Netlist &nl)
{
    netSignals.assign(nl.numNets(), Signal{Tern::X, false});
    for (MemId m = 0; m < nl.numMemories(); ++m)
        memories.emplace_back(nl.memory(m).words * nl.memory(m).width);
    // Constant nets hold their value from the start.
    for (const Gate &g : nl.gates()) {
        if (g.type == GateType::Const)
            netSignals[g.out] = sigBool(g.constVal);
    }
}

uint64_t
SignalState::memWordValue(const Netlist &nl, MemId id, size_t word) const
{
    const MemoryDecl &decl = nl.memory(id);
    GLIFS_ASSERT(word < decl.words, "memWordValue out of range");
    return memories[id].word(word * decl.width, decl.width).value;
}

void
SignalState::setMemWord(const Netlist &nl, MemId id, size_t word,
                        uint64_t value, bool taint)
{
    const MemoryDecl &decl = nl.memory(id);
    GLIFS_ASSERT(word < decl.words, "setMemWord out of range");
    const uint64_t all = lowMask(decl.width);
    memories[id].setWord(word * decl.width, decl.width,
                         {all, value & all, taint ? all : 0});
}

} // namespace glifs
