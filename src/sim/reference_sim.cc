#include "sim/reference_sim.hh"

#include "logic/glift.hh"
#include "netlist/memory_array.hh"

namespace glifs
{

namespace
{

/** Decode the address a memory port sees on @p nets (LSB first). */
MemAddr
decodePort(const SignalState &sigs, const std::vector<NetId> &nets,
           const MemoryDecl &decl)
{
    std::vector<Signal> addr;
    for (NetId n : nets)
        addr.push_back(sigs.net(n));
    return decodeMemAddr(addr, decl.words, decl.maxUnknownAddrBits);
}

} // namespace

ReferenceSim::ReferenceSim(const Netlist &netlist)
    : nl(netlist), order(levelize(netlist)), sigs(netlist)
{
}

void
ReferenceSim::evalComb()
{
    const GliftTables &glift = GliftTables::instance();
    for (const EvalStep &step : order) {
        if (step.kind == EvalStep::Kind::MemRead) {
            const MemoryDecl &decl = nl.memory(step.index);
            MemAddr ma = decodePort(sigs, decl.readAddr, decl);
            if (!decl.addrTaintsRead)
                ma.tainted = false;
            const TernWord data = memoryRead(sigs.memCells(step.index),
                                             decl.width, decl.words, ma);
            for (unsigned b = 0; b < decl.width; ++b)
                sigs.setNet(decl.readData[b], data.at(b));
            continue;
        }
        const Gate &g = nl.gate(step.index);
        Signal in[3];
        for (unsigned i = 0; i < gateArity(g.kind); ++i)
            in[i] = sigs.net(g.in[i]);
        const Signal out = glift.eval(g.kind, in);
        if (togglesOn && sigs.net(g.out).value != out.value)
            ++toggles.combToggles[static_cast<size_t>(g.kind)];
        sigs.setNet(g.out, out);
    }
}

void
ReferenceSim::clockEdge()
{
    // Stage every flip-flop next state and write-port update from the
    // settled nets before committing any, so the edge is atomic.
    std::vector<Signal> next;
    for (GateId gid : nl.dffs()) {
        const Gate &g = nl.gate(gid);
        next.push_back(dffNext(sigs.net(g.in[0]), sigs.net(g.in[1]),
                               sigs.net(g.in[2]), sigs.net(g.out),
                               g.rstVal));
    }
    struct Write
    {
        MemId mem;
        MemAddr addr;
        Signal we;
        TernWord data;
    };
    std::vector<Write> writes;
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        if (!decl.writable)
            continue;
        const Signal we = sigs.net(decl.writeEn);
        if (we.known() && !we.asBool() && !we.taint)
            continue;
        Write w{m, decodePort(sigs, decl.writeAddr, decl), we, {}};
        for (unsigned b = 0; b < decl.width; ++b)
            w.data.set(b, sigs.net(decl.writeData[b]));
        writes.push_back(std::move(w));
    }

    for (size_t i = 0; i < next.size(); ++i) {
        const NetId q = nl.gate(nl.dffs()[i]).out;
        if (togglesOn && sigs.net(q).value != next[i].value)
            ++toggles.dffToggles;
        sigs.setNet(q, next[i]);
    }
    for (const Write &w : writes) {
        const MemoryDecl &decl = nl.memory(w.mem);
        memoryWrite(sigs.memCells(w.mem), decl.width, decl.words, w.addr,
                    w.we, w.data);
        if (togglesOn)
            ++toggles.memWrites;
    }
    ++cycleCount;
    if (togglesOn)
        ++toggles.cycles;
}

} // namespace glifs
