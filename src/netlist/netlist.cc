#include "netlist/netlist.hh"

#include "base/bitutil.hh"
#include "base/logging.hh"

namespace glifs
{

NetId
Netlist::addNet(const std::string &name)
{
    NetId id = static_cast<NetId>(nets.size());
    nets.push_back(Net{name, static_cast<GateId>(-1)});
    return id;
}

NetId
Netlist::newDrivenNet(GateId driver, const std::string &name)
{
    NetId id = addNet(name);
    nets[id].driver = driver;
    return id;
}

NetId
Netlist::addInput(const std::string &name)
{
    GateId gid = static_cast<GateId>(gateList.size());
    Gate g;
    g.type = GateType::Input;
    gateList.push_back(g);
    NetId net = newDrivenNet(gid, name);
    gateList[gid].out = net;
    inputList.push_back(net);
    return net;
}

NetId
Netlist::constNet(bool value)
{
    NetId &cached = value ? const1 : const0;
    if (cached != kNoNet)
        return cached;
    GateId gid = static_cast<GateId>(gateList.size());
    Gate g;
    g.type = GateType::Const;
    g.constVal = value;
    gateList.push_back(g);
    cached = newDrivenNet(gid, value ? "const1" : "const0");
    gateList[gid].out = cached;
    return cached;
}

NetId
Netlist::addComb(GateKind kind, NetId a, NetId b, NetId c,
                 const std::string &name)
{
    const unsigned arity = gateArity(kind);
    GLIFS_ASSERT(a != kNoNet, "comb gate missing input 0");
    GLIFS_ASSERT(arity < 2 || b != kNoNet, "comb gate missing input 1");
    GLIFS_ASSERT(arity < 3 || c != kNoNet, "comb gate missing input 2");

    GateId gid = static_cast<GateId>(gateList.size());
    Gate g;
    g.type = GateType::Comb;
    g.kind = kind;
    g.in = {a, b, c};
    gateList.push_back(g);
    NetId net = newDrivenNet(gid, name);
    gateList[gid].out = net;
    return net;
}

DffHandle
Netlist::addDff(const std::string &name, bool rst_val, bool por_reset)
{
    GateId gid = static_cast<GateId>(gateList.size());
    Gate g;
    g.type = GateType::Dff;
    g.rstVal = rst_val;
    g.porReset = por_reset;
    gateList.push_back(g);
    NetId q = newDrivenNet(gid, name);
    gateList[gid].out = q;
    dffList.push_back(gid);
    return DffHandle{gid, q};
}

void
Netlist::connectDff(GateId dff, NetId d, NetId rst, NetId en)
{
    GLIFS_ASSERT(dff < gateList.size() &&
                 gateList[dff].type == GateType::Dff,
                 "connectDff on non-DFF gate ", dff);
    GLIFS_ASSERT(d != kNoNet && rst != kNoNet && en != kNoNet,
                 "DFF inputs must be connected");
    gateList[dff].in = {d, rst, en};
}

MemId
Netlist::addMemory(const MemoryDecl &decl)
{
    GLIFS_ASSERT(decl.words > 0 && decl.width > 0 && decl.width <= 64,
                 "bad memory geometry for ", decl.name);
    GLIFS_ASSERT(decl.readAddr.size() >= bitsFor(decl.words),
                 "memory ", decl.name, " read address too narrow");
    GLIFS_ASSERT(decl.readData.size() == decl.width,
                 "memory ", decl.name, " read data width mismatch");
    if (decl.writable) {
        GLIFS_ASSERT(decl.writeAddr.size() >= bitsFor(decl.words),
                     "memory ", decl.name, " write address too narrow");
        GLIFS_ASSERT(decl.writeData.size() == decl.width,
                     "memory ", decl.name, " write data width mismatch");
        GLIFS_ASSERT(decl.writeEn != kNoNet,
                     "memory ", decl.name, " missing write enable");
    }

    MemId id = static_cast<MemId>(memories.size());
    memories.push_back(decl);

    // The read-data nets are driven by the memory block; record a
    // pseudo-driver so validation can tell them apart from floating nets.
    for (NetId n : decl.readData) {
        GLIFS_ASSERT(nets[n].driver == static_cast<GateId>(-1),
                     "memory read-data net already driven");
        nets[n].driver = static_cast<GateId>(-2) - id;
    }
    return id;
}

void
Netlist::markOutput(NetId net, const std::string &name)
{
    GLIFS_ASSERT(net < nets.size(), "bad output net");
    outputList.emplace_back(net, name);
}

} // namespace glifs
