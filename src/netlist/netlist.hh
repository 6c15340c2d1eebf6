/**
 * @file
 * Gate-level netlist intermediate representation.
 *
 * A Netlist is a flat sea of primitive gates (combinational GateKind
 * nodes, D flip-flops, constants) connected by single-driver nets, plus
 * MemoryArray macro blocks (program ROM / data RAM) with conservative
 * taint semantics. The IoT430 SoC (src/soc) is elaborated into this IR
 * and every analysis in glifs operates on it.
 */

#ifndef GLIFS_NETLIST_NETLIST_HH
#define GLIFS_NETLIST_NETLIST_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "logic/ternary.hh"

namespace glifs
{

using NetId = uint32_t;
using GateId = uint32_t;
using MemId = uint32_t;

constexpr NetId kNoNet = static_cast<NetId>(-1);

/** Top-level node categories in the IR. */
enum class GateType : uint8_t
{
    Comb,   ///< combinational gate (GateKind)
    Dff,    ///< D flip-flop with reset and enable
    Const,  ///< constant 0/1 driver
    Input,  ///< primary input (driven by the environment)
};

/** One primitive node. */
struct Gate
{
    GateType type = GateType::Comb;
    GateKind kind = GateKind::Buf;

    /**
     * Input nets. Comb: gateArity(kind) entries. Dff: [d, rst, en].
     * Const/Input: unused.
     */
    std::array<NetId, 3> in = {kNoNet, kNoNet, kNoNet};

    /** The single net driven by this node. */
    NetId out = kNoNet;

    /**
     * Const only: the driven value. Never set on any other gate type;
     * a flip-flop's reset value lives in rstVal alone (historically
     * this field doubled as the Dff reset value, and stale copies
     * could silently disagree -- validate() now rejects a Dff with
     * constVal set).
     */
    bool constVal = false;

    /** Dff only: the value loaded on reset (the sole source). */
    bool rstVal = false;

    /**
     * Dff only: reset even when the global power-on-reset fires (the
     * watchdog POR resets every flop that has this set; memories are
     * never reset).
     */
    bool porReset = true;
};

/** A single-driver wire. */
struct Net
{
    std::string name;
    GateId driver = static_cast<GateId>(-1);
};

/** Declaration of a memory macro block. */
struct MemoryDecl
{
    std::string name;
    unsigned width = 16;          ///< bits per word
    size_t words = 0;             ///< number of words
    bool writable = true;         ///< false: ROM (no write port)

    std::vector<NetId> readAddr;  ///< read-port address (LSB first)
    std::vector<NetId> readData;  ///< read-port data out (driven by mem)

    std::vector<NetId> writeAddr; ///< write-port address (LSB first)
    std::vector<NetId> writeData; ///< write-port data in
    NetId writeEn = kNoNet;       ///< write enable

    /**
     * Maximum number of unknown (X) address bits that are enumerated
     * exactly before falling back to "whole memory" conservatism.
     */
    unsigned maxUnknownAddrBits = 12;

    /**
     * Whether a tainted read address taints the read data. True for
     * data memories (Figure-9 semantics). The program ROM sets this
     * false: the analysis engine explores a tainted PC's possible
     * instruction streams explicitly, one concrete PC per path, and
     * the tainted PC is itself a checked violation (C1), so fetches
     * do not blanket-taint the IR.
     */
    bool addrTaintsRead = true;
};

/** Handle returned when creating a flip-flop. */
struct DffHandle
{
    GateId gate = static_cast<GateId>(-1);
    NetId q = kNoNet;
};

/**
 * The flat gate-level design container.
 */
class Netlist
{
  public:
    /** Create an anonymous or named net with no driver yet. */
    NetId addNet(const std::string &name = "");

    /** Create a primary input; returns its net. */
    NetId addInput(const std::string &name);

    /** Create (or reuse) a constant driver net. */
    NetId constNet(bool value);

    /** Add a combinational gate; returns its output net. */
    NetId addComb(GateKind kind, NetId a, NetId b = kNoNet,
                  NetId c = kNoNet, const std::string &name = "");

    /**
     * Add a D flip-flop. Inputs may be connected later via
     * connectDff() to allow feedback loops.
     */
    DffHandle addDff(const std::string &name, bool rst_val = false,
                     bool por_reset = true);

    /** Connect/replace the d / rst / en inputs of a flip-flop. */
    void connectDff(GateId dff, NetId d, NetId rst, NetId en);

    /** Register a memory block; nets must already exist. */
    MemId addMemory(const MemoryDecl &decl);

    /** Mark a net as a named primary output. */
    void markOutput(NetId net, const std::string &name);

    // --- accessors ---------------------------------------------------
    size_t numNets() const { return nets.size(); }
    size_t numGates() const { return gateList.size(); }
    size_t numMemories() const { return memories.size(); }

    const Gate &gate(GateId id) const { return gateList[id]; }
    const Net &net(NetId id) const { return nets[id]; }
    const MemoryDecl &memory(MemId id) const { return memories[id]; }

    const std::vector<Gate> &gates() const { return gateList; }
    const std::vector<Net> &netList() const { return nets; }
    const std::vector<MemoryDecl> &memoryList() const { return memories; }

    const std::vector<NetId> &inputs() const { return inputList; }
    const std::vector<std::pair<NetId, std::string>> &
    outputs() const { return outputList; }

    /** All flip-flop gate ids, in creation (so ascending) order. */
    const std::vector<GateId> &dffs() const { return dffList; }

    /** Resolve the driver gate of a net (invalid id if none). */
    GateId driverOf(NetId net) const { return nets[net].driver; }

    /** True if the net has no driver at all (environment must set it). */
    bool
    undriven(NetId net) const
    {
        return nets[net].driver == static_cast<GateId>(-1);
    }

    /** True if the net is driven by a memory read port. */
    bool
    memDriven(NetId net) const
    {
        GateId d = nets[net].driver;
        return d != static_cast<GateId>(-1) && d >= gateList.size();
    }

    /** The memory driving a memDriven() net. */
    MemId
    memDriver(NetId net) const
    {
        return static_cast<MemId>(static_cast<GateId>(-2) -
                                  nets[net].driver);
    }

  private:
    std::vector<Net> nets;
    std::vector<Gate> gateList;
    std::vector<MemoryDecl> memories;
    std::vector<NetId> inputList;
    std::vector<std::pair<NetId, std::string>> outputList;
    std::vector<GateId> dffList;
    NetId const0 = kNoNet;
    NetId const1 = kNoNet;

    NetId newDrivenNet(GateId driver, const std::string &name);
};

} // namespace glifs

#endif // GLIFS_NETLIST_NETLIST_HH
