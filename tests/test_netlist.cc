/**
 * @file
 * Unit tests for the netlist IR, builder, levelization (with a
 * differential against the reference Kahn on random netlists),
 * validation, memory taint semantics (with a differential fuzz of the
 * plane memory model against a per-cell reference), stats and DOT
 * export.
 */

#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "base/bitutil.hh"
#include "base/logging.hh"
#include "netlist/builder.hh"
#include "netlist/dot_export.hh"
#include "netlist/levelize.hh"
#include "netlist/memory_array.hh"
#include "netlist/stats.hh"
#include "netlist/validate.hh"

namespace glifs
{
namespace
{

TEST(Netlist, AddGatesAndNets)
{
    Netlist nl;
    NetId a = nl.addInput("a");
    NetId b = nl.addInput("b");
    NetId o = nl.addComb(GateKind::And, a, b, kNoNet, "o");
    EXPECT_EQ(nl.numGates(), 3u);
    EXPECT_EQ(nl.net(o).name, "o");
    EXPECT_EQ(nl.gate(nl.driverOf(o)).kind, GateKind::And);
}

TEST(Netlist, ConstNetsDeduplicated)
{
    Netlist nl;
    EXPECT_EQ(nl.constNet(true), nl.constNet(true));
    EXPECT_EQ(nl.constNet(false), nl.constNet(false));
    EXPECT_NE(nl.constNet(true), nl.constNet(false));
}

TEST(Netlist, DffCreationAndConnection)
{
    Netlist nl;
    NetId d = nl.addInput("d");
    NetId rst = nl.addInput("rst");
    DffHandle ff = nl.addDff("q", true);
    nl.connectDff(ff.gate, d, rst, nl.constNet(true));
    EXPECT_EQ(nl.dffs().size(), 1u);
    EXPECT_TRUE(nl.gate(ff.gate).rstVal);
    EXPECT_THROW(nl.connectDff(0, d, rst, d), PanicError);
}

TEST(Netlist, MissingCombInputPanics)
{
    Netlist nl;
    NetId a = nl.addInput("a");
    EXPECT_THROW(nl.addComb(GateKind::And, a), PanicError);
}

TEST(Levelize, OrdersChain)
{
    Netlist nl;
    NetId a = nl.addInput("a");
    NetId n1 = nl.addComb(GateKind::Not, a);
    NetId n2 = nl.addComb(GateKind::Not, n1);
    nl.addComb(GateKind::Not, n2);
    auto order = levelize(nl);
    ASSERT_EQ(order.size(), 3u);
    // Drivers must come before consumers.
    EXPECT_EQ(order[0].index, nl.driverOf(n1));
    EXPECT_EQ(order[1].index, nl.driverOf(n2));
}

TEST(Levelize, DetectsCombCycle)
{
    Netlist nl;
    NetId a = nl.addNet("a");
    NetId b = nl.addComb(GateKind::Not, a);
    nl.addComb(GateKind::Not, b);
    // a has no driver, so no cycle yet; levelize succeeds.
    EXPECT_NO_THROW(levelize(nl));

    // Gates only read existing nets, so a comb loop must pass through
    // a memory read port: drive a with a ROM whose address is NOT a.
    MemoryDecl rom;
    rom.name = "rom";
    rom.width = 1;
    rom.words = 2;
    rom.writable = false;
    rom.readAddr = {b};
    rom.readData = {a};
    nl.addMemory(rom);
    EXPECT_THROW(levelize(nl), FatalError);
}

TEST(Levelize, DffBreaksCycle)
{
    // q = DFF(not q) is sequential, not combinational: must levelize.
    Netlist nl;
    DffHandle ff = nl.addDff("q");
    NetId nq = nl.addComb(GateKind::Not, ff.q);
    nl.connectDff(ff.gate, nq, nl.constNet(false), nl.constNet(true));
    EXPECT_NO_THROW(levelize(nl));
}

namespace ref
{

/**
 * A plain Kahn levelization, levelize()'s differential reference: one
 * consumer vector per node and a deque of ready nodes.
 * Node numbering is [0, nGates) gates, then the memories' read ports;
 * each node's consumers are listed in netlist order, one entry per
 * input edge (duplicates included).
 */
std::vector<EvalStep>
levelize(const Netlist &nl)
{
    const size_t nGates = nl.numGates();
    const size_t total = nGates + nl.numMemories();
    std::vector<bool> schedulable(total, false);
    for (GateId g = 0; g < nGates; ++g)
        schedulable[g] = nl.gate(g).type == GateType::Comb;
    for (size_t n = nGates; n < total; ++n)
        schedulable[n] = true;

    std::vector<std::vector<uint32_t>> consumers(total);
    std::vector<uint32_t> indegree(total, 0);
    auto add_dep = [&](NetId input_net, size_t consumer_node) {
        if (input_net == kNoNet)
            return;
        size_t producer;
        if (nl.memDriven(input_net)) {
            producer = nGates + nl.memDriver(input_net);
        } else {
            GateId d = nl.driverOf(input_net);
            if (d == static_cast<GateId>(-1) ||
                nl.gate(d).type != GateType::Comb)
                return;
            producer = d;
        }
        consumers[producer].push_back(
            static_cast<uint32_t>(consumer_node));
        ++indegree[consumer_node];
    };
    for (GateId g = 0; g < nGates; ++g) {
        const Gate &gate = nl.gate(g);
        if (gate.type != GateType::Comb)
            continue;
        for (unsigned i = 0; i < gateArity(gate.kind); ++i)
            add_dep(gate.in[i], g);
    }
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        for (NetId a : nl.memory(m).readAddr)
            add_dep(a, nGates + m);
    }

    std::deque<size_t> ready;
    for (size_t n = 0; n < total; ++n) {
        if (schedulable[n] && indegree[n] == 0)
            ready.push_back(n);
    }
    std::vector<EvalStep> order;
    while (!ready.empty()) {
        const size_t n = ready.front();
        ready.pop_front();
        if (n < nGates)
            order.push_back({EvalStep::Kind::Gate,
                             static_cast<uint32_t>(n)});
        else
            order.push_back({EvalStep::Kind::MemRead,
                             static_cast<uint32_t>(n - nGates)});
        for (uint32_t c : consumers[n]) {
            if (--indegree[c] == 0)
                ready.push_back(c);
        }
    }
    size_t expected = 0;
    for (size_t n = 0; n < total; ++n)
        expected += schedulable[n];
    if (order.size() != expected)
        GLIFS_FATAL("combinational cycle detected");
    return order;
}

} // namespace ref

/**
 * A random netlist over inputs, constants, undriven nets and
 * flip-flops: comb gates read earlier nets (the same net on several
 * inputs included), and a few memories, ROM or writable, put their
 * read data among them. A read address reads only nets older than its
 * port's data, so the netlist is acyclic; with @p cycle, memory 0's
 * address also reads a gate fed by its own data.
 */
Netlist
randomNetlist(uint32_t seed, bool cycle)
{
    static const GateKind kinds[] = {
        GateKind::Buf, GateKind::Not,  GateKind::And,
        GateKind::Nand, GateKind::Or,  GateKind::Nor,
        GateKind::Xor, GateKind::Xnor, GateKind::Mux,
    };
    std::mt19937 rng(seed);
    Netlist nl;
    std::vector<NetId> pool;
    auto pick = [&] { return pool[rng() % pool.size()]; };
    for (int i = 0; i < 3; ++i)
        pool.push_back(nl.addInput("in" + std::to_string(i)));
    pool.push_back(nl.constNet(false));
    pool.push_back(nl.constNet(true));
    for (int i = 0; i < 2; ++i)
        pool.push_back(nl.addNet());
    std::vector<DffHandle> ffs;
    for (int i = 0; i < 4; ++i) {
        ffs.push_back(nl.addDff("q" + std::to_string(i)));
        pool.push_back(ffs.back().q);
    }

    struct Port
    {
        std::vector<NetId> addr;
        std::vector<NetId> data;
    };
    std::vector<Port> ports;
    const size_t steps = 40 + rng() % 160;
    for (size_t step = 0; step < steps; ++step) {
        if (ports.size() < 3 &&
            (rng() % 32 == 0 || (ports.empty() && step == steps / 2))) {
            Port p;
            for (unsigned b = 0, n = 2 + rng() % 2; b < n; ++b)
                p.addr.push_back(pick());
            for (unsigned b = 0; b < 3; ++b) {
                p.data.push_back(nl.addNet());
                pool.push_back(p.data.back());
            }
            ports.push_back(std::move(p));
            continue;
        }
        const GateKind kind = kinds[rng() % 9];
        const unsigned arity = gateArity(kind);
        const NetId a = pick();
        const NetId b = arity >= 2 ? pick() : kNoNet;
        const NetId c = arity >= 3 ? pick() : kNoNet;
        pool.push_back(nl.addComb(kind, a, b, c));
    }
    if (cycle)
        ports[0].addr[0] = nl.addComb(GateKind::Not, ports[0].data[0]);

    for (const DffHandle &ff : ffs)
        nl.connectDff(ff.gate, pick(), pick(), pick());
    for (size_t i = 0; i < ports.size(); ++i) {
        MemoryDecl decl;
        decl.name = "m" + std::to_string(i);
        decl.width = 3;
        decl.words = 4;
        decl.writable = rng() % 2 == 0;
        decl.readAddr = ports[i].addr;
        decl.readData = ports[i].data;
        if (decl.writable) {
            decl.writeAddr = {pick(), pick()};
            decl.writeData = {pick(), pick(), pick()};
            decl.writeEn = pick();
        }
        nl.addMemory(decl);
    }
    return nl;
}

TEST(Levelize, MatchesReferenceKahnOnRandomNetlists)
{
    for (uint32_t seed = 1; seed <= 300; ++seed) {
        const Netlist nl = randomNetlist(seed, false);
        const std::vector<EvalStep> want = ref::levelize(nl);
        const std::vector<EvalStep> got = levelize(nl);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].kind, want[i].kind)
                << "seed " << seed << " step " << i;
            ASSERT_EQ(got[i].index, want[i].index)
                << "seed " << seed << " step " << i;
        }

        const Netlist looped = randomNetlist(seed, true);
        EXPECT_THROW(ref::levelize(looped), FatalError) << "seed " << seed;
        EXPECT_THROW(levelize(looped), FatalError) << "seed " << seed;
    }
}

TEST(Builder, ReduceTrees)
{
    Netlist nl;
    NetBuilder nb(nl);
    std::vector<NetId> ins;
    for (int i = 0; i < 5; ++i)
        ins.push_back(nl.addInput("i" + std::to_string(i)));
    EXPECT_NE(nb.reduceAnd(ins), kNoNet);
    EXPECT_NE(nb.reduceOr(ins), kNoNet);
    EXPECT_NE(nb.reduceXor(ins), kNoNet);
    // Empty reductions give identity constants.
    EXPECT_EQ(nb.reduceAnd({}), nl.constNet(true));
    EXPECT_EQ(nb.reduceOr({}), nl.constNet(false));
}

TEST(Validate, CleanDesignHasNoErrors)
{
    Netlist nl;
    NetBuilder nb(nl);
    NetId a = nl.addInput("a");
    NetId b = nl.addInput("b");
    nl.markOutput(nb.bAnd(a, b), "o");
    for (const auto &issue : validate(nl))
        EXPECT_NE(issue.severity, ValidationIssue::Severity::Error);
}

TEST(Validate, UnconnectedDffReported)
{
    Netlist nl;
    nl.addDff("q");
    bool found = false;
    for (const auto &issue : validate(nl))
        found |= issue.severity == ValidationIssue::Severity::Error;
    EXPECT_TRUE(found);
    EXPECT_THROW(validateOrDie(nl), FatalError);
}

TEST(Stats, CountsGates)
{
    Netlist nl;
    NetBuilder nb(nl);
    NetId a = nl.addInput("a");
    NetId b = nl.addInput("b");
    nb.bAnd(a, b);
    nb.bXor(a, b);
    DffHandle ff = nl.addDff("q");
    nl.connectDff(ff.gate, a, nl.constNet(false), nl.constNet(true));
    NetlistStats s = computeStats(nl);
    EXPECT_EQ(s.combGates, 2u);
    EXPECT_EQ(s.dffs, 1u);
    EXPECT_EQ(s.inputs, 2u);
    EXPECT_EQ(s.combByKind[static_cast<size_t>(GateKind::And)], 1u);
    EXPECT_NE(s.str().find("comb=2"), std::string::npos);
}

TEST(Dot, ExportsGraph)
{
    Netlist nl;
    NetBuilder nb(nl);
    NetId a = nl.addInput("a");
    NetId o = nb.bNot(a);
    nl.markOutput(o, "o");
    std::string dot = toDot(nl, "g");
    EXPECT_NE(dot.find("digraph g"), std::string::npos);
    EXPECT_NE(dot.find("NOT"), std::string::npos);
    EXPECT_NE(dot.find("OUT o"), std::string::npos);
}

// ---- memory taint semantics (Figure 9) ---------------------------------

class MemFixture : public ::testing::Test
{
  protected:
    static constexpr unsigned width = 8;
    static constexpr size_t words = 16;
    TernPlanes cells{words * width};

    void
    SetUp() override
    {
        for (size_t i = 0; i < cells.size(); ++i)
            cells.set(i, sigZero());
    }

    std::vector<Signal>
    addrSig(uint16_t value, uint16_t x_mask = 0, uint16_t taint_mask = 0)
    {
        std::vector<Signal> a(4);
        for (unsigned i = 0; i < 4; ++i) {
            a[i].value = (x_mask >> i) & 1
                             ? Tern::X
                             : ternBool((value >> i) & 1);
            a[i].taint = (taint_mask >> i) & 1;
        }
        return a;
    }

    TernWord
    dataSig(uint8_t value, bool taint = false)
    {
        return {lowMask(width), value, taint ? lowMask(width) : 0};
    }

    bool
    cellTainted(size_t w)
    {
        return cells.taint().getBits(w * width, width) != 0;
    }
};

TEST_F(MemFixture, ConcreteWriteAndRead)
{
    auto addr = addrSig(5);
    MemAddr ma = decodeMemAddr(addr, words, 12);
    EXPECT_TRUE(ma.concrete());
    memoryWrite(cells, width, words, ma, sigOne(), dataSig(0xAB));
    const TernWord out = memoryRead(cells, width, words, ma);
    EXPECT_EQ(out.known, lowMask(width));
    EXPECT_EQ(out.value, 0xABu);
    EXPECT_EQ(out.taint, 0u);
}

TEST_F(MemFixture, TaintedAddressTaintsCell)
{
    auto addr = addrSig(3, 0, 0x1);  // known but tainted address
    MemAddr ma = decodeMemAddr(addr, words, 12);
    EXPECT_TRUE(ma.tainted);
    memoryWrite(cells, width, words, ma, sigOne(), dataSig(0x01));
    EXPECT_TRUE(cellTainted(3));
    EXPECT_FALSE(cellTainted(2));
}

TEST_F(MemFixture, UnknownTaintedAddressTaintsWholeReachableSet)
{
    // Figure 9 left-hand listing: a store through a fully unknown
    // tainted pointer taints every memory cell.
    auto addr = addrSig(0, 0xF, 0xF);
    MemAddr ma = decodeMemAddr(addr, words, 12);
    memoryWrite(cells, width, words, ma, sigOne(), dataSig(0x01));
    for (size_t w = 0; w < words; ++w)
        EXPECT_TRUE(cellTainted(w)) << "word " << w;
}

TEST_F(MemFixture, MaskedAddressLimitsTaint)
{
    // Figure 9 right-hand listing: masking the unknown address to the
    // high half keeps the low half untainted.
    auto addr = addrSig(0x8, 0x7, 0x7);  // bit3 fixed 1, low bits X
    MemAddr ma = decodeMemAddr(addr, words, 12);
    memoryWrite(cells, width, words, ma, sigOne(), dataSig(0x01, true));
    for (size_t w = 0; w < 8; ++w)
        EXPECT_FALSE(cellTainted(w)) << "word " << w;
    for (size_t w = 8; w < 16; ++w)
        EXPECT_TRUE(cellTainted(w)) << "word " << w;
}

TEST_F(MemFixture, StrongUpdateCanUntaint)
{
    // Overwriting a tainted cell with untainted data through a fully
    // known untainted pointer clears the taint.
    cells.set(7 * width, Signal{Tern::Zero, true});
    auto addr = addrSig(7);
    MemAddr ma = decodeMemAddr(addr, words, 12);
    memoryWrite(cells, width, words, ma, sigOne(), dataSig(0x00));
    EXPECT_FALSE(cellTainted(7));
}

TEST_F(MemFixture, WeakUpdateMergesValues)
{
    auto a5 = addrSig(5);
    memoryWrite(cells, width, words, decodeMemAddr(a5, words, 12),
                sigOne(), dataSig(0xFF));
    // Unknown-address write of 0x00 across the whole memory.
    auto ax = addrSig(0, 0xF, 0);
    memoryWrite(cells, width, words, decodeMemAddr(ax, words, 12),
                sigOne(), dataSig(0x00));
    // Word 5 could now be 0xFF or 0x00: all bits X but untainted.
    for (unsigned b = 0; b < width; ++b) {
        EXPECT_EQ(cells.get(5 * width + b).value, Tern::X);
        EXPECT_FALSE(cells.get(5 * width + b).taint);
    }
}

TEST_F(MemFixture, TaintedButZeroEnableDoesNothing)
{
    // A tainted enable that is known 0 performs no write and adds no
    // taint: the path where the write actually happens is explored
    // separately by the analysis engine and carries the taint there
    // (path-enumeration semantics, see memoryWrite()).
    auto addr = addrSig(2);
    memoryWrite(cells, width, words, decodeMemAddr(addr, words, 12),
                Signal{Tern::Zero, true}, dataSig(0xFF));
    EXPECT_FALSE(cellTainted(2));
    EXPECT_EQ(cells.get(2 * width).value, Tern::Zero);
}

TEST_F(MemFixture, UnknownTaintedEnableTaints)
{
    // An enable that could actually be high within this path (X) does
    // taint the reachable cells.
    auto addr = addrSig(2);
    memoryWrite(cells, width, words, decodeMemAddr(addr, words, 12),
                Signal{Tern::X, true}, dataSig(0xFF));
    EXPECT_TRUE(cellTainted(2));
}

TEST_F(MemFixture, ReadMergesUnknownAddresses)
{
    memoryWrite(cells, width, words, decodeMemAddr(addrSig(0), words, 12),
                sigOne(), dataSig(0x00));
    memoryWrite(cells, width, words, decodeMemAddr(addrSig(1), words, 12),
                sigOne(), dataSig(0x01));
    const TernWord out = memoryRead(
        cells, width, words, decodeMemAddr(addrSig(0, 0x1), words, 12));
    EXPECT_EQ(out.at(0).value, Tern::X);   // bit 0 differs
    EXPECT_EQ(out.at(1).value, Tern::Zero);  // bit 1 same
}

TEST_F(MemFixture, ReadTaintedCellPropagates)
{
    cells.set(9 * width + 2, Signal{Tern::Zero, true});
    const TernWord out = memoryRead(cells, width, words,
                                    decodeMemAddr(addrSig(9), words, 12));
    EXPECT_TRUE(out.at(2).taint);
    EXPECT_FALSE(out.at(3).taint);
}

TEST_F(MemFixture, FullRangeFallback)
{
    auto addr = addrSig(0, 0xF, 0);
    MemAddr ma = decodeMemAddr(addr, words, 2 /* low cap */);
    EXPECT_TRUE(ma.fullRange);
    size_t visited = 0;
    forEachAddr(ma, words, [&](size_t) { ++visited; });
    EXPECT_EQ(visited, words);
}

// ---- plane memory model vs the per-cell reference -----------------------

/**
 * A per-cell memory model: one Signal per cell, decoded addresses
 * carry a list of X bit positions, and reads and writes merge bit by
 * bit. It is the reference the word-at-a-time plane model must match
 * on every read signal and every cell.
 */
namespace ref
{

struct Addr
{
    uint64_t base = 0;
    std::vector<unsigned> xBits;
    bool tainted = false;
    bool fullRange = false;

    bool concrete() const { return !fullRange && xBits.empty(); }
};

Addr
decode(const std::vector<Signal> &addr, size_t words,
       unsigned max_unknown_bits)
{
    Addr out;
    for (size_t i = 0; i < addr.size(); ++i) {
        out.tainted = out.tainted || addr[i].taint;
        if (!addr[i].known())
            out.xBits.push_back(static_cast<unsigned>(i));
        else if (addr[i].asBool())
            out.base |= 1ULL << i;
    }
    if (out.xBits.size() > max_unknown_bits ||
        (1ULL << out.xBits.size()) >= 2 * words) {
        out.fullRange = true;
        out.xBits.clear();
        out.base = 0;
    }
    return out;
}

template <typename Fn>
void
forEach(const Addr &addr, size_t words, Fn fn)
{
    if (addr.fullRange) {
        for (size_t w = 0; w < words; ++w)
            fn(w);
        return;
    }
    for (size_t c = 0; c < (1ULL << addr.xBits.size()); ++c) {
        uint64_t a = addr.base;
        for (size_t k = 0; k < addr.xBits.size(); ++k) {
            if ((c >> k) & 1ULL)
                a |= 1ULL << addr.xBits[k];
        }
        if (a < words)
            fn(static_cast<size_t>(a));
    }
}

std::vector<Signal>
read(const std::vector<Signal> &cells, unsigned width, size_t words,
     const Addr &addr)
{
    std::vector<Signal> out(width, Signal{Tern::X, false});
    if (addr.concrete()) {
        if (addr.base < words) {
            for (unsigned b = 0; b < width; ++b)
                out[b] = cells[addr.base * width + b];
        }
    } else {
        bool any = false;
        forEach(addr, words, [&](size_t w) {
            for (unsigned b = 0; b < width; ++b) {
                const Signal &cell = cells[w * width + b];
                if (!any) {
                    out[b] = cell;
                } else {
                    out[b].value = ternMerge(out[b].value, cell.value);
                    out[b].taint = out[b].taint || cell.taint;
                }
            }
            any = true;
        });
    }
    for (Signal &s : out)
        s.taint = s.taint || addr.tainted;
    return out;
}

void
write(std::vector<Signal> &cells, unsigned width, size_t words,
      const Addr &addr, const Signal &we, const std::vector<Signal> &data)
{
    if (we.known() && !we.asBool())
        return;
    const bool extra = we.taint || addr.tainted;
    if (we.known() && addr.concrete()) {
        if (addr.base >= words)
            return;
        for (unsigned b = 0; b < width; ++b) {
            cells[addr.base * width + b] = data[b];
            cells[addr.base * width + b].taint = data[b].taint || extra;
        }
        return;
    }
    forEach(addr, words, [&](size_t w) {
        for (unsigned b = 0; b < width; ++b) {
            Signal &cell = cells[w * width + b];
            cell.value = ternMerge(cell.value, data[b].value);
            cell.taint = cell.taint || data[b].taint || extra;
        }
    });
}

} // namespace ref

TEST(MemoryPlanesDifferential, ReadsAndWritesMatchPerCellReference)
{
    std::mt19937 rng(20261017);
    auto signal = [&rng](unsigned x_in, unsigned taint_in) {
        const Tern v = rng() % x_in == 0 ? Tern::X : ternBool(rng() & 1);
        return Signal{v, rng() % taint_in == 0};
    };
    for (unsigned width : {1u, 3u, 5u, 16u, 23u, 64u}) {
        for (size_t words : {1u, 7u, 13u, 40u}) {
            for (unsigned max_x : {12u, 1u}) {
                SCOPED_TRACE(::testing::Message()
                             << width << " bits x " << words
                             << " words, max X bits " << max_x);
                std::vector<Signal> want(words * width);
                TernPlanes got(words * width);
                for (size_t i = 0; i < want.size(); ++i) {
                    want[i] = signal(3, 3);
                    got.set(i, want[i]);
                }
                // One bit wider than the word index: out-of-range
                // addresses are reachable too.
                std::vector<Signal> addr(bitsFor(words) + 1);
                for (int op = 0; op < 300; ++op) {
                    SCOPED_TRACE(op);
                    for (Signal &s : addr)
                        s = signal(4, 8);
                    const ref::Addr ra = ref::decode(addr, words, max_x);
                    const MemAddr ma = decodeMemAddr(addr, words, max_x);
                    ASSERT_EQ(ma.tainted, ra.tainted);
                    ASSERT_EQ(ma.fullRange, ra.fullRange);
                    ASSERT_EQ(ma.concrete(), ra.concrete());

                    if (rng() % 2 == 0) {
                        const TernWord out =
                            memoryRead(got, width, words, ma);
                        const std::vector<Signal> exp =
                            ref::read(want, width, words, ra);
                        for (unsigned b = 0; b < width; ++b)
                            ASSERT_EQ(out.at(b), exp[b]) << "read bit " << b;
                        // Nothing above the word's width.
                        ASSERT_EQ((out.known | out.value | out.taint) &
                                      ~lowMask(width), 0u);
                        continue;
                    }
                    const Signal we = signal(3, 2);
                    std::vector<Signal> data(width);
                    TernWord packed;
                    for (unsigned b = 0; b < width; ++b) {
                        data[b] = signal(3, 3);
                        packed.set(b, data[b]);
                    }
                    memoryWrite(got, width, words, ma, we, packed);
                    ref::write(want, width, words, ra, we, data);
                    for (size_t i = 0; i < want.size(); ++i)
                        ASSERT_EQ(got.get(i), want[i]) << "cell " << i;
                    // The value bit stays 0 under an X.
                    ASSERT_TRUE(got.value().subsetOf(got.known()));
                }
            }
        }
    }
}

TEST(MemoryPlanesDifferential, BitRangesLeaveNeighboursAlone)
{
    std::mt19937_64 rng(63);
    for (size_t pos : {0u, 1u, 63u, 64u, 100u}) {
        for (unsigned n : {1u, 37u, 63u, 64u}) {
            SCOPED_TRACE(::testing::Message() << pos << "+" << n);
            BitPlane plane(256);
            for (uint64_t &w : plane.words())
                w = rng();
            const BitPlane before = plane;
            const uint64_t bits = rng();
            plane.setBits(pos, n, bits);
            EXPECT_EQ(plane.getBits(pos, n), bits & lowMask(n));
            for (size_t i = 0; i < plane.size(); ++i) {
                const bool inside = i >= pos && i < pos + n;
                ASSERT_EQ(plane.get(i),
                          inside ? bit(bits, static_cast<unsigned>(i - pos))
                                 : before.get(i))
                    << "bit " << i;
            }
        }
    }

    // copyRange between any pair of bit offsets, over lengths that
    // straddle plane words: the range takes the source cells in all
    // three planes, every other cell keeps its value, and the flag
    // reports exactly whether a destination cell changed.
    auto randomPlanes = [&rng](size_t cells) {
        BitPlane k(cells), v(cells), t(cells);
        for (size_t w = 0; w < k.words().size(); ++w) {
            k.words()[w] = rng();
            v.words()[w] = rng();
            t.words()[w] = rng();
        }
        return TernPlanes(BitPlane(k), BitPlane(v), BitPlane(t));
    };
    for (size_t first : {0u, 1u, 49u, 63u, 64u}) {
        for (size_t src_first : {0u, 1u, 49u, 63u, 64u}) {
            for (size_t n : {1u, 15u, 64u, 65u, 130u, 200u}) {
                SCOPED_TRACE(::testing::Message()
                             << first << " <- " << src_first << "+" << n);
                TernPlanes dst = randomPlanes(320);
                const TernPlanes src = randomPlanes(300);
                const TernPlanes before = dst;
                const bool changed = dst.copyRange(first, src, src_first, n);
                EXPECT_EQ(changed, !(dst == before));
                for (size_t i = 0; i < dst.size(); ++i) {
                    const bool inside = i >= first && i < first + n;
                    const TernWord got = dst.word(i, 1);
                    const TernWord want = inside
                                              ? src.word(src_first + i - first, 1)
                                              : before.word(i, 1);
                    ASSERT_TRUE(got.known == want.known &&
                                got.value == want.value &&
                                got.taint == want.taint)
                        << "cell " << i;
                }

                // Copying the same range again changes nothing.
                EXPECT_FALSE(dst.copyRange(first, src, src_first, n));

                // A cell differing only in taint counts as a change.
                TernPlanes taintOnly = dst;
                const size_t cell = first + n / 2;
                TernWord w = taintOnly.word(cell, 1);
                w.taint ^= 1;
                taintOnly.setWord(cell, 1, w);
                EXPECT_TRUE(taintOnly.copyRange(first, src, src_first, n));
                EXPECT_TRUE(taintOnly == dst);
            }
        }
    }
}

} // namespace
} // namespace glifs
