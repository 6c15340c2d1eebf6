#include "sim/simulator.hh"

#include <bit>

#include "base/stats.hh"
#include "base/trace.hh"
#include "netlist/levelize.hh"

namespace glifs
{

namespace
{

/** Hot-loop counters; one or two integer adds per settle/edge. */
struct SimStats
{
    stats::Scalar combEvals{"sim.comb_evals",
                            "combinational settle passes"};
    stats::Scalar gateEvals{"sim.gate_evals",
                            "individual gate/step evaluations"};
    stats::Scalar gateEvalsSkipped{
        "sim.gate_evals_skipped",
        "scheduled evaluations skipped as clean"};
    stats::Scalar clockEdges{"sim.clock_edges", "clock edges latched"};
    stats::Scalar memReadEvals{"sim.mem_read_evals",
                               "memory read-port evaluations"};
    stats::Scalar memWriteCommits{"sim.mem_write_commits",
                                  "memory write-port commits"};
    stats::Scalar packedWordEvals{
        "sim.packed_word_evals",
        "bit-packed kernel word applications"};
    stats::Formula dirtyRatio{
        "sim.dirty_ratio",
        "fraction of scheduled evaluations actually run",
        [] {
            SimStats &s = simStats();
            const double run =
                static_cast<double>(s.gateEvals.value());
            const double total =
                run + static_cast<double>(
                          s.gateEvalsSkipped.value());
            return total == 0.0 ? 1.0 : run / total;
        }};

    static SimStats &simStats();
};

SimStats &
SimStats::simStats()
{
    static SimStats s;
    return s;
}

SimStats &
simStats()
{
    return SimStats::simStats();
}

} // namespace

Simulator::Simulator(const Netlist &netlist) : nl(netlist), sigs(netlist)
{
    const std::vector<EvalStep> order = levelize(netlist);
    scheduleSize = order.size();
    packed = std::make_unique<PackedEval>(nl, order);
    writeScratch.resize(nl.numMemories());
    activeWrites.reserve(nl.numMemories());
}

Simulator::Simulator(Simulator &&) noexcept = default;

Simulator::~Simulator() = default;

void
Simulator::changeNet(NetId net, const Signal &s)
{
    packed->setNetPlanes(net, s);
    // A driven net is recomputed from its driver at the next settle, so
    // the override behaves exactly like under a full sweep (visible to
    // the clock edge, gone after the next evalComb()).
    packed->markProducerDirty(net);
    netsDecoded = false;
}

void
Simulator::setMemWord(MemId mem, size_t word, uint64_t value, bool taint)
{
    sigs.setMemWord(nl, mem, word, value, taint);
    packed->markMemUnitDirty(mem);
}

void
Simulator::setMemCells(MemId mem, const TernPlanes &src, size_t src_first)
{
    TernPlanes &cells = sigs.memCells(mem);
    if (cells.copyRange(0, src, src_first, cells.size()))
        packed->markMemUnitDirty(mem);
}

void
Simulator::slotsToNets(const std::vector<uint64_t> &acc,
                       BitPlane &nets) const
{
    const std::vector<NetId> &slotNet = packed->program().slotNet;
    std::vector<uint64_t> &out = nets.words();
    for (size_t w = 0; w < acc.size(); ++w) {
        for (uint64_t lanes = acc[w]; lanes; lanes &= lanes - 1) {
            const NetId n = slotNet[(w << 6) + static_cast<size_t>(
                                                   std::countr_zero(lanes))];
            if (n != kNoNet)
                out[n >> 6] |= 1ULL << (n & 63);
        }
    }
}

void
Simulator::stageMemWrites()
{
    activeWrites.clear();
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        if (!decl.writable)
            continue;
        PendingWrite &w = writeScratch[m];
        w.we = netValue(decl.writeEn);
        if (w.we.known() && !w.we.asBool() && !w.we.taint)
            continue;
        addrScratch.resize(decl.writeAddr.size());
        for (size_t i = 0; i < addrScratch.size(); ++i)
            addrScratch[i] = netValue(decl.writeAddr[i]);
        w.addr = decodeMemAddr(addrScratch, decl.words,
                               decl.maxUnknownAddrBits);
        for (unsigned b = 0; b < decl.width; ++b)
            w.data.set(b, netValue(decl.writeData[b]));
        activeWrites.push_back(m);
    }
}

void
Simulator::runUnit(uint32_t unit, size_t &evaluated, size_t &wordEvals)
{
    PackedEval &pe = *packed;
    const EvalUnit &u = pe.program().units[unit];
    if (u.kind == EvalUnit::Kind::MemRead) {
        ++simStats().memReadEvals;
        evalMemRead(u.index);
        ++evaluated;
        return;
    }
    const PackedBatch &pb = pe.program().batches[u.index];
    const size_t tog = pe.runBatch(u.index);
    ++wordEvals;
    evaluated += pb.lanes;
    if (togglesOn)
        toggles.combToggles[static_cast<size_t>(pb.kind)] += tog;
}

void
Simulator::evalMemRead(MemId m)
{
    const MemoryDecl &decl = nl.memory(m);
    addrScratch.resize(decl.readAddr.size());
    for (size_t i = 0; i < addrScratch.size(); ++i)
        addrScratch[i] = netValue(decl.readAddr[i]);

    MemAddr ma =
        decodeMemAddr(addrScratch, decl.words, decl.maxUnknownAddrBits);
    if (!decl.addrTaintsRead)
        ma.tainted = false;
    packed->storeMemRead(
        m, decl.width,
        memoryRead(sigs.memCells(m), decl.width, decl.words, ma));
}

void
Simulator::evalComb()
{
    SimStats &st = simStats();
    ++st.combEvals;
    PackedEval &pe = *packed;
    size_t evaluated = 0;  // gate lanes + mem read ports actually run
    size_t wordEvals = 0;
    netsDecoded = false;
    // Drain dirty units in ascending index order. Compilation
    // guarantees every consumer unit has a strictly higher index than
    // its producer, so marks land only ahead of the cursor and each
    // unit runs at most once per settle.
    std::vector<uint64_t> &ud = pe.unitDirtyWords();
    for (size_t w = 0; w < ud.size(); ++w) {
        while (uint64_t bits = ud[w]) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            ud[w] &= ~(1ULL << b);
            runUnit(static_cast<uint32_t>((w << 6) + b), evaluated,
                    wordEvals);
        }
    }
    st.gateEvals += evaluated;
    st.gateEvalsSkipped += scheduleSize - evaluated;
    st.packedWordEvals += wordEvals;

    trace::Tracer &tr = trace::Tracer::instance();
    if (tr.enabled()) {
        tr.counter("sim", "dirty_nodes",
                   static_cast<double>(evaluated));
    }
}

void
Simulator::clockEdge()
{
    PackedEval &pe = *packed;
    // Select the flip-flop words to latch. A word none of whose
    // D/RST/EN/Q lanes changed since its last computation latches its
    // own held value again -- skipping it is exact, not approximate.
    dffRunScratch.clear();
    std::vector<uint64_t> &dd = pe.dffDirtyWords();
    for (size_t w = 0; w < dd.size(); ++w) {
        uint64_t bits = dd[w];
        dd[w] = 0;
        while (bits) {
            dffRunScratch.push_back(static_cast<uint32_t>(
                (w << 6) + static_cast<unsigned>(std::countr_zero(bits))));
            bits &= bits - 1;
        }
    }

    // Stage everything -- flip-flop next states and memory write-port
    // updates -- before committing anything, so the edge is atomic.
    for (uint32_t i : dffRunScratch)
        pe.computeDffWord(i);
    stageMemWrites();

    // Each commit marks the readers of its changed Q nets: the units
    // of the next settle, and (through the Q entries of the reader
    // index) the dff words that must latch again at the next edge.
    size_t tog = 0;
    for (uint32_t i : dffRunScratch)
        tog += pe.commitDffWord(i);
    if (togglesOn)
        toggles.dffToggles += tog;
    netsDecoded = false;

    SimStats &st = simStats();
    ++st.clockEdges;
    st.packedWordEvals += dffRunScratch.size();
    for (MemId m : activeWrites) {
        const MemoryDecl &decl = nl.memory(m);
        const PendingWrite &w = writeScratch[m];
        memoryWrite(sigs.memCells(m), decl.width, decl.words, w.addr,
                    w.we, w.data);
        ++st.memWriteCommits;
        if (togglesOn)
            ++toggles.memWrites;
        // Cells may have changed: the read port must re-evaluate.
        pe.markMemUnitDirty(m);
    }

    ++cycleCount;
    if (togglesOn)
        ++toggles.cycles;
}

} // namespace glifs
