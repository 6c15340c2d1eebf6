#include "sim/simulator.hh"

#include <bit>

#include "base/stats.hh"
#include "base/trace.hh"
#include "netlist/levelize.hh"
#include "sim/packed_eval.hh"

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
Simulator::setNet(NetId net, const Signal &s)
{
    if (sigs.net(net) == s)
        return;
    sigs.setNet(net, s);
    if (allDirty)
        return;  // the next settle re-imports every net
    // A driven net must be recomputed from its driver at the next
    // settle, so the override behaves exactly like under a full sweep
    // (visible to the clock edge, gone after the next evalComb()).
    packed->setNetPlanes(net, s);
    packed->markConsumersDirty(net);
    packed->markProducerDirty(net);
}

void
Simulator::setMemWord(MemId mem, size_t word, uint64_t value, bool taint)
{
    sigs.setMemWord(nl, mem, word, value, taint);
    if (!allDirty)
        packed->markMemUnitDirty(mem);
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
        w.we = sigs.net(decl.writeEn);
        if (w.we.known() && !w.we.asBool() && !w.we.taint)
            continue;
        addrScratch.resize(decl.writeAddr.size());
        for (size_t i = 0; i < addrScratch.size(); ++i)
            addrScratch[i] = sigs.net(decl.writeAddr[i]);
        w.addr = decodeMemAddr(addrScratch, decl.words,
                               decl.maxUnknownAddrBits);
        for (unsigned b = 0; b < decl.width; ++b)
            w.data.set(b, sigs.net(decl.writeData[b]));
        activeWrites.push_back(m);
    }
}

void
Simulator::runUnit(uint32_t unit, bool track, size_t &evaluated,
                   size_t &wordEvals)
{
    PackedEval &pe = *packed;
    const EvalUnit &u = pe.program().units[unit];
    if (u.kind == EvalUnit::Kind::MemRead) {
        ++simStats().memReadEvals;
        evalMemRead(u.index, track);
        ++evaluated;
        return;
    }
    const PackedBatch &pb = pe.program().batches[u.index];
    pe.changedNets.clear();
    const size_t tog = pe.runBatch(u.index);
    ++wordEvals;
    evaluated += pb.lanes;
    if (togglesOn)
        toggles.combToggles[static_cast<size_t>(pb.kind)] += tog;
    // Mirror into the scalar state (the readable source of truth) and
    // propagate through the compiled consumer index.
    for (NetId n : pe.changedNets) {
        sigs.setNet(n, pe.signalAt(n));
        if (track)
            pe.markConsumersDirty(n);
    }
}

void
Simulator::evalMemRead(MemId m, bool track)
{
    PackedEval &pe = *packed;
    const MemoryDecl &decl = nl.memory(m);
    addrScratch.resize(decl.readAddr.size());
    for (size_t i = 0; i < addrScratch.size(); ++i)
        addrScratch[i] = sigs.net(decl.readAddr[i]);

    MemAddr ma =
        decodeMemAddr(addrScratch, decl.words, decl.maxUnknownAddrBits);
    if (!decl.addrTaintsRead)
        ma.tainted = false;
    const TernWord data =
        memoryRead(sigs.memCells(m), decl.width, decl.words, ma);
    for (unsigned b = 0; b < decl.width; ++b) {
        const NetId rd = decl.readData[b];
        const Signal s = data.at(b);
        if (sigs.net(rd) == s)
            continue;
        sigs.setNet(rd, s);
        pe.setNetPlanes(rd, s);
        if (track)
            pe.markConsumersDirty(rd);
    }
}

void
Simulator::evalComb()
{
    SimStats &st = simStats();
    ++st.combEvals;
    PackedEval &pe = *packed;
    size_t evaluated = 0;  // gate lanes + mem read ports actually run
    size_t wordEvals = 0;
    if (allDirty) {
        pe.importState(sigs);
        pe.clearAllDirty();
        const size_t numUnits = pe.program().units.size();
        for (uint32_t u = 0; u < numUnits; ++u)
            runUnit(u, /*track=*/false, evaluated, wordEvals);
        // The settle recomputed every comb net without tracking, so
        // the next edge must consider every flip-flop.
        pe.markAllDffDirty();
        allDirty = false;
    } else {
        // Drain dirty units in ascending index order. Compilation
        // guarantees every consumer unit has a strictly higher index
        // than its producer, so marks land only ahead of the cursor
        // and each unit runs at most once per settle.
        std::vector<uint64_t> &ud = pe.unitDirtyWords();
        for (size_t w = 0; w < ud.size(); ++w) {
            while (uint64_t bits = ud[w]) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(bits));
                ud[w] &= ~(1ULL << b);
                runUnit(static_cast<uint32_t>((w << 6) + b),
                        /*track=*/true, evaluated, wordEvals);
            }
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
    // An edge may follow markAllDirty() without a settle: latch from a
    // fresh import, and leave the dirty set invalid for the next one.
    const bool track = !allDirty;
    if (!track)
        pe.importState(sigs);

    // Select the flip-flop words to latch. A word none of whose
    // D/RST/EN/Q nets changed since its last computation latches its
    // own held value again -- skipping it is exact, not approximate.
    dffRunScratch.clear();
    std::vector<uint64_t> &dd = pe.dffDirtyWords();
    if (track) {
        for (size_t w = 0; w < dd.size(); ++w) {
            uint64_t bits = dd[w];
            dd[w] = 0;
            while (bits) {
                dffRunScratch.push_back(static_cast<uint32_t>(
                    (w << 6) +
                    static_cast<unsigned>(std::countr_zero(bits))));
                bits &= bits - 1;
            }
        }
    } else {
        std::fill(dd.begin(), dd.end(), 0);
        for (uint32_t i = 0; i < pe.program().dffWords.size(); ++i)
            dffRunScratch.push_back(i);
    }

    // Stage everything -- flip-flop next states and memory write-port
    // updates -- before committing anything, so the edge is atomic.
    for (uint32_t i : dffRunScratch)
        pe.computeDffWord(i);
    stageMemWrites();

    pe.changedNets.clear();
    size_t tog = 0;
    for (uint32_t i : dffRunScratch)
        tog += pe.commitDffWord(i);
    if (togglesOn)
        toggles.dffToggles += tog;
    // Mirror changed Q nets; their consumers seed the next settle and
    // (through the Q entries of the consumer index) re-arm the dff
    // words that must latch again next edge.
    for (NetId n : pe.changedNets) {
        sigs.setNet(n, pe.signalAt(n));
        if (track)
            pe.markConsumersDirty(n);
    }

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
        if (track)
            pe.markMemUnitDirty(m);
    }

    ++cycleCount;
    if (togglesOn)
        ++toggles.cycles;
}

} // namespace glifs
