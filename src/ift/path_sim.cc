#include "ift/path_sim.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/trace.hh"
#include "ift/engine_stats.hh"

namespace glifs
{

PathSim::PathSim(const Soc &s, const Policy &p, const EngineConfig &c,
                 const ProgramImage &img)
    : soc(s), policy(p), cfg(c), image(img), sim(s.netlist()),
      layout(s.netlist()), checker(s, p)
{
    // Slot indices of the PC flip-flops within the layout: a flop's
    // position in dffs(), whose gate ids ascend.
    const std::vector<GateId> &dffs = s.netlist().dffs();
    for (GateId g : s.probes().pcFlops) {
        const auto it = std::lower_bound(dffs.begin(), dffs.end(), g);
        GLIFS_ASSERT(it != dffs.end() && *it == g,
                     "PC flop ", g, " is not a flip-flop");
        pcSlots.push_back(static_cast<size_t>(it - dffs.begin()));
    }
}

void
PathSim::loadProgram()
{
    sim.setMemCells(soc.probes().progMem, soc.programCells(image), 0);
    if (policy.taintCodeInProgMem) {
        for (const CodePartition &p : policy.code) {
            if (!p.tainted)
                continue;
            for (uint32_t a = p.lo;
                 a <= p.hi && a < image.words.size(); ++a) {
                sim.setMemWord(soc.probes().progMem, a,
                               image.words[a], true);
            }
        }
    }
}

void
PathSim::restore(const SymState &s)
{
    s.restore(layout, sim);
}

void
PathSim::setInputs(bool reset)
{
    const SocProbes &prb = soc.probes();
    sim.setInput(prb.extReset, sigBool(reset));
    for (unsigned p = 0; p < 4; ++p) {
        Signal s{Tern::X, policy.taintedInPort[p]};
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], s);
    }
    // Nondeterminism injection (Section 8): force the named nets
    // unknown so every downstream outcome is explored.
    for (const auto &[net, taint] : cfg.injectUnknown)
        sim.setInput(net, Signal{Tern::X, taint});
}

uint16_t
PathSim::busValue(const Bus &bus, const char *what) const
{
    uint16_t v = 0;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal s = sim.netValue(bus[i]);
        GLIFS_ASSERT(s.known(), "engine: ", what,
                     " has unknown bit ", i);
        if (s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

uint16_t
PathSim::tryBusValue(const Bus &bus) const
{
    uint16_t v = 0;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal s = sim.netValue(bus[i]);
        if (!s.known())
            return 0xFFFF;
        if (s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

bool
PathSim::busHasX(const Bus &bus) const
{
    for (NetId n : bus) {
        if (!sim.netValue(n).known())
            return true;
    }
    return false;
}

std::vector<unsigned>
PathSim::statePcXBits(const SymState &s) const
{
    std::vector<unsigned> xs;
    for (size_t i = 0; i < pcSlots.size(); ++i) {
        if (!s.slot(pcSlots[i]).known())
            xs.push_back(static_cast<unsigned>(i));
    }
    return xs;
}

bool
PathSim::statePcTainted(const SymState &s) const
{
    for (size_t slot : pcSlots) {
        if (s.slot(slot).taint)
            return true;
    }
    return false;
}

uint16_t
PathSim::statePcBase(const SymState &s) const
{
    uint16_t v = 0;
    for (size_t i = 0; i < pcSlots.size(); ++i) {
        Signal sig = s.slot(pcSlots[i]);
        if (sig.known() && sig.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

std::optional<Instr>
PathSim::instrAt(uint16_t addr) const
{
    if (addr >= image.words.size())
        return std::nullopt;
    return decode(&image.words[addr], image.words.size() - addr);
}

std::vector<uint16_t>
PathSim::candidatePcs(uint16_t instr_addr, const SymState &s,
                      bool &overflow)
{
    std::vector<unsigned> xbits = statePcXBits(s);
    uint16_t base = statePcBase(s);
    std::optional<Instr> instr = instrAt(instr_addr);

    std::vector<uint16_t> out;
    if (cfg.preciseJumpTargets && instr && instr->op == Op::J) {
        // Precise CFG successors of a conditional jump.
        uint16_t fall = static_cast<uint16_t>(instr_addr + 1);
        uint16_t target =
            static_cast<uint16_t>(instr_addr + 1 + instr->jumpOff);
        out = {target, fall};
    } else {
        if (xbits.size() > cfg.maxBranchBits) {
            overflow = true;
            return {};
        }
        for (size_t c = 0; c < (1ULL << xbits.size()); ++c) {
            uint16_t a = base;
            for (size_t k = 0; k < xbits.size(); ++k) {
                if ((c >> k) & 1ULL)
                    a |= static_cast<uint16_t>(1u << xbits[k]);
            }
            out.push_back(a);
        }
    }
    // Keep unique, in-range candidates consistent with the known
    // PC bits.
    std::vector<uint16_t> filtered;
    uint16_t xmask = 0;
    for (unsigned b : xbits)
        xmask |= static_cast<uint16_t>(1u << b);
    for (uint16_t a : out) {
        if (a >= image.words.size() && a >= iot430::kProgWords)
            continue;
        if ((a & ~xmask & lowMask(pcSlots.size())) !=
            (base & static_cast<uint16_t>(~xmask)))
            continue;
        bool dup = false;
        for (uint16_t f : filtered)
            dup |= f == a;
        if (!dup)
            filtered.push_back(a);
    }
    return filtered;
}

SymState
PathSim::concretizePc(const SymState &s, uint16_t pc) const
{
    SymState child = s;
    for (size_t i = 0; i < pcSlots.size(); ++i) {
        Signal cur = s.slot(pcSlots[i]);
        child.setSlot(pcSlots[i],
                      Signal{ternBool((pc >> i) & 1u), cur.taint});
    }
    return child;
}

std::pair<size_t, size_t>
PathSim::starSaturate(BitPlane *everTainted)
{
    ++engineStats().starSaturations;
    GLIFS_TRACE_INSTANT("engine", "star_saturate");
    const Netlist &nl = soc.netlist();
    for (GateId g : nl.dffs())
        sim.setNet(nl.gate(g).out, Signal{Tern::X, true});
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        if (!nl.memory(m).writable)
            continue;
        const size_t cells = sim.memCells(m).size();
        BitPlane taint(cells);
        taint.setAll();
        sim.setMemCells(m,
                        TernPlanes(BitPlane(cells), BitPlane(cells),
                                   std::move(taint)),
                        0);
    }
    const SocProbes &prb = soc.probes();
    sim.setInput(prb.extReset, sigBool(false));
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], Signal{Tern::X, true});
    }
    sim.evalComb();
    if (cfg.trackTaintedNets && everTainted) {
        std::vector<uint64_t> taintSlots(sim.planeWords(), 0);
        sim.orTaint(taintSlots);
        sim.slotsToNets(taintSlots, *everTainted);
    }

    size_t tainted = 0;
    size_t total = 0;
    for (const Gate &g : nl.gates()) {
        if (g.type != GateType::Comb && g.type != GateType::Dff)
            continue;
        ++total;
        Signal out = sim.netValue(g.out);
        bool next_taint = out.taint;
        if (g.type == GateType::Dff) {
            next_taint =
                dffNext(sim.netValue(g.in[0]), sim.netValue(g.in[1]),
                        sim.netValue(g.in[2]), out, g.rstVal).taint;
        }
        if (next_taint)
            ++tainted;
    }
    return {tainted, total};
}

SegmentResult
PathSim::runSegment(const SymState &start, const SegmentHooks &hooks,
                    uint64_t cycleBase)
{
    SegmentResult res;
    // Each settle's taint plane is ORed in slot order; the nets are
    // named once, at the segment's end.
    std::vector<uint64_t> taintSlots;
    if (cfg.trackTaintedNets)
        taintSlots.assign(sim.planeWords(), 0);
    ViolationLog seglog;
    // The checker logs on the absolute clock; the result carries
    // segment-relative cycles so it stays a function of start alone.
    auto collect = [&] {
        res.violations = seglog.list();
        for (Violation &v : res.violations)
            v.firstCycle -= cycleBase;
        if (cfg.trackTaintedNets) {
            res.taintDelta = BitPlane(soc.netlist().numNets());
            sim.slotsToNets(taintSlots, res.taintDelta);
        }
    };
    const SocProbes &prb = soc.probes();

    restore(start);
    GLIFS_ASSERT(statePcXBits(start).empty(),
                 "segment start with unknown PC");

    while (true) {
        // The governor-poll point: before the cycle's inputs are
        // driven, so budget stops are cycle-exact.
        if (hooks.poll && hooks.poll() == CycleAction::Stop) {
            res.stopped = true;
            res.end.capture(layout, sim);
            ++engineStats().stateCaptures;
            res.endInstr = tryBusValue(prb.instrAddrQ);
            collect();
            return res;
        }

        setInputs(false);
        sim.evalComb();
        ++res.cycles;
        if (hooks.cycleCharged)
            hooks.cycleCharged();
        if (cfg.trackTaintedNets)
            sim.orTaint(taintSlots);

        const uint16_t instr_addr =
            busValue(prb.instrAddrQ, "instruction address");
        const uint64_t cycle = cycleBase + res.cycles;
        checker.checkCycle(sim, instr_addr, cycle, seglog);

        const uint16_t fsm = busValue(prb.stateQ, "fsm state");

        // *-logic baseline: give up at the first tainted or unknown
        // control flow; the driver saturates the state.
        if (cfg.starLogicMode) {
            bool pc_taint = false;
            for (NetId n : prb.pcQ)
                pc_taint |= sim.netValue(n).taint;
            if (pc_taint || busHasX(prb.pcD)) {
                res.starAborted = true;
                res.endInstr = instr_addr;
                res.endFsm = fsm;
                collect();
                return res;
            }
        }

        if (fsm == static_cast<uint16_t>(CoreState::Halt)) {
            res.halted = true;
            res.endInstr = instr_addr;
            res.endFsm = fsm;
            checker.checkMemoryInvariant(sim, instr_addr, cycle, seglog);
            collect();
            return res;
        }

        // Is this cycle a PC-changing commit?
        std::optional<Instr> instr = instrAt(instr_addr);
        bool is_commit =
            fsm == static_cast<uint16_t>(CoreState::Call) ||
            fsm == static_cast<uint16_t>(CoreState::Ret) ||
            (fsm == static_cast<uint16_t>(CoreState::Exec) && instr &&
             (instr->op == Op::J || instr->op == Op::Br));

        // Unknown watchdog expiry: fork into fired / not-fired so
        // the POR is always simulated with a concrete reset line
        // (preserving the Figure-7 untainting). The fired branch is
        // returned as a frontier push; the not-fired branch continues
        // inline but is forced through the state table so the chain
        // of forks converges.
        Signal por = sim.netValue(prb.porNet);
        if (!por.known()) {
            SymState pre(layout);
            pre.capture(layout, sim);

            // Fired branch: POR forced high; PC resets to 0.
            sim.setNet(prb.porNet, Signal{Tern::One, por.taint});
            sim.clockEdge();
            SymState fired(layout);
            fired.capture(layout, sim);
            engineStats().stateCaptures += 2;
            GLIFS_ASSERT(statePcXBits(fired).empty(),
                         "POR branch left the PC unknown");
            const uint16_t startPc = statePcBase(fired);
            res.porForks.push_back(
                {std::move(fired), startPc, instr_addr, res.cycles});

            // Not-fired branch: replay the cycle with POR forced
            // low and continue inline as a forced merge point.
            // The fork chain is bounded by the next PC-changing
            // commit, where the normal state-table subsumption
            // applies.
            restore(pre);
            setInputs(false);
            sim.evalComb();
            sim.setNet(prb.porNet, Signal{Tern::Zero, por.taint});
        }

        sim.clockEdge();

        // The live PC flops decide whether the segment ends here; the
        // full state is captured only when it does.
        const bool pc_unknown = busHasX(prb.pcQ);

        if (!is_commit && !pc_unknown)
            continue;
        if (cfg.disableMerging && !pc_unknown)
            continue; // ablation: no subsumption, no merging

        res.end.capture(layout, sim);
        ++engineStats().stateCaptures;
        res.endInstr = instr_addr;
        res.endFsm = fsm;
        res.pcUnknown = pc_unknown;
        collect();
        return res;
    }
}

} // namespace glifs
