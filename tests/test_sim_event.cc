/**
 * @file
 * Differential tests of the compiled, event-driven Simulator against
 * ReferenceSim, the table interpreter that sweeps the whole levelized
 * schedule every settle (DESIGN.md "Compiled event-driven evaluation").
 *
 * The Simulator must be bit-identical to the reference -- values *and*
 * taints, every net and every memory cell, every cycle -- and so must
 * the toggle counts the energy model reads. This file proves it on
 * randomized netlists driven with randomized ternary/tainted stimulus
 * (including mid-cycle net overrides and external memory stores), on
 * the IoT430 SoC run concretely to HALT, reloaded with another program
 * mid-run and stepped symbolically in lockstep, and across
 * PathSim::restore, the tracked state write every segment of the
 * analysis starts with. Nets live only in the simulator's planes, so
 * the comparisons read them through netValue(), and separately check
 * that state() decodes the same values. It also pins the compiled
 * reader index to the netlists and a segment's taint summary to a
 * per-net scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "ift/path_sim.hh"
#include "ift/state_table.hh"
#include "ift/symstate.hh"
#include "netlist/compile.hh"
#include "netlist/levelize.hh"
#include "netlist/netlist.hh"
#include "sim/reference_sim.hh"
#include "sim/simulator.hh"
#include "soc/runner.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"
#include "reader_index_check.hh"

namespace glifs
{
namespace
{

// --- randomized netlist fuzz ----------------------------------------

/** A random-but-acyclic design with flops and two memory blocks. */
struct RandomDesign
{
    Netlist nl;
    std::vector<NetId> inputs;
    MemId ram = 0;
    MemId rom = 0;
};

NetId
pick(std::mt19937 &rng, const std::vector<NetId> &pool)
{
    return pool[rng() % pool.size()];
}

GateKind
randKind(std::mt19937 &rng)
{
    static const GateKind kKinds[] = {
        GateKind::Buf, GateKind::Not,  GateKind::And,
        GateKind::Nand, GateKind::Or,  GateKind::Nor,
        GateKind::Xor, GateKind::Xnor, GateKind::Mux};
    return kKinds[rng() % 9];
}

Signal
randSignal(std::mt19937 &rng)
{
    static const Tern kVals[] = {Tern::Zero, Tern::One, Tern::X};
    const uint32_t r = rng();
    return Signal{kVals[r % 3], (r & 8) != 0};
}

void
addGates(std::mt19937 &rng, Netlist &nl, std::vector<NetId> &pool,
         size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        GateKind k = randKind(rng);
        NetId a = pick(rng, pool);
        NetId b = gateArity(k) >= 2 ? pick(rng, pool) : kNoNet;
        NetId c = gateArity(k) >= 3 ? pick(rng, pool) : kNoNet;
        pool.push_back(nl.addComb(k, a, b, c));
    }
}

std::vector<NetId>
pickAddr(std::mt19937 &rng, const std::vector<NetId> &pool,
         size_t bits)
{
    std::vector<NetId> addr;
    for (size_t i = 0; i < bits; ++i)
        addr.push_back(pick(rng, pool));
    return addr;
}

/**
 * Acyclic by stratification: wave-1 gates read sources, both memory
 * read ports address through sources/wave-1, wave-2 gates may read the
 * memory data, and only the flip-flops (legal feedback) close loops.
 */
RandomDesign
buildRandomDesign(std::mt19937 &rng)
{
    RandomDesign d;
    Netlist &nl = d.nl;

    const size_t nIn = 4 + rng() % 7;
    for (size_t i = 0; i < nIn; ++i)
        d.inputs.push_back(nl.addInput("in" + std::to_string(i)));

    std::vector<NetId> pool = d.inputs;
    pool.push_back(nl.constNet(false));
    pool.push_back(nl.constNet(true));

    const size_t nDff = 2 + rng() % 7;
    std::vector<DffHandle> dffs;
    for (size_t i = 0; i < nDff; ++i) {
        dffs.push_back(nl.addDff("q" + std::to_string(i),
                                 (rng() & 1) != 0));
        pool.push_back(dffs.back().q);
    }

    addGates(rng, nl, pool, 10 + rng() % 30);

    auto makeMem = [&](const char *name, bool writable) {
        MemoryDecl decl;
        decl.name = name;
        decl.width = 4 + rng() % 5;
        decl.words = 8 + rng() % 9;
        decl.writable = writable;
        decl.maxUnknownAddrBits = 2 + rng() % 3;
        decl.addrTaintsRead = (rng() & 1) != 0;
        size_t bits = 1;
        while ((1ULL << bits) < decl.words)
            ++bits;
        decl.readAddr = pickAddr(rng, pool, bits);
        for (unsigned b = 0; b < decl.width; ++b)
            decl.readData.push_back(nl.addNet());
        if (writable) {
            decl.writeAddr = pickAddr(rng, pool, bits);
            for (unsigned b = 0; b < decl.width; ++b)
                decl.writeData.push_back(pick(rng, pool));
            decl.writeEn = pick(rng, pool);
        }
        MemId id = nl.addMemory(decl);
        for (NetId n : nl.memory(id).readData)
            pool.push_back(n);
        return id;
    };
    d.ram = makeMem("ram", true);
    d.rom = makeMem("rom", false);

    addGates(rng, nl, pool, 10 + rng() % 30);

    for (const DffHandle &ff : dffs) {
        nl.connectDff(ff.gate, pick(rng, pool), pick(rng, pool),
                      pick(rng, pool));
    }
    return d;
}

/**
 * Every net of @p sim, read through netValue(), and every memory cell
 * against the reference state @p ref.
 */
::testing::AssertionResult
statesEqual(const Simulator &sim, const SignalState &ref)
{
    const Netlist &nl = sim.netlist();
    for (NetId n = 0; n < nl.numNets(); ++n) {
        if (!(sim.netValue(n) == ref.net(n))) {
            return ::testing::AssertionFailure()
                   << "net " << n << " (" << nl.net(n).name
                   << "): simulator " << sim.netValue(n).str()
                   << " vs reference " << ref.net(n).str();
        }
    }
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const TernPlanes &ca = sim.memCells(m);
        const TernPlanes &cb = ref.memCells(m);
        // A value bit left set under an X is invisible to get() but
        // reaches SymState ==, explore digests and checkpoint bytes.
        if (ca == cb)
            continue;
        for (size_t i = 0; i < ca.size(); ++i) {
            if (!(ca.get(i) == cb.get(i))) {
                return ::testing::AssertionFailure()
                       << "memory " << nl.memory(m).name << " cell "
                       << i << ": " << ca.get(i).str() << " vs "
                       << cb.get(i).str();
            }
        }
        return ::testing::AssertionFailure()
               << "memory " << nl.memory(m).name << ": planes differ";
    }
    return ::testing::AssertionSuccess();
}

/** Simulator::state() exposes exactly what netValue() reads. */
::testing::AssertionResult
stateMatchesNetValues(const Simulator &sim)
{
    const SignalState &st = sim.state();
    for (NetId n = 0; n < sim.netlist().numNets(); ++n) {
        if (!(st.net(n) == sim.netValue(n))) {
            return ::testing::AssertionFailure()
                   << "net " << n << ": state() " << st.net(n).str()
                   << " vs netValue " << sim.netValue(n).str();
        }
    }
    return ::testing::AssertionSuccess();
}

/** Every ToggleStats field the energy model reads. */
::testing::AssertionResult
togglesEqual(const ToggleStats &a, const ToggleStats &b)
{
    for (size_t k = 0; k < a.combToggles.size(); ++k) {
        if (a.combToggles[k] != b.combToggles[k]) {
            return ::testing::AssertionFailure()
                   << "comb toggles of gate kind " << k << ": "
                   << a.combToggles[k] << " vs " << b.combToggles[k];
        }
    }
    if (a.dffToggles != b.dffToggles || a.memWrites != b.memWrites ||
        a.cycles != b.cycles) {
        return ::testing::AssertionFailure()
               << "dff toggles " << a.dffToggles << " vs "
               << b.dffToggles << ", memory writes " << a.memWrites
               << " vs " << b.memWrites << ", cycles " << a.cycles
               << " vs " << b.cycles;
    }
    return ::testing::AssertionSuccess();
}

void
runDifferential(uint32_t seed, int cycles)
{
    std::mt19937 rng(seed);
    RandomDesign d = buildRandomDesign(rng);

    Simulator sim(d.nl);
    ReferenceSim ref(d.nl);
    sim.enableToggleStats(true);
    ref.enableToggleStats(true);

    // Identical ROM contents on both sides.
    const MemoryDecl &rom = d.nl.memory(d.rom);
    for (size_t w = 0; w < rom.words; ++w) {
        const uint64_t v = rng() & ((1ULL << rom.width) - 1);
        const bool taint = (rng() & 1) != 0;
        sim.setMemWord(d.rom, w, v, taint);
        ref.setMemWord(d.rom, w, v, taint);
    }

    for (int c = 0; c < cycles; ++c) {
        for (NetId in : d.inputs) {
            if (rng() & 1)
                continue;  // hold the previous drive
            Signal s = randSignal(rng);
            sim.setInput(in, s);
            ref.setInput(in, s);
        }
        if (rng() % 7 == 0) {
            const MemoryDecl &ram = d.nl.memory(d.ram);
            const size_t w = rng() % ram.words;
            const uint64_t v = rng() & ((1ULL << ram.width) - 1);
            const bool taint = (rng() & 1) != 0;
            sim.setMemWord(d.ram, w, v, taint);
            ref.setMemWord(d.ram, w, v, taint);
        }

        sim.evalComb();
        ref.evalComb();
        ASSERT_TRUE(statesEqual(sim, ref.state()))
            << "after evalComb, cycle " << c << ", seed " << seed;
        ASSERT_TRUE(stateMatchesNetValues(sim))
            << "after evalComb, cycle " << c << ", seed " << seed;
        ASSERT_TRUE(togglesEqual(sim.toggleStats(), ref.toggleStats()))
            << "after evalComb, cycle " << c << ", seed " << seed;

        if (rng() % 5 == 0) {
            // Post-settle override of an arbitrary net, the por-fork
            // pattern: visible to the edge, recomputed next settle.
            const NetId n = rng() % d.nl.numNets();
            Signal s = randSignal(rng);
            sim.setNet(n, s);
            ref.setNet(n, s);
        }

        sim.clockEdge();
        ref.clockEdge();
        ASSERT_TRUE(statesEqual(sim, ref.state()))
            << "after clockEdge, cycle " << c << ", seed " << seed;
        ASSERT_TRUE(stateMatchesNetValues(sim))
            << "after clockEdge, cycle " << c << ", seed " << seed;
        ASSERT_TRUE(togglesEqual(sim.toggleStats(), ref.toggleStats()))
            << "after clockEdge, cycle " << c << ", seed " << seed;
    }
}

TEST(SimEventFuzz, RandomNetlistsMatchFullSweep)
{
    for (uint32_t seed = 1; seed <= 20; ++seed)
        runDifferential(seed, 150);
}

TEST(SimEventFuzz, ReaderIndexMatchesRandomNetlists)
{
    for (uint32_t seed = 1; seed <= 20; ++seed) {
        std::mt19937 rng(seed);
        const RandomDesign d = buildRandomDesign(rng);
        const CompiledNetlist cn = compileNetlist(d.nl, levelize(d.nl));
        EXPECT_TRUE(readerIndexMatchesNetlist(d.nl, cn)) << "seed " << seed;
    }
}

TEST(SimEventFuzz, SkippedEvalsAreCountedAndBounded)
{
    using stats::Registry;
    std::mt19937 rng(7);
    RandomDesign d = buildRandomDesign(rng);
    Simulator sim(d.nl);

    const double evals0 =
        Registry::instance().snapshot().value("sim.gate_evals");
    const double skip0 = Registry::instance().snapshot().value(
        "sim.gate_evals_skipped");

    sim.step();  // first settle: full sweep, nothing skipped yet
    for (int c = 0; c < 50; ++c)
        sim.step();  // quiescent inputs: almost everything skipped

    stats::Snapshot snap = Registry::instance().snapshot();
    const double evals = snap.value("sim.gate_evals") - evals0;
    const double skipped =
        snap.value("sim.gate_evals_skipped") - skip0;
    EXPECT_GT(skipped, 0.0);
    EXPECT_GT(evals, 0.0);
    const double ratio = snap.value("sim.dirty_ratio");
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
}

// --- IoT430 SoC end-to-end ------------------------------------------

class SimEventSoc : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        soc = new Soc();
    }

    static void
    TearDownTestSuite()
    {
        delete soc;
        soc = nullptr;
    }

    static ProgramImage
    loopImage()
    {
        return assembleSource(
            "        mov #200, r4\n"
            "l:      add #3, r5\n"
            "        mov r5, &0x0900\n"
            "        dec r4\n"
            "        jnz l\n"
            "        halt\n");
    }

    static Soc *soc;
};

Soc *SimEventSoc::soc = nullptr;

/** SocRunner's concrete drive (reset, ports at 0) on either simulator. */
template <typename Sim>
void
driveConcrete(const Soc &soc, Sim &sim, bool reset)
{
    const SocProbes &prb = soc.probes();
    sim.setInput(prb.extReset, sigBool(reset));
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], sigZero());
    }
}

TEST_F(SimEventSoc, ConcreteRunMatchesFullSweep)
{
    const Netlist &nl = soc->netlist();
    SocRunner runner(*soc);
    runner.simulator().enableToggleStats(true);
    runner.load(loopImage());
    runner.reset();
    const uint64_t cycles = runner.runToHalt(100000);

    // The reference replays SocRunner's load / reset / run to HALT.
    ReferenceSim ref(nl);
    ref.enableToggleStats(true);
    soc->loadProgram(ref.state(), loopImage());
    driveConcrete(*soc, ref, true);
    ref.step();
    const MemId ram = soc->probes().dataMem;
    for (size_t w = 0; w < nl.memory(ram).words; ++w)
        ref.setMemWord(ram, w, 0);
    driveConcrete(*soc, ref, false);
    for (uint64_t c = 0; c < cycles; ++c)
        ref.step();

    EXPECT_EQ(runner.simulator().cycle(), ref.cycle());
    for (unsigned reg = 0; reg < 16; ++reg)
        EXPECT_EQ(runner.reg(reg), soc->regValue(ref.state(), reg))
            << "r" << reg;
    EXPECT_EQ(runner.ram(0x0900), soc->ramValue(ref.state(), 0x0900));
    ASSERT_TRUE(statesEqual(runner.simulator(), ref.state()));
    // The energy model (xform/overhead.cc) reads these counters.
    EXPECT_TRUE(togglesEqual(runner.simulator().toggleStats(),
                             ref.toggleStats()));
}

TEST_F(SimEventSoc, ProgramReloadMatchesReference)
{
    // SocRunner::load over a running program: the new image must reach
    // the program memory's read port, whose address (the PC) has not
    // moved, in the settle of the reset that follows. Every settle and
    // edge is held to a full sweep of the same loads, resets and drive.
    const Netlist &nl = soc->netlist();
    const MemId ram = soc->probes().dataMem;
    SocRunner runner(*soc);
    Simulator &sim = runner.simulator();
    ReferenceSim ref(nl);
    sim.enableToggleStats(true);
    ref.enableToggleStats(true);

    auto stepBoth = [&](bool reset, const std::string &what) {
        driveConcrete(*soc, sim, reset);
        driveConcrete(*soc, ref, reset);
        sim.evalComb();
        ref.evalComb();
        ASSERT_TRUE(statesEqual(sim, ref.state())) << what << ", settle";
        ASSERT_TRUE(togglesEqual(sim.toggleStats(), ref.toggleStats()))
            << what << ", settle";
        sim.clockEdge();
        ref.clockEdge();
        ASSERT_TRUE(statesEqual(sim, ref.state())) << what << ", edge";
        ASSERT_TRUE(togglesEqual(sim.toggleStats(), ref.toggleStats()))
            << what << ", edge";
    };
    // SocRunner::reset on both: one reset cycle, then zeroed RAM.
    auto loadAndReset = [&](const ProgramImage &image,
                            const std::string &what) {
        runner.load(image);
        soc->loadProgram(ref.state(), image);
        stepBoth(true, what + " reset");
        for (size_t w = 0; w < nl.memory(ram).words; ++w) {
            sim.setMemWord(ram, w, 0);
            ref.setMemWord(ram, w, 0);
        }
    };

    const ProgramImage a = loopImage();
    loadAndReset(a, "program A");
    // Run A into its loop and up to an edge that left the PC alone, so
    // that nothing but the reload itself marks the read port.
    int c = 0;
    for (uint16_t pc = runner.pc(); c < 200; ++c) {
        stepBoth(false, "program A, cycle " + std::to_string(c));
        ASSERT_FALSE(HasFatalFailure());
        if (c >= 40 && runner.pc() == pc)
            break;
        pc = runner.pc();
    }
    ASSERT_LT(c, 200) << "the PC moved at every edge";
    ASSERT_FALSE(runner.halted());

    const ProgramImage b = assembleSource(
        "        mov #0x1234, r6\n"
        "        mov #9, r7\n"
        "l:      xor r7, r6\n"
        "        sub #1, r7\n"
        "        jnz l\n"
        "        mov r6, &0x0902\n"
        "        halt\n");
    ASSERT_NE(b.words.at(runner.pc()), a.words.at(runner.pc()));
    loadAndReset(b, "program B");
    ASSERT_FALSE(HasFatalFailure());
    for (c = 0; c < 2000 && !runner.halted() && !HasFatalFailure(); ++c)
        stepBoth(false, "program B, cycle " + std::to_string(c));
    ASSERT_FALSE(HasFatalFailure());
    ASSERT_TRUE(runner.halted()) << "program B did not halt";
    EXPECT_EQ(runner.ram(0x0902), soc->ramValue(ref.state(), 0x0902));
}

TEST_F(SimEventSoc, SymbolicLockstepSymStatesMatch)
{
    const Netlist &nl = soc->netlist();
    Simulator sim(nl);
    ReferenceSim ref(nl);
    sim.setMemCells(soc->probes().progMem, soc->programCells(loopImage()),
                    0);
    soc->loadProgram(ref.state(), loopImage());

    const SocProbes &prb = soc->probes();
    auto resetSymbolic = [&](auto &s) {
        s.setInput(prb.extReset, sigOne());
        for (unsigned p = 0; p < 4; ++p) {
            for (unsigned b = 0; b < 16; ++b)
                s.setInput(prb.portIn[p][b], Signal{Tern::X, true});
        }
        s.step();
        s.setInput(prb.extReset, sigZero());
    };
    resetSymbolic(sim);
    resetSymbolic(ref);

    SymLayout layout(nl);
    SymState ss(layout);
    SymState sr(layout);
    for (int c = 0; c < 300; ++c) {
        sim.step();
        ref.step();
        if (c % 50 != 0)
            continue;
        ss.capture(layout, sim);
        sr.capture(layout, ref.state());
        for (size_t i = 0; i < layout.slots(); ++i) {
            ASSERT_EQ(ss.slot(i), sr.slot(i))
                << "slot " << i << " at cycle " << c;
        }
    }
    ASSERT_TRUE(statesEqual(sim, ref.state()));
}

TEST_F(SimEventSoc, PathSimRestoreMatchesReference)
{
    // A restore rewrites every flop and memory cell behind the dirty
    // tracking, 40 cycles away from what the planes last saw; the
    // settles after PathSim::restore must still match a full sweep.
    const Workload &w = workloadByName("tHold");
    const Policy policy = w.policy();
    const ProgramImage image = w.image();
    PathSim ps(*soc, policy, EngineConfig{}, image);
    ps.loadProgram();
    ps.setInputs(true);
    ps.sim.step();
    SymState start(ps.layout);
    start.capture(ps.layout, ps.sim.state());
    for (int c = 0; c < 40; ++c) {
        ps.setInputs(false);
        ps.sim.step();
    }

    ps.restore(start);
    // Same state on the reference: restored flops and memories, the
    // program memory and the held input drive.
    ReferenceSim ref(soc->netlist());
    ref.state() = ps.sim.state();
    for (int c = 0; c < 40; ++c) {
        ps.setInputs(false);
        ps.sim.evalComb();
        ref.evalComb();
        ASSERT_TRUE(statesEqual(ps.sim, ref.state()))
            << "after evalComb, cycle " << c;
        ps.sim.clockEdge();
        ref.clockEdge();
        ASSERT_TRUE(statesEqual(ps.sim, ref.state()))
            << "after clockEdge, cycle " << c;
    }
}

/** PathSim::setInputs(false) on the reference: ports X, taint per policy. */
void
driveSymbolic(const Soc &soc, const Policy &policy, ReferenceSim &ref)
{
    const SocProbes &prb = soc.probes();
    ref.setInput(prb.extReset, sigZero());
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned b = 0; b < 16; ++b) {
            ref.setInput(prb.portIn[p][b],
                         Signal{Tern::X, policy.taintedInPort[p]});
        }
    }
}

/**
 * Up to @p limit states from a small Algorithm-1 run of @p ps (state
 * table merges included, since merged states are what reach the
 * unknown watchdog expiry): every segment start and the first two
 * POR-fired branches of each segment, which are explored too. An
 * unknown PC pushes every candidate. @p fired counts the POR-fired
 * states recorded.
 */
std::vector<SymState>
recordStates(PathSim &ps, size_t limit, size_t &fired)
{
    ps.setInputs(true);
    ps.sim.step();
    std::vector<SymState> todo(1, SymState(ps.layout));
    todo.back().capture(ps.layout, ps.sim);
    StateTable table;
    std::vector<SymState> states;
    fired = 0;
    while (!todo.empty() && states.size() < limit) {
        SymState start = std::move(todo.back());
        todo.pop_back();
        states.push_back(start);
        SegmentResult r = ps.runSegment(start);
        for (size_t f = 0; f < r.porForks.size() && f < 2; ++f) {
            states.push_back(r.porForks[f].fired);
            ++fired;
        }
        for (SegmentPorFork &f : r.porForks)
            todo.push_back(std::move(f.fired));
        if (r.halted)
            continue;
        SymState end = std::move(r.end);
        const uint32_t key =
            (static_cast<uint32_t>(r.endInstr) << 4) | r.endFsm;
        if (table.visit(key, end) == StateTable::Visit::Subsumed)
            continue;
        if (ps.statePcXBits(end).empty()) {
            todo.push_back(std::move(end));
            continue;
        }
        bool overflow = false;
        for (uint16_t pc : ps.candidatePcs(r.endInstr, end, overflow))
            todo.push_back(ps.concretizePc(end, pc));
    }
    return states;
}

TEST_F(SimEventSoc, TrackedRestoreMatchesReference)
{
    // PathSim::restore writes flops through setNet and memories through
    // setMemCells and invalidates nothing, so a settle after it runs
    // only the units its changes marked. Restore recorded states in a
    // random order, each on top of whatever the last one left, and
    // hold every settle and edge after it to a full sweep of the same
    // architectural state.
    const Netlist &nl = soc->netlist();
    const SocProbes &prb = soc->probes();
    const MemoryDecl &ram = nl.memory(prb.dataMem);
    for (const char *name : {"tHold", "inSort"}) {
        SCOPED_TRACE(name);
        const Workload &w = workloadByName(name);
        const Policy policy = w.policy();
        const ProgramImage image = w.image();
        PathSim ps(*soc, policy, EngineConfig{}, image);
        ps.loadProgram();
        // Program memory, constants and the rest of what a restore
        // leaves alone; a restore on the reference starts from it.
        const SignalState loaded = ps.sim.state();
        size_t fired = 0;
        std::vector<SymState> states = recordStates(ps, 40, fired);
        ASSERT_GE(states.size(), 32u);
        if (std::string(name) == "tHold") {
            ASSERT_GT(fired, 0u) << "no POR-fired state recorded";
        }

        ReferenceSim ref(nl);
        auto restoreBoth = [&](const SymState &st) {
            ps.restore(st);
            ref.state() = loaded;
            st.restore(ps.layout, ref.state());
            driveSymbolic(*soc, policy, ref);
        };
        auto stepBoth = [&](int cycles, const std::string &what) {
            for (int c = 0; c < cycles; ++c) {
                ps.setInputs(false);
                ps.sim.evalComb();
                ref.evalComb();
                ASSERT_TRUE(statesEqual(ps.sim, ref.state()))
                    << what << ", settle " << c;
                ASSERT_TRUE(stateMatchesNetValues(ps.sim))
                    << what << ", settle " << c;
                ps.sim.clockEdge();
                ref.clockEdge();
                ASSERT_TRUE(statesEqual(ps.sim, ref.state()))
                    << what << ", edge " << c;
                ASSERT_TRUE(stateMatchesNetValues(ps.sim))
                    << what << ", edge " << c;
            }
        };

        std::mt19937 rng(17);
        std::vector<size_t> order(states.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);
        for (size_t i : order) {
            restoreBoth(states[i]);
            stepBoth(8, "state " + std::to_string(i));
            if (HasFatalFailure())
                return;
        }

        // A restore whose only change is the RAM word under the read
        // port's current (concrete, untainted) address: a value bit,
        // then only its taint. Just the read port's mark can bring the
        // read data up to date.
        size_t ramBase = 0;
        for (const auto &[mem, base] : ps.layout.mems()) {
            if (mem == prb.dataMem)
                ramBase = base;
        }
        size_t probed = 0;
        for (size_t i = 0; i < states.size() && probed < 2; ++i) {
            restoreBoth(states[i]);
            ps.setInputs(false);
            ps.sim.evalComb();
            std::vector<Signal> addr;
            for (NetId a : ram.readAddr)
                addr.push_back(ps.sim.netValue(a));
            const MemAddr ma =
                decodeMemAddr(addr, ram.words, ram.maxUnknownAddrBits);
            if (ma.xMask || ma.tainted || ma.fullRange ||
                ma.base >= ram.words)
                continue;
            ++probed;
            const size_t cell = ramBase + ma.base * ram.width;
            const Signal old = states[i].slot(cell);
            SymState valueChanged = states[i];
            valueChanged.setSlot(
                cell, Signal{old.value == Tern::Zero ? Tern::One
                                                     : Tern::Zero,
                             old.taint});
            SymState taintChanged = states[i];
            taintChanged.setSlot(cell, Signal{old.value, !old.taint});
            for (const SymState *st : {&valueChanged, &taintChanged}) {
                restoreBoth(*st);
                stepBoth(8, "RAM word " + std::to_string(ma.base) +
                                " of state " + std::to_string(i));
                if (HasFatalFailure())
                    return;
                // Back to the settled original before the next variant.
                restoreBoth(states[i]);
                ps.setInputs(false);
                ps.sim.evalComb();
            }
        }
        EXPECT_EQ(probed, 2u) << "no concrete RAM read address found";
    }
}

TEST_F(SimEventSoc, TaintDeltaMatchesPerNetScan)
{
    // A segment ORs the taint plane into slot space each cycle and
    // names the nets once at its end; the reference is the per-net
    // scan after every settle (the cycleCharged hook runs right after
    // it).
    const Netlist &nl = soc->netlist();
    for (const char *name : {"tHold", "FFT"}) {
        SCOPED_TRACE(name);
        const Workload &w = workloadByName(name);
        const Policy policy = w.policy();
        const ProgramImage image = w.image();
        PathSim ps(*soc, policy, EngineConfig{}, image);
        ps.loadProgram();
        size_t fired = 0;
        const std::vector<SymState> states = recordStates(ps, 40, fired);
        if (std::string(name) == "tHold") {
            ASSERT_GT(fired, 0u) << "no POR fork recorded";
        }

        size_t forks = 0;
        for (size_t i = 0; i < states.size(); ++i) {
            BitPlane scan(nl.numNets());
            SegmentHooks hooks;
            hooks.cycleCharged = [&] {
                for (NetId n = 0; n < nl.numNets(); ++n) {
                    if (ps.sim.netValue(n).taint)
                        scan.set(n, true);
                }
            };
            const SegmentResult r = ps.runSegment(states[i], hooks);
            forks += r.porForks.size();
            ASSERT_TRUE(r.taintDelta == scan) << "segment " << i;
        }
        if (std::string(name) == "tHold") {
            EXPECT_GT(forks, 0u) << "no segment took a POR fork";
        }

        BitPlane everTainted(nl.numNets());
        ps.starSaturate(&everTainted);
        BitPlane scan(nl.numNets());
        for (NetId n = 0; n < nl.numNets(); ++n) {
            if (ps.sim.netValue(n).taint)
                scan.set(n, true);
        }
        EXPECT_TRUE(everTainted == scan) << "starSaturate";
    }
}

} // namespace
} // namespace glifs
