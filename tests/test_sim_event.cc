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
 * (including mid-cycle net overrides, external memory stores and
 * dirty-set invalidation), on the IoT430 SoC run concretely to HALT and
 * stepped symbolically in lockstep, and across PathSim::restore, the
 * bulk state write every segment of the analysis starts with.
 */

#include <gtest/gtest.h>

#include <random>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "ift/path_sim.hh"
#include "ift/symstate.hh"
#include "netlist/netlist.hh"
#include "sim/reference_sim.hh"
#include "sim/simulator.hh"
#include "soc/runner.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

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

::testing::AssertionResult
statesEqual(const Netlist &nl, const SignalState &a, const SignalState &b)
{
    for (NetId n = 0; n < nl.numNets(); ++n) {
        if (!(a.net(n) == b.net(n))) {
            return ::testing::AssertionFailure()
                   << "net " << n << " (" << nl.net(n).name
                   << "): simulator " << a.net(n).str()
                   << " vs reference " << b.net(n).str();
        }
    }
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const TernPlanes &ca = a.memCells(m);
        const TernPlanes &cb = b.memCells(m);
        for (size_t i = 0; i < ca.size(); ++i) {
            if (!(ca.get(i) == cb.get(i))) {
                return ::testing::AssertionFailure()
                       << "memory " << nl.memory(m).name << " cell "
                       << i << ": " << ca.get(i).str() << " vs "
                       << cb.get(i).str();
            }
        }
        // A value bit left set under an X is invisible to get() but
        // reaches SymState ==, explore digests and checkpoint bytes.
        if (!(ca == cb)) {
            return ::testing::AssertionFailure()
                   << "memory " << nl.memory(m).name
                   << ": planes differ";
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
        if (rng() % 11 == 0)
            sim.markAllDirty();  // invalidation must stay sound

        sim.evalComb();
        ref.evalComb();
        ASSERT_TRUE(statesEqual(d.nl, sim.state(), ref.state()))
            << "after evalComb, cycle " << c << ", seed " << seed;
        ASSERT_TRUE(togglesEqual(sim.toggleStats(), ref.toggleStats()))
            << "after evalComb, cycle " << c << ", seed " << seed;

        if (rng() % 13 == 0)
            sim.markAllDirty();  // an edge straight after invalidation
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
        ASSERT_TRUE(statesEqual(d.nl, sim.state(), ref.state()))
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

/** SocRunner's concrete drive (reset, ports at 0) on the reference. */
void
driveConcrete(const Soc &soc, ReferenceSim &ref, bool reset)
{
    const SocProbes &prb = soc.probes();
    ref.setInput(prb.extReset, sigBool(reset));
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned b = 0; b < 16; ++b)
            ref.setInput(prb.portIn[p][b], sigZero());
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
    ASSERT_TRUE(statesEqual(nl, runner.simulator().state(), ref.state()));
    // The energy model (xform/overhead.cc) reads these counters.
    EXPECT_TRUE(togglesEqual(runner.simulator().toggleStats(),
                             ref.toggleStats()));
}

TEST_F(SimEventSoc, SymbolicLockstepSymStatesMatch)
{
    const Netlist &nl = soc->netlist();
    Simulator sim(nl);
    ReferenceSim ref(nl);
    soc->loadProgram(sim.state(), loopImage());
    sim.markAllDirty();
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
        ss.capture(layout, sim.state());
        sr.capture(layout, ref.state());
        for (size_t i = 0; i < layout.slots(); ++i) {
            ASSERT_EQ(ss.slot(i), sr.slot(i))
                << "slot " << i << " at cycle " << c;
        }
    }
    ASSERT_TRUE(statesEqual(nl, sim.state(), ref.state()));
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
        ASSERT_TRUE(statesEqual(soc->netlist(), ps.sim.state(),
                                ref.state()))
            << "after evalComb, cycle " << c;
        ps.sim.clockEdge();
        ref.clockEdge();
        ASSERT_TRUE(statesEqual(soc->netlist(), ps.sim.state(),
                                ref.state()))
            << "after clockEdge, cycle " << c;
    }
}

} // namespace
} // namespace glifs
