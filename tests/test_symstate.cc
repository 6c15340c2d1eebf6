/**
 * @file
 * Tests of the packed symbolic state: capture/restore round trips,
 * substate ordering and conservative merging (the lattice operations
 * Algorithm 1's termination argument rests on), and a differential
 * check of the word-at-a-time capture/restore against per-slot
 * accessors.
 */

#include <gtest/gtest.h>

#include <random>

#include "ift/state_table.hh"
#include "ift/symstate.hh"
#include "netlist/builder.hh"
#include "sim/simulator.hh"
#include "soc/soc.hh"

namespace glifs
{
namespace
{

/** A tiny netlist: 4 flops and one 4x4 memory. */
struct Fixture
{
    Netlist nl;
    std::vector<DffHandle> flops;

    Fixture()
    {
        NetId d = nl.addInput("d");
        NetId rst = nl.addInput("rst");
        for (int i = 0; i < 4; ++i) {
            DffHandle ff = nl.addDff("q" + std::to_string(i));
            nl.connectDff(ff.gate, d, rst, nl.constNet(true));
            flops.push_back(ff);
        }
        MemoryDecl mem;
        mem.name = "m";
        mem.width = 4;
        mem.words = 4;
        mem.readAddr = {nl.addInput("a0"), nl.addInput("a1")};
        for (int i = 0; i < 4; ++i)
            mem.readData.push_back(nl.addNet("rd" + std::to_string(i)));
        mem.writeAddr = mem.readAddr;
        mem.writeData = {d, d, d, d};
        mem.writeEn = nl.addInput("we");
        nl.addMemory(mem);
    }
};

TEST(SymState, LayoutCountsSlots)
{
    Fixture f;
    SymLayout layout(f.nl);
    EXPECT_EQ(layout.dffNets().size(), 4u);
    EXPECT_EQ(layout.slots(), 4u + 16u);
}

TEST(SymState, RomExcludedFromLayout)
{
    Netlist nl;
    MemoryDecl rom;
    rom.name = "rom";
    rom.width = 4;
    rom.words = 4;
    rom.writable = false;
    rom.readAddr = {nl.addInput("a0"), nl.addInput("a1")};
    for (int i = 0; i < 4; ++i)
        rom.readData.push_back(nl.addNet("rd" + std::to_string(i)));
    nl.addMemory(rom);
    SymLayout layout(nl);
    EXPECT_EQ(layout.slots(), 0u);
}

TEST(SymState, CaptureRestoreRoundTrip)
{
    Fixture f;
    SymLayout layout(f.nl);
    SignalState sigs(f.nl);
    sigs.setNet(f.flops[0].q, sigBool(1, true));
    sigs.setNet(f.flops[1].q, sigX());
    sigs.setNet(f.flops[2].q, sigBool(0, false));
    sigs.memCells(0).set(5, Signal{Tern::One, true});

    SymState s(layout);
    s.capture(layout, sigs);

    SignalState other(f.nl);
    s.restore(layout, other);
    EXPECT_EQ(other.net(f.flops[0].q), sigBool(1, true));
    EXPECT_EQ(other.net(f.flops[1].q), sigX());
    EXPECT_EQ(other.net(f.flops[2].q), sigBool(0, false));
    EXPECT_EQ(other.memCells(0).get(5), (Signal{Tern::One, true}));

    SymState s2(layout);
    s2.capture(layout, other);
    EXPECT_EQ(s, s2);
}

TEST(SymState, SubsumptionOrdering)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState concrete(layout);
    SymState abstract(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        concrete.setSlot(i, sigBool(i % 2 == 0));
        abstract.setSlot(i, sigX());
    }
    EXPECT_TRUE(concrete.subsumedBy(abstract));
    EXPECT_FALSE(abstract.subsumedBy(concrete));
    EXPECT_TRUE(concrete.subsumedBy(concrete));

    // Differing known values are not subsumed either way.
    SymState other = concrete;
    other.setSlot(0, sigBool(0));  // concrete has slot 0 == 1
    EXPECT_FALSE(other.subsumedBy(concrete));
    EXPECT_FALSE(concrete.subsumedBy(other));
}

TEST(SymState, TaintContainmentInSubsumption)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState clean(layout);
    SymState tainted(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        clean.setSlot(i, sigBool(0));
        tainted.setSlot(i, sigBool(0, true));
    }
    // Same values, but the tainted state is NOT covered by the clean
    // one; the clean one IS covered by the tainted one.
    EXPECT_FALSE(tainted.subsumedBy(clean));
    EXPECT_TRUE(clean.subsumedBy(tainted));
}

TEST(SymState, MergeProducesJoin)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState a(layout);
    SymState b(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        a.setSlot(i, sigBool(0));
        b.setSlot(i, sigBool(0));
    }
    a.setSlot(0, sigBool(0));
    b.setSlot(0, sigBool(1));              // differing value -> X
    a.setSlot(1, sigBool(1, true));        // taint unions...
    b.setSlot(1, sigBool(1));              // ...over the same value
    b.setSlot(2, sigX());                  // unknown stays unknown

    SymState merged = a;
    merged.mergeWith(b);
    EXPECT_EQ(merged.slot(0).value, Tern::X);
    EXPECT_TRUE(merged.slot(1).taint);
    EXPECT_EQ(merged.slot(1).value, Tern::One);
    EXPECT_EQ(merged.slot(2).value, Tern::X);

    // Both inputs are subsumed by the join.
    EXPECT_TRUE(a.subsumedBy(merged));
    EXPECT_TRUE(b.subsumedBy(merged));
}

TEST(SymState, MergeIsMonotone)
{
    // Repeated merging converges (finite lattice): merging the merge
    // with either input changes nothing.
    Fixture f;
    SymLayout layout(f.nl);
    SymState a(layout);
    SymState b(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        a.setSlot(i, sigBool(i % 2));
        b.setSlot(i, sigBool(i % 3 == 0));
    }
    SymState m = a;
    m.mergeWith(b);
    SymState m2 = m;
    m2.mergeWith(a);
    EXPECT_EQ(m, m2);
    m2.mergeWith(b);
    EXPECT_EQ(m, m2);
}

// ---------------------------------------------------------------------
// Word-at-a-time capture/restore against the per-slot accessors.
// ---------------------------------------------------------------------

/** Add a memory of @p words x @p width bits with its own ports,
 *  writing @p d into every bit. */
void
addMem(Netlist &nl, const std::string &name, size_t words,
       unsigned width, bool writable, NetId d)
{
    MemoryDecl m;
    m.name = name;
    m.words = words;
    m.width = width;
    m.writable = writable;
    for (unsigned b = 0; b < bitsFor(words); ++b)
        m.readAddr.push_back(nl.addInput(name + "_a" + std::to_string(b)));
    for (unsigned b = 0; b < width; ++b)
        m.readData.push_back(nl.addNet(name + "_rd" + std::to_string(b)));
    if (writable) {
        m.writeAddr = m.readAddr;
        m.writeData.assign(width, d);
        m.writeEn = nl.addInput(name + "_we");
    }
    nl.addMemory(m);
}

/**
 * 70 flops, a 37x5 RAM, a ROM and a 13x3 RAM: the RAMs start at slots
 * 70 and 255, and the last of the 294 slots sits at bit 37 of word 4,
 * so runs start, end and share words mid-word.
 */
struct OddFixture
{
    Netlist nl;
    NetId in = kNoNet;

    OddFixture()
    {
        in = nl.addInput("d");
        NetId rst = nl.addInput("rst");
        for (int i = 0; i < 70; ++i) {
            DffHandle ff = nl.addDff("q" + std::to_string(i));
            nl.connectDff(ff.gate, in, rst, nl.constNet(true));
        }
        addMem(nl, "ram_a", 37, 5, true, in);
        addMem(nl, "rom", 8, 4, false, in);
        addMem(nl, "ram_b", 13, 3, true, in);
    }
};

Signal
randomSignal(std::mt19937 &rng)
{
    return Signal{static_cast<Tern>(rng() % 3), rng() % 2 == 1};
}

/** Random {0,1,X} x taint on every flop output and memory cell
 *  (ROM included), and on one non-state net. */
void
randomize(const Netlist &nl, SignalState &sigs, std::mt19937 &rng,
          NetId other)
{
    for (GateId g : nl.dffs())
        sigs.setNet(nl.gate(g).out, randomSignal(rng));
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        TernPlanes &cells = sigs.memCells(m);
        for (size_t i = 0; i < cells.size(); ++i)
            cells.set(i, randomSignal(rng));
    }
    sigs.setNet(other, randomSignal(rng));
}

/** The per-slot reference capture. */
SymState
referenceCapture(const SymLayout &layout, const SignalState &sigs)
{
    SymState ref(layout);
    for (size_t i = 0; i < layout.dffNets().size(); ++i)
        ref.setSlot(layout.dffSlot(i), sigs.net(layout.dffNets()[i]));
    for (const auto &[mem, base] : layout.mems()) {
        const TernPlanes &cells = sigs.memCells(mem);
        for (size_t i = 0; i < cells.size(); ++i)
            ref.setSlot(base + i, cells.get(i));
    }
    return ref;
}

/** Every flop and writable cell of @p got equals @p want. */
void
expectSameState(const SymLayout &layout, const SignalState &want,
                const SignalState &got)
{
    for (NetId n : layout.dffNets())
        ASSERT_EQ(got.net(n), want.net(n)) << "flop net " << n;
    for (const auto &[mem, base] : layout.mems()) {
        const TernPlanes &a = want.memCells(mem);
        const TernPlanes &b = got.memCells(mem);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(b.get(i), a.get(i))
                << "memory " << mem << " cell " << i;
        // A value bit left set under an X is invisible to get() but
        // reaches SymState ==, explore digests and checkpoint bytes.
        ASSERT_TRUE(b == a) << "memory " << mem << ": planes differ";
    }
}

TEST(SymStateDifferential, CaptureMatchesPerSlotReference)
{
    OddFixture f;
    SymLayout layout(f.nl);
    ASSERT_EQ(layout.slots(), 294u);
    ASSERT_EQ(layout.mems().size(), 2u);
    ASSERT_EQ(layout.mems()[0].second, 70u);
    ASSERT_EQ(layout.mems()[1].second, 255u);
    std::mt19937 rng(20261017);
    SignalState sigs(f.nl);
    // Reused across rounds: a capture must overwrite every slot of a
    // state that already holds other contents.
    SymState reused(layout);
    for (int round = 0; round < 32; ++round) {
        randomize(f.nl, sigs, rng, f.in);
        const SymState ref = referenceCapture(layout, sigs);

        SymState fresh;
        fresh.capture(layout, sigs);
        reused.capture(layout, sigs);
        ASSERT_EQ(fresh.numSlots(), layout.slots());
        for (size_t i = 0; i < layout.slots(); ++i) {
            ASSERT_EQ(fresh.slot(i), ref.slot(i))
                << "round " << round << " slot " << i;
        }
        // Whole planes, unused tail bits included.
        EXPECT_EQ(fresh, ref);
        EXPECT_EQ(reused, ref);
    }
}

TEST(SymStateDifferential, RestoreWritesBackEverySlot)
{
    OddFixture f;
    SymLayout layout(f.nl);
    std::mt19937 rng(7);
    for (int round = 0; round < 32; ++round) {
        SCOPED_TRACE(round);
        SignalState src(f.nl);
        randomize(f.nl, src, rng, f.in);
        SymState s;
        s.capture(layout, src);

        // Restore over different contents: every flop and writable
        // cell is overwritten, the ROM and other nets are not.
        SignalState dst(f.nl);
        randomize(f.nl, dst, rng, f.in);
        const SignalState untouched = dst;
        s.restore(layout, dst);
        expectSameState(layout, src, dst);
        EXPECT_EQ(dst.memCells(1), untouched.memCells(1));
        EXPECT_EQ(dst.net(f.in), untouched.net(f.in));

        // capture -> restore -> capture round-trips.
        SymState again;
        again.capture(layout, dst);
        EXPECT_EQ(again, s);
    }
}

TEST(SymStateDifferential, SocLayoutRoundTrip)
{
    Soc soc;
    const Netlist &nl = soc.netlist();
    SymLayout layout(nl);
    std::mt19937 rng(430);
    SignalState src(nl);
    randomize(nl, src, rng, soc.probes().extReset);

    SymState s;
    s.capture(layout, src);
    EXPECT_EQ(s, referenceCapture(layout, src));

    SignalState dst(nl);
    s.restore(layout, dst);
    expectSameState(layout, src, dst);
    SymState again;
    again.capture(layout, dst);
    EXPECT_EQ(again, s);
}

TEST(StateTable, VisitLifecycle)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState s(layout);
    for (size_t i = 0; i < layout.slots(); ++i)
        s.setSlot(i, sigBool(0));

    StateTable table;
    EXPECT_EQ(table.visit(0x100, s), StateTable::Visit::New);
    // Identical state: subsumed.
    SymState s2 = s;
    EXPECT_EQ(table.visit(0x100, s2), StateTable::Visit::Subsumed);
    // Different value: merged, and s3 becomes the conservative state.
    SymState s3 = s;
    s3.setSlot(0, sigBool(1));
    EXPECT_EQ(table.visit(0x100, s3), StateTable::Visit::Merged);
    EXPECT_EQ(s3.slot(0).value, Tern::X);
    // Now anything with slot 0 in {0,1} is subsumed.
    SymState s4 = s;
    EXPECT_EQ(table.visit(0x100, s4), StateTable::Visit::Subsumed);
    // A different key is independent.
    SymState s5 = s;
    EXPECT_EQ(table.visit(0x200, s5), StateTable::Visit::New);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.merges(), 1u);
    EXPECT_EQ(table.subsumptions(), 2u);
    EXPECT_NE(table.lookup(0x100), nullptr);
    EXPECT_EQ(table.lookup(0x300), nullptr);
}

} // namespace
} // namespace glifs
