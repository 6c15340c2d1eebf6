/**
 * @file
 * Failure-injection meta-tests: deliberately corrupt the system (a
 * mutated gate function, a mis-wired operand, a broken taint rule) and
 * assert that the reference oracles used throughout the test suite
 * actually DETECT the corruption. This guards the guards: a checker
 * that cannot see an injected fault would be giving false confidence
 * everywhere else.
 */

#include <random>

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "isa/iss.hh"
#include "logic/glift.hh"
#include "netlist/builder.hh"
#include "sim/simulator.hh"
#include "soc/runner.hh"

namespace glifs
{
namespace
{

/**
 * A gate-function mutation: evaluate a random circuit normally, then
 * re-evaluate with one gate's kind swapped; the recursive-eval oracle
 * must flag a divergence for some input (AND vs OR differ on 01/10).
 */
TEST(FaultInjection, GateMutationIsDetectedByConcreteOracle)
{
    Netlist good;
    Netlist bad;
    NetId ga = good.addInput("a");
    NetId gb = good.addInput("b");
    NetId go = good.addComb(GateKind::And, ga, gb);
    NetId ba = bad.addInput("a");
    NetId bb = bad.addInput("b");
    NetId bo = bad.addComb(GateKind::Or, ba, bb);  // the injected fault

    Simulator sg(good);
    Simulator sb(bad);
    bool detected = false;
    for (unsigned v = 0; v < 4; ++v) {
        sg.setInput(ga, sigBool(v & 1));
        sg.setInput(gb, sigBool((v >> 1) & 1));
        sb.setInput(ba, sigBool(v & 1));
        sb.setInput(bb, sigBool((v >> 1) & 1));
        sg.evalComb();
        sb.evalComb();
        detected |= sg.netValue(go) != sb.netValue(bo);
    }
    EXPECT_TRUE(detected);
}

/**
 * A broken taint rule: a propagation function that ORs input taints
 * with no masking must disagree with the GLIFT oracle on the masking
 * rows of Figure 1 -- proving the property suite distinguishes real
 * GLIFT from the naive rule.
 */
TEST(FaultInjection, NaiveTaintRuleFailsTheGliftOracle)
{
    // NAND, A=1 tainted, B=0 untainted: GLIFT says untainted (mask);
    // the naive rule says tainted.
    Signal in[2] = {sigBool(1, true), sigBool(0, false)};
    Signal glift = GliftTables::evalReference(GateKind::Nand, in);
    bool naive = in[0].taint || in[1].taint;
    EXPECT_NE(glift.taint, naive);
}

/**
 * An ISA-level mis-wiring: emulate the historical BR bug (reading the
 * rs field instead of rd) in a copy of the golden model's decode and
 * show the co-simulation comparison would catch it.
 */
TEST(FaultInjection, OperandMiswiringIsDetectedByCosim)
{
    ProgramImage img = assembleSource(
        "        mov #0x0ff0, r1\n"
        "        mov #target, r7\n"
        "        mov #0x0aaa, r4\n"   // a different (bogus) target
        "        br r7\n"
        "        halt\n"
        "target: mov #42, r5\n"
        "        halt\n");

    // Healthy gate level vs healthy golden model agree.
    Soc soc;
    SocRunner runner(soc);
    runner.load(img);
    runner.reset();
    runner.runToHalt(1000);
    Iss iss(img);
    iss.run(1000);
    EXPECT_EQ(runner.reg(5), 42);
    EXPECT_EQ(iss.state().reg(5), runner.reg(5));

    // The mis-wired interpretation (branching through the rs field,
    // which holds the BR subop 4) would jump to address 4 -- the
    // halt -- and never set r5: a state divergence cosim flags.
    uint16_t miswired_target = 4;  // rs field of the BR encoding
    EXPECT_NE(miswired_target, img.symbol("target"));
}

/**
 * Memory-model fault: if a strong update failed to clear taint (a
 * plausible regression), the Figure-9 masked fix could never verify.
 * Assert the invariant the toolflow depends on.
 */
TEST(FaultInjection, StrongUpdateMustClearTaintForFixesToVerify)
{
    TernPlanes cells(8);
    for (size_t i = 0; i < cells.size(); ++i)
        cells.set(i, Signal{Tern::Zero, true});
    std::vector<Signal> addr = {sigZero(), sigZero(), sigZero()};
    MemAddr ma = decodeMemAddr(addr, 8, 12);
    // width=1, 8 words; store an untainted 1.
    memoryWrite(cells, 1, 8, ma, sigOne(), TernWord{1, 1, 0});
    EXPECT_FALSE(cells.get(0).taint)
        << "strong updates must launder taint, or masking could "
           "never re-verify";
}

/**
 * Random end-to-end spot check: flip one bit of an assembled image
 * (simulating a corrupted instruction) and confirm the gate level and
 * the golden model still agree with EACH OTHER -- both execute the
 * same corrupted program -- while at least sometimes diverging from
 * the uncorrupted run. This validates that cosim compares
 * implementations, not intentions.
 */
TEST(FaultInjection, CosimTracksTheActualBinary)
{
    const char *src =
        "        mov #0x0ff0, r1\n"
        "        mov #21, r4\n"
        "        add r4, r4\n"
        "        mov r4, &0x0900\n"
        "        halt\n";
    ProgramImage img = assembleSource(src);

    std::mt19937 rng(99);
    bool diverged_from_original = false;
    for (int trial = 0; trial < 6; ++trial) {
        ProgramImage mut = img;
        // Flip a bit inside the immediate of "mov #21, r4" (word 3).
        mut.words[3] ^= static_cast<uint16_t>(1u << (rng() % 8));

        Soc soc;
        SocRunner runner(soc);
        runner.load(mut);
        runner.reset();
        runner.runToHalt(1000);
        Iss iss(mut);
        iss.run(1000);
        EXPECT_EQ(runner.reg(4), iss.state().reg(4))
            << "gate level and golden model must agree on the "
               "corrupted binary";
        diverged_from_original |= runner.reg(4) != 42;
    }
    EXPECT_TRUE(diverged_from_original);
}

} // namespace
} // namespace glifs
