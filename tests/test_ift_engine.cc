/**
 * @file
 * Tests of the Algorithm-1 symbolic taint-tracking engine: convergence,
 * branch exploration, conservative merging, and the Section-5.3
 * verification micro-benchmarks (Figures 8 and 9).
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "ift/engine.hh"
#include "ift/rootcause.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace glifs
{
namespace
{

class IftTest : public ::testing::Test
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

    EngineResult
    analyze(const std::string &src, const Policy &policy,
            EngineConfig cfg = {})
    {
        ProgramImage img = assembleSource(src);
        IftEngine engine(*soc, policy, cfg);
        return engine.run(img);
    }

    static bool
    has(const EngineResult &r, ViolationKind kind)
    {
        for (const Violation &v : r.violations) {
            if (v.kind == kind)
                return true;
        }
        return false;
    }

    static Soc *soc;
};

Soc *IftTest::soc = nullptr;

/** Policy with nothing tainted at all. */
Policy
allClearPolicy()
{
    Policy p;
    p.taintedInPort = {false, false, false, false};
    p.trustedOutPort = {true, true, true, true};
    p.addMem("ram", 0x0800, 0x0FFF, false);
    return p;
}

TEST_F(IftTest, StraightLineProgramConverges)
{
    EngineResult r = analyze(
        "        mov #5, r4\n"
        "        add #3, r4\n"
        "        mov r4, &0x0900\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure());
    EXPECT_EQ(r.pathsExplored, 1u);
    EXPECT_EQ(r.taintedGates, 0u);
}

TEST_F(IftTest, ConcreteLoopConverges)
{
    // Loop with a concrete bound: the engine follows the concrete
    // branch outcomes without forking.
    EngineResult r = analyze(
        "        mov #5, r4\n"
        "loop:   dec r4\n"
        "        jnz loop\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure());
    // The conservative merge may abstract the loop counter and fork
    // once on the now-unknown exit condition.
    EXPECT_LE(r.branchPoints, 1u);
}

TEST_F(IftTest, UnknownInputBranchForksAndConverges)
{
    // The branch depends on an unknown (but untainted) input: both
    // paths must be explored; no violation.
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"  // P3IN: untainted X input
        "        tst r4\n"
        "        jz iszero\n"
        "        mov #1, r5\n"
        "        halt\n"
        "iszero: mov #2, r5\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure());
    EXPECT_GE(r.branchPoints, 1u);
    EXPECT_GE(r.pathsExplored, 2u);
}

TEST_F(IftTest, InputDependentLoopConvergesByMerging)
{
    // Loop bound read from an (untainted) unknown input: conservative
    // merging must terminate the exploration.
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "loop:   dec r4\n"
        "        jnz loop\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.merges + r.subsumptions, 1u);
}

TEST_F(IftTest, InfiniteLoopConverges)
{
    EngineResult r = analyze("spin:  jmp spin\n", allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.subsumptions, 1u);
}

TEST_F(IftTest, TaintedInputTaintsGatesButNotControl)
{
    // Straight-line computation on tainted data: data taint spreads to
    // some gates but control flow stays clean (like the paper's mult).
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"   // P1IN: tainted
        "        add r4, r4\n"
        "        mov r4, &0x0C00\n"   // store inside tainted partition
        "        mov r4, &0x0003\n"   // write untrusted P2OUT: allowed
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(has(r, ViolationKind::TaintedControlFlow));
    EXPECT_FALSE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_FALSE(has(r, ViolationKind::TrustedOutputTainted));
    EXPECT_GT(r.taintedGates, 0u);
}

TEST_F(IftTest, TaintedBranchTaintsControlFlow)
{
    // Condition 1 violation: a conditional branch on tainted data
    // taints the PC (the left-hand Figure 8 scenario).
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        tst r4\n"
        "        jz t1\n"
        "        nop\n"
        "t1:     halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::TaintedControlFlow));
}

TEST_F(IftTest, Figure9UnmaskedStoreTaintsUntaintedPartition)
{
    // Figure 9 left-hand listing: a store whose address derives from a
    // tainted input taints memory outside the tainted partition.
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"   // tainted offset
        "        mov #0x0C00, r5\n"
        "        add r4, r5\n"
        "        mov #500, 0(r5)\n"   // unbounded tainted store
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::StoreUntaintedPartition));

    RootCauseReport rc = analyzeRootCauses(r, p);
    EXPECT_FALSE(rc.storesToMask.empty());
}

TEST_F(IftTest, Figure9MaskedStoreIsClean)
{
    // Figure 9 right-hand listing: masking the address into the
    // tainted partition removes the violation.
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        mov #0x0C00, r5\n"
        "        add r4, r5\n"
        "        and #0x03FF, r5\n"
        "        bis #0x0C00, r5\n"
        "        mov #500, 0(r5)\n"
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_FALSE(has(r, ViolationKind::TrustedOutputTainted));
}

TEST_F(IftTest, Figure8WatchdogResetUntaintsControlFlow)
{
    // Figure 8 right-hand listing: untainted system code arms the
    // watchdog, then runs a tainted task whose control flow becomes
    // tainted. The watchdog POR must recover an untainted PC, and the
    // untainted code after reset must never see a tainted PC.
    Policy p = benchmarkPolicy(0x20, 0x7F);
    EngineResult r = analyze(
        // Untainted system partition at the reset vector.
        "start:  mov &0x0A00, r4\n"     // pass flag (untainted RAM)
        "        cmp #1, r4\n"
        "        jz done\n"
        "        mov #1, &0x0A00\n"
        "        mov #0x0000, &0x0010\n" // arm watchdog, 64 cycles
        "        jmp task\n"
        "done:   halt\n"
        "        .org 0x20\n"
        // Tainted task: control flow depends on a tainted input.
        "task:   mov &0x0000, r4\n"
        "        tst r4\n"
        "        jz t1\n"
        "        nop\n"
        "t1:     jmp t1\n",
        p);
    EXPECT_TRUE(r.completed);
    // The tainted task's own control flow taints (expected, fixable)...
    EXPECT_TRUE(has(r, ViolationKind::TaintedControlFlow));
    // ...but the watchdog stays untainted and untainted code never
    // executes with a tainted PC.
    EXPECT_FALSE(has(r, ViolationKind::WatchdogTainted));
    EXPECT_FALSE(has(r, ViolationKind::UntaintedCodeTaintedPc));
}

TEST_F(IftTest, TaintedTaskWritingWatchdogIsFlagged)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov #0x0080, &0x0010\n"  // tainted code writes WDTCTL
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::WatchdogTainted));
}

TEST_F(IftTest, UntaintedCodeReadingTaintedPortFlagged)
{
    Policy p = benchmarkPolicy(0x40, 0x7F);
    EngineResult r = analyze(
        "        mov &0x0000, r4\n"  // untainted code reads tainted P1IN
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::UntaintedReadTaintedPort));
}

TEST_F(IftTest, TaintedStoreToTrustedPortFlagged)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        mov r4, &0x0007\n"  // trusted P4OUT
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::TaintedWriteTrustedPort));
    EXPECT_TRUE(has(r, ViolationKind::TrustedOutputTainted));
}

TEST_F(IftTest, StarLogicModeAbortsOnTaintedControl)
{
    // Footnote 8: *-logic cannot handle control dependences on tainted
    // inputs; most exercisable gates become tainted.
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineConfig cfg;
    cfg.starLogicMode = true;
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        tst r4\n"
        "        jz t1\n"
        "        nop\n"
        "t1:     halt\n",
        p, cfg);
    EXPECT_TRUE(r.starAborted);
    EXPECT_GT(r.taintedGateFraction, 0.5);
    EXPECT_LT(r.taintedGateFraction, 1.0);
}

TEST_F(IftTest, StarLogicModeHandlesStraightLine)
{
    // Without tainted control flow *-logic completes like our engine.
    EngineConfig cfg;
    cfg.starLogicMode = true;
    EngineResult r = analyze(
        "        mov #5, r4\n"
        "        halt\n",
        allClearPolicy(), cfg);
    EXPECT_FALSE(r.starAborted);
    EXPECT_TRUE(r.completed);
}

TEST_F(IftTest, ExecutionTreeRecordsPaths)
{
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "        tst r4\n"
        "        jz a\n"
        "        halt\n"
        "a:      halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.tree.size(), 3u);  // root + two branches
    std::string dump = r.tree.str();
    EXPECT_NE(dump.find("branched"), std::string::npos);
    EXPECT_NE(dump.find("halted"), std::string::npos);
}

TEST_F(IftTest, SummaryMentionsKeyStats)
{
    EngineResult r = analyze("halt\n", allClearPolicy());
    std::string s = r.summary();
    EXPECT_NE(s.find("completed"), std::string::npos);
    EXPECT_NE(s.find("paths"), std::string::npos);
}

// ---------------------------------------------------------------------
// Observability (docs/OBSERVABILITY.md): the engine keeps the global
// stats registry in step with its EngineResult counters and, with the
// tracer on, narrates exploration as structured events.
// ---------------------------------------------------------------------

TEST_F(IftTest, RunUpdatesTheStatsRegistry)
{
    stats::Snapshot before = stats::Registry::instance().snapshot();
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "        tst r4\n"
        "        jz a\n"
        "        halt\n"
        "a:      halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    stats::Snapshot after = stats::Registry::instance().snapshot();

    // Registry deltas match the per-run result counters (the stats
    // accumulate across the whole process, so compare differences).
    EXPECT_EQ(after.value("engine.runs") - before.value("engine.runs"),
              1.0);
    EXPECT_EQ(after.value("engine.cycles") -
                  before.value("engine.cycles"),
              static_cast<double>(r.cyclesSimulated));
    EXPECT_EQ(after.value("engine.paths") -
                  before.value("engine.paths"),
              static_cast<double>(r.pathsExplored));
    EXPECT_EQ(after.value("engine.branch_points") -
                  before.value("engine.branch_points"),
              static_cast<double>(r.branchPoints));
    // The simulator underneath was exercised too.
    EXPECT_GT(after.value("sim.comb_evals"),
              before.value("sim.comb_evals"));
    EXPECT_GT(after.value("state_table.lookups"),
              before.value("state_table.lookups"));
}

/** A segment captures the symbolic state only where the driver reads
 *  it: at its end, which the driver takes to the state table, and
 *  twice per POR fork (the pre-fork state and the fired branch). It
 *  takes none per simulated cycle. tHold forks on the watchdog; mult
 *  does not. */
TEST_F(IftTest, StateCapturesOnlyAtVisitsAndPorForks)
{
    for (const auto &[name, forks] :
         {std::pair{"tHold", true}, std::pair{"mult", false}}) {
        SCOPED_TRACE(name);
        const Workload &w = workloadByName(name);
        stats::Snapshot before = stats::Registry::instance().snapshot();
        EngineResult r = IftEngine(*soc, w.policy()).run(w.image());
        stats::Snapshot after = stats::Registry::instance().snapshot();
        auto delta = [&](const char *stat) {
            return after.value(stat) - before.value(stat);
        };
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(delta("engine.por_forks") > 0, forks);
        EXPECT_EQ(delta("engine.state_captures"),
                  delta("state_table.lookups") +
                      2 * delta("engine.por_forks"));
        EXPECT_LT(delta("engine.state_captures"),
                  delta("engine.cycles"));
    }
}

TEST_F(IftTest, TracedRunEmitsEngineSpans)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(1 << 12);
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "        tst r4\n"
        "        jz a\n"
        "        halt\n"
        "a:      halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);

    EXPECT_GT(tr.countCategory("engine"), 0u);
    bool sawRunSpan = false, sawBranch = false, sawVisit = false;
    for (const trace::Event &e : tr.events()) {
        std::string name = e.name;
        if (name == "run" && e.ph == 'X')
            sawRunSpan = true;
        if (name == "branch")
            sawBranch = true;
        if (name == "visit")
            sawVisit = true;
    }
    EXPECT_TRUE(sawRunSpan);
    EXPECT_TRUE(sawBranch);
    EXPECT_TRUE(sawVisit);

    // The trace document is loadable Chrome trace_event JSON.
    std::string json = tr.json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    tr.disable();
}

} // namespace
} // namespace glifs
