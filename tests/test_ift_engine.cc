/**
 * @file
 * Tests of the Algorithm-1 symbolic taint-tracking engine: convergence,
 * branch exploration, conservative merging, the Section-5.3
 * verification micro-benchmarks (Figures 8 and 9), and budget stops
 * that resume to exactly the run never stopped.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/engine.hh"
#include "ift/rootcause.hh"
#include "soc/soc.hh"
#include "workloads/rtos.hh"
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

/** Paper footnote 3: a tainted code partition may be marked tainted in
 *  program memory, so every word fetched from it is tainted. On mult
 *  that taints the task's control flow, its stores and its watchdog
 *  access, where the plain audit finds the kernel secure. */
TEST_F(IftTest, TaintedCodeInProgramMemoryTaintsTheTask)
{
    const Workload &w = workloadByName("mult");
    Policy policy = w.policy();
    policy.taintCodeInProgMem = true;
    const EngineResult r = IftEngine(*soc, policy).run(w.image());
    EXPECT_EQ(r.verdict(), Verdict::Violations);
    EXPECT_EQ(r.cyclesSimulated, 438u);
    EXPECT_EQ(r.pathsExplored, 17u);
    std::set<std::string> kinds;
    for (const Violation &v : r.violations)
        kinds.insert(violationKindName(v.kind));
    EXPECT_EQ(kinds, (std::set<std::string>{
                         "C1-tainted-control-flow",
                         "C1-untainted-code-tainted-pc",
                         "C2-store-untainted-partition",
                         "watchdog-tainted"}));
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

// ---------------------------------------------------------------------
// Budgets only stop the run: stopped halfway with a checkpoint, saved,
// reloaded and resumed, every workload ends exactly where the run that
// was never stopped does.
// ---------------------------------------------------------------------

/** The 13 kernels, then both MiniRTOS builds under their own labels. */
std::vector<std::string>
stopResumeWorkloads()
{
    std::vector<std::string> names = workloadNames();
    names.push_back("rtos_baseline");
    names.push_back("rtos_protected");
    return names;
}

class StopResume : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StopResume, MatchesStraightRun)
{
    const std::string &name = GetParam();
    ProgramImage image;
    Policy policy;
    if (name.rfind("rtos_", 0) == 0) {
        const MicroBenchmark mb =
            name == "rtos_baseline" ? rtosBaseline() : rtosProtected();
        image = assembleSource(mb.source);
        policy = mb.policy;
    } else {
        const Workload &w = workloadByName(name);
        image = w.image();
        policy = w.policy();
    }
    const Soc soc;

    const EngineResult straight = IftEngine(soc, policy).run(image);
    ASSERT_TRUE(straight.completed);
    ASSERT_TRUE(straight.degradations.empty());

    EngineConfig half;
    half.maxCycles = straight.cyclesSimulated / 2;
    half.checkpointOnStop = true;
    const EngineResult stop = IftEngine(soc, policy, half).run(image);
    ASSERT_FALSE(stop.completed);
    ASSERT_EQ(stop.degradations.size(), 1u);
    EXPECT_EQ(stop.degradations[0].level, DegradeLevel::PartialStop);
    EXPECT_EQ(stop.degradations[0].trigger, ResourceKind::Cycles);
    ASSERT_NE(stop.checkpoint, nullptr);

    // What the stopped run saw, the straight run saw at the same cycle.
    for (const Violation &v : stop.violations) {
        SCOPED_TRACE(violationKindName(v.kind));
        const Violation *same = nullptr;
        for (const Violation &s : straight.violations) {
            if (s.kind == v.kind && s.instrAddr == v.instrAddr)
                same = &s;
        }
        ASSERT_NE(same, nullptr) << "instr " << v.instrAddr;
        EXPECT_EQ(v.firstCycle, same->firstCycle);
    }

    const std::string path = ::testing::TempDir() + "stop_resume_" +
                             name + "_" + std::to_string(::getpid()) +
                             ".ckpt";
    stop.checkpoint->save(path);
    const EngineCheckpoint loaded = EngineCheckpoint::load(path);
    std::remove(path.c_str());
    const EngineResult resumed =
        IftEngine(soc, policy).run(image, &loaded);

    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.starAborted, straight.starAborted);
    EXPECT_EQ(resumed.verdict(), straight.verdict());
    EXPECT_EQ(resumed.cyclesSimulated, straight.cyclesSimulated);
    EXPECT_EQ(resumed.pathsExplored, straight.pathsExplored);
    EXPECT_EQ(resumed.branchPoints, straight.branchPoints);
    EXPECT_EQ(resumed.merges, straight.merges);
    EXPECT_EQ(resumed.subsumptions, straight.subsumptions);
    EXPECT_EQ(resumed.statesTracked, straight.statesTracked);
    EXPECT_EQ(resumed.taintedGates, straight.taintedGates);
    EXPECT_EQ(resumed.totalGates, straight.totalGates);
    EXPECT_TRUE(resumed.degradations.empty());
    ASSERT_EQ(resumed.violations.size(), straight.violations.size());
    for (size_t i = 0; i < straight.violations.size(); ++i) {
        const Violation &a = resumed.violations[i];
        const Violation &b = straight.violations[i];
        SCOPED_TRACE(b.detail);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.instrAddr, b.instrAddr);
        EXPECT_EQ(a.firstCycle, b.firstCycle);
        EXPECT_EQ(a.count, b.count);
        EXPECT_EQ(a.maskable, b.maskable);
        EXPECT_EQ(a.detail, b.detail);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, StopResume, ::testing::ValuesIn(stopResumeWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace glifs
