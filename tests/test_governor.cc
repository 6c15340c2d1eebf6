/**
 * @file
 * Tests of the resource governor, the degradation ladder, the
 * three-valued verdict and the checkpoint/resume machinery
 * (docs/ROBUSTNESS.md), including the checkpoint v2 golden bytes and
 * the parser behind the CRC. The binary carries the `sanitize` ctest
 * label so the ASan+UBSan build exercises them.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <vector>

#include "assembler/assembler.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/engine.hh"
#include "ift/governor.hh"
#include "ift/policy_file.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace glifs
{
namespace
{

// ---------------------------------------------------------------------
// Governor unit tests (no SoC needed).
// ---------------------------------------------------------------------

TEST(ResourceGovernorTest, DisabledBudgetsNeverFire)
{
    ResourceBudgets b;
    ResourceGovernor gov(b);
    gov.chargeCycles(1'000'000);
    gov.noteStates(1'000'000);
    for (int i = 0; i < 2000; ++i)
        EXPECT_FALSE(gov.poll().has_value());
}

TEST(ResourceGovernorTest, CycleBudgetFiresOnce)
{
    ResourceBudgets b;
    b.hardCycles = 20;
    ResourceGovernor gov(b);

    gov.chargeCycles(15);
    EXPECT_FALSE(gov.poll().has_value());

    gov.chargeCycles(10); // 25 > budget
    auto ev = gov.poll();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->kind, ResourceKind::Cycles);
    // After the exhaustion the governor is done reporting.
    gov.chargeCycles(100);
    EXPECT_FALSE(gov.poll().has_value());
}

TEST(ResourceGovernorTest, StateBudgetFires)
{
    ResourceBudgets b;
    b.hardStates = 8;
    ResourceGovernor gov(b);
    gov.noteStates(5);
    EXPECT_FALSE(gov.poll().has_value());
    gov.noteStates(9);
    auto ev = gov.poll();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->kind, ResourceKind::TrackedStates);
}

TEST(ResourceGovernorTest, WallClockDeadlineFires)
{
    ResourceBudgets b;
    b.hardSeconds = 1e-9; // already expired by the first poll
    ResourceGovernor gov(b);
    auto ev = gov.poll();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->kind, ResourceKind::WallClock);
}

TEST(ResourceGovernorTest, GlobalStopIsHardInterrupt)
{
    ResourceGovernor::clearGlobalStop();
    ResourceBudgets b; // no budgets at all
    ResourceGovernor gov(b);
    EXPECT_FALSE(gov.poll().has_value());
    ResourceGovernor::requestGlobalStop();
    EXPECT_TRUE(ResourceGovernor::globalStopRequested());
    auto ev = gov.poll();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->kind, ResourceKind::Interrupt);
    ResourceGovernor::clearGlobalStop();
    EXPECT_FALSE(ResourceGovernor::globalStopRequested());
}

// ---------------------------------------------------------------------
// Engine-level degradation tests.
// ---------------------------------------------------------------------

class GovernedEngineTest : public ::testing::Test
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

    void
    TearDown() override
    {
        ResourceGovernor::clearGlobalStop();
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
    hasDegradation(const EngineResult &r, DegradeLevel level,
                   ResourceKind trigger)
    {
        for (const Degradation &d : r.degradations) {
            if (d.level == level && d.trigger == trigger)
                return true;
        }
        return false;
    }

    static Soc *soc;
};

Soc *GovernedEngineTest::soc = nullptr;

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

/** An unknown-input branch: forks but converges cleanly. */
const char *kForkProgram =
    "        mov &0x0004, r4\n" // P3IN: untainted X input
    "        tst r4\n"
    "        jz iszero\n"
    "        mov #1, r5\n"
    "        halt\n"
    "iszero: mov #2, r5\n"
    "        halt\n";

TEST_F(GovernedEngineTest, BranchFanoutHardDegradesInsteadOfAborting)
{
    // `br r4` with an unknown r4 has far more unknown PC bits than
    // maxBranchBits allows. Historically this was a fatal abort; now
    // the offending path is handed to the *-logic abstraction and the
    // run still produces a structured report.
    EngineConfig cfg;
    cfg.maxBranchBits = 4;
    EngineResult r;
    ASSERT_NO_THROW(r = analyze("        mov &0x0004, r4\n"
                                "        br r4\n"
                                "        halt\n",
                                allClearPolicy(), cfg));
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::StarLogicPath,
                               ResourceKind::BranchFanout));
    EXPECT_TRUE(r.degradedUnsound());
    EXPECT_FALSE(r.secure());
    EXPECT_EQ(r.verdict(), Verdict::UnknownDegraded);
}

TEST_F(GovernedEngineTest, HardDeadlineStopsWithPartialResult)
{
    // An expired wall-clock deadline must stop the run mid-exploration
    // with a structured partial result -- never a fatal.
    EngineConfig cfg;
    cfg.budgets.hardSeconds = 1e-9;
    EngineResult r;
    ASSERT_NO_THROW(r = analyze(kForkProgram, allClearPolicy(), cfg));
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::PartialStop,
                               ResourceKind::WallClock));
    EXPECT_EQ(r.verdict(), Verdict::UnknownDegraded);
    EXPECT_FALSE(r.secure());
}

TEST_F(GovernedEngineTest, GlobalStopRequestsPartialStop)
{
    ResourceGovernor::requestGlobalStop();
    EngineResult r = analyze(kForkProgram, allClearPolicy());
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::PartialStop,
                               ResourceKind::Interrupt));
    EXPECT_EQ(r.verdict(), Verdict::UnknownDegraded);
}

// ---------------------------------------------------------------------
// Observability of degraded runs (docs/OBSERVABILITY.md): degradations
// must show up in the stats registry and, when the tracer is on, as
// governor-category trace instants.
// ---------------------------------------------------------------------

TEST(ResourceGovernorTest, HeartbeatFiresFromThePollPoint)
{
    ResourceBudgets b;
    b.hardCycles = 1000;
    ResourceGovernor gov(b);
    std::vector<GovernorProgress> beats;
    gov.setHeartbeat(1e-9, [&beats](const GovernorProgress &p) {
        beats.push_back(p);
    });
    gov.chargeCycles(10);
    gov.noteFrontier(3);
    // The period check is throttled, so poll well past the check
    // interval.
    for (int i = 0; i < 256; ++i)
        gov.poll();
    ASSERT_FALSE(beats.empty());
    EXPECT_EQ(beats.front().cycles, 10u);
    EXPECT_EQ(beats.front().frontier, 3u);
    EXPECT_GT(beats.front().budgetUsed, 0.0);
    EXPECT_LE(beats.front().budgetUsed, 1.0);
}

TEST_F(GovernedEngineTest, DegradedRunEmitsGovernorTraceAndStats)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(1 << 12);
    const double escalationsBefore = stats::Registry::instance()
                                         .snapshot()
                                         .value("engine.escalations");

    EngineConfig cfg;
    cfg.budgets.hardCycles = 8;
    EngineResult r = analyze(kForkProgram, allClearPolicy(), cfg);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::PartialStop,
                               ResourceKind::Cycles));

    // The degradation is visible in the registry...
    const double escalationsAfter = stats::Registry::instance()
                                        .snapshot()
                                        .value("engine.escalations");
    EXPECT_GT(escalationsAfter, escalationsBefore);

    // ...and as structured trace events: the governor flags the
    // budget crossing, the engine records the degradation.
    EXPECT_GT(tr.countCategory("governor"), 0u);
    bool sawDegrade = false;
    for (const trace::Event &e : tr.events()) {
        if (std::string(e.name) == "degrade")
            sawDegrade = true;
    }
    EXPECT_TRUE(sawDegrade);
    tr.disable();
}

TEST_F(GovernedEngineTest, CleanRunLeavesTraceQuiet)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(1 << 12);
    EngineResult r = analyze(kForkProgram, allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.degradations.empty());
    // No budgets configured: engine events yes, governor events no.
    EXPECT_GT(tr.countCategory("engine"), 0u);
    EXPECT_EQ(tr.countCategory("governor"), 0u);
    tr.disable();
}

// ---------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------

/**
 * Tainted branch plus an unbounded tainted store: several paths and a
 * rich violation list, so the resume-equality check is meaningful.
 */
const char *kViolationProgram =
    "        jmp task\n"
    "        .org 0x10\n"
    "task:   mov &0x0000, r4\n" // P1IN: tainted
    "        tst r4\n"
    "        jz t1\n"
    "        nop\n"
    "t1:     mov #0x0C00, r5\n"
    "        add r4, r5\n"
    "        mov #500, 0(r5)\n" // unbounded tainted store
    "        halt\n";

class CheckpointTest : public GovernedEngineTest
{
  protected:
    std::string
    tempPath(const std::string &name) const
    {
        return ::testing::TempDir() + "governor_" + name;
    }
};

TEST_F(CheckpointTest, InterruptedRunResumesToIdenticalResult)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);

    // Reference: the uninterrupted run.
    EngineResult ref = IftEngine(*soc, p, EngineConfig{}).run(img);
    ASSERT_TRUE(ref.completed);
    ASSERT_FALSE(ref.violations.empty());
    ASSERT_GT(ref.cyclesSimulated, 4u);

    // Interrupt the same analysis halfway through with a hard cycle
    // budget, snapshotting the frontier.
    EngineConfig half;
    half.maxCycles = ref.cyclesSimulated / 2;
    half.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, half).run(img);
    ASSERT_FALSE(partial.completed);
    EXPECT_EQ(partial.verdict(), Verdict::UnknownDegraded);
    ASSERT_NE(partial.checkpoint, nullptr);

    // Serialize, reload ("kill the process"), and resume.
    const std::string path = tempPath("resume.ckpt");
    partial.checkpoint->save(path);
    EngineCheckpoint loaded = EngineCheckpoint::load(path);
    EXPECT_EQ(loaded.totalCycles, partial.cyclesSimulated);

    EngineResult resumed =
        IftEngine(*soc, p, EngineConfig{}).run(img, &loaded);

    // The resumed run must reproduce the uninterrupted run
    // bit-for-bit on counters, violations and verdict.
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cyclesSimulated, ref.cyclesSimulated);
    EXPECT_EQ(resumed.pathsExplored, ref.pathsExplored);
    EXPECT_EQ(resumed.branchPoints, ref.branchPoints);
    EXPECT_EQ(resumed.merges, ref.merges);
    EXPECT_EQ(resumed.subsumptions, ref.subsumptions);
    EXPECT_EQ(resumed.statesTracked, ref.statesTracked);
    EXPECT_EQ(resumed.taintedGates, ref.taintedGates);
    EXPECT_EQ(resumed.verdict(), ref.verdict());

    ASSERT_EQ(resumed.violations.size(), ref.violations.size());
    for (size_t i = 0; i < ref.violations.size(); ++i) {
        EXPECT_EQ(resumed.violations[i].kind, ref.violations[i].kind);
        EXPECT_EQ(resumed.violations[i].instrAddr,
                  ref.violations[i].instrAddr);
        EXPECT_EQ(resumed.violations[i].count, ref.violations[i].count);
        EXPECT_EQ(resumed.violations[i].firstCycle,
                  ref.violations[i].firstCycle);
    }

    // Resumed to completion, the interruption cost no coverage: no
    // PartialStop record survives, so the verdicts really are equal.
    EXPECT_FALSE(resumed.degradedUnsound());
}

TEST_F(CheckpointTest, RejectsGarbageFile)
{
    const std::string path = tempPath("garbage.ckpt");
    std::ofstream(path) << "this is not a checkpoint";
    EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError);
}

TEST_F(CheckpointTest, RejectsMissingFile)
{
    EXPECT_THROW(EngineCheckpoint::load(tempPath("nonexistent.ckpt")),
                 RecoverableError);
}

TEST_F(CheckpointTest, RejectsTruncatedFile)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    const std::string path = tempPath("truncated.ckpt");
    partial.checkpoint->save(path);

    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() / 2);

    EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError);
}

TEST_F(CheckpointTest, TruncationAtEveryPrefixIsRecoverable)
{
    // Fuzz the torn-write space exhaustively-ish: a crash can cut a
    // checkpoint at any byte. Every prefix must produce the same
    // clean RecoverableError — no UB, no crash, no garbage parse
    // (run under ASan+UBSan via the sanitize label).
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    const std::string path = tempPath("prefix.ckpt");
    partial.checkpoint->save(path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 32u);

    // Every length up to the header, then a spread of longer cuts.
    std::vector<size_t> cuts;
    for (size_t n = 0; n < 24; ++n)
        cuts.push_back(n);
    for (size_t n = 24; n < bytes.size(); n += bytes.size() / 64 + 1)
        cuts.push_back(n);
    for (size_t n : cuts) {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << bytes.substr(0, n);
        EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError)
            << "prefix of " << n << " bytes parsed as valid";
    }
}

TEST_F(CheckpointTest, BitFlipsAreCaughtByTheBodyCrc)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    const std::string path = tempPath("bitflip.ckpt");
    partial.checkpoint->save(path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Flip a single bit at a spread of offsets across the body (past
    // magic + version + CRC, offset 16): each flip must be rejected —
    // the v1 format would happily "parse" many of these.
    for (size_t pos = 16; pos < bytes.size();
         pos += bytes.size() / 32 + 1) {
        std::string corrupt = bytes;
        corrupt[pos] ^= 0x10;
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << corrupt;
        EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError)
            << "bit flip at offset " << pos << " went undetected";
    }

    // The pristine bytes still load: the fuzz loop isn't vacuous.
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    EngineCheckpoint ok = EngineCheckpoint::load(path);
    EXPECT_EQ(ok.totalCycles, partial.checkpoint->totalCycles);
}

TEST_F(CheckpointTest, RejectsRetiredLadderRung)
{
    // A snapshot whose ladder byte is set was taken by an older build
    // after widened merging: its frontier holds bit-enumerated
    // successors, so resuming it could not reproduce a straight run.
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    const std::string path = tempPath("ladder.ckpt");
    partial.checkpoint->save(path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Header: magic (8), version (4), body CRC (4). The body opens
    // with the fingerprint and five counters (six u64), then the
    // ladder byte, which this build always writes as 0.
    constexpr size_t kBody = 16;
    constexpr size_t kLadder = kBody + 6 * 8;
    ASSERT_GT(bytes.size(), kLadder);
    ASSERT_EQ(bytes[kLadder], '\0');
    bytes[kLadder] = '\x01';
    const uint32_t crc = crc32(bytes.data() + kBody, bytes.size() - kBody);
    for (int i = 0; i < 4; ++i)
        bytes[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError);
}

TEST_F(CheckpointTest, RejectsCheckpointOfDifferentProgram)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    ProgramImage other = assembleSource("        halt\n");
    IftEngine engine(*soc, p, EngineConfig{});
    EXPECT_THROW(engine.run(other, partial.checkpoint.get()),
                 RecoverableError);
}

/** A snapshot whose states or frontier do not fit this image's layout
 *  and tree is refused before anything is restored from it. */
TEST_F(CheckpointTest, RejectsStatesThatDoNotFit)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);
    ASSERT_FALSE(partial.checkpoint->table.empty());
    ASSERT_FALSE(partial.checkpoint->frontier.empty());
    IftEngine engine(*soc, p, EngineConfig{});

    auto shortened = [](const SymState &s) {
        auto cut = [](const BitPlane &plane) {
            BitPlane out(plane.size() - 64);
            for (size_t i = 0; i < out.size(); ++i)
                out.set(i, plane.get(i));
            return out;
        };
        SymState out;
        out.setPlanes(cut(s.knownPlane()), cut(s.valuePlane()),
                      cut(s.taintPlane()));
        return out;
    };
    EngineCheckpoint table = *partial.checkpoint;
    table.table.back().second = shortened(table.table.back().second);
    EXPECT_THROW(engine.run(img, &table), RecoverableError);

    EngineCheckpoint front = *partial.checkpoint;
    front.frontier.back().first = shortened(front.frontier.back().first);
    EXPECT_THROW(engine.run(img, &front), RecoverableError);

    EngineCheckpoint node = *partial.checkpoint;
    node.frontier.back().second =
        static_cast<uint32_t>(node.tree.size());
    EXPECT_THROW(engine.run(img, &node), RecoverableError);

    // The unedited snapshot still resumes.
    EXPECT_NO_THROW(engine.run(img, partial.checkpoint.get()));
}

std::string
toHex(const std::string &bytes)
{
    static const char *kDigits = "0123456789abcdef";
    std::string hex;
    for (unsigned char c : bytes) {
        hex.push_back(kDigits[c >> 4]);
        hex.push_back(kDigits[c & 0xF]);
    }
    return hex;
}

/** A 70-slot state: two plane words, the second one partial. */
SymState
goldenState(unsigned seed)
{
    BitPlane k(70), v(70), t(70);
    k.set(seed, true);
    k.set(seed + 1, true);
    k.set(69, true);
    v.set(seed + 1, true);
    t.set(64 + seed, true);
    SymState s;
    s.setPlanes(std::move(k), std::move(v), std::move(t));
    return s;
}

/** A small hand-built snapshot: one degradation, one violation, three
 *  70-slot states and two tree nodes. */
EngineCheckpoint
goldenCheckpoint()
{
    EngineCheckpoint c;
    c.fingerprint = 0x0123456789abcdefULL;
    c.totalCycles = 1000;
    c.pathsExplored = 7;
    c.branchPoints = 3;
    c.merges = 2;
    c.subsumptions = 1;
    Degradation d;
    d.level = DegradeLevel::StarLogicPath;
    d.trigger = ResourceKind::BranchFanout;
    d.cycle = 500;
    d.instrAddr = 0x1234;
    d.detail = "fan";
    c.degradations.push_back(d);
    Violation v;
    v.kind = ViolationKind::StoreUntaintedPartition;
    v.instrAddr = 0x0040;
    v.firstCycle = 99;
    v.count = 4;
    v.maskable = true;
    v.detail = "st";
    c.violations.push_back(v);
    c.everTainted = BitPlane(70);
    c.everTainted.set(3, true);
    c.table.emplace_back(0x10, goldenState(0));
    c.table.emplace_back(0x22, goldenState(1));
    c.frontier.emplace_back(goldenState(2), 1);
    c.tree.push_back(ExecNode{0, -1, 0x0000, 10, 0x0010,
                              PathEnd::Branched});
    c.tree.push_back(ExecNode{1, 0, 0x0012, 20, 0x0020,
                              PathEnd::Running});
    return c;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Checkpoint v2 byte for byte: the golden snapshot written by save()
 *  must produce exactly these bytes, section by section. */
TEST_F(CheckpointTest, GoldenBytes)
{
    const std::string path = tempPath("golden.ckpt");
    goldenCheckpoint().save(path);
    const std::string bytes = slurp(path);
    const std::string want =
        // magic "GLFSCKPT", version 2, CRC-32 of the body
        "474c4653434b5054" "02000000" "4ebf036e"
        // fingerprint, totalCycles, pathsExplored
        "efcdab8967452301" "e803000000000000" "0700000000000000"
        // branchPoints, merges, subsumptions, the retired ladder byte
        "0300000000000000" "0200000000000000" "0100000000000000" "00"
        // one degradation: level, trigger, severity 1, cycle, instr, "fan"
        "01000000" "02" "02" "01" "f401000000000000" "3412"
        "03000000" "66616e"
        // one violation: kind, instr, firstCycle, count, maskable, "st"
        "01000000" "02" "4000" "6300000000000000" "04000000" "01"
        "02000000" "7374"
        // everTainted: 70 bits in two words
        "4600000000000000" "0800000000000000" "0000000000000000"
        // table: two (key, state) entries, each plane 70 bits
        "02000000" "10000000"
        "4600000000000000" "0300000000000000" "2000000000000000"
        "4600000000000000" "0200000000000000" "0000000000000000"
        "4600000000000000" "0000000000000000" "0100000000000000"
        "22000000"
        "4600000000000000" "0600000000000000" "2000000000000000"
        "4600000000000000" "0400000000000000" "0000000000000000"
        "4600000000000000" "0000000000000000" "0200000000000000"
        // frontier: one (state, node) entry
        "01000000"
        "4600000000000000" "0c00000000000000" "2000000000000000"
        "4600000000000000" "0800000000000000" "0000000000000000"
        "4600000000000000" "0000000000000000" "0400000000000000"
        "01000000"
        // tree: two nodes (id, parent, startPc, cycles, endInstr, end)
        "02000000"
        "00000000" "ffffffff" "0000" "0a00000000000000" "1000" "03"
        "01000000" "00000000" "1200" "1400000000000000" "2000" "00";
    EXPECT_EQ(toHex(bytes), want);
}

/**
 * The whole-body CRC shields the parser from every other test. With
 * the header CRC rewritten to match, a body cut at any offset, and a
 * section count larger than the bytes that follow it, must each be
 * refused with RecoverableError, never parsed or sized from.
 */
TEST_F(CheckpointTest, ParserRefusesBadBodiesBehindAValidCrc)
{
    const std::string path = tempPath("parser.ckpt");
    goldenCheckpoint().save(path);
    const std::string bytes = slurp(path);
    constexpr size_t kBody = 16; // magic, version, CRC
    auto loadWithCrc = [&](std::string file) {
        const uint32_t crc =
            crc32(file.data() + kBody, file.size() - kBody);
        for (int i = 0; i < 4; ++i)
            file[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << file;
        return EngineCheckpoint::load(path);
    };
    ASSERT_NO_THROW(loadWithCrc(bytes));

    for (size_t n = kBody; n < bytes.size(); ++n) {
        EXPECT_THROW(loadWithCrc(bytes.substr(0, n)), RecoverableError)
            << "body cut at byte " << n << " parsed as valid";
    }

    // The file offsets of the golden snapshot's five section counts
    // (see GoldenBytes): degradations, violations, table, frontier,
    // tree. Each is set one past the bytes left after it.
    ASSERT_EQ(bytes.size(), 421u);
    for (size_t at : {65u, 89u, 139u, 295u, 375u}) {
        std::string file = bytes;
        const uint32_t n = static_cast<uint32_t>(bytes.size() - at - 4 + 1);
        for (int i = 0; i < 4; ++i)
            file[at + i] = static_cast<char>((n >> (8 * i)) & 0xFF);
        EXPECT_THROW(loadWithCrc(file), RecoverableError)
            << "count " << n << " at byte " << at;
    }
}

// ---------------------------------------------------------------------
// Failure taxonomy: user-input errors stay FatalError (the CLI maps
// them to its usage exit code), never aborts.
// ---------------------------------------------------------------------

TEST(FailureTaxonomyTest, BadPolicyFileIsFatalError)
{
    EXPECT_THROW(loadPolicyFile("/nonexistent/path/policy.cfg"),
                 FatalError);
}

TEST(FailureTaxonomyTest, UnknownWorkloadIsFatalError)
{
    EXPECT_THROW(workloadByName("no-such-workload"), FatalError);
}

TEST(FailureTaxonomyTest, RecoverableErrorIsDistinctFromFatal)
{
    // RecoverableError deliberately does not derive from FatalError:
    // callers that catch FatalError (bad input, give up) must not
    // swallow recoverable conditions they could retry or degrade.
    EXPECT_THROW(
        {
            try {
                GLIFS_RECOVERABLE("budget exhausted");
            } catch (const FatalError &) {
                FAIL() << "RecoverableError caught as FatalError";
            }
        },
        RecoverableError);
}

} // namespace
} // namespace glifs
