/**
 * @file
 * Crash-safety acceptance tests (docs/ROBUSTNESS.md, "Crash
 * recovery"): real `glifs_batch` runs under `GLIFS_FAULT_PLAN`
 * syscall fault plans — deterministic kill-9 at journal/cache write
 * boundaries, injected ENOSPC, short writes and fork EAGAIN — each
 * followed by `--resume-batch`, asserting the resumed run converges
 * to the same normalized `glifs.batch_report.v1` as a fault-free
 * baseline. Carries the `faultinject` ctest label; CI also runs it
 * under ASan+UBSan.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "batch/journal.hh"

#ifndef GLIFS_AUDIT_BIN
#define GLIFS_AUDIT_BIN "glifs_audit"
#endif
#ifndef GLIFS_BATCH_BIN
#define GLIFS_BATCH_BIN "glifs_batch"
#endif

namespace glifs
{
namespace
{

std::string
tempDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "faultinject_" + name;
    std::filesystem::remove_all(dir);
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Exit code of a shell command (-1 on abnormal end, 137 on kill-9
 *  style `_exit(137)` which the shell reports as 137 directly). */
int
runCmd(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** A small mixed fleet: three secure jobs and one with violations,
 *  enough journal/cache writes to give crash plans real boundaries. */
const char *kManifest =
    "batch faultinject fleet\n"
    "job mult\n    workload mult\n"
    "job tea8\n    workload tea8\n"
    "job rle\n    workload rle\n"
    "job thold\n    workload tHold\n";

struct RunResult
{
    int exitCode = -1;
    std::string report;  ///< raw glifs.batch_report.v1 JSON ("" = none)
};

/**
 * Run glifs_batch over @p manifestFile. @p faultPlan becomes
 * GLIFS_FAULT_PLAN for that one process tree; @p resumeFrom adds
 * --resume-batch.
 */
RunResult
runBatchCmd(const std::string &dir, const std::string &manifestFile,
            const std::string &faultPlan,
            const std::string &resumeFrom)
{
    std::string reportFile = dir + "/report.json";
    std::remove(reportFile.c_str());
    std::ostringstream cmd;
    if (!faultPlan.empty())
        cmd << "GLIFS_FAULT_PLAN='" << faultPlan << "' ";
    cmd << GLIFS_BATCH_BIN << " " << manifestFile << " --jobs 2"
        << " --quiet --cache-dir " << dir << "/cache"
        << " --work-dir " << dir << "/work"
        << " --audit-bin " << GLIFS_AUDIT_BIN
        << " --report " << reportFile;
    if (!resumeFrom.empty())
        cmd << " --resume-batch " << resumeFrom;
    cmd << " > " << dir << "/stdout.log 2> " << dir << "/stderr.log";
    RunResult r;
    r.exitCode = runCmd(cmd.str());
    r.report = readFile(reportFile);
    return r;
}

/**
 * The crash-invariant view of a batch report: per-job name, verdict,
 * exit code and violation count, in manifest order, plus the overall
 * exit code. Wall times, attempt counts and cache hit/miss status
 * legitimately differ between a fresh run and a crash+resume; the
 * verdicts never may.
 */
std::string
normalizeReport(const std::string &json)
{
    std::ostringstream out;
    std::istringstream in(json);
    std::string line;
    auto field = [&line](const std::string &key) {
        size_t pos = line.find("\"" + key + "\": ");
        if (pos == std::string::npos)
            return std::string("?");
        pos += key.size() + 4;
        size_t end = line.find_first_of(",}", pos);
        return line.substr(pos, end - pos);
    };
    while (std::getline(in, line)) {
        if (line.find("\"exit_code\":") != std::string::npos &&
            line.find("\"name\":") == std::string::npos) {
            out << "batch exit=" << field("exit_code") << "\n";
        }
        if (line.find("    {\"name\":") == 0) {
            out << field("name") << " verdict=" << field("verdict")
                << " exit=" << field("exit_code")
                << " violations=" << field("violation_count") << "\n";
        }
    }
    return out.str();
}

class FaultInjectTest : public ::testing::Test
{
  protected:
    /** Fault-free reference run in its own directory. */
    static std::string
    baseline()
    {
        static std::string cached;
        if (!cached.empty())
            return cached;
        // Per-process directory: gtest_discover_tests runs each case
        // as its own process, so concurrent cases under `ctest -j`
        // must not share (and remove_all) one baseline dir.
        std::string dir =
            tempDir("baseline_" + std::to_string(::getpid()));
        std::string mf = dir + "/fleet.manifest";
        std::ofstream(mf) << kManifest;
        RunResult ref = runBatchCmd(dir, mf, "", "");
        EXPECT_EQ(ref.exitCode, 1); // thold has violations
        cached = normalizeReport(ref.report);
        EXPECT_NE(cached.find("\"thold\" verdict=\"violations\""),
                  std::string::npos)
            << cached;
        return cached;
    }
};

TEST_F(FaultInjectTest, BaselineFleetIsSane)
{
    std::string norm = baseline();
    EXPECT_NE(norm.find("batch exit=1"), std::string::npos) << norm;
    EXPECT_NE(norm.find("\"mult\" verdict=\"secure\" exit=0"),
              std::string::npos)
        << norm;
}

TEST_F(FaultInjectTest, ResumeConvergesAfterKill9AtWriteBoundaries)
{
    const std::string ref = baseline();

    // Crash (deterministic kill -9, `_exit(137)`) at the Nth faultfs
    // write of the batch driver: the journal header, the manifest
    // record, job-started records, cache publishes and job-finished
    // records all land on this counter, so sweeping N walks the crash
    // across every journal record boundary. A fixed-seed RNG adds
    // randomized deeper boundaries on top of the low ones.
    std::vector<unsigned> crashPoints = {1, 2, 3, 4, 6};
    std::mt19937 rng(20260809);
    std::uniform_int_distribution<unsigned> pick(7, 16);
    for (int i = 0; i < 3; ++i)
        crashPoints.push_back(pick(rng));

    for (unsigned n : crashPoints) {
        std::string dir =
            tempDir("kill9_" + std::to_string(n));
        std::string mf = dir + "/fleet.manifest";
        std::ofstream(mf) << kManifest;

        std::string plan = "write:" + std::to_string(n) + ":crash";
        RunResult crashed = runBatchCmd(dir, mf, plan, "");
        // The driver died mid-run (137) — or, for crash points past
        // this run's write count, finished normally; both are valid
        // starting states for a resume.
        const bool died = crashed.exitCode == 137;

        RunResult resumed = runBatchCmd(
            dir, mf, "", dir + "/work/batch.journal");
        EXPECT_EQ(resumed.exitCode, 1)
            << "crash point " << n << " (died=" << died << "): "
            << readFile(dir + "/stderr.log");
        EXPECT_EQ(normalizeReport(resumed.report), ref)
            << "crash point " << n << " diverged";
    }
}

TEST_F(FaultInjectTest, InjectedEnospcNeverChangesTheVerdict)
{
    const std::string ref = baseline();
    // ENOSPC on early writes hits the journal header / manifest
    // record (journaling self-disables); later ones hit cache
    // publishes (entry dropped). Every variant must still produce
    // the baseline verdicts in one run — availability degrades,
    // correctness does not.
    for (unsigned n : {1u, 2u, 3u, 5u, 9u}) {
        std::string dir = tempDir("enospc_" + std::to_string(n));
        std::string mf = dir + "/fleet.manifest";
        std::ofstream(mf) << kManifest;
        std::string plan = "write:" + std::to_string(n) + ":ENOSPC";
        RunResult r = runBatchCmd(dir, mf, plan, "");
        EXPECT_EQ(r.exitCode, 1) << "ENOSPC at write " << n << ": "
                                 << readFile(dir + "/stderr.log");
        EXPECT_EQ(normalizeReport(r.report), ref)
            << "ENOSPC at write " << n << " changed the report";
    }
}

TEST_F(FaultInjectTest, ShortWritesTearButResumeRecovers)
{
    const std::string ref = baseline();
    for (unsigned n : {2u, 4u}) {
        std::string dir = tempDir("short_" + std::to_string(n));
        std::string mf = dir + "/fleet.manifest";
        std::ofstream(mf) << kManifest;
        std::string plan = "write:" + std::to_string(n) + ":short";
        RunResult torn = runBatchCmd(dir, mf, plan, "");
        // A short write disables the journal (torn record stays on
        // disk) but the batch itself completes with the right answer.
        EXPECT_EQ(torn.exitCode, 1);
        EXPECT_EQ(normalizeReport(torn.report), ref);

        // And the torn journal replays cleanly on a resume.
        RunResult resumed = runBatchCmd(
            dir, mf, "", dir + "/work/batch.journal");
        EXPECT_EQ(resumed.exitCode, 1);
        EXPECT_EQ(normalizeReport(resumed.report), ref)
            << "torn journal at write " << n << " broke the resume";
    }
}

TEST_F(FaultInjectTest, TransientForkFailuresAreRetried)
{
    const std::string ref = baseline();
    std::string dir = tempDir("fork_eagain");
    std::string mf = dir + "/fleet.manifest";
    std::ofstream(mf) << kManifest;
    // The first two fork attempts fail EAGAIN; the scheduler's
    // backoff ladder must absorb both and run the full fleet.
    RunResult r =
        runBatchCmd(dir, mf, "fork:1:EAGAIN,fork:2:EAGAIN", "");
    EXPECT_EQ(r.exitCode, 1) << readFile(dir + "/stderr.log");
    EXPECT_EQ(normalizeReport(r.report), ref);
}

/** A worker never inherits the journal. Without a telemetry pipe the
 *  worker's --telemetry-fd names a descriptor of nothing, which must
 *  not be the journal's: the journal equals the fault-free one in size
 *  and records, and the verdict is unchanged. */
TEST_F(FaultInjectTest, WorkerWithoutPipeLeavesTheJournalAlone)
{
    struct Run
    {
        RunResult result;
        uintmax_t journalBytes = 0;
        batch::BatchJournal::Replay replay;
    };
    auto run = [](const std::string &name, const std::string &plan) {
        std::string dir = tempDir(name);
        std::string mf = dir + "/one.manifest";
        std::ofstream(mf) << "batch one job\njob thold\n"
                             "    workload tHold\n";
        Run r;
        r.result = runBatchCmd(dir, mf, plan, "");
        const std::string journal = dir + "/work/batch.journal";
        r.journalBytes = std::filesystem::file_size(journal);
        r.replay = batch::BatchJournal::replay(journal);
        return r;
    };
    const Run clean = run("journal_clean", "");
    const Run nopipe = run("journal_nopipe", "pipe:1:EMFILE");
    EXPECT_EQ(clean.result.exitCode, 1);
    EXPECT_EQ(nopipe.result.exitCode, 1);
    EXPECT_EQ(normalizeReport(nopipe.result.report),
              normalizeReport(clean.result.report));
    EXPECT_EQ(nopipe.journalBytes, clean.journalBytes);
    EXPECT_EQ(nopipe.replay.records, clean.replay.records);
    EXPECT_FALSE(nopipe.replay.torn);
}

} // namespace
} // namespace glifs
