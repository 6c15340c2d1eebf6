/**
 * @file
 * Acceptance tests for work-stealing parallel exploration
 * (DESIGN.md, "Parallel exploration"): real `glifs_audit
 * --explore-jobs N` runs, asserting the parallel coordinator is
 * *bit-identical* to the serial engine — same verdict, same exit
 * code, same violation list, same cycle/path/branch counters — for
 * every job count, and that a fleet whose workers are killed at
 * faultfs write boundaries (GLIFS_EXPLORE_FAULT_PLAN) still
 * converges to the serial result by resharding and respawning. The
 * parity case runs on every workload (the 13 kernels plus MiniRTOS
 * under its own labels); a budget stop snapshotted by a fleet must
 * resume to the serial stop-and-resume result; the fleet's trace must
 * carry every POR fork on the absolute clock. Carries the `explore`
 * ctest label plus a `faultinject`-labeled slice for the crash sweeps.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/manifest.hh"
#include "ift/policy_file.hh"
#include "workloads/rtos.hh"
#include "workloads/workload.hh"

#ifndef GLIFS_AUDIT_BIN
#define GLIFS_AUDIT_BIN "glifs_audit"
#endif

namespace glifs
{
namespace
{

std::string
tempDir(const std::string &name)
{
    // Per-process directory: gtest_discover_tests runs each case as
    // its own process, and test_explore_faultinject re-runs the kill
    // sweeps concurrently under `ctest -j`.
    std::string dir = ::testing::TempDir() + "explore_" + name + "_" +
                      std::to_string(::getpid());
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

/** Materialize a registry workload's assembly via the manifest
 *  loader (the same resolution path the batch runner uses). */
std::string
materializeWorkload(const std::string &dir,
                    const std::string &workload)
{
    const std::string manifestFile = dir + "/m.manifest";
    {
        std::ofstream out(manifestFile);
        out << "batch tmp\njob j\n    workload " << workload << "\n";
    }
    batch::Manifest m = batch::loadManifest(manifestFile);
    const std::string asmFile = dir + "/" + workload + ".s";
    std::ofstream out(asmFile);
    out << m.jobs.at(0).firmwareText;
    return asmFile;
}

/** The MiniRTOS builds, which the registry does not list: firmware
 *  and their own labels (renderPolicy) as glifs_audit arguments. */
std::string
materializeRtos(const std::string &dir, const std::string &name)
{
    const MicroBenchmark rtos =
        name == "rtos_baseline" ? rtosBaseline() : rtosProtected();
    const std::string base = dir + "/" + name;
    std::ofstream(base + ".s") << rtos.source;
    std::ofstream(base + ".policy") << renderPolicy(rtos.policy);
    return base + ".s --policy " + base + ".policy";
}

int
runCmd(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

struct AuditRun
{
    int exitCode = -1;
    std::string report; ///< raw glifs.run_report.v1 JSON
};

/** One glifs_audit run; @p target is the firmware plus any label
 *  arguments, @p flags any further options. */
AuditRun
runAudit(const std::string &dir, const std::string &target,
         unsigned jobs, const std::string &faultPlan = "",
         const std::string &flags = "")
{
    static unsigned seq = 0;
    const std::string tag = std::to_string(++seq);
    const std::string reportFile = dir + "/report." + tag + ".json";
    std::ostringstream cmd;
    if (!faultPlan.empty())
        cmd << "GLIFS_EXPLORE_FAULT_PLAN='" << faultPlan << "' ";
    cmd << GLIFS_AUDIT_BIN << " " << target << " --stats-json "
        << reportFile << " " << flags;
    if (jobs > 1)
        cmd << " --explore-jobs " << jobs;
    cmd << " > " << dir << "/stdout." << tag << ".log 2> " << dir
        << "/stderr." << tag << ".log";
    AuditRun r;
    r.exitCode = runCmd(cmd.str());
    r.report = readFile(reportFile);
    return r;
}

/** The balanced-brace JSON object starting at the value of @p key
 *  ("" when absent) — enough structure awareness for our own
 *  fixed-shape run reports. */
std::string
jsonObject(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return "";
    size_t open = json.find('{', at);
    if (open == std::string::npos)
        return "";
    int depth = 0;
    for (size_t i = open; i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        else if (json[i] == '}' && --depth == 0)
            return json.substr(open, i - open + 1);
    }
    return "";
}

std::string
jsonString(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return "";
    size_t q1 = json.find('"', at + key.size() + 3);
    if (q1 == std::string::npos)
        return "";
    size_t q2 = json.find('"', q1 + 1);
    return json.substr(q1 + 1, q2 - q1 - 1);
}

uint64_t
jsonCounter(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return ~0ull;
    return std::strtoull(json.c_str() + at + key.size() + 3, nullptr,
                         10);
}

/**
 * The determinism-invariant view of a run report: the whole
 * `analysis` object (verdict inputs, counters, the full violation
 * list) with the wall-clock field scrubbed. Timing is the only field
 * that may differ between a serial and a parallel run.
 */
std::string
normalizedAnalysis(const std::string &report)
{
    std::string a = jsonObject(report, "analysis");
    size_t at = a.find("\"analysis_seconds\":");
    if (at != std::string::npos) {
        size_t end = a.find_first_of(",}", at);
        a.erase(at, end - at);
    }
    return a;
}

void
expectIdenticalRuns(const AuditRun &serial, const AuditRun &par,
                    const std::string &workload)
{
    SCOPED_TRACE(workload);
    ASSERT_FALSE(serial.report.empty());
    ASSERT_FALSE(par.report.empty());
    EXPECT_EQ(serial.exitCode, par.exitCode);
    EXPECT_EQ(jsonString(serial.report, "verdict"),
              jsonString(par.report, "verdict"));
    EXPECT_EQ(normalizedAnalysis(serial.report),
              normalizedAnalysis(par.report));
}

// ------------------------------------------------------------------
// Parallel == serial, bit for bit.
// ------------------------------------------------------------------

std::vector<std::string>
parityWorkloads()
{
    std::vector<std::string> names;
    for (const Workload &w : allWorkloads())
        names.push_back(w.name);
    names.push_back("rtos_baseline");
    names.push_back("rtos_protected");
    return names;
}

class ExploreWorkloadParity
    : public ::testing::TestWithParam<std::string>
{
};

/** jobs=4 must reproduce the serial verdict, exit code, violation
 *  list and every engine counter on each of the 13 kernels and both
 *  MiniRTOS builds. */
TEST_P(ExploreWorkloadParity, JobsFourMatchesSerial)
{
    const std::string w = GetParam();
    const std::string dir = tempDir("parity_" + w);
    const std::string target = w.rfind("rtos_", 0) == 0
                                   ? materializeRtos(dir, w)
                                   : materializeWorkload(dir, w);
    AuditRun serial = runAudit(dir, target, 1);
    AuditRun par = runAudit(dir, target, 4);
    expectIdenticalRuns(serial, par, w);
    // The fleet must have actually run: segments shipped and either
    // consumed from the cache or pruned — a silently serial fallback
    // would pass the identity check above.
    uint64_t shipped = jsonCounter(par.report, "chunks_shipped");
    EXPECT_NE(shipped, ~0ull);
    EXPECT_GT(shipped, 0u);
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ExploreWorkloadParity,
    ::testing::ValuesIn(parityWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** --explore-jobs 1 selects the untouched serial engine: reports are
 *  byte-identical (minus timing) to a flagless run. */
TEST(ExploreParity, JobsOneIsTheSerialEngine)
{
    const std::string dir = tempDir("jobs1");
    const std::string asmFile = materializeWorkload(dir, "rle");
    AuditRun flagless = runAudit(dir, asmFile, 1);
    std::ostringstream cmd;
    cmd << GLIFS_AUDIT_BIN << " " << asmFile << " --explore-jobs 1"
        << " --stats-json " << dir << "/report.j1.json > /dev/null 2>&1";
    AuditRun j1;
    j1.exitCode = runCmd(cmd.str());
    j1.report = readFile(dir + "/report.j1.json");
    expectIdenticalRuns(flagless, j1, "rle");
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------
// Crash recovery (faultinject slice).
// ------------------------------------------------------------------

/** Every worker dies at its second faultfs write — repeatedly, since
 *  respawned workers inherit the same plan — until the respawn cap
 *  disables the fleet. The coordinator must converge to the serial
 *  result by executing everything inline, and the respawn counter
 *  must record the recovery attempts. */
TEST(ExploreFaultInject, KilledWorkersConvergeToSerialResult)
{
    const std::string dir = tempDir("kill");
    const std::string asmFile = materializeWorkload(dir, "tHold");
    AuditRun serial = runAudit(dir, asmFile, 1);
    AuditRun par = runAudit(dir, asmFile, 4, "write:2:crash");
    expectIdenticalRuns(serial, par, "tHold");
    EXPECT_GE(jsonCounter(par.report, "workers_respawned"), 1u);
    std::filesystem::remove_all(dir);
}

/** A worker killed on a *read* boundary dies while idle or while
 *  pulling work; either way the shipped entries must be resharded
 *  and the verdict preserved. */
TEST(ExploreFaultInject, ReadBoundaryKillsConverge)
{
    const std::string dir = tempDir("readkill");
    const std::string asmFile = materializeWorkload(dir, "binSearch");
    AuditRun serial = runAudit(dir, asmFile, 1);
    AuditRun par = runAudit(dir, asmFile, 3, "read:2:crash");
    expectIdenticalRuns(serial, par, "binSearch");
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------
// Budget stops and traces through the fleet.
// ------------------------------------------------------------------

/** A fleet stopped by a cycle budget snapshots exactly what the
 *  serial engine does, and its snapshot resumes -- serially or through
 *  a fleet again -- to the serial stop-and-resume result. */
TEST(ExploreCheckpoint, FleetStopResumesLikeSerial)
{
    const std::string dir = tempDir("ckpt");
    const std::string asmFile = materializeWorkload(dir, "tHold");
    const std::string serialCkpt = dir + "/serial.ckpt";
    const std::string fleetCkpt = dir + "/fleet.ckpt";
    const std::string stop = " --max-cycles 600 --checkpoint ";

    AuditRun serialStop = runAudit(dir, asmFile, 1, "", stop + serialCkpt);
    AuditRun fleetStop = runAudit(dir, asmFile, 3, "", stop + fleetCkpt);
    expectIdenticalRuns(serialStop, fleetStop, "stop");
    EXPECT_NE(serialStop.report.find("\"completed\": false"),
              std::string::npos);
    const std::string snapshot = readFile(serialCkpt);
    ASSERT_FALSE(snapshot.empty());
    EXPECT_EQ(snapshot, readFile(fleetCkpt));

    AuditRun serialResume =
        runAudit(dir, asmFile, 1, "", "--resume " + serialCkpt);
    AuditRun resumedSerially =
        runAudit(dir, asmFile, 1, "", "--resume " + fleetCkpt);
    AuditRun resumedByFleet =
        runAudit(dir, asmFile, 3, "", "--resume " + fleetCkpt);
    expectIdenticalRuns(serialResume, resumedSerially, "serial resume");
    expectIdenticalRuns(serialResume, resumedByFleet, "fleet resume");
    std::filesystem::remove_all(dir);
}

/** The args of every `engine/por_fork` instant in a trace, in order. */
std::vector<std::string>
porForkArgs(const std::string &trace)
{
    std::vector<std::string> args;
    std::istringstream in(trace);
    for (std::string line; std::getline(in, line);) {
        if (line.find("\"name\": \"por_fork\"") == std::string::npos)
            continue;
        size_t at = line.find("\"args\":");
        args.push_back(at == std::string::npos ? ""
                                               : line.substr(at));
    }
    return args;
}

/** Every POR fork is traced once, from the driver, on the absolute
 *  clock -- also the forks of segments a worker simulated. The cycle
 *  cap keeps the trace inside the tracer's ring. */
TEST(ExploreTrace, PorForkInstantsMatchTheCounter)
{
    const std::string dir = tempDir("trace");
    const std::string asmFile = materializeWorkload(dir, "tHold");
    std::vector<std::string> serialForks;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        const std::string traceFile =
            dir + "/trace." + std::to_string(jobs) + ".json";
        AuditRun r = runAudit(dir, asmFile, jobs, "",
                              "--max-cycles 400 --trace-out " +
                                  traceFile);
        ASSERT_FALSE(r.report.empty());
        ASSERT_EQ(r.report.find("dropped_events"), std::string::npos)
            << "trace ring wrapped";
        const std::vector<std::string> forks =
            porForkArgs(readFile(traceFile));
        const uint64_t counted = jsonCounter(r.report, "por_forks");
        EXPECT_GT(counted, 0u);
        EXPECT_EQ(forks.size(), counted);
        for (const std::string &a : forks)
            EXPECT_NE(a.find("\"cycle\": "), std::string::npos) << a;
        if (jobs == 1)
            serialForks = forks;
        else
            EXPECT_EQ(forks, serialForks);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace glifs
