/**
 * @file
 * Command-line contract of `glifs_audit --explore-jobs N`. The option
 * is accepted (N >= 1) and ignored: every audit runs the one serial
 * engine (DESIGN.md §10). A run with it must therefore match the
 * flagless run on exit code, verdict, the `analysis` section and every
 * stat that does not measure the host, on every workload (the 13
 * kernels plus MiniRTOS under its own labels). `--explore-jobs 0` and
 * the retired worker-mode flag are usage errors. The trace carries
 * every POR fork on the absolute clock.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
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
    // its own process, possibly concurrently under `ctest -j`.
    std::string dir = ::testing::TempDir() + "audit_cli_" + name + "_" +
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

/** glifs_audit arguments auditing workload @p w. */
std::string
materialize(const std::string &dir, const std::string &w)
{
    return w.rfind("rtos_", 0) == 0 ? materializeRtos(dir, w)
                                    : materializeWorkload(dir, w);
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
         const std::string &flags = "")
{
    static unsigned seq = 0;
    const std::string tag = std::to_string(++seq);
    const std::string reportFile = dir + "/report." + tag + ".json";
    std::ostringstream cmd;
    cmd << GLIFS_AUDIT_BIN << " " << target << " --stats-json "
        << reportFile << " " << flags << " < /dev/null > " << dir
        << "/stdout." << tag << ".log 2> " << dir << "/stderr." << tag
        << ".log";
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

/** The report's `analysis` object with the wall-clock field
 *  scrubbed. */
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

/**
 * The report's `stats` object as dotted name -> value text, without
 * the stats that measure the host rather than the analysis: every
 * `*_seconds` stat and `governor.rss_bytes`. Relies on the snapshot's
 * fixed layout: one member per line, a nested object opened by a
 * member whose value is `{` and closed by a line starting with `}`.
 */
std::map<std::string, std::string>
deterministicStats(const std::string &report)
{
    std::map<std::string, std::string> out;
    std::vector<std::string> path;
    std::istringstream in(jsonObject(report, "stats"));
    for (std::string line; std::getline(in, line);) {
        const size_t b = line.find_first_not_of(' ');
        if (b == std::string::npos)
            continue;
        if (line[b] == '}') {
            if (!path.empty())
                path.pop_back();
            continue;
        }
        if (line[b] != '"')
            continue; // the snapshot's own opening brace
        const size_t e = line.find('"', b + 1);
        const std::string key = line.substr(b + 1, e - b - 1);
        std::string value = line.substr(line.find(':', e) + 2);
        if (!value.empty() && value.back() == ',')
            value.pop_back();
        if (value == "{") {
            path.push_back(key);
            continue;
        }
        std::string name;
        for (const std::string &p : path)
            name += p + ".";
        name += key;
        if (name.find("_seconds") == std::string::npos &&
            name != "governor.rss_bytes")
            out[name] = value;
    }
    return out;
}

/** @p run must match @p flagless on everything but timing. */
void
expectSameAudit(const AuditRun &flagless, const AuditRun &run)
{
    ASSERT_FALSE(flagless.report.empty());
    ASSERT_FALSE(run.report.empty());
    EXPECT_EQ(flagless.exitCode, run.exitCode);
    EXPECT_EQ(jsonString(flagless.report, "verdict"),
              jsonString(run.report, "verdict"));
    EXPECT_EQ(normalizedAnalysis(flagless.report),
              normalizedAnalysis(run.report));

    const auto want = deterministicStats(flagless.report);
    const auto got = deterministicStats(run.report);
    EXPECT_GT(want.count("engine.cycles"), 0u);
    for (const auto &[name, value] : want) {
        auto it = got.find(name);
        EXPECT_TRUE(it != got.end() && it->second == value)
            << name << ": " << value << " vs "
            << (it == got.end() ? "absent" : it->second);
    }
    for (const auto &[name, value] : got)
        EXPECT_TRUE(want.count(name)) << name << " only with the flag";
}

// ------------------------------------------------------------------
// --explore-jobs N runs the serial engine.
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

/** --explore-jobs 4 reproduces the flagless audit on each of the 13
 *  kernels and both MiniRTOS builds. */
TEST_P(ExploreWorkloadParity, JobsFourMatchesSerial)
{
    const std::string w = GetParam();
    const std::string dir = tempDir("parity_" + w);
    const std::string target = materialize(dir, w);
    expectSameAudit(runAudit(dir, target),
                    runAudit(dir, target, "--explore-jobs 4"));
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ExploreWorkloadParity,
    ::testing::ValuesIn(parityWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** --explore-jobs 1 and 3 (what the benchmark's rtos_fleet workload
 *  passes) are the flagless audit, on a kernel with POR forks and on
 *  MiniRTOS under its own labels. */
TEST(ExploreParity, JobsOneIsTheSerialEngine)
{
    for (const std::string w : {"tHold", "rtos_protected"}) {
        const std::string dir = tempDir("jobs_" + w);
        const std::string target = materialize(dir, w);
        const AuditRun flagless = runAudit(dir, target);
        EXPECT_GT(jsonCounter(flagless.report, "por_forks"), 0u) << w;
        for (const char *jobs : {"1", "3"}) {
            SCOPED_TRACE(w + " --explore-jobs " + jobs);
            expectSameAudit(
                flagless,
                runAudit(dir, target,
                         std::string("--explore-jobs ") + jobs));
        }
        std::filesystem::remove_all(dir);
    }
}

/** A job count below 1 and the retired worker mode are usage
 *  errors (exit 3), not silently ignored. */
TEST(ExploreParity, BadJobCountAndWorkerModeAreUsageErrors)
{
    const std::string dir = tempDir("usage");
    const std::string asmFile = materializeWorkload(dir, "tHold");
    for (const char *flag : {"--explore-jobs 0", "--explore-worker"}) {
        SCOPED_TRACE(flag);
        EXPECT_EQ(runAudit(dir, asmFile, flag).exitCode, 3);
    }
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------
// Traces.
// ------------------------------------------------------------------

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
 *  clock. The cycle cap keeps the trace inside the tracer's ring: a
 *  full tHold trace (mostly `checker/violation` instants) wraps it. */
TEST(ExploreTrace, PorForkInstantsMatchTheCounter)
{
    const std::string dir = tempDir("trace");
    const std::string asmFile = materializeWorkload(dir, "tHold");
    const std::string traceFile = dir + "/trace.json";
    AuditRun r = runAudit(dir, asmFile,
                          "--max-cycles 400 --trace-out " + traceFile);
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
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace glifs
