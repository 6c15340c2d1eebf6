/**
 * @file
 * glifs-audit: command-line front end to the toolflow (Figure 10).
 *
 * Usage:
 *   glifs_audit <firmware.s> [options]
 *
 * Options:
 *   --policy FILE      load labels from a policy file (see
 *                      src/ift/policy_file.hh for the format);
 *                      overrides --task-base/--task-end
 *   --task-base ADDR   first word address of the tainted task
 *                      partition (default 0x80; system code below it)
 *   --task-end ADDR    last word address of the partition (default
 *                      0xfff)
 *   --fix              apply watchdog + masking fixes and re-verify;
 *                      writes <firmware>.secured.s next to the input
 *   --interval SEL     watchdog interval selector 0..3 (default 1)
 *   --star             also run the *-logic baseline for comparison
 *   --taint-code       mark the task's instructions tainted in program
 *                      memory (paper footnote 3)
 *   --list-workloads   print the built-in workload registry, one name
 *                      per line (machine-readable; batch manifests
 *                      reference these names -- docs/BATCH.md), then
 *                      exit 0
 *
 * Resource governance (see docs/ROBUSTNESS.md):
 *   --deadline SECS    wall-clock budget; soft threshold at 85%
 *   --max-cycles N     simulated-cycle budget across all paths
 *   --max-rss MB       approximate resident-memory budget
 *   --max-states N     conservative-state-table entry budget
 *   --checkpoint FILE  write a resumable snapshot when a hard budget,
 *                      the deadline, or SIGINT/SIGTERM stops the run
 *   --resume FILE      continue a snapshotted run (same firmware); an
 *                      unusable snapshot warns and runs fresh
 *   --no-retry         disable the *-logic retry after degradation
 *
 * Compatibility:
 *   --explore-jobs N   accepted (N must be >= 1) and ignored: every
 *                      audit runs the one serial engine (DESIGN.md
 *                      §10). It stays only because the benchmark's
 *                      rtos_fleet workload (BENCHMARK.json) passes
 *                      --explore-jobs 3
 *
 * Observability (see docs/OBSERVABILITY.md):
 *   --stats-json FILE  write the machine-readable run report (verdict,
 *                      exit code, analysis counters, full stats
 *                      registry snapshot) as JSON
 *   --trace-out FILE   record structured trace spans/instants and
 *                      write Chrome trace_event JSON (open in
 *                      chrome://tracing or Perfetto)
 *   --progress[=SECS]  one-line heartbeat to stderr about every SECS
 *                      (default 1) seconds, fired from the governor
 *                      poll point: cycles/s, frontier, states, RSS,
 *                      hard-budget %
 *   --debug-trace      legacy alias: enable tracing and dump the
 *                      events as text to stderr at exit (in addition
 *                      to --trace-out, if given)
 *   --telemetry-fd N   stream framed telemetry events (lifecycle,
 *                      heartbeats, stats snapshots, budget crossings)
 *                      over inherited fd N to a supervising scheduler
 *                      (docs/OBSERVABILITY.md, "Cross-process
 *                      telemetry"); degrades silently to a no-op when
 *                      the fd is unusable or the reader goes away
 *
 * Exit codes (the contract -- see docs/ROBUSTNESS.md):
 *   0  verified secure (after fixing, when --fix)
 *   1  violations found
 *   2  degraded / unknown: not verified secure within the budgets
 *   3  usage error or unusable input (bad flags, bad policy file,
 *      unassemblable firmware)
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "assembler/assembler.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/telemetry.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/policy_file.hh"
#include "ift/rootcause.hh"
#include "starlogic/starlogic.hh"
#include "workloads/workload.hh"
#include "xform/masking.hh"
#include "xform/watchdog_xform.hh"

using namespace glifs;

namespace
{

constexpr int kExitSecure = 0;
constexpr int kExitViolations = 1;
constexpr int kExitDegraded = 2;
constexpr int kExitUsage = 3;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: glifs_audit <firmware.s> [--policy FILE] "
        "[--task-base A] [--task-end A]\n"
        "       glifs_audit --list-workloads\n"
        "                   [--fix] [--interval 0..3] [--star] "
        "[--taint-code]\n"
        "                   [--deadline SECS] [--max-cycles N] "
        "[--max-rss MB] [--max-states N]\n"
        "                   [--checkpoint FILE] [--resume FILE] "
        "[--no-retry]\n"
        "                   [--stats-json FILE] [--trace-out FILE] "
        "[--progress[=SECS]] [--debug-trace]\n"
        "                   [--telemetry-fd N] [--explore-jobs N]\n");
    std::exit(kExitUsage);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        GLIFS_FATAL("cannot open ", path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

extern "C" void
onStopSignal(int)
{
    ResourceGovernor::requestGlobalStop();
}

int
exitCodeFor(Verdict v)
{
    switch (v) {
      case Verdict::Secure: return kExitSecure;
      case Verdict::Violations: return kExitViolations;
      case Verdict::UnknownDegraded: return kExitDegraded;
    }
    return kExitUsage;
}

const char *
verdictBanner(Verdict v)
{
    switch (v) {
      case Verdict::Secure: return "SECURE";
      case Verdict::Violations: return "INSECURE";
      case Verdict::UnknownDegraded: return "UNKNOWN (degraded)";
    }
    return "?";
}

void
printDegradations(const EngineResult &r)
{
    for (const Degradation &d : r.degradations)
        std::printf("degradation: %s\n", d.str().c_str());
}

struct Options
{
    std::string path;
    std::string policyPath;
    std::string checkpointPath;
    std::string resumePath;
    std::string statsJsonPath;
    std::string traceOutPath;
    uint16_t taskBase = 0x80;
    uint16_t taskEnd = 0xFFF;
    bool fix = false;
    bool star = false;
    bool taintCode = false;
    bool retryDegraded = true;
    bool debugTrace = false;
    double progressSeconds = 0.0;
    int telemetryFd = -1;
    unsigned interval = 1;
    EngineConfig engineCfg;
};

/**
 * stderr heartbeat line (fired from the governor poll point). Built
 * in one buffer and pushed with a single fwrite + fflush: when a
 * batch scheduler captures this stream into a per-job log, the line
 * must land atomically — a stall watchdog or a human tailing the log
 * should never see an interleaved or partial heartbeat.
 */
void
printProgress(const GovernorProgress &p)
{
    char line[256];
    int n = std::snprintf(
        line, sizeof(line),
        "progress: %.1fs %llu cycles (%.0f cyc/s) "
        "frontier=%zu states=%zu rss=%zuMiB budget=%d%%\n",
        p.elapsedSeconds, static_cast<unsigned long long>(p.cycles),
        p.cyclesPerSec, p.frontier, p.states, p.rssBytes >> 20,
        static_cast<int>(p.budgetUsed * 100.0));
    if (n <= 0)
        return;
    std::fwrite(line, 1, std::min(static_cast<size_t>(n),
                                  sizeof(line) - 1), stderr);
    std::fflush(stderr);
}

/**
 * The machine-readable run report: verdict and exit code (the same
 * contract the process exit code carries), the EngineResult counters,
 * and the full stats-registry snapshot, so a degraded run documents
 * where its budget went.
 */
void
writeRunReport(const std::string &path, const EngineResult &r,
               int exit_code)
{
    std::ostringstream oss;
    oss << "{\n"
        << "  \"schema\": \"glifs.run_report.v1\",\n"
        << "  \"verdict\": " << jsonQuote(verdictName(r.verdict()))
        << ",\n"
        << "  \"exit_code\": " << exit_code << ",\n"
        << "  \"analysis\": {\n"
        << "    \"completed\": " << (r.completed ? "true" : "false")
        << ",\n"
        << "    \"star_aborted\": "
        << (r.starAborted ? "true" : "false") << ",\n"
        << "    \"cycles_simulated\": " << r.cyclesSimulated << ",\n"
        << "    \"paths_explored\": " << r.pathsExplored << ",\n"
        << "    \"branch_points\": " << r.branchPoints << ",\n"
        << "    \"merges\": " << r.merges << ",\n"
        << "    \"subsumptions\": " << r.subsumptions << ",\n"
        << "    \"states_tracked\": " << r.statesTracked << ",\n"
        << "    \"analysis_seconds\": " << r.analysisSeconds << ",\n"
        << "    \"tainted_gates\": " << r.taintedGates << ",\n"
        << "    \"total_gates\": " << r.totalGates << ",\n"
        << "    \"violations\": [\n";
    for (size_t i = 0; i < r.violations.size(); ++i) {
        const Violation &v = r.violations[i];
        oss << "      {\"kind\": "
            << jsonQuote(violationKindName(v.kind))
            << ", \"instr\": " << jsonQuote(hex16(v.instrAddr))
            << ", \"first_cycle\": " << v.firstCycle
            << ", \"count\": " << v.count << ", \"maskable\": "
            << (v.maskable ? "true" : "false")
            << ", \"detail\": " << jsonQuote(v.detail) << "}"
            << (i + 1 < r.violations.size() ? "," : "") << "\n";
    }
    oss << "    ],\n"
        << "    \"degradations\": [\n";
    for (size_t i = 0; i < r.degradations.size(); ++i) {
        const Degradation &d = r.degradations[i];
        oss << "      {\"level\": "
            << jsonQuote(degradeLevelName(d.level))
            << ", \"trigger\": "
            << jsonQuote(resourceKindName(d.trigger))
            << ", \"severity\": "
            << (d.severity == BudgetSeverity::Hard ? "\"hard\""
                                                   : "\"soft\"")
            << ", \"cycle\": " << d.cycle << ", \"instr\": "
            << jsonQuote(hex16(d.instrAddr)) << ", \"detail\": "
            << jsonQuote(d.detail) << "}"
            << (i + 1 < r.degradations.size() ? "," : "") << "\n";
    }
    oss << "    ]\n"
        << "  },\n"
        << "  \"stats\": "
        << stats::Registry::instance().snapshot().json(2) << "\n"
        << "}\n";

    std::ofstream out(path);
    if (!out)
        GLIFS_FATAL("cannot write stats report ", path);
    out << oss.str();
    if (!out)
        GLIFS_FATAL("error writing stats report ", path);
    std::printf("run report written to %s\n", path.c_str());
}

/**
 * Explain where the budget went when a run degraded: each configured
 * hard budget with its consumption (the exit-code-2 contract should
 * never leave the operator guessing which resource ran out).
 */
void
printBudgetUsage(const Options &opts, const EngineResult &r)
{
    const ResourceBudgets &b = opts.engineCfg.budgets;
    std::ostringstream oss;
    oss << "budget usage: cycles " << r.cyclesSimulated;
    if (b.hardCycles) {
        oss << "/" << b.hardCycles << " ("
            << static_cast<int>(100.0 * r.cyclesSimulated /
                                b.hardCycles)
            << "%)";
    }
    oss << ", wall " << r.analysisSeconds << "s";
    if (b.hardSeconds > 0) {
        oss << "/" << b.hardSeconds << "s ("
            << static_cast<int>(100.0 * r.analysisSeconds /
                                b.hardSeconds)
            << "%)";
    }
    oss << ", states " << r.statesTracked;
    if (b.hardStates)
        oss << "/" << b.hardStates;
    const size_t rss = ResourceGovernor::currentRssBytes();
    oss << ", rss " << (rss >> 20) << " MiB";
    if (b.hardRssBytes)
        oss << "/" << (b.hardRssBytes >> 20) << " MiB";
    std::printf("%s\n", oss.str().c_str());
}

/**
 * Run the engine; if the result is degraded/unknown and retrying is
 * allowed, fall back to the cheap *-logic configuration (footnote 8).
 * The fallback is fully conservative, so a clean *-logic completion is
 * a sound SECURE verdict that rescues the run; otherwise the original
 * (more informative) result is kept.
 */
EngineResult
analyzeGoverned(const Soc &soc, const Policy &policy,
                const ProgramImage &img, const Options &opts,
                const EngineCheckpoint *resume)
{
    EngineResult result =
        IftEngine(soc, policy, opts.engineCfg).run(img, resume);

    if (result.verdict() == Verdict::UnknownDegraded &&
        opts.retryDegraded && !opts.engineCfg.starLogicMode &&
        !ResourceGovernor::globalStopRequested()) {
        std::printf("analysis degraded; retrying with the *-logic "
                    "fallback configuration\n");
        EngineConfig starCfg = opts.engineCfg;
        starCfg.starLogicMode = true;
        starCfg.checkpointOnStop = false;
        EngineResult fallback =
            IftEngine(soc, policy, starCfg).run(img);
        std::printf("*-logic retry: %s\n",
                    fallback.summary().c_str());
        if (fallback.verdict() == Verdict::Secure)
            return fallback;
    }
    return result;
}

int
runAudit(const Options &opts)
{
    Soc soc;
    Policy policy = opts.policyPath.empty()
                        ? benchmarkPolicy(opts.taskBase, opts.taskEnd)
                        : loadPolicyFile(opts.policyPath);
    policy.taintCodeInProgMem =
        policy.taintCodeInProgMem || opts.taintCode;
    std::printf("%s\n", policy.str().c_str());

    AsmProgram prog = parseSource(readFile(opts.path));
    ProgramImage img = assemble(prog);
    std::printf("assembled %s: %zu words\n\n", opts.path.c_str(),
                img.usedWords);

    EngineCheckpoint resumed;
    const EngineCheckpoint *resume = nullptr;
    if (!opts.resumePath.empty()) {
        // An unusable checkpoint (corrupt, truncated, version skew)
        // degrades to a fresh run rather than failing: the snapshot
        // only ever saved work, so losing it must only cost work.
        try {
            resumed = EngineCheckpoint::load(opts.resumePath);
            resume = &resumed;
            std::printf("resuming from %s (%llu cycles, %zu frontier "
                        "states)\n\n",
                        opts.resumePath.c_str(),
                        static_cast<unsigned long long>(
                            resumed.totalCycles),
                        resumed.frontier.size());
        } catch (const RecoverableError &e) {
            std::fprintf(stderr,
                         "glifs_audit: %s; starting a fresh run\n",
                         e.what());
        }
    }

    EngineResult result =
        analyzeGoverned(soc, policy, img, opts, resume);
    std::printf("analysis: %s\n\n", result.summary().c_str());
    printDegradations(result);

    // Every exit path reports the same way: degraded runs explain
    // where the budget went, and --stats-json gets the machine-
    // readable run report with the final exit code baked in.
    auto finish = [&](const EngineResult &r, int code) {
        if (r.verdict() == Verdict::UnknownDegraded)
            printBudgetUsage(opts, r);
        if (!opts.statsJsonPath.empty())
            writeRunReport(opts.statsJsonPath, r, code);
        return code;
    };
    RootCauseReport rc = analyzeRootCauses(result, policy, &img);
    std::printf("%s\n", rc.str(&img).c_str());

    if (result.checkpoint && !opts.checkpointPath.empty()) {
        result.checkpoint->save(opts.checkpointPath);
        std::printf("checkpoint written to %s (continue with "
                    "--resume %s)\n",
                    opts.checkpointPath.c_str(),
                    opts.checkpointPath.c_str());
    }

    if (opts.star) {
        StarLogicResult sl = runStarLogic(soc, policy, img);
        std::printf("%s\n\n", sl.str().c_str());
    }

    if (!opts.fix || !rc.needsModification()) {
        std::printf("verdict: %s\n", verdictBanner(result.verdict()));
        return finish(result, exitCodeFor(result.verdict()));
    }

    // Apply fixes: watchdog first (re-analyze before masking, as
    // Figure 11 requires), then iterate masks.
    AsmProgram cur = prog;
    if (!rc.tasksNeedingWatchdog.empty()) {
        WatchdogXformResult wd =
            applyWatchdogProtection(cur, opts.interval);
        for (const std::string &n : wd.notes)
            std::printf("%s\n", n.c_str());
        cur = wd.program;
    }
    ProgramImage cur_img = assemble(cur);
    for (int round = 0; round < 4; ++round) {
        EngineResult r =
            analyzeGoverned(soc, policy, cur_img, opts, nullptr);
        RootCauseReport rcr = analyzeRootCauses(r, policy, &cur_img);
        if (rcr.storesToMask.empty()) {
            result = r;
            break;
        }
        MaskingResult mr = insertMasks(cur, cur_img, rcr.storesToMask);
        for (const std::string &n : mr.notes)
            std::printf("%s\n", n.c_str());
        if (!mr.unmaskable.empty()) {
            std::printf("unfixable stores remain\n");
            return finish(r, kExitViolations);
        }
        cur = mr.program;
        cur_img = assemble(cur);
        result = analyzeGoverned(soc, policy, cur_img, opts, nullptr);
    }

    std::string out_path = opts.path + ".secured.s";
    std::ofstream out(out_path);
    out << render(cur);
    std::printf("\nwrote %s\n", out_path.c_str());
    std::printf("re-verification: %s\n", result.summary().c_str());
    printDegradations(result);
    Verdict v = result.verdict();
    std::printf("verdict: %s%s\n", verdictBanner(v),
                v == Verdict::Secure ? " after software fixes" : "");
    return finish(result, exitCodeFor(v));
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        auto nextNum = [&]() -> int64_t {
            std::optional<int64_t> v = parseInt(next());
            if (!v || *v < 0)
                usage();
            return *v;
        };
        if (arg == "--list-workloads") {
            // Machine-readable registry dump: one name per line, no
            // decoration, so scripts and manifests can consume it.
            for (const std::string &name : workloadNames())
                std::printf("%s\n", name.c_str());
            return kExitSecure;
        } else if (arg == "--policy")
            opts.policyPath = next();
        else if (arg == "--task-base")
            opts.taskBase = static_cast<uint16_t>(nextNum());
        else if (arg == "--task-end")
            opts.taskEnd = static_cast<uint16_t>(nextNum());
        else if (arg == "--fix")
            opts.fix = true;
        else if (arg == "--star")
            opts.star = true;
        else if (arg == "--taint-code")
            opts.taintCode = true;
        else if (arg == "--no-retry")
            opts.retryDegraded = false;
        else if (arg == "--interval")
            opts.interval = static_cast<unsigned>(nextNum()) & 3;
        else if (arg == "--deadline") {
            std::string s = next();
            char *end = nullptr;
            double secs = std::strtod(s.c_str(), &end);
            if (end == s.c_str() || *end != '\0' || secs <= 0)
                usage();
            opts.engineCfg.budgets.hardSeconds = secs;
            opts.engineCfg.budgets.softSeconds = secs * 0.85;
        } else if (arg == "--max-cycles") {
            int64_t n = nextNum();
            if (n <= 0)
                usage();
            opts.engineCfg.maxCycles = static_cast<uint64_t>(n);
            opts.engineCfg.budgets.softCycles =
                static_cast<uint64_t>(n - n / 8);
        } else if (arg == "--max-rss") {
            int64_t mb = nextNum();
            if (mb <= 0)
                usage();
            opts.engineCfg.budgets.hardRssBytes =
                static_cast<size_t>(mb) << 20;
            opts.engineCfg.budgets.softRssBytes =
                (static_cast<size_t>(mb) << 20) / 8 * 7;
        } else if (arg == "--max-states") {
            int64_t n = nextNum();
            if (n <= 0)
                usage();
            opts.engineCfg.budgets.hardStates =
                static_cast<size_t>(n);
            opts.engineCfg.budgets.softStates =
                static_cast<size_t>(n - n / 8);
        } else if (arg == "--checkpoint")
            opts.checkpointPath = next();
        else if (arg == "--resume")
            opts.resumePath = next();
        else if (arg == "--stats-json")
            opts.statsJsonPath = next();
        else if (arg == "--trace-out")
            opts.traceOutPath = next();
        else if (arg == "--debug-trace")
            opts.debugTrace = true;
        else if (arg == "--telemetry-fd")
            opts.telemetryFd = static_cast<int>(nextNum());
        else if (arg == "--explore-jobs") {
            if (nextNum() < 1)
                usage();
        } else if (arg == "--progress")
            opts.progressSeconds = 1.0;
        else if (arg.rfind("--progress=", 0) == 0) {
            std::string s = arg.substr(11);
            char *end = nullptr;
            double secs = std::strtod(s.c_str(), &end);
            if (end == s.c_str() || *end != '\0' || secs <= 0)
                usage();
            opts.progressSeconds = secs;
        } else if (!arg.empty() && arg[0] == '-')
            usage();
        else if (opts.path.empty())
            opts.path = arg;
        else
            usage();
    }
    if (opts.path.empty())
        usage();

    opts.engineCfg.checkpointOnStop = !opts.checkpointPath.empty();
    // SIGINT and SIGTERM always request a governed stop instead of
    // dying outright: with --checkpoint the run snapshots its state
    // (which is why the batch stall watchdog sends SIGTERM first),
    // and even without one the run exits through the normal reporting
    // path with a clean degraded verdict.
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    if (opts.telemetryFd >= 0) {
        // Arm the cross-process telemetry writer over the inherited
        // pipe fd; everything downstream is fire-and-forget.
        telemetry::Writer::instance().open(opts.telemetryFd);
        telemetry::Event started;
        started.type = telemetry::EventType::Lifecycle;
        started.phase = "started";
        telemetry::Writer::instance().emit(started);
    }

    if (opts.progressSeconds > 0) {
        // The heartbeat fires from the governor's per-cycle poll
        // point, sharing a clock with budget checks and the
        // SIGINT-safe stop above (docs/OBSERVABILITY.md).
        opts.engineCfg.progressSeconds = opts.progressSeconds;
        opts.engineCfg.progressFn = printProgress;
    } else if (telemetry::Writer::instance().enabled()) {
        // Telemetry wants the heartbeat clock running even when the
        // human-readable progress line is off: tick fast (the emit
        // itself is a single non-blocking write) and keep stderr
        // quiet.
        opts.engineCfg.progressSeconds = 0.25;
        opts.engineCfg.progressFn = [](const GovernorProgress &) {};
    }

    if (!opts.traceOutPath.empty() || opts.debugTrace)
        trace::Tracer::instance().enable();

    // Flush trace output on every exit path, including thrown errors,
    // so an aborted run still leaves its breadcrumbs behind.
    auto flushTrace = [&opts]() {
        trace::Tracer &tr = trace::Tracer::instance();
        if (!tr.enabled())
            return;
        if (!opts.traceOutPath.empty()) {
            tr.writeJson(opts.traceOutPath);
            std::printf("trace written to %s (load in chrome://tracing "
                        "or Perfetto)\n",
                        opts.traceOutPath.c_str());
        }
        if (opts.debugTrace)
            std::fputs(tr.text().c_str(), stderr);
    };

    // The closing lifecycle frame carries the exit-code contract, so
    // the scheduler learns the outcome from the stream itself — even
    // before (or without) reading the run report.
    auto emitFinished = [](int code) {
        telemetry::Writer &w = telemetry::Writer::instance();
        if (!w.enabled())
            return;
        telemetry::Event e;
        e.type = telemetry::EventType::Lifecycle;
        e.phase = "finished";
        e.exitCode = code;
        e.verdict = code == kExitSecure       ? "secure"
                    : code == kExitViolations ? "violations"
                    : code == kExitDegraded   ? "unknown-degraded"
                                              : "error";
        w.emit(e);
    };

    try {
        int code = runAudit(opts);
        flushTrace();
        emitFinished(code);
        return code;
    } catch (const FatalError &e) {
        // User-level input errors (policy file, firmware, netlist
        // validation): one-line diagnostic, never a raw abort.
        std::fprintf(stderr, "glifs_audit: %s\n", e.what());
        flushTrace();
        emitFinished(kExitUsage);
        return kExitUsage;
    } catch (const RecoverableError &e) {
        // Unusable checkpoint or comparable recoverable condition the
        // CLI cannot recover from by itself.
        std::fprintf(stderr, "glifs_audit: %s\n", e.what());
        flushTrace();
        emitFinished(kExitUsage);
        return kExitUsage;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "glifs_audit: internal error: %s\n",
                     e.what());
        flushTrace();
        emitFinished(kExitUsage);
        return kExitUsage;
    }
}
