#include "batch/runner.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "base/faultfs.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/version.hh"
#include "batch/cache.hh"
#include "batch/journal.hh"
#include "batch/retry.hh"
#include "batch/scheduler.hh"

namespace glifs::batch
{

namespace
{

using Clock = std::chrono::steady_clock;

/** mkdir -p: create @p path and any missing parents. */
void
makeDirs(const std::string &path)
{
    std::string cur;
    std::istringstream in(path);
    std::string part;
    if (!path.empty() && path[0] == '/')
        cur = "/";
    while (std::getline(in, part, '/')) {
        if (part.empty())
            continue;
        cur += part + "/";
        if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST)
            GLIFS_FATAL("cannot create directory ", cur);
    }
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
readFileIfAny(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Job-derived filename stem: unique (index) and filesystem-safe. */
std::string
fileStem(size_t index, const std::string &name)
{
    std::string safe;
    for (char c : name) {
        safe.push_back(std::isalnum(static_cast<unsigned char>(c))
                           ? c
                           : '_');
    }
    return "job" + std::to_string(index) + "_" + safe;
}

// ---------------------------------------------------------------------
// Minimal field extraction from the worker's run-report JSON. The
// reports are produced by glifs_audit itself, so a targeted scanner is
// enough — but it still respects string quoting and nesting so a
// detail string containing '"violations":' can never confuse it.
// ---------------------------------------------------------------------

/** Position just after `"key":` at any nesting depth; npos if absent. */
size_t
valueStart(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    size_t pos = 0;
    bool inString = false;
    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"') {
            if (text.compare(i, needle.size(), needle) == 0) {
                pos = i + needle.size();
                while (pos < text.size() &&
                       std::isspace(
                           static_cast<unsigned char>(text[pos])))
                    ++pos;
                if (pos < text.size() && text[pos] == ':') {
                    ++pos;
                    while (pos < text.size() &&
                           std::isspace(static_cast<unsigned char>(
                               text[pos])))
                        ++pos;
                    return pos;
                }
            }
            inString = true;
        }
    }
    return std::string::npos;
}

std::string
jsonStringField(const std::string &text, const std::string &key)
{
    size_t pos = valueStart(text, key);
    if (pos == std::string::npos || pos >= text.size() ||
        text[pos] != '"')
        return "";
    std::string out;
    for (size_t i = pos + 1; i < text.size(); ++i) {
        char c = text[i];
        if (c == '\\' && i + 1 < text.size()) {
            out.push_back(text[++i]);
        } else if (c == '"') {
            return out;
        } else {
            out.push_back(c);
        }
    }
    return "";
}

std::string
jsonArrayField(const std::string &text, const std::string &key)
{
    size_t pos = valueStart(text, key);
    if (pos == std::string::npos || pos >= text.size() ||
        text[pos] != '[')
        return "";
    int depth = 0;
    bool inString = false;
    for (size_t i = pos; i < text.size(); ++i) {
        char c = text[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '[')
            ++depth;
        else if (c == ']' && --depth == 0)
            return text.substr(pos, i - pos + 1);
    }
    return "";
}

/** Entries in a JSON array rendered by glifs (objects, not nested). */
size_t
jsonArrayCount(const std::string &arrayText)
{
    size_t count = 0;
    bool inString = false;
    for (size_t i = 0; i < arrayText.size(); ++i) {
        char c = arrayText[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{')
            ++count;
    }
    return count;
}

/**
 * The budget stop a run report records, as "<trigger> (<detail>)", or
 * "" when the run was not stopped: its partial-stop degradation (at
 * most one, since the stop ends the run). glifs_audit writes each
 * degradation's `trigger` and `detail` after its `level`.
 */
std::string
budgetStop(const std::string &report)
{
    std::string rest = jsonArrayField(report, "degradations");
    for (size_t at; (at = valueStart(rest, "level")) != std::string::npos;) {
        const bool stop = jsonStringField(rest, "level") == "partial-stop";
        rest.erase(0, at); // the keys after this degradation's level
        if (stop)
            return jsonStringField(rest, "trigger") + " (" +
                   jsonStringField(rest, "detail") + ")";
    }
    return "";
}

/** Collapse a pretty-printed JSON fragment onto one line. */
std::string
squashWhitespace(const std::string &s)
{
    std::string out;
    bool inString = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (inString) {
            out.push_back(c);
            if (c == '\\' && i + 1 < s.size())
                out.push_back(s[++i]);
            else if (c == '"')
                inString = false;
            continue;
        }
        // JSON tokens never need inter-token whitespace back.
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (c == '"')
            inString = true;
        out.push_back(c);
    }
    return out;
}

/** Worker state tracked across attempts. */
struct JobRun
{
    const JobSpec *spec = nullptr;
    std::string key;            ///< cache key
    std::string firmwareFile;   ///< what the worker is handed
    std::string checkpointFile;
    std::string reportFile;     ///< per-attempt run report (rewritten)
    std::string traceFile;      ///< per-attempt worker trace (merge input)
    JobOutcome outcome;
    unsigned attempt = 0;       ///< attempts submitted so far
    bool resumeCheckpoint = false; ///< crashed run left a checkpoint

    // Live view fed by the scheduler and worker telemetry (the status
    // file's payload). An attempt is pending until its worker forks.
    std::string state = "pending"; ///< pending|running|finished|cached|journal
    uint64_t heartbeats = 0;
    uint64_t cycles = 0;
    double cyclesPerSec = 0;
    uint64_t frontierStates = 0;
    uint64_t trackedStates = 0;
    uint64_t rssBytes = 0;
    double budgetUsed = 0;
    /** The running worker's final stats snapshot (name -> value),
     *  folded into BatchReport::workerStats when it is reaped. */
    std::map<std::string, double> lastStats;
};

/** Runner-side observability counters (docs/OBSERVABILITY.md). */
struct RunnerStats
{
    stats::Scalar statusWrites{"batch.status_writes",
                               "status-file snapshots published "
                               "(atomic temp + rename)"};
    stats::Scalar statusWriteFailures{"batch.status_write_failures",
                                      "status-file publishes that "
                                      "failed (stale file left in "
                                      "place)"};
    stats::Scalar traceMergeInputs{"batch.trace_merge_inputs",
                                   "per-worker trace files folded "
                                   "into the merged batch trace"};
};

RunnerStats &
runnerStats()
{
    static RunnerStats s;
    return s;
}

/**
 * The live `glifs.batch_status.v1` surface: one small JSON document,
 * atomically republished (write temp, rename over) so a reader never
 * sees a torn file. Republishing is throttled — heartbeats arrive per
 * worker every 250ms, and rewriting the file for each would be pure
 * churn — but a job starting or finishing always forces a publish so
 * "a job just finished" is immediately visible.
 */
class StatusPublisher
{
  public:
    StatusPublisher(std::string path, const BatchReport &report,
                    const std::vector<JobRun> &runs)
        : path(std::move(path)), report(report), runs(runs)
    {}

    bool enabled() const { return !path.empty(); }

    void
    publish(bool force)
    {
        if (!enabled())
            return;
        const auto now = Clock::now();
        if (!force && lastPublish.time_since_epoch().count() != 0 &&
            std::chrono::duration<double>(now - lastPublish).count() <
                kMinPeriodSeconds)
            return;
        lastPublish = now;
        if (!writeAtomically(render()))
            ++runnerStats().statusWriteFailures;
        else
            ++runnerStats().statusWrites;
    }

    static constexpr double kMinPeriodSeconds = 0.1;

  private:
    std::string
    render() const
    {
        size_t running = 0;
        size_t finished = 0;
        uint64_t totalCycles = 0;
        for (const JobRun &r : runs) {
            if (r.state == "running")
                ++running;
            else if (r.state != "pending")
                ++finished;
            totalCycles += r.cycles;
        }
        std::ostringstream oss;
        oss << "{\n"
            << "  \"schema\": \"glifs.batch_status.v1\",\n"
            << "  \"manifest\": " << jsonQuote(report.manifestName)
            << ",\n"
            << "  \"concurrency\": " << report.concurrency << ",\n"
            << "  \"jobs_total\": " << runs.size() << ",\n"
            << "  \"jobs_running\": " << running << ",\n"
            << "  \"jobs_finished\": " << finished << ",\n"
            << "  \"cycles_total\": " << totalCycles << ",\n"
            << "  \"jobs\": [\n";
        for (size_t i = 0; i < runs.size(); ++i) {
            const JobRun &r = runs[i];
            oss << "    {\"name\": " << jsonQuote(r.outcome.name)
                << ", \"state\": " << jsonQuote(r.state)
                << ", \"attempt\": " << r.attempt
                << ", \"heartbeats\": " << r.heartbeats
                << ", \"cycles\": " << r.cycles
                << ", \"cycles_per_sec\": " << r.cyclesPerSec
                << ", \"frontier\": " << r.frontierStates
                << ", \"states\": " << r.trackedStates
                << ", \"rss_bytes\": " << r.rssBytes
                << ", \"budget_used\": " << r.budgetUsed;
            if (r.state == "finished" || r.state == "cached" ||
                r.state == "journal") {
                oss << ", \"verdict\": " << jsonQuote(r.outcome.verdict)
                    << ", \"exit_code\": " << r.outcome.exitCode;
            }
            oss << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
        }
        oss << "  ]\n}\n";
        return oss.str();
    }

    /** Temp + rename through faultfs (the journal/cache publish
     *  idiom), so status publishing is crash-atomic and the fault
     *  sweeps can exercise its failure paths. */
    bool
    writeAtomically(const std::string &doc) const
    {
        const std::string tmp = path + ".tmp";
        int fd = faultfs::open(tmp.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0)
            return false;
        bool ok = faultfs::writeFull(fd, doc.data(), doc.size()) ==
                  static_cast<ssize_t>(doc.size());
        ::close(fd);
        if (ok)
            ok = faultfs::rename(tmp.c_str(), path.c_str()) == 0;
        if (!ok)
            faultfs::unlink(tmp.c_str());
        return ok;
    }

    std::string path;
    const BatchReport &report;
    const std::vector<JobRun> &runs;
    Clock::time_point lastPublish{};
};

/**
 * Merge the per-worker Chrome traces into one multi-process trace:
 * each job becomes its own pid lane (pid = job index + 1) with a
 * process_name metadata record, so Perfetto shows one named lane per
 * job. Worker trace events are emitted one per line with a literal
 * `"pid": 1`, which the merge rewrites — the same trusted-producer
 * assumption the run-report field scanners make.
 */
void
mergeTraces(const std::vector<JobRun> &runs, const std::string &outPath)
{
    std::ostringstream oss;
    oss << "{\n  \"displayTimeUnit\": \"ms\",\n"
        << "  \"traceEvents\": [\n";
    bool first = true;
    auto emit = [&](const std::string &line) {
        if (!first)
            oss << ",\n";
        first = false;
        oss << "    " << line;
    };
    for (size_t i = 0; i < runs.size(); ++i) {
        const JobRun &run = runs[i];
        if (run.traceFile.empty())
            continue;
        std::string doc = readFileIfAny(run.traceFile);
        if (doc.empty())
            continue;
        ++runnerStats().traceMergeInputs;
        const std::string pid = std::to_string(i + 1);
        emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
             pid + ", \"tid\": 1, \"args\": {\"name\": " +
             jsonQuote("job " + run.outcome.name) + "}}");
        std::istringstream in(doc);
        std::string line;
        while (std::getline(in, line)) {
            std::string t = trim(line);
            if (t.empty() || t[0] != '{')
                continue; // header/footer of the per-worker document
            if (t.back() == ',')
                t.pop_back();
            size_t pos = t.find("\"pid\": 1");
            if (pos == std::string::npos)
                continue;
            t.replace(pos, 8, "\"pid\": " + pid);
            emit(t);
        }
    }
    oss << "\n  ]\n}\n";

    std::ofstream out(outPath);
    if (!out) {
        GLIFS_WARN("cannot write merged trace ", outPath);
        return;
    }
    out << oss.str();
}

} // namespace

const char *
cacheStatusName(CacheStatus s)
{
    switch (s) {
      case CacheStatus::Hit: return "hit";
      case CacheStatus::Miss: return "miss";
      case CacheStatus::Disabled: return "disabled";
    }
    return "?";
}

size_t
BatchReport::cacheHits() const
{
    return static_cast<size_t>(
        std::count_if(jobs.begin(), jobs.end(), [](const JobOutcome &j) {
            return j.cache == CacheStatus::Hit;
        }));
}

int
BatchReport::exitCode() const
{
    int worst = 0;
    for (const JobOutcome &j : jobs)
        worst = std::max(worst, j.exitCode);
    return worst;
}

std::string
BatchReport::json() const
{
    std::ostringstream oss;
    oss << "{\n"
        << "  \"schema\": \"glifs.batch_report.v1\",\n"
        << "  \"tool_version\": " << jsonQuote(kGlifsVersion) << ",\n"
        << "  \"manifest\": " << jsonQuote(manifestName) << ",\n"
        << "  \"manifest_path\": " << jsonQuote(manifestPath) << ",\n"
        << "  \"concurrency\": " << concurrency << ",\n"
        << "  \"wall_seconds\": " << wallSeconds << ",\n"
        << "  \"jobs_total\": " << jobs.size() << ",\n"
        << "  \"cache_hits\": " << cacheHits() << ",\n"
        << "  \"exit_code\": " << exitCode() << ",\n"
        << "  \"jobs\": [\n";
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobOutcome &j = jobs[i];
        oss << "    {\"name\": " << jsonQuote(j.name)
            << ", \"verdict\": " << jsonQuote(j.verdict)
            << ", \"exit_code\": " << j.exitCode << ", \"cache\": "
            << jsonQuote(cacheStatusName(j.cache))
            << ", \"attempts\": " << j.attempts << ", \"resumed\": "
            << (j.resumed ? "true" : "false")
            << ", \"wall_seconds\": " << j.wallSeconds
            << ", \"violation_count\": " << j.violationCount
            << ", \"violations\": "
            << (j.violationsJson.empty() ? "[]" : j.violationsJson);
        if (!j.detail.empty())
            oss << ", \"detail\": " << jsonQuote(j.detail);
        oss << "}" << (i + 1 < jobs.size() ? "," : "") << "\n";
    }
    oss << "  ],\n"
        << "  \"worker_stats\": {";
    bool firstStat = true;
    for (const auto &[name, value] : workerStats) {
        oss << (firstStat ? "\n" : ",\n") << "    "
            << jsonQuote(name) << ": " << stats::jsonNumber(value);
        firstStat = false;
    }
    oss << (firstStat ? "}\n" : "\n  }\n") << "}\n";
    return oss.str();
}

std::string
BatchReport::summary() const
{
    std::ostringstream oss;
    for (const JobOutcome &j : jobs) {
        char line[256];
        std::snprintf(line, sizeof(line),
                      "  %-20s %-18s cache=%-8s attempts=%u "
                      "%6.2fs%s\n",
                      j.name.c_str(), j.verdict.c_str(),
                      cacheStatusName(j.cache), j.attempts,
                      j.wallSeconds,
                      j.violationCount
                          ? (" violations=" +
                             std::to_string(j.violationCount))
                                .c_str()
                          : "");
        oss << line;
    }
    oss << "batch: " << jobs.size() << " job(s), " << cacheHits()
        << " cache hit(s), worst exit " << exitCode() << ", "
        << wallSeconds << "s wall";
    return oss.str();
}

BatchReport
runBatch(const Manifest &manifest, const BatchOptions &options)
{
    GLIFS_ASSERT(!options.auditBinary.empty(),
                 "BatchOptions::auditBinary is required");
    if (!fileExists(options.auditBinary))
        GLIFS_FATAL("audit binary not found: ", options.auditBinary);

    std::string workDir = options.workDir.empty()
                              ? options.cacheDir + "/work"
                              : options.workDir;
    makeDirs(workDir);

    ResultCache cache(options.cacheDir, !options.noCache);
    RetryLadder ladder(manifest.retry);

    // Crash resumability: replay any prior journal *before* creating
    // (truncating) this run's journal — they may be the same file.
    const std::string fingerprint = manifestFingerprint(manifest);
    std::map<uint32_t, JobOutcome> alreadyFinished;
    if (!options.resumeJournalPath.empty()) {
        BatchJournal::Replay prior =
            BatchJournal::replay(options.resumeJournalPath);
        if (!prior.fingerprint.empty() &&
            prior.fingerprint != fingerprint) {
            GLIFS_FATAL("journal ", options.resumeJournalPath,
                        " belongs to a different manifest; refusing "
                        "to resume (re-run without --resume-batch)");
        }
        if (prior.fingerprint.empty() && prior.records == 0) {
            GLIFS_WARN("journal ", options.resumeJournalPath,
                       " recovered nothing; running the full batch");
        }
        alreadyFinished = std::move(prior.finished);
    }

    std::string journalPath = options.journalPath.empty()
                                  ? workDir + "/batch.journal"
                                  : options.journalPath;
    BatchJournal journal = BatchJournal::create(journalPath,
                                               fingerprint);

    BatchReport report;
    report.manifestName = manifest.name;
    report.manifestPath = manifest.path;
    report.concurrency = options.jobs;

    Clock::time_point batchStart = Clock::now();

    // Resolve cache hits up front; materialize inputs for the misses.
    std::vector<JobRun> runs(manifest.jobs.size());
    ProcessScheduler sched(options.jobs);

    StatusPublisher status(options.statusFilePath, report, runs);

    // A job runs from the fork of its worker: the status file shows
    // it at once.
    sched.setStartSink([&](uint64_t id) {
        runs[static_cast<size_t>(id)].state = "running";
        status.publish(true);
    });

    // Live worker telemetry: heartbeats update the per-job progress
    // view (and the status file); the worker's final stats snapshot
    // waits in lastStats until the worker is reaped.
    sched.setTelemetrySink([&](uint64_t id, const telemetry::Event &e) {
        JobRun &run = runs[static_cast<size_t>(id)];
        switch (e.type) {
          case telemetry::EventType::Heartbeat:
            ++run.heartbeats;
            run.cycles = e.cycles;
            run.cyclesPerSec = e.cyclesPerSec;
            run.frontierStates = e.frontier;
            run.trackedStates = e.states;
            run.rssBytes = e.rssBytes;
            run.budgetUsed = e.budgetUsed;
            status.publish(false);
            break;
          case telemetry::EventType::StatsSnapshot:
            run.lastStats.clear();
            for (const auto &[name, value] : e.stats)
                run.lastStats[name] = value;
            break;
        }
    });

    // Fill one outcome from a worker/cached run report.
    auto applyReport = [](JobOutcome &out, const std::string &rep) {
        std::string verdict = jsonStringField(rep, "verdict");
        if (!verdict.empty())
            out.verdict = verdict;
        std::string viol = jsonArrayField(rep, "violations");
        if (!viol.empty()) {
            out.violationsJson = squashWhitespace(viol);
            out.violationCount = jsonArrayCount(viol);
        }
    };

    auto submitAttempt = [&](size_t idx) {
        JobRun &run = runs[idx];
        const JobSpec &job = *run.spec;
        ++run.attempt;
        JobBudgets budgets =
            ladder.budgetsFor(job.budgets, run.attempt);

        ProcTask t;
        t.id = idx;
        t.argv = {options.auditBinary, run.firmwareFile};
        if (!job.policyPath.empty()) {
            t.argv.push_back("--policy");
            t.argv.push_back(job.policyPath);
        }
        if (budgets.deadlineSeconds > 0) {
            t.argv.push_back("--deadline");
            t.argv.push_back(std::to_string(budgets.deadlineSeconds));
            // Backstop well past the worker's own graceful deadline.
            t.killAfterSeconds = budgets.deadlineSeconds * 4 + 10;
        }
        if (budgets.maxCycles > 0) {
            t.argv.push_back("--max-cycles");
            t.argv.push_back(std::to_string(budgets.maxCycles));
        }
        if (budgets.maxStates > 0) {
            t.argv.push_back("--max-states");
            t.argv.push_back(std::to_string(budgets.maxStates));
        }
        if (budgets.maxRssMb > 0) {
            t.argv.push_back("--max-rss");
            t.argv.push_back(std::to_string(budgets.maxRssMb));
        }
        // The report is this attempt's alone: one that dies before
        // writing it must not be read as an earlier attempt's.
        std::remove(run.reportFile.c_str());
        t.argv.push_back("--stats-json");
        t.argv.push_back(run.reportFile);
        t.argv.push_back("--checkpoint");
        t.argv.push_back(run.checkpointFile);
        if ((run.attempt > 1 || run.resumeCheckpoint) &&
            fileExists(run.checkpointFile)) {
            t.argv.push_back("--resume");
            t.argv.push_back(run.checkpointFile);
            run.outcome.resumed = true;
        }
        // Every worker streams telemetry back over the inherited pipe
        // (the scheduler puts its write end on the contract fd); its
        // heartbeats there are what the stall watchdog watches.
        t.telemetryPipe = true;
        t.stallTimeoutSeconds = options.stallTimeoutSeconds;
        t.argv.push_back("--telemetry-fd");
        t.argv.push_back(
            std::to_string(ProcessScheduler::kTelemetryChildFd));
        const std::string stem = workDir + "/" +
                                 fileStem(idx, job.name) + ".attempt" +
                                 std::to_string(run.attempt);
        if (!options.traceMergePath.empty()) {
            // The per-attempt trace becomes this job's lane in the
            // merged batch trace; a retry replaces the earlier one.
            run.traceFile = stem + ".trace.json";
            t.argv.push_back("--trace-out");
            t.argv.push_back(run.traceFile);
        }
        t.outputPath = stem + ".log";
        run.state = "pending";
        sched.submit(std::move(t));
    };

    for (size_t i = 0; i < manifest.jobs.size(); ++i) {
        const JobSpec &job = manifest.jobs[i];
        JobRun &run = runs[i];
        run.spec = &job;
        run.key = cacheKey(job, manifest.retry, kGlifsVersion);
        run.outcome.name = job.name;
        run.outcome.cache = options.noCache ? CacheStatus::Disabled
                                            : CacheStatus::Miss;

        // Resumed batch: a job the crashed run finished is reported
        // from its journal record verbatim, and re-recorded into this
        // run's journal so a second crash still resumes everything.
        auto prior = alreadyFinished.find(static_cast<uint32_t>(i));
        if (prior != alreadyFinished.end()) {
            run.outcome = prior->second;
            run.outcome.name = job.name;
            run.state = "journal";
            journal.jobFinished(static_cast<uint32_t>(i),
                                run.outcome);
            if (options.verbose) {
                std::printf("[%s] resumed from journal: %s\n",
                            job.name.c_str(),
                            run.outcome.verdict.c_str());
            }
            continue;
        }

        if (auto cached = cache.lookup(run.key)) {
            run.outcome.cache = CacheStatus::Hit;
            run.state = "cached";
            run.outcome.verdict = "unknown-degraded";
            run.outcome.exitCode = 2;
            applyReport(run.outcome, *cached);
            size_t pos = valueStart(*cached, "exit_code");
            if (pos != std::string::npos) {
                size_t end = cached->find_first_of(",}\n", pos);
                auto v = parseInt(trim(cached->substr(
                    pos, end == std::string::npos ? end : end - pos)));
                if (v)
                    run.outcome.exitCode = static_cast<int>(*v);
            }
            journal.jobFinished(static_cast<uint32_t>(i),
                                run.outcome);
            if (options.verbose) {
                std::printf("[%s] cache hit: %s\n", job.name.c_str(),
                            run.outcome.verdict.c_str());
            }
            continue;
        }

        std::string stem = fileStem(i, job.name);
        if (!job.firmwarePath.empty()) {
            run.firmwareFile = job.firmwarePath;
        } else {
            // Materialize the registry workload for the worker.
            run.firmwareFile = workDir + "/" + stem + ".s";
            std::ofstream out(run.firmwareFile);
            out << job.firmwareText;
            if (!out)
                GLIFS_FATAL("cannot write ", run.firmwareFile);
        }
        run.checkpointFile = workDir + "/" + stem + ".ckpt";
        run.reportFile = workDir + "/" + stem + ".report.json";
        // A stale checkpoint from an earlier batch must not leak into
        // this run's first attempt — unless this *is* a resume, where
        // a crashed worker's checkpoint is exactly the state to keep.
        if (options.resumeJournalPath.empty())
            std::remove(run.checkpointFile.c_str());
        else
            run.resumeCheckpoint = fileExists(run.checkpointFile);
        journal.jobStarted(static_cast<uint32_t>(i), job.name,
                           run.key);
        submitAttempt(i);
    }

    // First snapshot before any worker reports: cache/journal
    // verdicts and queued jobs are visible immediately.
    status.publish(true);

    sched.run([&](const ProcResult &res) {
        size_t idx = static_cast<size_t>(res.id);
        JobRun &run = runs[idx];
        JobOutcome &out = run.outcome;
        out.wallSeconds += res.wallSeconds;

        // Every worker process's final stats join the fleet rollup,
        // whether or not its attempt is retried.
        for (const auto &[name, value] : run.lastStats)
            report.workerStats[name] += value;
        run.lastStats.clear();

        // This attempt's run report: a budget stop first, and for the
        // last attempt the verdict and violations.
        const std::string rep = readFileIfAny(run.reportFile);
        const std::string stop = budgetStop(rep);
        if (options.verbose && !stop.empty()) {
            std::printf("[%s] budget exhausted: %s\n", out.name.c_str(),
                        stop.c_str());
        }

        // Map abnormal ends onto the exit-code contract: a backstop
        // or watchdog kill is a degraded run (retryable, and the
        // SIGTERM gave the worker a checkpoint to resume); a crash,
        // spawn failure or exec failure is a hard per-job error.
        int code;
        if (res.spawnFailed) {
            code = 3;
            out.detail = "could not spawn worker (fork kept failing)";
        } else if (res.stalled) {
            code = 2;
            out.detail = "killed by stall watchdog (no progress)";
        } else if (res.killedOnTimeout) {
            code = 2;
            out.detail = "killed by scheduler backstop timeout";
        } else if (res.crashed) {
            code = 3;
            out.detail = "worker crashed (signal)";
        } else if (res.exitCode == 127) {
            code = 3;
            out.detail = "cannot exec " + options.auditBinary;
        } else {
            code = res.exitCode;
        }

        if (ladder.shouldRetry(code, run.attempt)) {
            if (options.verbose) {
                std::printf("[%s] attempt %u degraded; retrying with "
                            "x%.0f budgets%s\n",
                            out.name.c_str(), run.attempt,
                            std::pow(ladder.config().multiplier,
                                     run.attempt),
                            fileExists(run.checkpointFile)
                                ? " (resuming from checkpoint)"
                                : "");
            }
            submitAttempt(idx);
            return;
        }

        out.attempts = run.attempt;
        out.exitCode = code;
        switch (code) {
          case 0: out.verdict = "secure"; break;
          case 1: out.verdict = "violations"; break;
          case 2: out.verdict = "unknown-degraded"; break;
          default: out.verdict = "error"; break;
        }
        if (!rep.empty()) {
            applyReport(out, rep);
            if (code <= 1 && cache.store(run.key, rep))
                journal.cachePublished(static_cast<uint32_t>(idx),
                                       run.key);
        }
        journal.jobFinished(static_cast<uint32_t>(idx), out);
        run.state = "finished";
        status.publish(true);
        if (options.verbose) {
            std::printf("[%s] %s (exit %d, %u attempt(s), %.2fs)\n",
                        out.name.c_str(), out.verdict.c_str(), code,
                        out.attempts, out.wallSeconds);
        }
    });

    status.publish(true);

    if (!options.traceMergePath.empty()) {
        mergeTraces(runs, options.traceMergePath);
        if (options.verbose) {
            std::printf("merged batch trace written to %s (one pid "
                        "lane per job; open in Perfetto)\n",
                        options.traceMergePath.c_str());
        }
    }

    for (JobRun &run : runs)
        report.jobs.push_back(std::move(run.outcome));
    report.wallSeconds =
        std::chrono::duration<double>(Clock::now() - batchStart)
            .count();
    return report;
}

} // namespace glifs::batch
