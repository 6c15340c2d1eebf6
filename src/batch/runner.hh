/**
 * @file
 * Batch orchestration: ties the manifest, the result cache, the retry
 * ladder and the process scheduler together into one run, and
 * aggregates the per-worker `glifs.run_report.v1` reports into a
 * `glifs.batch_report.v1` (docs/BATCH.md).
 */

#ifndef GLIFS_BATCH_RUNNER_HH
#define GLIFS_BATCH_RUNNER_HH

#include <map>
#include <string>
#include <vector>

#include "batch/cache.hh"
#include "batch/manifest.hh"

namespace glifs::batch
{

/** How a job's inputs met the result cache. */
enum class CacheStatus : uint8_t
{
    Hit,      ///< verdict served from the cache; no worker ran
    Miss,     ///< workers ran; definitive outcomes were stored
    Disabled, ///< --no-cache: workers ran, nothing stored
};

const char *cacheStatusName(CacheStatus s);

/** The aggregated outcome of one job. */
struct JobOutcome
{
    std::string name;
    std::string verdict;       ///< secure | violations | unknown-degraded | error
    int exitCode = 3;          ///< worker exit-code contract 0/1/2/3
    CacheStatus cache = CacheStatus::Miss;
    unsigned attempts = 0;     ///< worker runs (0 on a cache hit)
    bool resumed = false;      ///< a retry resumed from a checkpoint
    double wallSeconds = 0;    ///< summed across attempts
    size_t violationCount = 0;
    /** The worker report's violations array, verbatim JSON ("[]" when
     *  none): the batch report keeps the worst findings inline. */
    std::string violationsJson = "[]";
    std::string detail;        ///< diagnostic for crashes/usage errors
};

/** The whole batch run. */
struct BatchReport
{
    std::string manifestName;
    std::string manifestPath;
    unsigned concurrency = 1;
    double wallSeconds = 0;
    std::vector<JobOutcome> jobs;
    /**
     * Worker stats aggregated over the fleet: the final stats snapshot
     * each worker process sends over its telemetry pipe as it exits,
     * summed by stat name over every attempt of every job. A worker
     * whose pipe failed, or that died before its snapshot, adds
     * nothing. Rendered as the report's "worker_stats" object.
     */
    std::map<std::string, double> workerStats;

    size_t cacheHits() const;
    /** Max worker exit code: the batch process exit code. */
    int exitCode() const;
    /** The glifs.batch_report.v1 document. */
    std::string json() const;
    /** One-line-per-job console summary. */
    std::string summary() const;
};

/** Everything runBatch() needs besides the manifest. */
struct BatchOptions
{
    unsigned jobs = 1;             ///< worker concurrency
    std::string auditBinary;       ///< path to glifs_audit (required)
    std::string cacheDir = kDefaultCacheDir;
    bool noCache = false;
    /** Scratch dir for materialized firmware, worker logs, reports
     *  and checkpoints ("" = <cacheDir>/work). */
    std::string workDir;
    bool verbose = true;           ///< per-job progress lines to stdout
    /** Write-ahead journal path ("" = <workDir>/batch.journal). */
    std::string journalPath;
    /**
     * Journal of a crashed run to resume ("" = fresh run): finished
     * jobs are reported from the journal without re-running; the rest
     * run normally. The journal must belong to the same manifest
     * (fingerprint-checked) — resuming a different fleet's journal is
     * a FatalError, never silently wrong results.
     */
    std::string resumeJournalPath;
    /**
     * Stall watchdog (0 = off): workers whose telemetry pipe carries
     * no bytes for this many seconds get SIGTERM (checkpoint-then-
     * exit), then SIGKILL. Workers heartbeat on the pipe every 0.25 s;
     * their log output does not count.
     */
    double stallTimeoutSeconds = 0;
    /**
     * Live status surface ("" = off): a `glifs.batch_status.v1` JSON
     * document atomically republished (temp + rename) on worker
     * heartbeats and whenever a job starts or finishes, with per-job
     * state/progress/cycle counts and batch rollups
     * (docs/OBSERVABILITY.md, "Streaming batch status").
     */
    std::string statusFilePath;
    /**
     * Merged multi-process Chrome trace ("" = off): each worker runs
     * with --trace-out, and after the batch the per-worker traces are
     * merged into one trace_event JSON with one pid lane per job
     * (open in Perfetto).
     */
    std::string traceMergePath;
};

/**
 * Run every job in @p manifest and aggregate the outcomes. Worker
 * failures (crashes, usage errors) become per-job outcomes, not
 * exceptions; only setup problems (unwritable work dir, missing audit
 * binary) throw FatalError.
 */
BatchReport runBatch(const Manifest &manifest,
                     const BatchOptions &options);

} // namespace glifs::batch

#endif // GLIFS_BATCH_RUNNER_HH
