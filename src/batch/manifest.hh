/**
 * @file
 * Batch job manifests (docs/BATCH.md): the input to `glifs_batch`.
 *
 * A manifest is a line-oriented text file ('#' comments) declaring a
 * fleet of verification jobs. Each job names its firmware — either a
 * `.s` file on disk or a built-in workload from the registry — plus an
 * optional policy file and optional per-job budget overrides:
 *
 *   batch    <name...>              # optional manifest name
 *   retry    multiplier   <x>      # escalation factor (default 4)
 *   retry    max-attempts <n>      # retry ceiling     (default 3)
 *   default  <budget> <value>      # budget default for every job
 *   job      <name>                # starts a job block
 *     workload   <registry-name>   #   exactly one of workload /
 *     firmware   <path.s>          #   firmware per job
 *     policy     <path>            #   optional policy file
 *     deadline   <seconds>         #   per-job budget overrides
 *     max-cycles <n>
 *     max-states <n>
 *     max-rss    <MiB>
 *
 * Relative paths resolve against the manifest file's directory, so a
 * manifest checked in next to its firmware keeps working from any
 * working directory. Parsing resolves firmware and policy *content*
 * eagerly: the cache key must be a function of content, not of paths.
 */

#ifndef GLIFS_BATCH_MANIFEST_HH
#define GLIFS_BATCH_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace glifs::batch
{

/**
 * Per-job analysis budgets, mirroring the glifs_audit flags of the
 * same names. 0 means "not set" (the engine default applies).
 */
struct JobBudgets
{
    double deadlineSeconds = 0;
    uint64_t maxCycles = 0;
    uint64_t maxStates = 0;
    uint64_t maxRssMb = 0;

    /**
     * Stable one-line rendering for the cache key: two jobs with the
     * same budgets must canonicalize identically.
     */
    std::string canonical() const;
};

/** Escalating-retry knobs (see src/batch/retry.hh). */
struct RetryConfig
{
    double multiplier = 4.0;   ///< budget scale factor per attempt
    unsigned maxAttempts = 3;  ///< total attempts incl. the first

    /** Verdict-affecting knobs only (feeds the cache key). */
    std::string canonical() const;
};

/** One verification job, with its input content resolved. */
struct JobSpec
{
    std::string name;          ///< unique within the manifest
    std::string workload;      ///< registry name ("" = file firmware)
    std::string firmwarePath;  ///< .s path     ("" = workload)
    std::string firmwareText;  ///< resolved assembly source
    std::string policyPath;    ///< "" = benchmark default policy
    std::string policyText;    ///< resolved policy file content
    JobBudgets budgets;
};

/** A parsed manifest: the job fleet plus fleet-wide settings. */
struct Manifest
{
    std::string name;
    std::string path;          ///< where it was loaded from ("" = text)
    RetryConfig retry;
    std::vector<JobSpec> jobs;
};

/**
 * Parse a manifest document. @p baseDir anchors relative firmware and
 * policy paths ("" = the process working directory).
 * @throws FatalError with a line number on malformed input: unknown
 *         directives, duplicate job names, jobs with zero or two
 *         firmware sources, unknown workloads, unreadable files, and
 *         empty manifests are all rejected.
 */
Manifest parseManifest(const std::string &text,
                       const std::string &baseDir = "");

/** Parse a manifest from a file; relative paths resolve against it. */
Manifest loadManifest(const std::string &path);

} // namespace glifs::batch

#endif // GLIFS_BATCH_MANIFEST_HH
