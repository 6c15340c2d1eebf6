/**
 * @file
 * glifs-batch: fleet verification driver (docs/BATCH.md).
 *
 * Usage:
 *   glifs_batch <manifest> [options]
 *
 * Options:
 *   --jobs N         worker process concurrency (default 1)
 *   --report FILE    write the glifs.batch_report.v1 JSON
 *   --cache-dir DIR  content-addressed result cache location
 *                    (default .glifs-cache)
 *   --no-cache       run every job; store nothing
 *   --work-dir DIR   scratch space for materialized workloads, worker
 *                    logs, per-attempt run reports and checkpoints
 *                    (default <cache-dir>/work)
 *   --audit-bin PATH the glifs_audit worker binary (default: next to
 *                    this executable)
 *   --quiet          suppress per-job progress lines
 *   --journal FILE   write-ahead batch journal location
 *                    (default <work-dir>/batch.journal)
 *   --resume-batch FILE  replay FILE from a crashed run: finished
 *                    jobs are reported from the journal, only the
 *                    rest run (docs/ROBUSTNESS.md, "Crash recovery")
 *   --stall-timeout SECS  SIGTERM (then SIGKILL) workers whose
 *                    telemetry pipe stays silent for SECS (0 = off,
 *                    the default); workers heartbeat on it every
 *                    0.25 s, and their log output does not count
 *   --status-file FILE  continuously publish a glifs.batch_status.v1
 *                    JSON snapshot (atomic rename) with per-job
 *                    state/progress fed by live worker telemetry
 *                    (docs/OBSERVABILITY.md)
 *   --trace-merge FILE  run every worker with --trace-out and merge
 *                    the traces into one multi-process Chrome trace,
 *                    one pid lane per job (open in Perfetto)
 *
 * The manifest format, cache key definition, retry ladder and report
 * schema are specified in docs/BATCH.md; crash recovery and the fault
 * matrix in docs/ROBUSTNESS.md.
 *
 * Exit code: the worst worker exit code across the fleet (the same
 * 0/1/2/3 contract as glifs_audit), or 3 for a bad manifest/flags.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "batch/runner.hh"

using namespace glifs;

namespace
{

constexpr int kExitUsage = 3;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: glifs_batch <manifest> [--jobs N] [--report FILE]\n"
        "                   [--cache-dir DIR] [--no-cache] "
        "[--work-dir DIR]\n"
        "                   [--audit-bin PATH] [--quiet] "
        "[--journal FILE]\n"
        "                   [--resume-batch FILE] "
        "[--stall-timeout SECS]\n"
        "                   [--status-file FILE] "
        "[--trace-merge FILE]\n");
    std::exit(kExitUsage);
}

/** Default worker binary: glifs_audit next to this executable. */
std::string
siblingAuditBinary()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "glifs_audit";
    buf[n] = '\0';
    std::string self(buf);
    size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "glifs_audit";
    return self.substr(0, slash) + "/glifs_audit";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string manifestPath;
    std::string reportPath;
    batch::BatchOptions opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--jobs") {
            std::optional<int64_t> v = parseInt(next());
            if (!v || *v < 1 || *v > 1024)
                usage();
            opts.jobs = static_cast<unsigned>(*v);
        } else if (arg == "--report")
            reportPath = next();
        else if (arg == "--cache-dir")
            opts.cacheDir = next();
        else if (arg == "--no-cache")
            opts.noCache = true;
        else if (arg == "--work-dir")
            opts.workDir = next();
        else if (arg == "--audit-bin")
            opts.auditBinary = next();
        else if (arg == "--quiet")
            opts.verbose = false;
        else if (arg == "--journal")
            opts.journalPath = next();
        else if (arg == "--resume-batch")
            opts.resumeJournalPath = next();
        else if (arg == "--stall-timeout") {
            std::optional<int64_t> v = parseInt(next());
            if (!v || *v < 0)
                usage();
            opts.stallTimeoutSeconds = static_cast<double>(*v);
        } else if (arg == "--status-file")
            opts.statusFilePath = next();
        else if (arg == "--trace-merge")
            opts.traceMergePath = next();
        else if (!arg.empty() && arg[0] == '-')
            usage();
        else if (manifestPath.empty())
            manifestPath = arg;
        else
            usage();
    }
    if (manifestPath.empty())
        usage();
    if (opts.auditBinary.empty())
        opts.auditBinary = siblingAuditBinary();

    try {
        batch::Manifest manifest = batch::loadManifest(manifestPath);
        std::printf("batch '%s': %zu job(s), --jobs %u, cache %s\n",
                    manifest.name.c_str(), manifest.jobs.size(),
                    opts.jobs,
                    opts.noCache ? "disabled"
                                 : opts.cacheDir.c_str());

        batch::BatchReport report = batch::runBatch(manifest, opts);
        std::printf("%s\n", report.summary().c_str());

        if (!reportPath.empty()) {
            std::ofstream out(reportPath);
            if (!out)
                GLIFS_FATAL("cannot write batch report ", reportPath);
            out << report.json();
            if (!out)
                GLIFS_FATAL("error writing batch report ",
                            reportPath);
            std::printf("batch report written to %s\n",
                        reportPath.c_str());
        }
        return report.exitCode();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "glifs_batch: %s\n", e.what());
        return kExitUsage;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "glifs_batch: internal error: %s\n",
                     e.what());
        return kExitUsage;
    }
}
