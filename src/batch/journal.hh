/**
 * @file
 * The write-ahead batch journal (docs/ROBUSTNESS.md, "Crash
 * recovery").
 *
 * A batch run appends one record per event to an append-only journal:
 * the manifest identity up front, then `job started`, `cache
 * published` and `job finished` records as the fleet progresses. Every
 * append goes through the fault-injectable syscall layer
 * (src/base/faultfs.hh) and is fsync'd, so after a SIGKILL at *any*
 * syscall boundary the journal holds a prefix of the run's history
 * with at most one torn final record.
 *
 * `glifs_batch --resume-batch <journal>` replays that prefix: jobs
 * with a `job finished` record are skipped and their outcomes reported
 * verbatim; everything else runs again. A torn or bit-flipped tail is
 * detected by the per-record CRC-32 and truncated to the last valid
 * record — corruption costs re-running at most one job, never a crash
 * and never a wrong verdict.
 *
 * On-disk format (little-endian; src/base/bytes.hh):
 *
 *   "GLFSJRNL"  8-byte magic
 *   u32 version currently 1
 *   records:    one record frame each, shared with the telemetry
 *               stream: u32 payload_len | u8 type | payload |
 *               u32 crc32(type + payload)
 *
 * Journaling is best-effort by design: a journal that cannot be
 * written (ENOSPC, injected fault) disables itself with a warning and
 * a `batch.journal_write_failures` count — the batch still completes,
 * only crash resumability is lost.
 */

#ifndef GLIFS_BATCH_JOURNAL_HH
#define GLIFS_BATCH_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>

#include "batch/runner.hh"

namespace glifs::batch
{

/**
 * Identity of a manifest for journal/run matching: SHA-256 over the
 * manifest name, the retry configuration and every job's name,
 * firmware text, policy text and budgets. Two manifests with the same
 * fingerprint describe the same fleet, wherever the files live.
 */
std::string manifestFingerprint(const Manifest &manifest);

class BatchJournal
{
  public:
    static constexpr uint32_t kVersion = 1;

    /** A disabled journal: every append is a no-op. */
    BatchJournal() = default;

    /**
     * Create (truncate) the journal at @p path and write the header
     * and manifest-identity record. Failure warns and returns a
     * disabled journal — a batch without a journal is still a batch.
     */
    static BatchJournal create(const std::string &path,
                               const std::string &fingerprint);

    BatchJournal(BatchJournal &&other) noexcept;
    BatchJournal &operator=(BatchJournal &&other) noexcept;
    BatchJournal(const BatchJournal &) = delete;
    BatchJournal &operator=(const BatchJournal &) = delete;
    ~BatchJournal();

    /** False once created-disabled or after a write failure. */
    bool enabled() const { return fd >= 0; }

    void jobStarted(uint32_t index, const std::string &name,
                    const std::string &cacheKey);
    void cachePublished(uint32_t index, const std::string &cacheKey);
    void jobFinished(uint32_t index, const JobOutcome &outcome);

    /** What a journal replay recovered. */
    struct Replay
    {
        std::string fingerprint;  ///< manifest identity ("" if torn)
        /** Final outcome per manifest job index. */
        std::map<uint32_t, JobOutcome> finished;
        size_t records = 0;       ///< valid records read
        bool torn = false;        ///< invalid tail was truncated away
    };

    /**
     * Replay @p path tolerantly: a missing file, torn header, torn or
     * bit-flipped trailing record all yield the longest valid prefix
     * (possibly empty) with `torn` set — never an exception. The
     * caller decides whether a fingerprint mismatch is fatal.
     */
    static Replay replay(const std::string &path);

  private:
    explicit BatchJournal(int fd) : fd(fd) {}

    void append(uint8_t type, const std::string &payload);

    int fd = -1;
};

} // namespace glifs::batch

#endif // GLIFS_BATCH_JOURNAL_HH
