#include "batch/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "base/bytes.hh"
#include "base/faultfs.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/stats.hh"

namespace glifs::batch
{

namespace
{

constexpr char kMagic[8] = {'G', 'L', 'F', 'S', 'J', 'R', 'N', 'L'};

enum RecordType : uint8_t
{
    kRecManifest = 1,
    kRecJobStarted = 2,
    kRecCachePublished = 3,
    kRecJobFinished = 4,
};

/** The largest record replay() will believe (64 MiB). */
constexpr uint32_t kMaxRecord = 1u << 26;

stats::Scalar &
writeFailures()
{
    static stats::Scalar s{"batch.journal_write_failures",
                           "journal appends abandoned because a write "
                           "or fsync failed (journaling disables "
                           "itself)"};
    return s;
}

stats::Scalar &
recordsWritten()
{
    static stats::Scalar s{"batch.journal_records",
                           "records appended to the batch journal"};
    return s;
}

stats::Scalar &
tornReplays()
{
    static stats::Scalar s{"batch.journal_torn_replays",
                           "journal replays that truncated an invalid "
                           "tail"};
    return s;
}

} // namespace

std::string
manifestFingerprint(const Manifest &manifest)
{
    Sha256 h;
    h.section("manifest", manifest.name);
    h.section("retry", manifest.retry.canonical());
    for (const JobSpec &job : manifest.jobs) {
        h.section("job", job.name);
        h.section("firmware", job.firmwareText);
        h.section("policy", job.policyText);
        h.section("budgets", job.budgets.canonical());
    }
    return h.hexDigest();
}

BatchJournal
BatchJournal::create(const std::string &path,
                     const std::string &fingerprint)
{
    // Close-on-exec: a worker must never hold, or write, the journal.
    int fd = faultfs::open(path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644);
    if (fd < 0) {
        GLIFS_WARN("cannot create batch journal ", path, ": ",
                   std::strerror(errno),
                   "; continuing without crash resumability");
        ++writeFailures();
        return BatchJournal{};
    }
    std::string header(kMagic, sizeof(kMagic));
    bytes::Writer(header).u32(kVersion);
    BatchJournal j(fd);
    if (faultfs::writeFull(fd, header.data(), header.size()) < 0) {
        GLIFS_WARN("cannot write batch journal header ", path, ": ",
                   std::strerror(errno),
                   "; continuing without crash resumability");
        ++writeFailures();
        ::close(fd);
        return BatchJournal{};
    }
    std::string payload;
    bytes::Writer(payload).str(fingerprint);
    j.append(kRecManifest, payload);
    return j;
}

BatchJournal::BatchJournal(BatchJournal &&other) noexcept
    : fd(std::exchange(other.fd, -1))
{}

BatchJournal &
BatchJournal::operator=(BatchJournal &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = std::exchange(other.fd, -1);
    }
    return *this;
}

BatchJournal::~BatchJournal()
{
    if (fd >= 0)
        ::close(fd);
}

void
BatchJournal::append(uint8_t type, const std::string &payload)
{
    if (fd < 0)
        return;
    const std::string frame = bytes::encodeFrame(type, payload);
    // One write per record keeps every journal state reachable by a
    // crash at a syscall boundary; the fsync makes the record durable
    // before the action it logs is considered done.
    if (faultfs::writeFull(fd, frame.data(), frame.size()) < 0 ||
        faultfs::fsync(fd) != 0) {
        GLIFS_WARN("batch journal write failed: ",
                   std::strerror(errno),
                   "; journaling disabled for the rest of this run");
        ++writeFailures();
        ::close(fd);
        fd = -1;
        return;
    }
    ++recordsWritten();
}

void
BatchJournal::jobStarted(uint32_t index, const std::string &name,
                         const std::string &cacheKey)
{
    std::string p;
    bytes::Writer w(p);
    w.u32(index);
    w.str(name);
    w.str(cacheKey);
    append(kRecJobStarted, p);
}

void
BatchJournal::cachePublished(uint32_t index,
                             const std::string &cacheKey)
{
    std::string p;
    bytes::Writer w(p);
    w.u32(index);
    w.str(cacheKey);
    append(kRecCachePublished, p);
}

void
BatchJournal::jobFinished(uint32_t index, const JobOutcome &outcome)
{
    std::string p;
    bytes::Writer w(p);
    w.u32(index);
    w.str(outcome.name);
    w.str(outcome.verdict);
    w.u32(static_cast<uint32_t>(outcome.exitCode));
    w.u8(static_cast<uint8_t>(outcome.cache));
    w.u32(outcome.attempts);
    w.u8(outcome.resumed ? 1 : 0);
    w.f64(outcome.wallSeconds);
    w.u64(outcome.violationCount);
    w.str(outcome.violationsJson);
    w.str(outcome.detail);
    append(kRecJobFinished, p);
}

BatchJournal::Replay
BatchJournal::replay(const std::string &path)
{
    Replay out;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        GLIFS_WARN("batch journal ", path,
                   " is missing or unreadable; resuming nothing");
        out.torn = true;
        return out;
    }
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    bytes::Reader header(file);
    const std::string_view magic = header.take(sizeof(kMagic));
    const uint32_t version = header.u32();
    if (header.bad() ||
        magic != std::string_view(kMagic, sizeof(kMagic)) ||
        version != kVersion) {
        GLIFS_WARN("batch journal ", path,
                   " has a torn or foreign header; resuming nothing");
        out.torn = true;
        ++tornReplays();
        return out;
    }

    // Stop at the first record that is short, over-long, fails its CRC
    // or does not parse: everything before it is the valid prefix.
    for (std::string_view rest = header.take(header.remaining());
         !rest.empty();) {
        const bytes::Frame f = bytes::decodeFrame(rest, kMaxRecord);
        if (f.status != bytes::FrameStatus::Ok) {
            out.torn = true;
            break;
        }
        rest.remove_prefix(f.size);

        bytes::Reader r(f.payload);
        switch (f.type) {
          case kRecManifest:
            out.fingerprint = r.str();
            break;
          case kRecJobStarted:
          case kRecCachePublished:
            // Presence-only records: nothing to recover, but their
            // CRCs anchor the valid prefix.
            break;
          case kRecJobFinished: {
            uint32_t index = r.u32();
            JobOutcome o;
            o.name = r.str();
            o.verdict = r.str();
            o.exitCode = static_cast<int>(r.u32());
            uint8_t cacheByte = r.u8();
            if (cacheByte > static_cast<uint8_t>(CacheStatus::Disabled))
                r.fail();
            o.cache = static_cast<CacheStatus>(cacheByte);
            o.attempts = r.u32();
            o.resumed = r.u8() != 0;
            o.wallSeconds = r.f64();
            o.violationCount = r.u64();
            o.violationsJson = r.str();
            o.detail = r.str();
            if (!r.bad())
                out.finished[index] = std::move(o);
            break;
          }
          default:
            break; // unknown record type: skip, stay compatible
        }
        if (r.bad()) {
            out.torn = true;
            break;
        }
        ++out.records;
    }
    if (out.torn) {
        GLIFS_WARN("batch journal ", path, " has an invalid tail; "
                   "replayed the first ", out.records, " record(s)");
        ++tornReplays();
    }
    return out;
}

} // namespace glifs::batch
