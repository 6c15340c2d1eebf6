/**
 * @file
 * Tests of the batch verification subsystem (docs/BATCH.md): manifest
 * parsing, the content-addressed result cache, the escalating-budget
 * retry ladder, the process-parallel scheduler, and the end-to-end
 * `runBatch` acceptance flow against real `glifs_audit` workers. Also
 * covers the worker CLI contract the batch layer depends on:
 * `--list-workloads` and the policy-file usage-error exit code.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utime.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "base/faultfs.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/telemetry.hh"
#include "base/version.hh"
#include "batch/cache.hh"
#include "batch/journal.hh"
#include "batch/manifest.hh"
#include "batch/retry.hh"
#include "batch/runner.hh"
#include "batch/scheduler.hh"
#include "workloads/workload.hh"

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

using namespace glifs::batch;

std::string
tempDir(const std::string &name)
{
    // Wipe any residue from a previous run: cache/checkpoint state
    // surviving in /tmp would turn first-run cache-miss assertions
    // into spurious hits. Per-process: test_batch_integrity_sanitize
    // re-runs cases concurrently with their discovered twins under
    // `ctest -j`.
    std::string dir = ::testing::TempDir() + "batch_" + name + "_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Backdate @p path's mtime past the stale-temp-sweep threshold. */
void
ageFile(const std::string &path)
{
    const std::time_t old =
        std::time(nullptr) - 2 * kStaleTmpSeconds;
    struct utimbuf times = {old, old};
    ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
}

/** Run a shell command; returns its exit code (-1 on abnormal end). */
int
runCmd(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

// ---------------------------------------------------------------------
// SHA-256 (the cache-key primitive).
// ---------------------------------------------------------------------

TEST(Sha256Test, MatchesFipsVectors)
{
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    // Multi-block message (crosses the 64-byte boundary).
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                        "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, StreamingEqualsOneShot)
{
    Sha256 h;
    h.update("ab");
    h.update("c");
    EXPECT_EQ(h.hexDigest(), sha256Hex("abc"));
}

TEST(Sha256Test, SectionsAreUnambiguous)
{
    Sha256 a;
    a.section("x", "ab");
    a.section("y", "c");
    Sha256 b;
    b.section("x", "a");
    b.section("y", "bc");
    EXPECT_NE(a.hexDigest(), b.hexDigest());
}

// ---------------------------------------------------------------------
// Manifest parsing.
// ---------------------------------------------------------------------

TEST(ManifestTest, ParsesFleetWithDefaultsAndOverrides)
{
    Manifest m = parseManifest(
        "# nightly fleet\n"
        "batch nightly audit\n"
        "retry multiplier 8\n"
        "retry max-attempts 4\n"
        "default max-cycles 100000\n"
        "default deadline 30\n"
        "job a\n"
        "    workload mult\n"
        "job b\n"
        "    workload tea8\n"
        "    max-cycles 500\n"
        "    max-states 64\n");
    EXPECT_EQ(m.name, "nightly audit");
    EXPECT_DOUBLE_EQ(m.retry.multiplier, 8.0);
    EXPECT_EQ(m.retry.maxAttempts, 4u);
    ASSERT_EQ(m.jobs.size(), 2u);

    EXPECT_EQ(m.jobs[0].name, "a");
    EXPECT_EQ(m.jobs[0].workload, "mult");
    EXPECT_FALSE(m.jobs[0].firmwareText.empty());
    EXPECT_EQ(m.jobs[0].budgets.maxCycles, 100000u);
    EXPECT_DOUBLE_EQ(m.jobs[0].budgets.deadlineSeconds, 30.0);

    // Per-job overrides sit on top of the defaults.
    EXPECT_EQ(m.jobs[1].budgets.maxCycles, 500u);
    EXPECT_EQ(m.jobs[1].budgets.maxStates, 64u);
    EXPECT_DOUBLE_EQ(m.jobs[1].budgets.deadlineSeconds, 30.0);

    // Workload firmware text is the registry harness source.
    EXPECT_EQ(m.jobs[0].firmwareText, workloadByName("mult").source());
}

TEST(ManifestTest, ResolvesFirmwareAndPolicyRelativeToManifest)
{
    std::string dir = tempDir("manifest_rel");
    writeFile(dir + "/fw.s", workloadByName("mult").source());
    writeFile(dir + "/labels.pol", "port in 1 tainted\n");
    writeFile(dir + "/m.manifest",
              "job fromfile\n"
              "    firmware fw.s\n"
              "    policy labels.pol\n");
    Manifest m = loadManifest(dir + "/m.manifest");
    ASSERT_EQ(m.jobs.size(), 1u);
    EXPECT_EQ(m.jobs[0].firmwarePath, dir + "/fw.s");
    EXPECT_EQ(m.jobs[0].firmwareText,
              workloadByName("mult").source());
    EXPECT_EQ(m.jobs[0].policyText, "port in 1 tainted\n");
    EXPECT_EQ(m.path, dir + "/m.manifest");
}

TEST(ManifestTest, ErrorsCarryLineNumbers)
{
    auto expectError = [](const std::string &text,
                          const std::string &fragment) {
        try {
            parseManifest(text);
            FAIL() << "expected FatalError for: " << text;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << "message '" << e.what() << "' lacks '" << fragment
                << "'";
        }
    };
    expectError("job a\nworkload mult\njob a\nworkload tea8\n",
                "line 3");
    expectError("job a\nworkload no-such-thing\n", "unknown workload");
    expectError("job a\nworkload mult\nwibble 1\n", "line 3");
    expectError("workload mult\n", "outside a job block");
    expectError("job a\n", "neither a workload nor a firmware");
    expectError("job a\nworkload mult\nfirmware b.s\n",
                "already has a workload");
    expectError("job a\nworkload mult\nmax-cycles -5\n", "line 3");
    // Retry pacing is retired: --jobs caps concurrency.
    expectError("retry backoff 2\njob a\nworkload mult\n", "line 1");
    expectError("batch b\nretry backoff-cap 20\njob a\nworkload mult\n",
                "line 2");
    expectError("# just a comment\n", "empty");
}

// ---------------------------------------------------------------------
// Cache keys and the result cache.
// ---------------------------------------------------------------------

JobSpec
specWith(const std::string &fw, const std::string &pol,
         uint64_t cycles)
{
    JobSpec j;
    j.name = "j";
    j.firmwareText = fw;
    j.policyText = pol;
    j.budgets.maxCycles = cycles;
    return j;
}

TEST(CacheKeyTest, DependsOnContentNotNames)
{
    RetryConfig retry;
    JobSpec a = specWith("mov r1, r2", "", 100);
    JobSpec b = a;
    b.name = "renamed";
    b.firmwarePath = "/somewhere/else.s";
    EXPECT_EQ(cacheKey(a, retry, kGlifsVersion),
              cacheKey(b, retry, kGlifsVersion));
}

TEST(CacheKeyTest, SensitiveToEveryInput)
{
    RetryConfig retry;
    JobSpec base = specWith("mov r1, r2", "port in 1 tainted", 100);
    std::string k = cacheKey(base, retry, kGlifsVersion);

    EXPECT_NE(k, cacheKey(specWith("mov r1, r3", "port in 1 tainted",
                                   100),
                          retry, kGlifsVersion));
    EXPECT_NE(k, cacheKey(specWith("mov r1, r2", "port in 2 tainted",
                                   100),
                          retry, kGlifsVersion));
    EXPECT_NE(k, cacheKey(specWith("mov r1, r2", "port in 1 tainted",
                                   200),
                          retry, kGlifsVersion));
    RetryConfig other;
    other.multiplier = 16;
    EXPECT_NE(k, cacheKey(base, other, kGlifsVersion));
    EXPECT_NE(k, cacheKey(base, retry, "glifs-999"));
}

TEST(ResultCacheTest, RoundTripsAndHonorsDisable)
{
    std::string dir = tempDir("cache_rt");
    ResultCache cache(dir + "/c");
    EXPECT_FALSE(cache.lookup("deadbeef").has_value());
    cache.store("deadbeef", "{\"verdict\": \"secure\"}");
    auto hit = cache.lookup("deadbeef");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "{\"verdict\": \"secure\"}");

    ResultCache off(dir + "/c", false);
    EXPECT_FALSE(off.lookup("deadbeef").has_value());
    off.store("cafe", "{}");
    ResultCache on(dir + "/c");
    EXPECT_FALSE(on.lookup("cafe").has_value());
}

TEST(ResultCacheTest, FailedStoreWarnsAndCountsInsteadOfDying)
{
    std::string dir = tempDir("cache_fail");
    // A plain file where the cache directory should be makes mkdir()
    // fail with EEXIST-but-not-a-directory downstream errors; the
    // store must degrade to a no-op, not abort the batch.
    writeFile(dir + "/c", "not a directory");
    ResultCache cache(dir + "/c");
    const double before = stats::Registry::instance().snapshot().value(
        "batch.cache_publish_failures");
    cache.store("deadbeef", "{}");
    EXPECT_FALSE(cache.lookup("deadbeef").has_value());
    const double after = stats::Registry::instance().snapshot().value(
        "batch.cache_publish_failures");
    EXPECT_GE(after, before + 1.0);
}

TEST(ResultCacheTest, OpenSweepsOnlyAgedTempFiles)
{
    std::string dir = tempDir("cache_sweep");
    const std::string cdir = dir + "/c";
    ::mkdir(cdir.c_str(), 0755);
    {
        ResultCache seed(cdir);
        seed.store("bbbb", "{\"verdict\": \"secure\"}");
    }
    // An *aged* temp file is dead-writer debris; a *fresh* one may
    // belong to a live concurrent writer mid-publish and must
    // survive the sweep. (Created after the seed cache above so its
    // open() sweep doesn't collect them first.)
    writeFile(cdir + "/aaaa.json.tmp.12345", "torn half-write");
    ageFile(cdir + "/aaaa.json.tmp.12345");
    writeFile(cdir + "/ffff.json.tmp.999", "live concurrent write");

    const double before = stats::Registry::instance().snapshot().value(
        "batch.cache_tmp_swept");
    ResultCache cache(cdir);
    EXPECT_FALSE(
        std::filesystem::exists(cdir + "/aaaa.json.tmp.12345"));
    EXPECT_TRUE(
        std::filesystem::exists(cdir + "/ffff.json.tmp.999"));
    EXPECT_GE(stats::Registry::instance().snapshot().value(
                  "batch.cache_tmp_swept"),
              before + 1.0);
    // Published entries are untouched.
    auto hit = cache.lookup("bbbb");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "{\"verdict\": \"secure\"}");

    // A disabled cache must not touch the directory at all.
    writeFile(cdir + "/cccc.json.tmp.777", "torn");
    ageFile(cdir + "/cccc.json.tmp.777");
    ResultCache off(cdir, false);
    EXPECT_TRUE(std::filesystem::exists(cdir + "/cccc.json.tmp.777"));
}

TEST(ResultCacheTest, CorruptEntriesAreCleanMisses)
{
    std::string dir = tempDir("cache_corrupt");
    ResultCache cache(dir + "/c");
    const std::string report = "{\"verdict\": \"violations\"}";
    ASSERT_TRUE(cache.store("feed", report));
    ASSERT_TRUE(cache.lookup("feed").has_value());

    const std::string path = cache.entryPath("feed");
    const double before = stats::Registry::instance().snapshot().value(
        "batch.cache_integrity_misses");

    // Bit-flip one payload byte: checksum mismatch, evicted, miss.
    std::string blob = readFile(path);
    blob[blob.size() - 3] ^= 0x40;
    writeFile(path, blob);
    EXPECT_FALSE(cache.lookup("feed").has_value());
    EXPECT_FALSE(std::filesystem::exists(path));

    // Truncated mid-payload: size mismatch, miss.
    ASSERT_TRUE(cache.store("feed", report));
    blob = readFile(path);
    writeFile(path, blob.substr(0, blob.size() - 5));
    EXPECT_FALSE(cache.lookup("feed").has_value());

    // A pre-integrity (headerless) legacy entry reads as a miss too:
    // re-running the job is safe, trusting unverifiable bytes is not.
    writeFile(path, report);
    EXPECT_FALSE(cache.lookup("feed").has_value());

    // Every byte of payload fuzzing above was a *miss*, never a
    // crash, and each eviction was counted.
    EXPECT_GE(stats::Registry::instance().snapshot().value(
                  "batch.cache_integrity_misses"),
              before + 3.0);

    // A fresh store repairs the slot.
    ASSERT_TRUE(cache.store("feed", report));
    auto hit = cache.lookup("feed");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, report);
}

// ---------------------------------------------------------------------
// Syscall fault injection (src/base/faultfs.hh).
// ---------------------------------------------------------------------

/** Fault plans are process-global; never leak one into other tests. */
class FaultFsTest : public ::testing::Test
{
  protected:
    void TearDown() override { faultfs::clearPlan(); }
};

TEST_F(FaultFsTest, InjectsChosenErrnoOnNthCallOnly)
{
    std::string dir = tempDir("faultfs_errno");
    std::string path = dir + "/f";
    const double before = stats::Registry::instance().snapshot().value(
        "batch.fault_injected");

    faultfs::setPlan("write:2:ENOSPC");
    int fd = faultfs::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(faultfs::write(fd, "aa", 2), 2);    // call 1: clean
    errno = 0;
    EXPECT_EQ(faultfs::write(fd, "bb", 2), -1);   // call 2: injected
    EXPECT_EQ(errno, ENOSPC);
    EXPECT_EQ(faultfs::write(fd, "cc", 2), 2);    // call 3: clean
    ::close(fd);

    EXPECT_EQ(readFile(path), "aacc");
    EXPECT_GE(stats::Registry::instance().snapshot().value(
                  "batch.fault_injected"),
              before + 1.0);
}

TEST_F(FaultFsTest, InjectedShortWriteTearsAndSurfaces)
{
    std::string dir = tempDir("faultfs_short");
    std::string path = dir + "/f";
    faultfs::setPlan("write:1:short");
    int fd = faultfs::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    std::string buf(100, 'x');
    // writeFull must not retry past the injected tear: the caller has
    // to see the failure, with the partial bytes durably on disk.
    EXPECT_EQ(faultfs::writeFull(fd, buf.data(), buf.size()), -1);
    ::close(fd);
    const std::string written = readFile(path);
    EXPECT_GT(written.size(), 0u);
    EXPECT_LT(written.size(), buf.size());
}

TEST_F(FaultFsTest, CrashActionDiesAtTheSyscallBoundary)
{
    std::string dir = tempDir("faultfs_crash");
    std::string path = dir + "/f";
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: the second write must never execute.
        faultfs::setPlan("write:2:crash");
        int fd = faultfs::open(path.c_str(), O_WRONLY | O_CREAT,
                               0644);
        faultfs::write(fd, "one", 3);
        faultfs::write(fd, "two", 3);
        _exit(0); // unreachable when injection works
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 137);
    EXPECT_EQ(readFile(path), "one");
}

TEST_F(FaultFsTest, MalformedPlansAreFatal)
{
    EXPECT_THROW(faultfs::setPlan("bogus:1:ENOSPC"), FatalError);
    EXPECT_THROW(faultfs::setPlan("write:0:ENOSPC"), FatalError);
    EXPECT_THROW(faultfs::setPlan("write:1:EWHATEVER"), FatalError);
    EXPECT_THROW(faultfs::setPlan("write:1"), FatalError);
    EXPECT_THROW(faultfs::setPlan("fork:1:short"), FatalError);
}

TEST_F(FaultFsTest, ClearedPlanIsPassthrough)
{
    std::string dir = tempDir("faultfs_clear");
    std::string path = dir + "/f";
    faultfs::setPlan("write:1:EIO");
    faultfs::clearPlan();
    int fd = faultfs::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(faultfs::writeFull(fd, "ok", 2), 2);
    ::close(fd);
    EXPECT_EQ(readFile(path), "ok");
}

// ---------------------------------------------------------------------
// The write-ahead batch journal (src/batch/journal.hh).
// ---------------------------------------------------------------------

JobOutcome
sampleOutcome(const std::string &name, int code)
{
    JobOutcome o;
    o.name = name;
    o.verdict = code == 1 ? "violations" : "secure";
    o.exitCode = code;
    o.cache = CacheStatus::Miss;
    o.attempts = 2;
    o.resumed = true;
    o.wallSeconds = 1.25;
    o.violationCount = code == 1 ? 3 : 0;
    o.violationsJson = code == 1 ? "[{\"kind\": \"direct\"}]" : "[]";
    o.detail = "sample detail";
    return o;
}

TEST(BatchJournalTest, RoundTripsOutcomes)
{
    std::string dir = tempDir("journal_rt");
    std::string path = dir + "/batch.journal";
    {
        BatchJournal j = BatchJournal::create(path, "fp-abc");
        ASSERT_TRUE(j.enabled());
        j.jobStarted(0, "job-a", "key-a");
        j.jobStarted(1, "job-b", "key-b");
        j.cachePublished(0, "key-a");
        j.jobFinished(0, sampleOutcome("job-a", 0));
        j.jobFinished(1, sampleOutcome("job-b", 1));
    }
    BatchJournal::Replay r = BatchJournal::replay(path);
    EXPECT_FALSE(r.torn);
    EXPECT_EQ(r.fingerprint, "fp-abc");
    EXPECT_EQ(r.records, 6u); // manifest + 2 started + publish + 2 done
    ASSERT_EQ(r.finished.size(), 2u);
    const JobOutcome &a = r.finished.at(0);
    EXPECT_EQ(a.name, "job-a");
    EXPECT_EQ(a.verdict, "secure");
    EXPECT_EQ(a.exitCode, 0);
    EXPECT_EQ(a.attempts, 2u);
    EXPECT_TRUE(a.resumed);
    EXPECT_DOUBLE_EQ(a.wallSeconds, 1.25);
    EXPECT_EQ(a.detail, "sample detail");
    const JobOutcome &b = r.finished.at(1);
    EXPECT_EQ(b.verdict, "violations");
    EXPECT_EQ(b.violationCount, 3u);
    EXPECT_EQ(b.violationsJson, "[{\"kind\": \"direct\"}]");
}

TEST(BatchJournalTest, TornTailTruncatesToLastValidRecord)
{
    std::string dir = tempDir("journal_torn");
    std::string path = dir + "/batch.journal";
    {
        BatchJournal j = BatchJournal::create(path, "fp");
        j.jobFinished(0, sampleOutcome("done", 0));
        j.jobFinished(1, sampleOutcome("torn", 0));
    }
    // Chop bytes off the final record: exactly what a crash mid-write
    // leaves behind. The valid prefix must replay.
    std::string blob = readFile(path);
    writeFile(path, blob.substr(0, blob.size() - 7));
    BatchJournal::Replay r = BatchJournal::replay(path);
    EXPECT_TRUE(r.torn);
    ASSERT_EQ(r.finished.size(), 1u);
    EXPECT_EQ(r.finished.at(0).name, "done");

    // Trailing garbage after valid records is equally survivable.
    writeFile(path, blob + "\x03garbage");
    r = BatchJournal::replay(path);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.finished.size(), 2u);
}

TEST(BatchJournalTest, BitFlipIsCaughtByTheRecordCrc)
{
    std::string dir = tempDir("journal_flip");
    std::string path = dir + "/batch.journal";
    {
        BatchJournal j = BatchJournal::create(path, "fp");
        j.jobFinished(0, sampleOutcome("ok", 0));
        j.jobFinished(1, sampleOutcome("flipped", 1));
    }
    std::string blob = readFile(path);
    blob[blob.size() - 10] ^= 0x01;
    writeFile(path, blob);
    BatchJournal::Replay r = BatchJournal::replay(path);
    EXPECT_TRUE(r.torn);
    // The flipped record (and anything after) is gone; the prefix
    // survives. Crucially: job 1's corrupt outcome is NOT replayed.
    ASSERT_EQ(r.finished.size(), 1u);
    EXPECT_EQ(r.finished.at(0).name, "ok");
}

/** A record whose CRC holds but whose payload does not parse (a
 *  string length past the bytes left) ends the valid prefix like a
 *  torn one: nothing is sized from the bogus length. */
TEST(BatchJournalTest, MalformedPayloadBehindAValidCrcEndsReplay)
{
    std::string dir = tempDir("journal_malformed");
    std::string path = dir + "/batch.journal";
    {
        BatchJournal j = BatchJournal::create(path, "fp");
        j.jobFinished(0, sampleOutcome("kept", 0));
    }
    auto le32 = [](std::string &out, uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    };
    // Type 4 (jobFinished): index 1, then a name claiming 4 GiB.
    const std::string body("\x04\x01\x00\x00\x00\xff\xff\xff\xff", 9);
    std::string record;
    le32(record, static_cast<uint32_t>(body.size() - 1));
    record += body;
    le32(record, crc32(body));
    writeFile(path, readFile(path) + record);

    BatchJournal::Replay r = BatchJournal::replay(path);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.records, 2u); // manifest + the kept outcome
    ASSERT_EQ(r.finished.size(), 1u);
    EXPECT_EQ(r.finished.at(0).name, "kept");
}

TEST(BatchJournalTest, MissingOrForeignFilesReplayNothing)
{
    std::string dir = tempDir("journal_missing");
    BatchJournal::Replay r =
        BatchJournal::replay(dir + "/nonexistent");
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.records, 0u);
    EXPECT_TRUE(r.finished.empty());

    std::string alien = dir + "/alien";
    writeFile(alien, "this is not a journal at all");
    r = BatchJournal::replay(alien);
    EXPECT_TRUE(r.torn);
    EXPECT_TRUE(r.finished.empty());
}

TEST(BatchJournalTest, SelfDisablesOnInjectedWriteFailure)
{
    std::string dir = tempDir("journal_fault");
    std::string path = dir + "/batch.journal";
    const double before = stats::Registry::instance().snapshot().value(
        "batch.journal_write_failures");
    // Header + manifest record are writes 1-2; the first jobFinished
    // hits the injected ENOSPC and must disable the journal, not
    // abort the batch.
    faultfs::setPlan("write:3:ENOSPC");
    BatchJournal j = BatchJournal::create(path, "fp");
    ASSERT_TRUE(j.enabled());
    j.jobFinished(0, sampleOutcome("doomed", 0));
    EXPECT_FALSE(j.enabled());
    j.jobFinished(1, sampleOutcome("ignored", 0)); // no-op, no crash
    faultfs::clearPlan();
    EXPECT_GE(stats::Registry::instance().snapshot().value(
                  "batch.journal_write_failures"),
              before + 1.0);
    // The journal written so far still replays its valid prefix.
    BatchJournal::Replay r = BatchJournal::replay(path);
    EXPECT_EQ(r.fingerprint, "fp");
    EXPECT_TRUE(r.finished.empty());
}

TEST(BatchJournalTest, FingerprintTracksManifestContent)
{
    Manifest m1 = parseManifest("job a\n  workload mult\n", "");
    Manifest m2 = parseManifest("job a\n  workload mult\n", "");
    EXPECT_EQ(manifestFingerprint(m1), manifestFingerprint(m2));
    Manifest m3 =
        parseManifest("job a\n  workload mult\n  deadline 5\n", "");
    EXPECT_NE(manifestFingerprint(m1), manifestFingerprint(m3));
}

std::string
toHex(const std::string &bytes)
{
    static const char *kDigits = "0123456789abcdef";
    std::string hex;
    for (unsigned char c : bytes) {
        hex.push_back(kDigits[c >> 4]);
        hex.push_back(kDigits[c & 0xF]);
    }
    return hex;
}

/** Journal v1 byte for byte: the header and one record of each type,
 *  each record `u32 len | u8 type | payload | u32 crc32`. */
TEST(BatchJournalTest, GoldenBytes)
{
    std::string dir = tempDir("journal_golden");
    std::string path = dir + "/batch.journal";
    {
        BatchJournal j = BatchJournal::create(path, "fp");
        j.jobStarted(2, "job", "k1");
        j.cachePublished(2, "k1");
        JobOutcome o;
        o.name = "job";
        o.verdict = "secure";
        o.exitCode = 0;
        o.cache = CacheStatus::Miss;
        o.attempts = 1;
        o.resumed = false;
        o.wallSeconds = 1.5;
        o.violationCount = 0;
        o.violationsJson = "[]";
        o.detail = "";
        j.jobFinished(2, o);
    }
    const std::string want =
        // magic "GLFSJRNL", version 1
        "474c46534a524e4c" "01000000"
        // manifest: len, type 1, "fp", CRC
        "06000000" "01" "02000000" "6670" "dcc87115"
        // jobStarted: len, type 2, index 2, "job", "k1", CRC
        "11000000" "02" "02000000"
        "03000000" "6a6f62" "02000000" "6b31" "7baf894d"
        // cachePublished: len, type 3, index 2, "k1", CRC
        "0a000000" "03" "02000000" "02000000" "6b31" "8d148f6c"
        // jobFinished: len, type 4, index 2, "job", "secure", exit 0,
        "39000000" "04" "02000000" "03000000" "6a6f62"
        "06000000" "736563757265" "00000000"
        // cache Miss, attempts 1, resumed 0, wallSeconds 1.5 (IEEE-754)
        "01" "01000000" "00" "000000000000f83f"
        // violationCount 0, "[]", "", CRC
        "0000000000000000" "02000000" "5b5d" "00000000" "b37a221c";
    EXPECT_EQ(toHex(readFile(path)), want);
}

// ---------------------------------------------------------------------
// Retry ladder.
// ---------------------------------------------------------------------

TEST(RetryLadderTest, OnlyDegradedWithinCeilingRetries)
{
    RetryConfig cfg;
    cfg.maxAttempts = 3;
    RetryLadder ladder(cfg);
    EXPECT_FALSE(ladder.shouldRetry(0, 1));
    EXPECT_FALSE(ladder.shouldRetry(1, 1));
    EXPECT_FALSE(ladder.shouldRetry(3, 1));
    EXPECT_TRUE(ladder.shouldRetry(2, 1));
    EXPECT_TRUE(ladder.shouldRetry(2, 2));
    EXPECT_FALSE(ladder.shouldRetry(2, 3));
}

TEST(RetryLadderTest, EscalatesConfiguredBudgetsOnly)
{
    RetryConfig cfg;
    cfg.multiplier = 4;
    RetryLadder ladder(cfg);
    JobBudgets base;
    base.maxCycles = 100;
    base.deadlineSeconds = 2;

    JobBudgets first = ladder.budgetsFor(base, 1);
    EXPECT_EQ(first.maxCycles, 100u);
    EXPECT_DOUBLE_EQ(first.deadlineSeconds, 2.0);
    EXPECT_EQ(first.maxStates, 0u);

    JobBudgets third = ladder.budgetsFor(base, 3);
    EXPECT_EQ(third.maxCycles, 1600u);
    EXPECT_DOUBLE_EQ(third.deadlineSeconds, 32.0);
    // Unset dimensions stay unset at every rung.
    EXPECT_EQ(third.maxStates, 0u);
    EXPECT_EQ(third.maxRssMb, 0u);
}

TEST(RetryLadderTest, SaturatesInsteadOfOverflowing)
{
    RetryConfig cfg;
    cfg.multiplier = 1e12;
    cfg.maxAttempts = 10;
    RetryLadder ladder(cfg);
    JobBudgets base;
    base.maxCycles = UINT64_MAX / 2;
    JobBudgets b = ladder.budgetsFor(base, 5);
    EXPECT_EQ(b.maxCycles, UINT64_MAX);
}

// ---------------------------------------------------------------------
// Process scheduler.
// ---------------------------------------------------------------------

ProcTask
shellTask(uint64_t id, const std::string &script)
{
    ProcTask t;
    t.id = id;
    t.argv = {"/bin/sh", "-c", script};
    return t;
}

TEST(SchedulerTest, SurfacesExitCodesInReapOrder)
{
    ProcessScheduler sched(2);
    sched.submit(shellTask(1, "exit 0"));
    sched.submit(shellTask(2, "exit 5"));
    sched.submit(shellTask(3, "exit 2"));
    std::map<uint64_t, int> codes;
    sched.run([&](const ProcResult &r) { codes[r.id] = r.exitCode; });
    ASSERT_EQ(codes.size(), 3u);
    EXPECT_EQ(codes[1], 0);
    EXPECT_EQ(codes[2], 5);
    EXPECT_EQ(codes[3], 2);
}

TEST(SchedulerTest, RunsWorkersConcurrently)
{
    using Clock = std::chrono::steady_clock;
    ProcessScheduler sched(4);
    for (uint64_t i = 0; i < 4; ++i)
        sched.submit(shellTask(i, "sleep 0.4"));
    Clock::time_point start = Clock::now();
    size_t done = 0;
    sched.run([&](const ProcResult &) { ++done; });
    double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    EXPECT_EQ(done, 4u);
    // Serial execution would need >= 1.6s; give slow CI lots of slack.
    EXPECT_LT(wall, 1.2);
}

TEST(SchedulerTest, KillBackstopReportsTimeout)
{
    ProcessScheduler sched(1);
    ProcTask t = shellTask(7, "sleep 30");
    t.killAfterSeconds = 0.3;
    sched.submit(t);
    ProcResult got;
    sched.run([&](const ProcResult &r) { got = r; });
    EXPECT_EQ(got.id, 7u);
    EXPECT_TRUE(got.killedOnTimeout);
    EXPECT_FALSE(got.crashed);
    EXPECT_EQ(got.exitCode, -1);
    EXPECT_LT(got.wallSeconds, 5.0);
}

TEST(SchedulerTest, CallbackMaySubmitFollowUpWork)
{
    ProcessScheduler sched(2);
    sched.submit(shellTask(0, "exit 2"));
    std::vector<uint64_t> order;
    sched.run([&](const ProcResult &r) {
        order.push_back(r.id);
        if (r.id == 0)
            sched.submit(shellTask(1, "exit 0"));
    });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 1u);
}

/** A task with a telemetry pipe, as the batch runner submits each
 *  worker: fd 3 in the shell is the pipe's write end. */
ProcTask
watchedTask(uint64_t id, const std::string &script, double stallSeconds)
{
    ProcTask t = shellTask(id, script);
    t.telemetryPipe = true;
    t.stallTimeoutSeconds = stallSeconds;
    t.killAfterSeconds = 30;
    return t;
}

TEST(SchedulerTest, StallWatchdogEscalatesOnSilentWorker)
{
    ProcessScheduler sched(1);
    // Nothing ever arrives on the pipe: a wedged worker. The watchdog
    // must SIGTERM it long before the 30s backstop.
    sched.submit(watchedTask(1, "exec sleep 30", 0.4));
    ProcResult got;
    sched.run([&](const ProcResult &r) { got = r; });
    EXPECT_TRUE(got.stalled);
    EXPECT_FALSE(got.killedOnTimeout);
    EXPECT_FALSE(got.crashed);
    EXPECT_LT(got.wallSeconds, 10.0);
}

TEST(SchedulerTest, StallWatchdogSparesHeartbeatingWorkers)
{
    std::string dir = tempDir("sched_heartbeat");
    telemetry::Event beat;
    beat.type = telemetry::EventType::Heartbeat;
    beat.cycles = 100;
    const std::string frame = dir + "/beat.bin";
    writeFile(frame, telemetry::encodeFrame(beat));
    // Slower than the stall timeout overall, but a heartbeat frame
    // reaches the pipe every 0.2 s: a live worker must never be
    // escalated on.
    ProcessScheduler sched(1);
    sched.submit(watchedTask(
        1,
        "for i in 1 2 3 4 5 6; do cat " + frame +
            " >&3; sleep 0.2; done",
        0.6));
    uint64_t beats = 0;
    sched.setTelemetrySink(
        [&](uint64_t, const telemetry::Event &) { ++beats; });
    ProcResult got;
    sched.run([&](const ProcResult &r) { got = r; });
    EXPECT_FALSE(got.stalled);
    EXPECT_EQ(got.exitCode, 0);
    EXPECT_EQ(beats, 6u);
}

/** Only the pipe counts: a worker that keeps writing its log but
 *  never its pipe is stalled all the same. */
TEST(SchedulerTest, StallWatchdogIgnoresLogOutput)
{
    std::string dir = tempDir("sched_logonly");
    ProcessScheduler sched(1);
    ProcTask t = watchedTask(
        1, "i=0; while [ $i -lt 300 ]; do echo beat; sleep 0.1; "
           "i=$((i+1)); done",
        0.6);
    t.outputPath = dir + "/beat.log";
    sched.submit(t);
    ProcResult got;
    sched.run([&](const ProcResult &r) { got = r; });
    EXPECT_TRUE(got.stalled);
    EXPECT_FALSE(got.killedOnTimeout);
    EXPECT_LT(got.wallSeconds, 10.0);
    EXPECT_NE(readFile(t.outputPath).find("beat"), std::string::npos);
}

/** A worker whose pipe could not be created has no liveness signal:
 *  the stall watchdog leaves it to the kill backstop. */
TEST(SchedulerTest, StallWatchdogNeedsAPipe)
{
    faultfs::setPlan("pipe:1:EMFILE");
    ProcessScheduler sched(1);
    sched.submit(watchedTask(1, "sleep 1", 0.3));
    ProcResult got;
    sched.run([&](const ProcResult &r) { got = r; });
    faultfs::clearPlan();
    EXPECT_FALSE(got.stalled);
    EXPECT_EQ(got.exitCode, 0);
}

/** The start sink hears of each fork, after the task was queued and
 *  before it is reaped. */
TEST(SchedulerTest, StartSinkFiresWhenTheWorkerForks)
{
    ProcessScheduler sched(1);
    sched.submit(shellTask(1, "exit 0"));
    sched.submit(shellTask(2, "exit 0"));
    std::vector<std::string> order;
    sched.setStartSink([&](uint64_t id) {
        order.push_back("start " + std::to_string(id));
    });
    sched.run([&](const ProcResult &r) {
        order.push_back("done " + std::to_string(r.id));
    });
    EXPECT_EQ(order, (std::vector<std::string>{"start 1", "done 1",
                                               "start 2", "done 2"}));
}

// ---------------------------------------------------------------------
// Worker CLI contract: --list-workloads and policy usage errors.
// ---------------------------------------------------------------------

TEST(AuditCliTest, ListWorkloadsIsMachineReadable)
{
    std::string dir = tempDir("cli_list");
    std::string outFile = dir + "/names.txt";
    ASSERT_EQ(runCmd(std::string(GLIFS_AUDIT_BIN) +
                     " --list-workloads > " + outFile),
              0);
    std::istringstream in(readFile(outFile));
    std::vector<std::string> names;
    std::string line;
    while (std::getline(in, line))
        names.push_back(line);
    EXPECT_EQ(names, workloadNames());
    EXPECT_EQ(names.size(), allWorkloads().size());
}

/** Audit a policy file; returns {exit code, stderr text}. */
std::pair<int, std::string>
auditWithPolicy(const std::string &dir, const std::string &policyText)
{
    std::string polFile = dir + "/p.pol";
    std::string fwFile = dir + "/fw.s";
    std::string errFile = dir + "/err.txt";
    writeFile(polFile, policyText);
    writeFile(fwFile, workloadByName("mult").source());
    int code = runCmd(std::string(GLIFS_AUDIT_BIN) + " " + fwFile +
                      " --policy " + polFile + " > /dev/null 2> " +
                      errFile);
    return {code, readFile(errFile)};
}

TEST(AuditCliTest, PolicyParseErrorsExitCleanlyWithLineNumbers)
{
    std::string dir = tempDir("cli_policy");

    // Malformed label line.
    auto [c1, e1] =
        auditWithPolicy(dir, "port in 1 tainted\n"
                             "mem task_ram 0x0c00 0x0fff sideways\n");
    EXPECT_EQ(c1, 3);
    EXPECT_NE(e1.find("line 2"), std::string::npos) << e1;

    // Duplicate partition name.
    auto [c2, e2] = auditWithPolicy(
        dir, "mem ram 0x0c00 0x0cff tainted\n"
             "mem ram 0x0d00 0x0dff tainted\n");
    EXPECT_EQ(c2, 3);
    EXPECT_NE(e2.find("line 2"), std::string::npos) << e2;
    EXPECT_NE(e2.find("duplicate"), std::string::npos) << e2;

    // Overlapping partitions.
    auto [c3, e3] = auditWithPolicy(
        dir, "code a 0x000 0x0ff tainted\n"
             "code b 0x080 0x1ff tainted\n");
    EXPECT_EQ(c3, 3);
    EXPECT_NE(e3.find("line 2"), std::string::npos) << e3;
    EXPECT_NE(e3.find("overlaps"), std::string::npos) << e3;

    // Wholly empty policy file.
    auto [c4, e4] = auditWithPolicy(dir, "");
    EXPECT_EQ(c4, 3);
    EXPECT_NE(e4.find("empty"), std::string::npos) << e4;
}

// ---------------------------------------------------------------------
// End-to-end batch runs (the acceptance flow).
// ---------------------------------------------------------------------

/** The acceptance manifest: 8 secure-ish jobs + one with violations,
 *  one of them deliberately under-budgeted so the retry ladder must
 *  escalate (x40 rebuilds mult's 60-cycle stub into a converging
 *  2400-cycle budget). */
const char *kFleetManifest =
    "batch acceptance fleet\n"
    "retry multiplier 40\n"
    "retry max-attempts 3\n"
    "job mult\n    workload mult\n"
    "job tea8\n    workload tea8\n"
    "job intFilt\n    workload intFilt\n"
    "job rle\n    workload rle\n"
    "job autocorr\n    workload autocorr\n"
    "job FFT\n    workload FFT\n"
    "job ConvEn\n    workload ConvEn\n"
    "job tight-mult\n    workload mult\n    max-cycles 60\n"
    "job thold\n    workload tHold\n";

BatchOptions
fleetOptions(const std::string &dir)
{
    BatchOptions opts;
    opts.jobs = 4;
    opts.auditBinary = GLIFS_AUDIT_BIN;
    opts.cacheDir = dir + "/cache";
    opts.verbose = false;
    return opts;
}

TEST(BatchEndToEndTest, FleetRunsRetriesCachesAndAggregates)
{
    std::string dir = tempDir("e2e");
    Manifest m = parseManifest(kFleetManifest);
    ASSERT_EQ(m.jobs.size(), 9u);
    BatchOptions opts = fleetOptions(dir);

    // First run: everything misses, workers execute in parallel.
    BatchReport first = runBatch(m, opts);
    ASSERT_EQ(first.jobs.size(), 9u);
    EXPECT_EQ(first.cacheHits(), 0u);
    EXPECT_EQ(first.exitCode(), 1);

    std::map<std::string, const JobOutcome *> byName;
    for (const JobOutcome &j : first.jobs)
        byName[j.name] = &j;

    for (const char *secure :
         {"mult", "tea8", "intFilt", "rle", "autocorr", "FFT",
          "ConvEn"}) {
        ASSERT_NE(byName[secure], nullptr) << secure;
        EXPECT_EQ(byName[secure]->verdict, "secure") << secure;
        EXPECT_EQ(byName[secure]->exitCode, 0) << secure;
        EXPECT_EQ(byName[secure]->attempts, 1u) << secure;
    }

    // The under-budgeted job degraded, was escalated, and converged
    // to a definitive secure verdict (resuming from its checkpoint).
    const JobOutcome *tight = byName["tight-mult"];
    ASSERT_NE(tight, nullptr);
    EXPECT_EQ(tight->verdict, "secure");
    EXPECT_EQ(tight->exitCode, 0);
    EXPECT_GE(tight->attempts, 2u);
    EXPECT_TRUE(tight->resumed);

    const JobOutcome *thold = byName["thold"];
    ASSERT_NE(thold, nullptr);
    EXPECT_EQ(thold->verdict, "violations");
    EXPECT_EQ(thold->exitCode, 1);
    EXPECT_GT(thold->violationCount, 0u);
    EXPECT_NE(thold->violationsJson.find("\"kind\""),
              std::string::npos);

    // Second run: every job is served from the cache, no workers run,
    // and the batch finishes in a fraction of the first run's time.
    BatchReport second = runBatch(m, opts);
    ASSERT_EQ(second.jobs.size(), 9u);
    EXPECT_EQ(second.cacheHits(), 9u);
    EXPECT_EQ(second.exitCode(), 1);
    for (const JobOutcome &j : second.jobs) {
        EXPECT_EQ(j.cache, CacheStatus::Hit) << j.name;
        EXPECT_EQ(j.attempts, 0u) << j.name;
    }
    EXPECT_LT(second.wallSeconds, first.wallSeconds * 0.5);

    // Verdicts survive the cache round trip exactly.
    for (const JobOutcome &j : second.jobs) {
        EXPECT_EQ(j.verdict, byName[j.name]->verdict) << j.name;
        EXPECT_EQ(j.exitCode, byName[j.name]->exitCode) << j.name;
    }
}

TEST(BatchEndToEndTest, NoCacheRunsEveryJob)
{
    std::string dir = tempDir("e2e_nocache");
    Manifest m = parseManifest("job mult\n    workload mult\n");
    BatchOptions opts = fleetOptions(dir);
    opts.noCache = true;

    BatchReport first = runBatch(m, opts);
    ASSERT_EQ(first.jobs.size(), 1u);
    EXPECT_EQ(first.jobs[0].cache, CacheStatus::Disabled);
    EXPECT_EQ(first.jobs[0].attempts, 1u);

    // Nothing was stored, so a second no-cache run executes again.
    BatchReport second = runBatch(m, opts);
    EXPECT_EQ(second.jobs[0].cache, CacheStatus::Disabled);
    EXPECT_EQ(second.jobs[0].attempts, 1u);
}

/** Each attempt is judged by its own run report: its budget stop is
 *  printed once, before the retry, and a retry that dies before writing
 *  a report ends as an error, not with the verdict of the degraded
 *  attempt before it. The worker is a script standing in for
 *  glifs_audit: the first attempt writes a report that degraded twice
 *  (a *-logic path whose detail quotes a partial-stop, then the budget
 *  stop), a checkpoint, and exits 2; the retry, which resumes, dies on
 *  a signal. */
TEST(BatchEndToEndTest, EachAttemptIsReadFromItsOwnReport)
{
    std::string dir = tempDir("e2e_own_report");
    const std::string worker = dir + "/fake_audit.sh";
    writeFile(worker,
              "#!/bin/sh\n"
              "while [ $# -gt 0 ]; do\n"
              "  case \"$1\" in\n"
              "    --stats-json) report=$2; shift ;;\n"
              "    --checkpoint) ckpt=$2; shift ;;\n"
              "    --resume) kill -9 $$ ;;\n"
              "  esac\n"
              "  shift\n"
              "done\n"
              "touch \"$ckpt\"\n"
              "echo '{\"verdict\": \"unknown-degraded\", "
              "\"exit_code\": 2, \"analysis\": {\"violations\": [], "
              "\"degradations\": [{\"level\": \"star-logic-path\", "
              "\"trigger\": \"branch-fanout\", \"detail\": "
              "\"not \\\"level\\\": \\\"partial-stop\\\"\"}, "
              "{\"level\": \"partial-stop\", \"trigger\": "
              "\"cycles\", \"detail\": \"60 simulated cycles\"}]}}' "
              "> \"$report\"\n"
              "exit 2\n");
    ASSERT_EQ(::chmod(worker.c_str(), 0755), 0);
    Manifest m = parseManifest("retry max-attempts 2\n"
                               "job j\n    workload mult\n");
    BatchOptions opts = fleetOptions(dir);
    opts.noCache = true;
    opts.auditBinary = worker;
    opts.verbose = true;

    ::testing::internal::CaptureStdout();
    BatchReport r = runBatch(m, opts);
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string stop =
        "[j] budget exhausted: cycles (60 simulated cycles)\n";
    const size_t stopAt = out.find(stop);
    ASSERT_NE(stopAt, std::string::npos) << out;
    EXPECT_EQ(out.find("budget exhausted", stopAt + stop.size()),
              std::string::npos)
        << out;
    EXPECT_LT(stopAt, out.find("[j] attempt 1 degraded")) << out;

    ASSERT_EQ(r.jobs.size(), 1u);
    EXPECT_EQ(r.jobs[0].attempts, 2u);
    EXPECT_TRUE(r.jobs[0].resumed);
    EXPECT_EQ(r.jobs[0].exitCode, 3);
    EXPECT_EQ(r.jobs[0].verdict, "error");
    EXPECT_EQ(r.jobs[0].detail, "worker crashed (signal)");
}

TEST(BatchEndToEndTest, ReportJsonCarriesTheContract)
{
    std::string dir = tempDir("e2e_json");
    Manifest m =
        parseManifest("batch json check\n"
                      "job mult\n    workload mult\n"
                      "job thold\n    workload tHold\n");
    BatchReport report = runBatch(m, fleetOptions(dir));
    std::string json = report.json();

    for (const char *needle :
         {"\"schema\": \"glifs.batch_report.v1\"", "\"tool_version\"",
          "\"manifest\": \"json check\"", "\"concurrency\": 4",
          "\"jobs_total\": 2", "\"cache_hits\": 0",
          "\"exit_code\": 1", "\"name\": \"mult\"",
          "\"verdict\": \"secure\"", "\"verdict\": \"violations\"",
          "\"violation_count\"", "\"attempts\": 1"}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in:\n" << json;
    }
}

TEST(BatchEndToEndTest, ResumeBatchReportsJournaledJobsWithoutRerun)
{
    std::string dir = tempDir("e2e_resume");
    Manifest m =
        parseManifest("batch resume check\n"
                      "job mult\n    workload mult\n"
                      "job thold\n    workload tHold\n");
    BatchOptions opts = fleetOptions(dir);
    opts.noCache = true; // isolate journal resume from cache hits
    opts.workDir = dir + "/work";

    BatchReport first = runBatch(m, opts);
    ASSERT_EQ(first.exitCode(), 1);
    std::string journal = dir + "/work/batch.journal";
    ASSERT_TRUE(std::filesystem::exists(journal));

    // "Crash recovery": resuming a fully-journaled run re-runs
    // nothing (attempts stay as recorded) and reproduces the report.
    opts.resumeJournalPath = journal;
    BatchReport second = runBatch(m, opts);
    ASSERT_EQ(second.jobs.size(), 2u);
    EXPECT_EQ(second.exitCode(), 1);
    for (size_t i = 0; i < second.jobs.size(); ++i) {
        EXPECT_EQ(second.jobs[i].name, first.jobs[i].name);
        EXPECT_EQ(second.jobs[i].verdict, first.jobs[i].verdict);
        EXPECT_EQ(second.jobs[i].exitCode, first.jobs[i].exitCode);
        EXPECT_EQ(second.jobs[i].attempts, first.jobs[i].attempts);
        EXPECT_EQ(second.jobs[i].violationCount,
                  first.jobs[i].violationCount);
    }
    // The resumed run ran no workers, so it is near-instant.
    EXPECT_LT(second.wallSeconds, first.wallSeconds * 0.5);

    // A second resume works too: the resumed run re-journaled the
    // replayed outcomes into its own journal.
    BatchReport third = runBatch(m, opts);
    EXPECT_EQ(third.exitCode(), 1);
    EXPECT_EQ(third.jobs[1].verdict, "violations");
}

TEST(BatchEndToEndTest, ResumeRefusesAForeignManifestsJournal)
{
    std::string dir = tempDir("e2e_resume_foreign");
    BatchOptions opts = fleetOptions(dir);
    opts.noCache = true;
    opts.workDir = dir + "/work";
    Manifest m1 = parseManifest("job mult\n    workload mult\n");
    runBatch(m1, opts);

    // Same journal, different fleet: silently mixing results from
    // two manifests must be impossible.
    Manifest m2 = parseManifest("job tea8\n    workload tea8\n");
    opts.resumeJournalPath = dir + "/work/batch.journal";
    EXPECT_THROW(runBatch(m2, opts), FatalError);
}

TEST(BatchCliTest, BadManifestExitsUsage)
{
    std::string dir = tempDir("cli_bad");
    writeFile(dir + "/bad.manifest", "job a\n");
    std::string errFile = dir + "/err.txt";
    int code = runCmd(std::string(GLIFS_BATCH_BIN) + " " + dir +
                      "/bad.manifest > /dev/null 2> " + errFile);
    EXPECT_EQ(code, 3);
    EXPECT_NE(readFile(errFile).find("line 1"), std::string::npos);

    EXPECT_EQ(runCmd(std::string(GLIFS_BATCH_BIN) +
                     " /nonexistent.manifest > /dev/null 2>&1"),
              3);
    EXPECT_EQ(runCmd(std::string(GLIFS_BATCH_BIN) +
                     " > /dev/null 2>&1"),
              3);
}

TEST(BatchCliTest, DriverRunsManifestAndWritesReport)
{
    std::string dir = tempDir("cli_run");
    writeFile(dir + "/fleet.manifest",
              "job mult\n    workload mult\n"
              "job tea8\n    workload tea8\n");
    std::string reportFile = dir + "/report.json";
    int code = runCmd(std::string(GLIFS_BATCH_BIN) + " " + dir +
                      "/fleet.manifest --jobs 2 --quiet"
                      " --cache-dir " + dir + "/cache"
                      " --audit-bin " + GLIFS_AUDIT_BIN +
                      " --report " + reportFile + " > /dev/null 2>&1");
    EXPECT_EQ(code, 0);
    std::string json = readFile(reportFile);
    EXPECT_NE(json.find("\"schema\": \"glifs.batch_report.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"jobs_total\": 2"), std::string::npos);
}

} // namespace
} // namespace glifs
