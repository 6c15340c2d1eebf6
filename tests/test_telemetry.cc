/**
 * @file
 * Cross-process telemetry tests (docs/OBSERVABILITY.md, "Cross-
 * process telemetry"): wire-framing round trips, torn-frame and
 * bit-flip corruption tolerance, the writer's lossy non-blocking
 * contract (full pipe drops, EPIPE self-disables), faultfs-driven
 * short read/write delivery, and end-to-end batch runs — a worker
 * killed -9 mid-stream leaves a decodable prefix, `--status-file`
 * shows live per-job progress before any job exits and queued jobs
 * as pending, and `--trace-merge` produces one pid lane per job plus
 * every worker's final stats summed in the batch report. Carries the
 * `telemetry` ctest label; CI runs it in both the tier-1 and sanitize
 * jobs.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/faultfs.hh"
#include "base/hash.hh"
#include "base/stats.hh"
#include "base/telemetry.hh"
#include "batch/manifest.hh"

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

using telemetry::Event;
using telemetry::EventType;
using telemetry::Reader;
using telemetry::Writer;

std::string
tempDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "telemetry_" + name;
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

Event
sampleHeartbeat()
{
    Event e;
    e.type = EventType::Heartbeat;
    e.cycles = 123456;
    e.elapsedSeconds = 1.5;
    e.cyclesPerSec = 82304.25;
    e.frontier = 17;
    e.states = 42;
    e.rssBytes = 9ull << 20;
    e.budgetUsed = 0.25;
    return e;
}

Event
sampleStats()
{
    Event e;
    e.type = EventType::StatsSnapshot;
    e.stats = {{"engine.cycles", 961}, {"sim.evals", 1.25e6},
               {"governor.heartbeats", 5}};
    return e;
}

// ------------------------------------------------------------------
// Framing: encode/decode round trips and corruption tolerance.
// ------------------------------------------------------------------

TEST(TelemetryFraming, RoundTripsEveryEventType)
{
    const std::vector<Event> in = {sampleHeartbeat(), sampleStats()};
    std::string stream;
    for (const Event &e : in)
        stream += telemetry::encodeFrame(e);

    Reader r;
    std::vector<Event> out;
    r.feed(stream.data(), stream.size(), out);
    EXPECT_FALSE(r.finish());
    EXPECT_FALSE(r.poisoned());
    EXPECT_EQ(r.crcErrors(), 0u);
    EXPECT_EQ(r.tornFrames(), 0u);
    ASSERT_EQ(out.size(), in.size());

    EXPECT_EQ(out[0].type, EventType::Heartbeat);
    EXPECT_EQ(out[0].cycles, 123456u);
    EXPECT_DOUBLE_EQ(out[0].elapsedSeconds, 1.5);
    EXPECT_DOUBLE_EQ(out[0].cyclesPerSec, 82304.25);
    EXPECT_EQ(out[0].frontier, 17u);
    EXPECT_EQ(out[0].states, 42u);
    EXPECT_EQ(out[0].rssBytes, 9ull << 20);
    EXPECT_DOUBLE_EQ(out[0].budgetUsed, 0.25);

    EXPECT_EQ(out[1].type, EventType::StatsSnapshot);
    EXPECT_EQ(out[1].stats, sampleStats().stats);
}

TEST(TelemetryFraming, ByteAtATimeFeedStillDecodes)
{
    const std::string stream =
        telemetry::encodeFrame(sampleStats()) +
        telemetry::encodeFrame(sampleHeartbeat());
    Reader r;
    std::vector<Event> out;
    for (char c : stream)
        r.feed(&c, 1, out);
    EXPECT_FALSE(r.finish());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, EventType::StatsSnapshot);
    EXPECT_EQ(out[0].stats, sampleStats().stats);
    EXPECT_EQ(out[1].type, EventType::Heartbeat);
    EXPECT_EQ(out[1].cycles, 123456u);
}

/** Every possible truncation point: whole frames before the cut
 *  decode, a residual tail is discarded and counted as torn, and the
 *  reader never misparses or crashes. This is exactly the kill -9
 *  half-frame scenario at the byte level. */
TEST(TelemetryFraming, TruncationSweepNeverMisparses)
{
    std::vector<std::string> frames = {
        telemetry::encodeFrame(sampleHeartbeat()),
        telemetry::encodeFrame(sampleStats()),
        telemetry::encodeFrame(sampleHeartbeat()),
    };
    std::string stream;
    std::vector<size_t> boundaries = {0};
    for (const std::string &f : frames) {
        stream += f;
        boundaries.push_back(stream.size());
    }

    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        Reader r;
        std::vector<Event> out;
        r.feed(stream.data(), cut, out);
        const bool torn = r.finish();

        size_t whole = 0;
        while (whole < frames.size() && boundaries[whole + 1] <= cut)
            ++whole;
        EXPECT_EQ(out.size(), whole) << "cut at byte " << cut;
        EXPECT_EQ(torn, cut != boundaries[whole])
            << "cut at byte " << cut;
        EXPECT_FALSE(r.poisoned()) << "cut at byte " << cut;
        EXPECT_EQ(r.crcErrors(), 0u) << "cut at byte " << cut;
    }
}

/** Any single bit flip past the length prefix fails the CRC; the
 *  frame boundary stays intact, so the next frame still decodes. */
TEST(TelemetryFraming, BodyBitFlipCostsOnlyThatFrame)
{
    const std::string frame = telemetry::encodeFrame(sampleStats());
    const std::string follower =
        telemetry::encodeFrame(sampleHeartbeat());

    for (size_t byte = 4; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string corrupt = frame;
            corrupt[byte] = static_cast<char>(
                static_cast<unsigned char>(corrupt[byte]) ^
                (1u << bit));
            Reader r;
            std::vector<Event> out;
            r.feed(corrupt.data(), corrupt.size(), out);
            r.feed(follower.data(), follower.size(), out);
            EXPECT_FALSE(r.finish());
            EXPECT_EQ(r.crcErrors(), 1u)
                << "byte " << byte << " bit " << bit;
            ASSERT_EQ(out.size(), 1u)
                << "byte " << byte << " bit " << bit;
            EXPECT_EQ(out[0].type, EventType::Heartbeat);
            EXPECT_FALSE(r.poisoned());
        }
    }
}

void
putLe(std::string &out, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/** `u32 len | u8 type | payload | u32 crc32(type + payload)`, built
 *  by hand because encodeFrame only frames the types it knows. */
std::string
rawFrame(uint8_t type, const std::string &payload)
{
    const std::string body = std::string(1, static_cast<char>(type)) +
                             payload;
    std::string frame;
    putLe(frame, payload.size(), 4);
    frame += body;
    putLe(frame, crc32(body), 4);
    return frame;
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

std::string
fromHex(const std::string &hex)
{
    std::string bytes;
    for (size_t i = 0; i + 1 < hex.size(); i += 2)
        bytes.push_back(static_cast<char>(
            std::stoi(hex.substr(i, 2), nullptr, 16)));
    return bytes;
}

/** Type codes without a decoder stay reserved: an intact frame of one
 *  is skipped without counting it as damage, and the stream decodes on
 *  around it. Types 1 (a worker's start and finish) and 4 (a budget
 *  exhaustion) are what an older worker still writes, byte for byte;
 *  5 is the payload a retired type carried. */
TEST(TelemetryFraming, ReservedTypeCostsOnlyThatFrame)
{
    // Type 1: "finished", exit code 1, "violations".
    const std::string finished = fromHex(
        "1e000000" "01" "08000000" "66696e6973686564" "01000000"
        "0a000000" "76696f6c6174696f6e73" "3522f816");
    // Type 4: "cycles", "hard", "60".
    const std::string budget = fromHex(
        "18000000" "04" "06000000" "6379636c6573" "04000000"
        "68617264" "02000000" "3630" "80fde3d8");
    // Type 5: phase, lane, cycles, detail.
    std::string steal;
    putLe(steal, 5, 4);
    steal += "steal";
    putLe(steal, 1, 8);
    putLe(steal, 40, 8);
    putLe(steal, 0, 4);

    const std::string stream = telemetry::encodeFrame(sampleHeartbeat()) +
                               finished + budget + rawFrame(5, steal) +
                               telemetry::encodeFrame(sampleStats());
    Reader r;
    std::vector<Event> out;
    r.feed(stream.data(), stream.size(), out);
    EXPECT_FALSE(r.finish());
    EXPECT_FALSE(r.poisoned());
    EXPECT_EQ(r.tornFrames(), 0u);
    // The frames are intact (their CRC covers the type byte): skipped,
    // not counted as pipe damage.
    EXPECT_EQ(r.crcErrors(), 0u);
    EXPECT_EQ(r.frames(), 2u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, EventType::Heartbeat);
    EXPECT_EQ(out[0].cycles, 123456u);
    EXPECT_EQ(out[1].type, EventType::StatsSnapshot);
    EXPECT_EQ(out[1].stats, sampleStats().stats);
}

/** A known type whose payload does not parse is still counted: the
 *  writer framed something it could not have written. */
TEST(TelemetryFraming, MalformedPayloadOfAKnownTypeIsCounted)
{
    // A Heartbeat three bytes long, where its seven fields need 56;
    // and a StatsSnapshot promising one pair and carrying none. Both
    // behind a valid CRC.
    std::string oneStat;
    putLe(oneStat, 1, 4);
    const std::string stream = rawFrame(2, std::string("\x01\x02\x03", 3)) +
                               rawFrame(3, oneStat);

    Reader r;
    std::vector<Event> out;
    r.feed(stream.data(), stream.size(), out);
    EXPECT_FALSE(r.finish());
    EXPECT_EQ(r.crcErrors(), 2u);
    EXPECT_EQ(r.frames(), 0u);
    EXPECT_TRUE(out.empty());
}

/** Both frame types byte for byte: `u32 len | u8 type | payload |
 *  u32 crc32(type + payload)`, integers little-endian, doubles as
 *  their IEEE-754 bits. */
TEST(TelemetryFraming, GoldenBytes)
{
    Event stats;
    stats.type = EventType::StatsSnapshot;
    stats.stats = {{"a.b", 2.5}};
    // Heartbeat: cycles, elapsed, cycles/s, frontier, states, RSS,
    // budget used.
    EXPECT_EQ(toHex(telemetry::encodeFrame(sampleHeartbeat())),
              "38000000" "02" "40e2010000000000" "000000000000f83f"
              "000000000418f440" "1100000000000000" "2a00000000000000"
              "0000900000000000" "000000000000d03f" "847dd732");
    // StatsSnapshot: one pair, "a.b" = 2.5.
    EXPECT_EQ(toHex(telemetry::encodeFrame(stats)),
              "13000000" "03" "01000000" "03000000" "612e62"
              "0000000000000440" "4b6b08c6");
}

/** An unbelievable length prefix poisons the stream: nothing after
 *  it is trusted (resync would require heuristics that can forge
 *  frames), and the tail counts as torn. */
TEST(TelemetryFraming, OversizeLengthPoisonsStream)
{
    std::string junk;
    const uint32_t bad = telemetry::kMaxFrame + 1;
    junk.append(reinterpret_cast<const char *>(&bad), 4);
    junk += "garbage that should never be parsed";

    Reader r;
    std::vector<Event> out;
    r.feed(junk.data(), junk.size(), out);
    EXPECT_TRUE(r.poisoned());
    EXPECT_EQ(r.tornFrames(), 1u);
    EXPECT_TRUE(out.empty());

    // A poisoned reader ignores even valid frames fed later.
    const std::string good = telemetry::encodeFrame(sampleStats());
    r.feed(good.data(), good.size(), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(r.frames(), 0u);
}

// ------------------------------------------------------------------
// Writer: lossy, non-blocking, self-disabling.
// ------------------------------------------------------------------

double
statValue(const std::string &name)
{
    return stats::Registry::instance().snapshot().value(name);
}

TEST(TelemetryWriter, VanishedReaderSelfDisablesSilently)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Writer &w = Writer::instance();
    w.open(fds[1]);
    ASSERT_TRUE(w.enabled());

    ::close(fds[0]); // the scheduler died; EPIPE on the next write
    const double disabledBefore =
        statValue("telemetry.writer_disabled");
    w.emit(sampleHeartbeat());
    EXPECT_FALSE(w.enabled());
    EXPECT_EQ(statValue("telemetry.writer_disabled"),
              disabledBefore + 1);

    // Emitting while disabled is a no-op, and the process is alive:
    // SIGPIPE must have been ignored, not delivered.
    w.emit(sampleHeartbeat());
    ::close(fds[1]);
}

TEST(TelemetryWriter, FullPipeDropsFrameButStaysEnabled)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Writer &w = Writer::instance();
    w.open(fds[1]); // open() switches the fd to O_NONBLOCK

    // Fill to the last byte: an O_NONBLOCK pipe write under PIPE_BUF
    // is all-or-nothing, so any slack would let the frame through.
    std::string filler(4096, 'x');
    while (::write(fds[1], filler.data(), filler.size()) > 0) {}
    while (::write(fds[1], "x", 1) > 0) {}
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

    const double droppedBefore =
        statValue("telemetry.frames_dropped");
    w.emit(sampleHeartbeat());
    EXPECT_TRUE(w.enabled());
    EXPECT_EQ(statValue("telemetry.frames_dropped"),
              droppedBefore + 1);

    w.disable();
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(TelemetryWriter, OversizeEventDroppedNotTorn)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Writer &w = Writer::instance();
    w.open(fds[1]);

    // A pathological snapshot whose frame exceeds kMaxAtomicFrame:
    // putting it on the pipe non-atomically could interleave torn
    // bytes into the stream, so the writer must drop it whole.
    Event big;
    big.type = EventType::StatsSnapshot;
    for (int i = 0; i < 400; ++i)
        big.stats.emplace_back(
            "padding.stat_name_" + std::to_string(i), i * 1.0);
    ASSERT_GT(telemetry::encodeFrame(big).size(),
              telemetry::kMaxAtomicFrame);

    const double droppedBefore =
        statValue("telemetry.frames_dropped");
    w.emit(big);
    EXPECT_TRUE(w.enabled());
    EXPECT_EQ(statValue("telemetry.frames_dropped"),
              droppedBefore + 1);

    // Nothing, not even a prefix, reached the pipe.
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    char buf[16];
    EXPECT_EQ(::read(fds[0], buf, sizeof(buf)), -1);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

    w.disable();
    ::close(fds[0]);
    ::close(fds[1]);
}

// ------------------------------------------------------------------
// Faultfs grammar: injected short reads/writes against the framing.
// ------------------------------------------------------------------

TEST(TelemetryFaultfs, InjectedShortWriteLeavesTornDecodableTail)
{
    const std::string dir = tempDir("shortwrite");
    const std::string path = dir + "/stream.bin";
    const std::string whole = telemetry::encodeFrame(sampleStats());
    const std::string half = telemetry::encodeFrame(sampleHeartbeat());

    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(faultfs::writeFull(fd, whole.data(), whole.size()),
              static_cast<ssize_t>(whole.size()));
    // The second frame is cut in half mid-write — the same torn tail
    // a kill -9 at that boundary would leave.
    faultfs::setPlan("write:1:short");
    ssize_t n = faultfs::write(fd, half.data(), half.size());
    faultfs::clearPlan();
    ASSERT_GT(n, 0);
    ASSERT_LT(static_cast<size_t>(n), half.size());
    ::close(fd);

    const std::string bytes = readFile(path);
    Reader r;
    std::vector<Event> out;
    r.feed(bytes.data(), bytes.size(), out);
    EXPECT_TRUE(r.finish());
    EXPECT_EQ(r.tornFrames(), 1u);
    EXPECT_FALSE(r.poisoned());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, EventType::StatsSnapshot);
    std::filesystem::remove_all(dir);
}

TEST(TelemetryFaultfs, InjectedShortReadOnlyDelaysFrames)
{
    const std::string dir = tempDir("shortread");
    const std::string path = dir + "/stream.bin";
    const std::string stream =
        telemetry::encodeFrame(sampleStats()) +
        telemetry::encodeFrame(sampleHeartbeat());
    {
        std::ofstream out(path, std::ios::binary);
        out << stream;
    }

    int fd = ::open(path.c_str(), O_RDONLY, 0);
    ASSERT_GE(fd, 0);
    Reader r;
    std::vector<Event> out;
    char buf[4096];
    faultfs::setPlan("read:1:short");
    for (;;) {
        ssize_t n = faultfs::read(fd, buf, sizeof(buf));
        ASSERT_GE(n, 0);
        if (n == 0)
            break;
        r.feed(buf, static_cast<size_t>(n), out);
    }
    faultfs::clearPlan();
    ::close(fd);

    // A short read fragments delivery but loses nothing: the reader
    // buffers the partial frame across feeds.
    EXPECT_FALSE(r.finish());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, EventType::StatsSnapshot);
    EXPECT_EQ(out[1].type, EventType::Heartbeat);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------
// End-to-end: real glifs_audit / glifs_batch processes.
// ------------------------------------------------------------------

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

int
runCmd(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** A worker killed -9 mid-run, after its first heartbeat, leaves a
 *  decodable stream prefix: the frames written before the kill parse
 *  cleanly and the stream never poisons (frames on a pipe are atomic
 *  under kMaxAtomicFrame). */
TEST(TelemetryEndToEnd, SigkillMidRunLeavesDecodableStream)
{
    const std::string dir = tempDir("sigkill");
    // The slowest registry workload: the run must outlast the first
    // heartbeat (0.25 s) by a wide margin to be killed mid-run.
    const std::string asmFile = materializeWorkload(dir, "inSort");

    int telPipe[2];
    ASSERT_EQ(::pipe(telPipe), 0);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(telPipe[0]);
        if (telPipe[1] != 3) {
            ::dup2(telPipe[1], 3);
            ::close(telPipe[1]);
        }
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
        }
        ::execl(GLIFS_AUDIT_BIN, GLIFS_AUDIT_BIN, asmFile.c_str(),
                "--telemetry-fd", "3", (char *)nullptr);
        ::_exit(127);
    }
    ::close(telPipe[1]);

    // Collect frames until the first one (a heartbeat, 0.25 s in)
    // arrives, then kill -9.
    Reader r;
    std::vector<Event> events;
    char buf[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    bool killed = false;
    for (;;) {
        struct pollfd pfd = {telPipe[0], POLLIN, 0};
        ::poll(&pfd, 1, 100);
        ssize_t n = ::read(telPipe[0], buf, sizeof(buf));
        if (n > 0)
            r.feed(buf, static_cast<size_t>(n), events);
        else if (n == 0)
            break; // EOF: the killed worker's end closed
        else if (errno != EAGAIN && errno != EINTR)
            break;
        if (!killed &&
            (!events.empty() ||
             std::chrono::steady_clock::now() > deadline)) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    }
    r.finish();
    ::close(telPipe[0]);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(killed) << "worker exited before it could be killed";
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    EXPECT_FALSE(r.poisoned());
    EXPECT_EQ(r.crcErrors(), 0u);
    ASSERT_GE(events.size(), 1u);
    EXPECT_EQ(events[0].type, EventType::Heartbeat);
    EXPECT_GT(events[0].cycles, 0u);
    std::filesystem::remove_all(dir);
}

/** The acceptance scenario: a live `--jobs 4 --status-file` batch
 *  updates the status JSON with per-job cycle progress *before any
 *  job exits*. Four copies of the slowest registry workload keep the
 *  observation window wide. */
TEST(TelemetryEndToEnd, StatusFileShowsLiveProgressBeforeAnyExit)
{
    const std::string dir = tempDir("livestatus");
    const std::string manifestFile = dir + "/fleet.manifest";
    {
        std::ofstream out(manifestFile);
        out << "batch live fleet\n";
        for (int i = 1; i <= 4; ++i)
            out << "job t" << i << "\n    workload inSort\n";
    }
    const std::string statusFile = dir + "/status.json";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
        }
        ::execl(GLIFS_BATCH_BIN, GLIFS_BATCH_BIN,
                manifestFile.c_str(), "--jobs", "4", "--no-cache",
                "--quiet", "--work-dir", (dir + "/work").c_str(),
                "--cache-dir", (dir + "/cache").c_str(),
                "--audit-bin", GLIFS_AUDIT_BIN, "--status-file",
                statusFile.c_str(), (char *)nullptr);
        ::_exit(127);
    }

    // Poll the status surface like an external dashboard would:
    // atomic republish means every read sees a complete document.
    bool sawLiveProgress = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            pid = -1;
            break;
        }
        const std::string snap = readFile(statusFile);
        if (snap.find("\"jobs_finished\": 0") != std::string::npos &&
            snap.find("\"state\": \"running\"") !=
                std::string::npos) {
            // A running job with nonzero cycle progress.
            size_t pos = snap.find("\"cycles\": ");
            while (pos != std::string::npos && !sawLiveProgress) {
                if (snap[pos + 10] != '0')
                    sawLiveProgress = true;
                pos = snap.find("\"cycles\": ", pos + 1);
            }
            if (sawLiveProgress)
                break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(sawLiveProgress)
        << "status file never showed a running job with cycle "
           "progress while jobs_finished was 0; last snapshot:\n"
        << readFile(statusFile);

    if (pid > 0) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    }
    const std::string final = readFile(statusFile);
    EXPECT_NE(final.find("\"schema\": \"glifs.batch_status.v1\""),
              std::string::npos);
    EXPECT_NE(final.find("\"jobs_finished\": 4"), std::string::npos);
    EXPECT_NE(final.find("\"state\": \"finished\""),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

/** The number after `"key": ` at or after @p from in a glifs JSON
 *  document; -1 when absent. */
double
numberAfter(const std::string &doc, const std::string &key,
            size_t from = 0)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t at = doc.find(needle, from);
    if (from == std::string::npos || at == std::string::npos)
        return -1;
    return std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

/** Stat `<section>.<key>` in a run report's nested stats snapshot. */
double
reportStat(const std::string &report, const std::string &section,
           const std::string &key)
{
    return numberAfter(report, key,
                       report.find("\"" + section + "\": {",
                                   report.find("\"stats\":")));
}

/** `--trace-merge` yields one Chrome trace with a pid lane and a
 *  process_name record per job, and the batch report's "worker_stats"
 *  sums the final stats of every worker: both of them, in full and
 *  exactly, even when they finish before their first heartbeat. */
TEST(TelemetryEndToEnd, MergedTraceHasPerJobLanesAndWorkerStats)
{
    const std::string dir = tempDir("tracemerge");
    const std::string manifestFile = dir + "/fleet.manifest";
    {
        std::ofstream out(manifestFile);
        out << "batch merge fleet\n"
            << "job mult\n    workload mult\n"
            << "job thold\n    workload tHold\n";
    }
    const std::string merged = dir + "/merged.json";
    const std::string report = dir + "/report.json";

    std::ostringstream cmd;
    cmd << GLIFS_BATCH_BIN << " " << manifestFile
        << " --jobs 2 --no-cache --quiet"
        << " --work-dir " << dir << "/work"
        << " --cache-dir " << dir << "/cache"
        << " --audit-bin " << GLIFS_AUDIT_BIN
        << " --trace-merge " << merged << " --report " << report
        << " > /dev/null 2>&1";
    const int exitCode = runCmd(cmd.str());
    // tHold has violations: worst worker exit code 1.
    EXPECT_EQ(exitCode, 1);

    const std::string trace = readFile(merged);
    ASSERT_FALSE(trace.empty());
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    // One process_name metadata record per job, naming its lane.
    EXPECT_NE(trace.find("{\"name\": \"process_name\", \"ph\": "
                         "\"M\", \"pid\": 1, \"tid\": 1, \"args\": "
                         "{\"name\": \"job mult\"}}"),
              std::string::npos);
    EXPECT_NE(trace.find("{\"name\": \"process_name\", \"ph\": "
                         "\"M\", \"pid\": 2, \"tid\": 1, \"args\": "
                         "{\"name\": \"job thold\"}}"),
              std::string::npos);
    // Real worker events landed in both lanes.
    EXPECT_NE(trace.find("\"pid\": 1, \"tid\": 1, \"dur\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"pid\": 2, \"tid\": 1, \"dur\""),
              std::string::npos);
    // No leftover lane from the single-process trace writer.
    EXPECT_EQ(trace.find("\"pid\": 3"), std::string::npos);

    const std::string rep = readFile(report);
    ASSERT_FALSE(rep.empty());
    const size_t workerStats = rep.find("\"worker_stats\"");
    ASSERT_NE(workerStats, std::string::npos);
    EXPECT_EQ(numberAfter(rep, "engine.runs", workerStats), 2);
    const std::string multReport =
        readFile(dir + "/work/job0_mult.report.json");
    const std::string tholdReport =
        readFile(dir + "/work/job1_thold.report.json");
    const double multCycles = reportStat(multReport, "engine", "cycles");
    const double tholdCycles = reportStat(tholdReport, "engine", "cycles");
    EXPECT_GT(multCycles, 0);
    EXPECT_GT(tholdCycles, 0);
    EXPECT_EQ(numberAfter(rep, "engine.cycles", workerStats),
              multCycles + tholdCycles);
    // Exact, also past six significant digits.
    const double multEvals = reportStat(multReport, "sim", "gate_evals");
    const double tholdEvals =
        reportStat(tholdReport, "sim", "gate_evals");
    EXPECT_GT(multEvals + tholdEvals, 1e6);
    EXPECT_EQ(numberAfter(rep, "sim.gate_evals", workerStats),
              multEvals + tholdEvals);
    std::filesystem::remove_all(dir);
}

size_t
countOf(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

/** A job is running from the fork of its worker, not from its
 *  submission: with one worker slot, the two jobs queued behind the
 *  first read pending. */
TEST(TelemetryEndToEnd, QueuedJobsStayPendingUntilSpawned)
{
    const std::string dir = tempDir("queued");
    const std::string manifestFile = dir + "/fleet.manifest";
    {
        std::ofstream out(manifestFile);
        out << "batch queued fleet\n";
        for (int i = 1; i <= 3; ++i)
            out << "job s" << i << "\n    workload inSort\n";
    }
    const std::string statusFile = dir + "/status.json";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
        }
        ::execl(GLIFS_BATCH_BIN, GLIFS_BATCH_BIN,
                manifestFile.c_str(), "--jobs", "1", "--no-cache",
                "--quiet", "--work-dir", (dir + "/work").c_str(),
                "--cache-dir", (dir + "/cache").c_str(),
                "--audit-bin", GLIFS_AUDIT_BIN, "--status-file",
                statusFile.c_str(), (char *)nullptr);
        ::_exit(127);
    }

    // Every snapshot shows at most the one job the slot allows as
    // running; the first that shows one shows the other two pending.
    std::string firstRunning;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        const bool exited = ::waitpid(pid, &status, WNOHANG) == pid;
        const std::string snap = readFile(statusFile);
        EXPECT_LE(countOf(snap, "\"state\": \"running\""), 1u) << snap;
        EXPECT_LE(numberAfter(snap, "jobs_running"), 1) << snap;
        if (firstRunning.empty() &&
            countOf(snap, "\"state\": \"running\"") > 0)
            firstRunning = snap;
        if (exited) {
            pid = -1;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        FAIL() << "batch did not finish";
    }
    ASSERT_FALSE(firstRunning.empty())
        << "status file never showed a running job";
    EXPECT_EQ(countOf(firstRunning, "\"state\": \"running\""), 1u)
        << firstRunning;
    EXPECT_EQ(countOf(firstRunning, "\"state\": \"pending\""), 2u)
        << firstRunning;
    EXPECT_EQ(numberAfter(firstRunning, "jobs_running"), 1)
        << firstRunning;
    const std::string final = readFile(statusFile);
    EXPECT_EQ(countOf(final, "\"state\": \"finished\""), 3u) << final;
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace glifs
