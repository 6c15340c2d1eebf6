#include "base/telemetry.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "base/hash.hh"
#include "base/stats.hh"

namespace glifs::telemetry
{

namespace
{

/** Worker-side emission counters (docs/OBSERVABILITY.md). */
struct WriterStats
{
    stats::Scalar written{"telemetry.frames_written",
                          "telemetry frames written to the "
                          "scheduler pipe"};
    stats::Scalar dropped{"telemetry.frames_dropped",
                          "telemetry frames dropped (pipe full or "
                          "oversized frame)"};
    stats::Scalar disabled{"telemetry.writer_disabled",
                           "telemetry writers self-disabled on a "
                           "write error (EPIPE: reader gone)"};
};

WriterStats &
writerStats()
{
    static WriterStats s;
    return s;
}

// ---------------------------------------------------------------------
// Little-endian payload encoding (the batch journal's scheme).
// ---------------------------------------------------------------------

void
putU8(std::string &out, uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        putU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::string &out, uint64_t v)
{
    putU32(out, static_cast<uint32_t>(v));
    putU32(out, static_cast<uint32_t>(v >> 32));
}

void
putStr(std::string &out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out.append(s);
}

void
putDouble(std::string &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

/** Bounds-checked reader: `bad` instead of exceptions, so a malformed
 *  payload is handled like a torn frame. */
struct PayloadReader
{
    const std::string &buf;
    size_t pos = 0;
    bool bad = false;

    uint8_t
    u8()
    {
        if (pos + 1 > buf.size()) {
            bad = true;
            return 0;
        }
        return static_cast<uint8_t>(buf[pos++]);
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t{u8()} << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        return lo | (uint64_t{u32()} << 32);
    }

    std::string
    str()
    {
        uint32_t n = u32();
        if (bad || pos + n > buf.size()) {
            bad = true;
            return "";
        }
        std::string s = buf.substr(pos, n);
        pos += n;
        return s;
    }

    double
    real()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
};

std::string
encodePayload(const Event &e)
{
    std::string p;
    switch (e.type) {
      case EventType::Lifecycle:
        putStr(p, e.phase);
        putU32(p, static_cast<uint32_t>(e.exitCode));
        putStr(p, e.verdict);
        break;
      case EventType::Heartbeat:
        putU64(p, e.cycles);
        putDouble(p, e.elapsedSeconds);
        putDouble(p, e.cyclesPerSec);
        putU64(p, e.frontier);
        putU64(p, e.states);
        putU64(p, e.rssBytes);
        putDouble(p, e.budgetUsed);
        break;
      case EventType::StatsSnapshot:
        putU32(p, static_cast<uint32_t>(e.stats.size()));
        for (const auto &[name, value] : e.stats) {
            putStr(p, name);
            putDouble(p, value);
        }
        break;
      case EventType::BudgetUsage:
        putStr(p, e.resource);
        putStr(p, e.severity);
        putStr(p, e.detail);
        break;
    }
    return p;
}

/** Decode one payload; false when the bytes do not parse. */
bool
decodePayload(uint8_t type, const std::string &payload, Event &out)
{
    PayloadReader r{payload};
    switch (static_cast<EventType>(type)) {
      case EventType::Lifecycle:
        out.type = EventType::Lifecycle;
        out.phase = r.str();
        out.exitCode = static_cast<int>(r.u32());
        out.verdict = r.str();
        break;
      case EventType::Heartbeat:
        out.type = EventType::Heartbeat;
        out.cycles = r.u64();
        out.elapsedSeconds = r.real();
        out.cyclesPerSec = r.real();
        out.frontier = r.u64();
        out.states = r.u64();
        out.rssBytes = r.u64();
        out.budgetUsed = r.real();
        break;
      case EventType::StatsSnapshot: {
        out.type = EventType::StatsSnapshot;
        uint32_t n = r.u32();
        if (r.bad || n > kMaxFrame)
            return false;
        out.stats.reserve(n);
        for (uint32_t i = 0; i < n && !r.bad; ++i) {
            std::string name = r.str();
            double value = r.real();
            out.stats.emplace_back(std::move(name), value);
        }
        break;
      }
      case EventType::BudgetUsage:
        out.type = EventType::BudgetUsage;
        out.resource = r.str();
        out.severity = r.str();
        out.detail = r.str();
        break;
      default:
        return false; // unknown type: skip, stay forward-compatible
    }
    return !r.bad;
}

} // namespace

const char *
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::Lifecycle: return "lifecycle";
      case EventType::Heartbeat: return "heartbeat";
      case EventType::StatsSnapshot: return "stats";
      case EventType::BudgetUsage: return "budget";
    }
    return "?";
}

std::string
encodeFrame(const Event &e)
{
    std::string payload = encodePayload(e);
    std::string body;
    putU8(body, static_cast<uint8_t>(e.type));
    body.append(payload);
    std::string frame;
    putU32(frame, static_cast<uint32_t>(payload.size()));
    frame.append(body);
    putU32(frame, crc32(body));
    return frame;
}

Writer &
Writer::instance()
{
    // Leaked like the Tracer/Registry singletons: emission must stay
    // legal from static-destructor-time code paths.
    static Writer *w = new Writer;
    return *w;
}

void
Writer::open(int newFd)
{
    // A vanished reader must surface as EPIPE on write, not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    int flags = ::fcntl(newFd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(newFd, F_SETFL, flags | O_NONBLOCK) < 0) {
        ++writerStats().disabled;
        fd = -1;
        return;
    }
    fd = newFd;
}

void
Writer::emit(const Event &e)
{
    if (fd < 0)
        return;
    std::string frame = encodeFrame(e);
    if (frame.size() > kMaxAtomicFrame) {
        ++writerStats().dropped;
        return;
    }
    // Raw ::write, not faultfs: telemetry is advisory, and routing it
    // through the fault plan would perturb the crash-recovery sweeps'
    // deterministic write counters in every worker.
    while (true) {
        ssize_t n = ::write(fd, frame.data(), frame.size());
        if (n == static_cast<ssize_t>(frame.size())) {
            ++writerStats().written;
            return;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Pipe full: the scheduler fell behind. Heartbeats are
            // periodic, so dropping is strictly better than blocking
            // the analysis loop.
            ++writerStats().dropped;
            return;
        }
        // EPIPE (reader gone), EBADF (no pipe inherited), or a short
        // write that should be impossible under kMaxAtomicFrame: the
        // channel is unusable, degrade silently to a no-op.
        ++writerStats().disabled;
        fd = -1;
        return;
    }
}

void
Reader::feed(const void *data, size_t n, std::vector<Event> &out)
{
    if (poisonedFlag)
        return; // desynced: discard the rest of the stream
    buf.append(static_cast<const char *>(data), n);

    size_t pos = 0;
    while (true) {
        if (buf.size() - pos < 4)
            break;
        uint32_t len = 0;
        for (int i = 0; i < 4; ++i) {
            len |= uint32_t{static_cast<uint8_t>(buf[pos + i])}
                   << (8 * i);
        }
        if (len > kMaxFrame) {
            // An unbelievable length means the length field itself is
            // damaged; the frame boundary is lost and nothing after
            // this point can be trusted.
            poisonedFlag = true;
            ++tornCount;
            buf.clear();
            return;
        }
        const size_t frameSize = 4 + 1 + size_t{len} + 4;
        if (buf.size() - pos < frameSize)
            break; // incomplete: wait for more bytes
        const char *body = buf.data() + pos + 4;
        const size_t bodySize = 1 + size_t{len};
        uint32_t want = 0;
        for (int i = 0; i < 4; ++i) {
            want |= uint32_t{static_cast<uint8_t>(
                        buf[pos + 4 + bodySize + i])}
                    << (8 * i);
        }
        if (crc32(body, bodySize) != want) {
            // Payload damage with an intact boundary: skip just this
            // frame and keep decoding the stream.
            ++crcErrorCount;
            pos += frameSize;
            continue;
        }
        Event e;
        std::string payload(body + 1, len);
        if (decodePayload(static_cast<uint8_t>(body[0]), payload, e))
            ++frameCount, out.push_back(std::move(e));
        else
            ++crcErrorCount;
        pos += frameSize;
    }
    buf.erase(0, pos);
}

bool
Reader::finish()
{
    if (buf.empty())
        return false;
    ++tornCount;
    buf.clear();
    return true;
}

} // namespace glifs::telemetry
