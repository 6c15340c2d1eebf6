#include "base/telemetry.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include "base/bytes.hh"
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

std::string
encodePayload(const Event &e)
{
    std::string p;
    bytes::Writer w(p);
    switch (e.type) {
      case EventType::Heartbeat:
        w.u64(e.cycles);
        w.f64(e.elapsedSeconds);
        w.f64(e.cyclesPerSec);
        w.u64(e.frontier);
        w.u64(e.states);
        w.u64(e.rssBytes);
        w.f64(e.budgetUsed);
        break;
      case EventType::StatsSnapshot:
        w.u32(static_cast<uint32_t>(e.stats.size()));
        for (const auto &[name, value] : e.stats) {
            w.str(name);
            w.f64(value);
        }
        break;
    }
    return p;
}

/** Decode one payload; false when the bytes do not parse. */
bool
decodePayload(uint8_t type, std::string_view payload, Event &out)
{
    bytes::Reader r(payload);
    switch (static_cast<EventType>(type)) {
      case EventType::Heartbeat:
        out.type = EventType::Heartbeat;
        out.cycles = r.u64();
        out.elapsedSeconds = r.f64();
        out.cyclesPerSec = r.f64();
        out.frontier = r.u64();
        out.states = r.u64();
        out.rssBytes = r.u64();
        out.budgetUsed = r.f64();
        break;
      case EventType::StatsSnapshot:
        out.type = EventType::StatsSnapshot;
        for (uint32_t i = 0, n = r.count(); i < n && !r.bad(); ++i) {
            std::string name = r.str();
            double value = r.f64();
            out.stats.emplace_back(std::move(name), value);
        }
        break;
      default:
        return false; // feed() skips unknown types before decoding
    }
    return !r.bad();
}

} // namespace

std::string
encodeFrame(const Event &e)
{
    return bytes::encodeFrame(static_cast<uint8_t>(e.type),
                              encodePayload(e));
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

    std::string_view rest(buf);
    while (true) {
        const bytes::Frame f = bytes::decodeFrame(rest, kMaxFrame);
        if (f.status == bytes::FrameStatus::Incomplete)
            break; // wait for more bytes
        if (f.status == bytes::FrameStatus::OverLength) {
            // An unbelievable length means the length field itself is
            // damaged; the frame boundary is lost and nothing after
            // this point can be trusted.
            poisonedFlag = true;
            ++tornCount;
            buf.clear();
            return;
        }
        rest.remove_prefix(f.size);
        if (f.status == bytes::FrameStatus::BadCrc) {
            // Payload damage with an intact boundary: skip just this
            // frame and keep decoding the stream.
            ++crcErrorCount;
            continue;
        }
        if (f.type < static_cast<uint8_t>(EventType::Heartbeat) ||
            f.type > static_cast<uint8_t>(EventType::StatsSnapshot))
            continue; // intact, but a type this reader does not know
        Event e;
        if (decodePayload(f.type, f.payload, e))
            ++frameCount, out.push_back(std::move(e));
        else
            ++crcErrorCount;
    }
    buf.erase(0, buf.size() - rest.size());
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
