#include "base/trace.hh"

#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"

namespace glifs
{
namespace trace
{

void
Args::key(const char *k)
{
    if (!body.empty())
        body += ", ";
    body += '"';
    body += k;
    body += "\": ";
}

Args &
Args::add(const char *k, uint64_t v)
{
    key(k);
    body += std::to_string(v);
    return *this;
}

Args &
Args::add(const char *k, int64_t v)
{
    key(k);
    body += std::to_string(v);
    return *this;
}

Args &
Args::add(const char *k, double v)
{
    key(k);
    std::ostringstream oss;
    oss.precision(9);
    oss << v;
    body += oss.str();
    return *this;
}

Args &
Args::add(const char *k, const char *v)
{
    key(k);
    body += jsonQuote(v);
    return *this;
}

Args &
Args::add(const char *k, const std::string &v)
{
    key(k);
    body += jsonQuote(v);
    return *this;
}

Tracer &
Tracer::instance()
{
    // Leaked so tracing outlives static destructors of instrumented
    // modules (mirrors stats::Registry).
    static Tracer *t = new Tracer;
    return *t;
}

void
Tracer::enable(size_t capacity)
{
    ring.assign(capacity == 0 ? 1 : capacity, Event{});
    next = 0;
    count = 0;
    droppedCount = 0;
    laneNames.clear();
    t0 = std::chrono::steady_clock::now();
    on = true;
}

void
Tracer::disable()
{
    on = false;
}

void
Tracer::clear()
{
    next = 0;
    count = 0;
    droppedCount = 0;
}

uint64_t
Tracer::nowUs() const
{
    if (!on)
        return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

void
Tracer::push(Event &&e)
{
    if (count == ring.size()) {
        ++droppedCount;
        // Surfaced in the run report's stats snapshot, so a trace
        // whose ring wrapped is self-describing (docs/OBSERVABILITY.md).
        static stats::Scalar dropped{
            "trace.dropped_events",
            "trace events overwritten because the ring buffer "
            "wrapped (oldest first)"};
        ++dropped;
    } else {
        ++count;
    }
    ring[next] = std::move(e);
    next = (next + 1) % ring.size();
}

void
Tracer::instant(const char *cat, const char *name, std::string args,
                uint32_t tid)
{
    if (!on)
        return;
    Event e;
    e.name = name;
    e.cat = cat;
    e.ph = 'i';
    e.tsUs = nowUs();
    e.tid = tid;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::complete(const char *cat, const char *name, uint64_t tsUs,
                 uint64_t durUs, std::string args, uint32_t tid)
{
    if (!on)
        return;
    Event e;
    e.name = name;
    e.cat = cat;
    e.ph = 'X';
    e.tsUs = tsUs;
    e.durUs = durUs;
    e.tid = tid;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::threadName(uint32_t tid, const std::string &label)
{
    if (!on)
        return;
    for (auto &[id, name] : laneNames) {
        if (id == tid) {
            name = label;
            return;
        }
    }
    laneNames.emplace_back(tid, label);
}

void
Tracer::counter(const char *cat, const char *name, double value)
{
    if (!on)
        return;
    Event e;
    e.name = name;
    e.cat = cat;
    e.ph = 'C';
    e.tsUs = nowUs();
    e.args = Args().add("value", value).str();
    push(std::move(e));
}

std::vector<Event>
Tracer::events() const
{
    std::vector<Event> out;
    out.reserve(count);
    // Oldest-first: when full, the oldest slot is `next`.
    const size_t start = count == ring.size() ? next : 0;
    for (size_t i = 0; i < count; ++i)
        out.push_back(ring[(start + i) % ring.size()]);
    return out;
}

size_t
Tracer::countCategory(const char *cat) const
{
    size_t n = 0;
    const size_t start = count == ring.size() ? next : 0;
    for (size_t i = 0; i < count; ++i) {
        const Event &e = ring[(start + i) % ring.size()];
        if (std::string(e.cat) == cat)
            ++n;
    }
    return n;
}

std::string
Tracer::json() const
{
    std::ostringstream oss;
    oss << "{\n  \"displayTimeUnit\": \"ms\",\n"
        << "  \"traceEvents\": [\n";
    const std::vector<Event> evs = events();
    // Lane-name metadata rows first, so viewers label the per-worker
    // exploration lanes before any of their events render.
    for (const auto &[tid, label] : laneNames) {
        oss << "    {\"name\": \"thread_name\", \"ph\": \"M\", "
            << "\"pid\": 1, \"tid\": " << tid << ", \"args\": {"
            << "\"name\": " << jsonQuote(label) << "}},\n";
    }
    for (size_t i = 0; i < evs.size(); ++i) {
        const Event &e = evs[i];
        oss << "    {\"name\": " << jsonQuote(e.name)
            << ", \"cat\": " << jsonQuote(e.cat) << ", \"ph\": \""
            << e.ph << "\", \"ts\": " << e.tsUs
            << ", \"pid\": 1, \"tid\": " << e.tid;
        if (e.ph == 'X')
            oss << ", \"dur\": " << e.durUs;
        if (e.ph == 'i')
            oss << ", \"s\": \"g\"";
        if (!e.args.empty())
            oss << ", \"args\": {" << e.args << "}";
        oss << "}" << (i + 1 < evs.size() ? "," : "") << "\n";
    }
    oss << "  ]\n}\n";
    return oss.str();
}

void
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        GLIFS_FATAL("cannot write trace file ", path);
    out << json();
    if (!out)
        GLIFS_FATAL("error writing trace file ", path);
}

} // namespace trace
} // namespace glifs
